//! # genome — gene-sequence assembly (STAMP application 2)
//!
//! Reconstructs a gene from a soup of overlapping segments (§III-B2 of
//! the paper). Two transactional phases:
//!
//! 1. **Deduplication** — all sampled segments are inserted into a hash
//!    set; transactions make concurrent inserts safe.
//! 2. **Matching** — for overlap lengths `s-1` down to `1`, threads
//!    build a table of the unmatched segments' prefixes and claim
//!    suffix→prefix links transactionally (each segment's start and end
//!    can be claimed once).
//!
//! Finally the linked chains are concatenated; with the Table IV
//! parameters the sampled segments tile the gene, so the longest chain
//! reproduces it exactly.
//!
//! Substitution note: the original uses Rabin–Karp hashes to accelerate
//! string comparison. A segment here packs exactly into a 128-bit code
//! (2 bits per nucleotide, up to the 64-nucleotide segments of
//! `genome++`), so prefix/suffix probes are mask/shift arithmetic with
//! identical structure; codes are folded to 64-bit table keys with a
//! strong mix (see `key128` for the birthday-bound argument).
//!
//! Transactional profile (Table III): medium transactions, medium
//! read/write sets, almost all execution time transactional, low
//! contention.

#![warn(missing_docs)]

use stamp_util::{AppReport, GenomeParams, Mt19937};
use tm::{TArray, TCell, TmConfig, TmRuntime};
use tm_ds::{SetupMem, TmHashtable};

/// A generated assembly input.
#[derive(Debug, Clone)]
pub struct Input {
    /// The original gene, one nucleotide (0..4) per entry.
    pub gene: Vec<u8>,
    /// Sampled segments, each packed into a u128 (2 bits per
    /// nucleotide, position 0 in the low bits).
    pub segments: Vec<u128>,
    /// Segment length in nucleotides (≤ 64).
    pub segment_length: u64,
}

/// Pack `s` nucleotides starting at `pos` into a 128-bit code.
fn pack(gene: &[u8], pos: usize, s: u64) -> u128 {
    let mut code = 0u128;
    for i in 0..s as usize {
        code |= (gene[pos + i] as u128) << (2 * i);
    }
    code
}

/// The first `l` nucleotides of a packed segment.
#[inline]
fn prefix(code: u128, l: u64) -> u128 {
    debug_assert!(l < 64);
    code & ((1u128 << (2 * l)) - 1)
}

/// The last `l` nucleotides of a packed segment of length `s`.
#[inline]
fn suffix(code: u128, s: u64, l: u64) -> u128 {
    code >> (2 * (s - l))
}

/// Fold a 128-bit code into the 64-bit key space of the transactional
/// hash table. Collisions are possible in principle but need ~2^32
/// distinct segments to become likely (the largest configuration has
/// 2^24); the original suite makes the same birthday-bound trade with
/// its Rabin–Karp hashes.
#[inline]
fn key128(code: u128) -> u64 {
    let mut z = (code as u64) ^ ((code >> 64) as u64).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the input: a random gene of `gene_length` nucleotides and
/// `num_segments` segments of `segment_length`. As in STAMP's `gene.c`,
/// the sample is constructed so the gene is coverable: every start
/// position appears at least once, and the remaining draws are uniform.
pub fn generate(p: &GenomeParams) -> Input {
    let s = p.segment_length.min(64);
    let g = p.gene_length.max(s + 1);
    let mut rng = Mt19937::new(p.seed);
    let gene: Vec<u8> = (0..g).map(|_| rng.below(4) as u8).collect();
    let positions = g - s + 1;
    let n = p.num_segments.max(positions);
    let mut segments = Vec::with_capacity(n as usize);
    for pos in 0..positions {
        segments.push(pack(&gene, pos as usize, s));
    }
    for _ in positions..n {
        let pos = rng.below(positions);
        segments.push(pack(&gene, pos as usize, s));
    }
    rng.shuffle(&mut segments);
    Input {
        gene,
        segments,
        segment_length: s,
    }
}

/// Decoded assembly result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembly {
    /// Number of unique segments after deduplication.
    pub unique_segments: u64,
    /// Reconstructed chains (longest first), as nucleotide strings.
    pub chains: Vec<Vec<u8>>,
}

impl Assembly {
    /// The longest reconstructed chain.
    pub fn longest(&self) -> &[u8] {
        self.chains.first().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Decode a packed segment to nucleotides.
fn unpack(code: u128, s: u64) -> Vec<u8> {
    (0..s).map(|i| ((code >> (2 * i)) & 3) as u8).collect()
}

/// Sequential reference assembly (same algorithm, single thread).
pub fn assemble_seq(input: &Input) -> Assembly {
    let s = input.segment_length;
    let mut unique: Vec<u128> = {
        let mut set = std::collections::HashSet::new();
        input
            .segments
            .iter()
            .filter(|&&c| set.insert(c))
            .copied()
            .collect()
    };
    unique.sort_unstable(); // deterministic processing order
    let n = unique.len();
    let mut start_claimed = vec![false; n];
    let mut end_claimed = vec![false; n];
    let mut next = vec![usize::MAX; n];
    // Chain bookkeeping as in STAMP's sequencer: a segment with an
    // unclaimed end is its chain's tail and knows the chain head (and
    // vice versa), so links that would close a cycle are refused.
    let mut chain_head: Vec<usize> = (0..n).collect();
    let mut chain_tail: Vec<usize> = (0..n).collect();
    for l in (1..s).rev() {
        let mut prefix_table = std::collections::HashMap::new();
        for (i, &c) in unique.iter().enumerate() {
            if !start_claimed[i] {
                prefix_table.entry(prefix(c, l)).or_insert(i);
            }
        }
        for i in 0..n {
            if end_claimed[i] {
                continue;
            }
            if let Some(&j) = prefix_table.get(&suffix(unique[i], s, l)) {
                if j != i && !start_claimed[j] && chain_head[i] != j {
                    start_claimed[j] = true;
                    end_claimed[i] = true;
                    next[i] = j;
                    let head = chain_head[i];
                    let tail = chain_tail[j];
                    chain_head[tail] = head;
                    chain_tail[head] = tail;
                    prefix_table.remove(&suffix(unique[i], s, l));
                }
            }
        }
    }
    build_chains(&unique, &start_claimed, &next, s)
}

fn build_chains(unique: &[u128], start_claimed: &[bool], next: &[usize], s: u64) -> Assembly {
    let mut chains = Vec::new();
    for i in 0..unique.len() {
        if start_claimed[i] {
            continue; // not a chain head
        }
        let mut seq = unpack(unique[i], s);
        let mut cur = i;
        while next[cur] != usize::MAX {
            let nxt = next[cur];
            // Find the overlap actually used: the largest l with
            // suffix(cur) == prefix(nxt).
            let mut l = s - 1;
            while l > 0 && suffix(unique[cur], s, l) != prefix(unique[nxt], l) {
                l -= 1;
            }
            seq.extend(unpack(unique[nxt], s).into_iter().skip(l as usize));
            cur = nxt;
        }
        chains.push(seq);
    }
    chains.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    Assembly {
        unique_segments: unique.len() as u64,
        chains,
    }
}

/// Run the transactional parallel assembly; returns the assembly and
/// the TM run report.
pub fn assemble_tm(input: &Input, cfg: TmConfig) -> (Assembly, tm::RunReport) {
    let rt = TmRuntime::new(cfg);
    let heap = rt.heap();
    let s = input.segment_length;
    let n_segs = input.segments.len() as u64;
    // A segment code is 128 bits: two parallel word arrays.
    let seg_lo: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    let seg_hi: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    for (i, &c) in input.segments.iter().enumerate() {
        heap.store_elem(&seg_lo, i as u64, c as u64);
        heap.store_elem(&seg_hi, i as u64, (c >> 64) as u64);
    }
    // Phase-1 output: the dedup table and a compact array of unique
    // segments (filled by thread 0 between phases).
    let dedup = {
        let mut m = SetupMem::new(heap);
        TmHashtable::create(&mut m, n_segs.max(16)).expect("setup")
    };
    let unique_lo: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    let unique_hi: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    let unique_count: TCell<u64> = heap.alloc_cell(0u64);
    // Phase-2 state, sized after dedup (upper bound n_segs).
    let start_claimed: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    let end_claimed: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    let next_link: TArray<u64> = heap.alloc_array(n_segs, u64::MAX);
    // Chain head/tail bookkeeping (see `assemble_seq`); initialized to
    // identity by thread 0 once the unique count is known.
    let chain_head: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    let chain_tail: TArray<u64> = heap.alloc_array(n_segs, 0u64);
    // One prefix table per overlap level, created fresh each level by
    // thread 0 (stored as raw handles).
    let level_table: TCell<u64> = heap.alloc_cell(0u64);

    let report = rt.run(|ctx| {
        let tid = ctx.tid() as u64;
        let threads = ctx.threads() as u64;
        // ---- Phase 1: deduplication ----
        let per = n_segs.div_ceil(threads);
        let lo = (tid * per).min(n_segs);
        let hi = ((tid + 1) * per).min(n_segs);
        for i in lo..hi {
            let code =
                (ctx.load(&seg_lo.cell(i)) as u128) | ((ctx.load(&seg_hi.cell(i)) as u128) << 64);
            ctx.atomic(|txn| {
                // Hashing + comparing the segment inside the
                // transaction (the original's Rabin–Karp work).
                txn.work(6 * s);
                dedup.insert(txn, key128(code), i).map(|_| ())
            });
        }
        ctx.barrier();
        if tid == 0 {
            // Compact the unique set (sorted for determinism).
            let reps: Vec<u64> = {
                let mut m = tm_ds::CtxMem::new(ctx);
                dedup
                    .to_vec(&mut m)
                    .expect("ctx access never aborts")
                    .into_iter()
                    .map(|(_, idx)| idx)
                    .collect()
            };
            let mut uniq: Vec<u128> = reps
                .into_iter()
                .map(|idx| {
                    (ctx.load(&seg_lo.cell(idx)) as u128)
                        | ((ctx.load(&seg_hi.cell(idx)) as u128) << 64)
                })
                .collect();
            uniq.sort_unstable();
            for (i, &c) in uniq.iter().enumerate() {
                ctx.store(&unique_lo.cell(i as u64), c as u64);
                ctx.store(&unique_hi.cell(i as u64), (c >> 64) as u64);
                ctx.store(&chain_head.cell(i as u64), i as u64);
                ctx.store(&chain_tail.cell(i as u64), i as u64);
            }
            ctx.store(&unique_count, uniq.len() as u64);
        }
        ctx.barrier();
        let n_unique = ctx.load(&unique_count);
        // ---- Phase 2: overlap matching ----
        for l in (1..s).rev() {
            // Thread 0 creates this level's prefix table.
            if tid == 0 {
                let mut m = tm_ds::CtxMem::new(ctx);
                let table = TmHashtable::create(&mut m, n_unique.max(16)).expect("setup");
                ctx.store(&level_table, encode_table(&table));
            }
            ctx.barrier();
            let table = decode_table(ctx.load(&level_table), n_unique.max(16));
            let per = n_unique.div_ceil(threads);
            let lo = (tid * per).min(n_unique);
            let hi = ((tid + 1) * per).min(n_unique);
            // Insert unmatched starts.
            for i in lo..hi {
                let code = (ctx.load(&unique_lo.cell(i)) as u128)
                    | ((ctx.load(&unique_hi.cell(i)) as u128) << 64);
                ctx.atomic(|txn| {
                    txn.work(5 * l); // prefix hash (Rabin–Karp window)
                    if txn.read_idx(&start_claimed, i)? == 0 {
                        table.insert(txn, key128(prefix(code, l)), i)?;
                    }
                    Ok(())
                });
            }
            ctx.barrier();
            // Probe unmatched ends and claim links.
            for i in lo..hi {
                let code = (ctx.load(&unique_lo.cell(i)) as u128)
                    | ((ctx.load(&unique_hi.cell(i)) as u128) << 64);
                ctx.atomic(|txn| {
                    txn.work(5 * l); // suffix hash + compare
                    if txn.read_idx(&end_claimed, i)? != 0 {
                        return Ok(());
                    }
                    if let Some(j) = table.get(txn, key128(suffix(code, s, l)))? {
                        if j != i && txn.read_idx(&start_claimed, j)? == 0 {
                            // Refuse links that would close a cycle: j
                            // must not be the head of i's own chain.
                            let head = txn.read_idx(&chain_head, i)?;
                            if head == j {
                                return Ok(());
                            }
                            txn.write_idx(&start_claimed, j, 1)?;
                            txn.write_idx(&end_claimed, i, 1)?;
                            txn.write_idx(&next_link, i, j)?;
                            let tail = txn.read_idx(&chain_tail, j)?;
                            txn.write_idx(&chain_head, tail, head)?;
                            txn.write_idx(&chain_tail, head, tail)?;
                            table.remove(txn, key128(suffix(code, s, l)))?;
                        }
                    }
                    Ok(())
                });
            }
            ctx.barrier();
        }
    });

    // Decode the result.
    let n_unique = heap.load_cell(&unique_count);
    let unique: Vec<u128> = (0..n_unique)
        .map(|i| {
            (heap.load_elem(&unique_lo, i) as u128)
                | ((heap.load_elem(&unique_hi, i) as u128) << 64)
        })
        .collect();
    let start_claimed: Vec<bool> = (0..n_unique)
        .map(|i| heap.load_elem(&start_claimed, i) != 0)
        .collect();
    let next: Vec<usize> = (0..n_unique)
        .map(|i| {
            let v = heap.load_elem(&next_link, i);
            if v == u64::MAX {
                usize::MAX
            } else {
                v as usize
            }
        })
        .collect();
    (build_chains(&unique, &start_claimed, &next, s), report)
}

/// Hash tables are two words of metadata; pack the handle into one cell
/// so a fresh table can be published per overlap level.
fn encode_table(t: &TmHashtable) -> u64 {
    // num_buckets is re-derivable; store only the bucket base address.
    t.buckets_base().0
}

fn decode_table(raw: u64, buckets_hint: u64) -> TmHashtable {
    TmHashtable::from_raw(tm::WordAddr(raw), buckets_hint.max(2).next_power_of_two())
}

/// Validate an assembly against the input: unique count correct, every
/// adjacent pair in every chain overlaps correctly, and all unique
/// segments appear exactly once across chains.
pub fn verify(input: &Input, asm: &Assembly) -> bool {
    let s = input.segment_length;
    let expect_unique: std::collections::HashSet<u128> = input.segments.iter().copied().collect();
    if asm.unique_segments != expect_unique.len() as u64 {
        return false;
    }
    // Each chain decomposes into segments: slide a window and check
    // membership of first/last windows at least.
    let mut total: u64 = 0;
    for chain in &asm.chains {
        if (chain.len() as u64) < s {
            return false;
        }
        total += chain.len() as u64;
    }
    // Total nucleotides = sum over chains; each merge of two segments
    // at overlap l contributes s - l extra; bounded by unique * s.
    if total > asm.unique_segments * s {
        return false;
    }
    // The longest chain must reproduce the gene when the input tiles it
    // (our generator guarantees coverage).
    asm.longest() == &input.gene[..]
}

/// Run one genome configuration end to end.
pub fn run(params: &GenomeParams, cfg: TmConfig) -> AppReport {
    let input = generate(params);
    let (asm, report) = assemble_tm(&input, cfg);
    let verified = verify(&input, &asm);
    AppReport::new(
        "genome",
        format!(
            "g={} s={} n={}",
            params.gene_length, params.segment_length, params.num_segments
        ),
        report,
        verified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::SystemKind;

    fn small_params() -> GenomeParams {
        GenomeParams {
            gene_length: 128,
            segment_length: 16,
            num_segments: 1024,
            seed: 0,
        }
    }

    #[test]
    fn pack_prefix_suffix_arithmetic() {
        let gene = vec![0u8, 1, 2, 3, 0, 1, 2, 3];
        let c = pack(&gene, 0, 8);
        assert_eq!(unpack(c, 8), gene);
        assert_eq!(prefix(c, 4), pack(&gene, 0, 4));
        assert_eq!(suffix(c, 8, 4), pack(&gene, 4, 4));
    }

    #[test]
    fn generator_covers_every_position() {
        let p = small_params();
        let input = generate(&p);
        let s = input.segment_length;
        let expect: std::collections::HashSet<u128> = (0..=(input.gene.len() as u64 - s))
            .map(|pos| pack(&input.gene, pos as usize, s))
            .collect();
        let got: std::collections::HashSet<u128> = input.segments.iter().copied().collect();
        assert_eq!(got, expect, "segments must tile the gene exactly");
    }

    #[test]
    fn sequential_assembly_reconstructs_gene() {
        let input = generate(&small_params());
        let asm = assemble_seq(&input);
        assert_eq!(asm.longest(), &input.gene[..]);
        assert!(verify(&input, &asm));
    }

    #[test]
    fn parallel_matches_gene_on_all_systems() {
        let input = generate(&small_params());
        for sys in SystemKind::ALL_TM {
            let (asm, report) = assemble_tm(&input, TmConfig::new(sys, 4));
            assert!(verify(&input, &asm), "bad assembly under {sys}");
            assert!(report.stats.commits > 0);
        }
    }

    #[test]
    fn run_entry_point_and_profile() {
        let rep = run(&small_params(), TmConfig::new(SystemKind::LazyHtm, 2));
        assert!(rep.verified);
        // Table VI: genome spends ~97% of its time in transactions.
        assert!(
            rep.run.stats.time_in_txn() > 0.5,
            "time in txn = {}",
            rep.run.stats.time_in_txn()
        );
    }

    #[test]
    fn sequential_system_runs() {
        let rep = run(&small_params(), TmConfig::sequential());
        assert!(rep.verified);
    }

    #[test]
    fn wide_segments_pack_into_u128() {
        // genome++ uses 64-nucleotide segments.
        let gene: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        let c = pack(&gene, 3, 64);
        assert_eq!(unpack(c, 64), gene[3..67].to_vec());
        assert_eq!(prefix(c, 40), pack(&gene, 3, 40));
        assert_eq!(suffix(c, 64, 40), pack(&gene, 27, 40));
        // key128 separates near-identical codes.
        assert_ne!(key128(c), key128(c ^ 1));
        assert_ne!(key128(c), key128(c ^ (1u128 << 127)));
    }

    #[test]
    fn assembles_with_64nt_segments() {
        let p = GenomeParams {
            gene_length: 256,
            segment_length: 64,
            num_segments: 2048,
            seed: 2,
        };
        let input = generate(&p);
        assert_eq!(input.segment_length, 64);
        let seq = assemble_seq(&input);
        assert_eq!(seq.longest(), &input.gene[..], "sequential 64-nt assembly");
        let (par, _) = assemble_tm(&input, TmConfig::new(SystemKind::EagerHtm, 4));
        assert!(verify(&input, &par), "parallel 64-nt assembly");
    }
}
