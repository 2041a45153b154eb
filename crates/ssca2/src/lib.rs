//! # ssca2 — SSCA2 kernel 1: efficient graph construction (STAMP
//! application 6)
//!
//! The Scalable Synthetic Compact Applications 2 benchmark operates on a
//! large directed weighted multi-graph of cliques linked by inter-clique
//! edges. STAMP focuses on **Kernel 1**, which converts the generated
//! edge tuples into an adjacency-array representation; threads add nodes'
//! edges in parallel and use small transactions to protect the adjacency
//! arrays (§III-B6 of the paper).
//!
//! Transactional profile (Table III): short transactions, small
//! read/write sets, little time in transactions, low contention.

#![warn(missing_docs)]

use stamp_util::{AppReport, Mt19937, Ssca2Params};
use tm::{TArray, TmConfig, TmRuntime};

/// A generated edge-tuple list (kernel 0 output).
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Number of nodes (`2^scale`).
    pub nodes: u64,
    /// Directed edges `(src, dst, weight)`.
    pub edges: Vec<(u32, u32, u32)>,
}

/// Generate the scalable data (kernel 0 / `genScalData`): cliques of
/// random size whose members are fully connected, plus inter-clique
/// links at clique distances up to `max_path_length`, with up to
/// `max_parallel_edges` parallel copies and `prob_unidirectional`
/// controlling whether the reverse edge also appears.
pub fn generate(p: &Ssca2Params) -> EdgeList {
    let nodes = 1u64 << p.scale;
    let mut rng = Mt19937::new(p.seed);
    // Partition nodes into cliques of size 1..=max_clique.
    let max_clique = 1 + p.scale.min(8) as u64;
    let mut clique_of = vec![0u32; nodes as usize];
    let mut clique_start = Vec::new();
    let mut v = 0u64;
    while v < nodes {
        let size = 1 + rng.below(max_clique);
        let end = (v + size).min(nodes);
        clique_start.push(v as u32);
        for u in v..end {
            clique_of[u as usize] = (clique_start.len() - 1) as u32;
        }
        v = end;
    }
    let num_cliques = clique_start.len();
    let clique_end = |c: usize| {
        if c + 1 < num_cliques {
            clique_start[c + 1] as u64
        } else {
            nodes
        }
    };
    let mut edges = Vec::new();
    // Intra-clique: fully connected (forward edge always; reverse with
    // probability 1 - prob_unidirectional of being skipped).
    #[allow(clippy::needless_range_loop)]
    for c in 0..num_cliques {
        let lo = clique_start[c] as u64;
        let hi = clique_end(c);
        for a in lo..hi {
            for b in (a + 1)..hi {
                let w = 1 + rng.below(nodes) as u32;
                edges.push((a as u32, b as u32, w));
                if rng.next_f64() >= p.prob_unidirectional {
                    edges.push((b as u32, a as u32, w));
                }
            }
        }
    }
    // Inter-clique: link clique c to cliques at distance 2^k for paths
    // up to max_path_length, with probability prob_interclique and up to
    // max_parallel_edges parallel copies.
    for c in 0..num_cliques {
        let mut dist = 1usize;
        let mut hops = 0;
        while hops < p.max_path_length && dist < num_cliques {
            if rng.next_f64() < p.prob_interclique {
                let d = (c + dist) % num_cliques;
                let src =
                    clique_start[c] as u64 + rng.below(clique_end(c) - clique_start[c] as u64);
                let dst =
                    clique_start[d] as u64 + rng.below(clique_end(d) - clique_start[d] as u64);
                if src != dst {
                    let copies = 1 + rng.below(p.max_parallel_edges as u64);
                    for _ in 0..copies {
                        let w = 1 + rng.below(nodes) as u32;
                        edges.push((src as u32, dst as u32, w));
                    }
                }
            }
            dist *= 2;
            hops += 1;
        }
    }
    EdgeList { nodes, edges }
}

/// The adjacency-array graph built by kernel 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Out-degree prefix offsets, length `nodes + 1`.
    pub offsets: Vec<u64>,
    /// Destination of each edge, grouped by source node and sorted
    /// within each group (normalization for comparison).
    pub adjacency: Vec<u32>,
    /// Weight of each edge, permuted like `adjacency`.
    pub weights: Vec<u32>,
}

/// Sequential reference implementation of kernel 1.
pub fn compute_graph_seq(input: &EdgeList) -> Graph {
    let n = input.nodes as usize;
    let mut degrees = vec![0u64; n];
    for &(src, _, _) in &input.edges {
        degrees[src as usize] += 1;
    }
    let mut offsets = vec![0u64; n + 1];
    for i in 0..n {
        offsets[i + 1] = offsets[i] + degrees[i];
    }
    let mut fill = vec![0u64; n];
    let mut adjacency = vec![0u32; input.edges.len()];
    let mut weights = vec![0u32; input.edges.len()];
    for &(src, dst, w) in &input.edges {
        let slot = offsets[src as usize] + fill[src as usize];
        fill[src as usize] += 1;
        adjacency[slot as usize] = dst;
        weights[slot as usize] = w;
    }
    normalize(&offsets, &mut adjacency, &mut weights);
    Graph {
        offsets,
        adjacency,
        weights,
    }
}

/// Sort each node's adjacency slice (by destination then weight) so that
/// graphs built with different edge interleavings compare equal.
fn normalize(offsets: &[u64], adjacency: &mut [u32], weights: &mut [u32]) {
    for i in 0..offsets.len() - 1 {
        let lo = offsets[i] as usize;
        let hi = offsets[i + 1] as usize;
        let mut pairs: Vec<(u32, u32)> = adjacency[lo..hi]
            .iter()
            .zip(&weights[lo..hi])
            .map(|(&a, &w)| (a, w))
            .collect();
        pairs.sort_unstable();
        for (k, (a, w)) in pairs.into_iter().enumerate() {
            adjacency[lo + k] = a;
            weights[lo + k] = w;
        }
    }
}

/// Run the transactional parallel kernel 1 and return the graph with
/// the TM run report.
pub fn compute_graph_tm(input: &EdgeList, cfg: TmConfig) -> (Graph, tm::RunReport) {
    let rt = TmRuntime::new(cfg);
    let heap = rt.heap();
    let n = input.nodes;
    let m = input.edges.len() as u64;
    let src_arr: TArray<u32> = heap.alloc_array(m.max(1), 0u32);
    let dst_arr: TArray<u32> = heap.alloc_array(m.max(1), 0u32);
    let w_arr: TArray<u32> = heap.alloc_array(m.max(1), 0u32);
    for (i, &(s, d, w)) in input.edges.iter().enumerate() {
        heap.store_elem(&src_arr, i as u64, s);
        heap.store_elem(&dst_arr, i as u64, d);
        heap.store_elem(&w_arr, i as u64, w);
    }
    let degrees: TArray<u64> = heap.alloc_array(n, 0u64);
    let offsets: TArray<u64> = heap.alloc_array(n + 1, 0u64);
    let fill: TArray<u64> = heap.alloc_array(n, 0u64);
    let adjacency: TArray<u32> = heap.alloc_array(m.max(1), 0u32);
    let weights_out: TArray<u32> = heap.alloc_array(m.max(1), 0u32);

    let report = rt.run(|ctx| {
        let tid = ctx.tid() as u64;
        let threads = ctx.threads() as u64;
        let per = m.div_ceil(threads);
        let lo = (tid * per).min(m);
        let hi = ((tid + 1) * per).min(m);
        // Phase A: transactional degree counting. The per-edge work
        // charge models the tuple streaming of the original kernel
        // (strided array reads that mostly miss in cache).
        for e in lo..hi {
            let src = ctx.load(&src_arr.cell(e)) as u64;
            ctx.work(140);
            ctx.atomic(|txn| {
                let d = txn.read_idx(&degrees, src)?;
                txn.write_idx(&degrees, src, d + 1)
            });
        }
        ctx.barrier();
        // Thread 0: prefix sum (cheap sequential scan).
        if tid == 0 {
            let mut acc = 0u64;
            for i in 0..n {
                ctx.store(&offsets.cell(i), acc);
                acc += ctx.load(&degrees.cell(i));
            }
            ctx.store(&offsets.cell(n), acc);
        }
        ctx.barrier();
        // Phase B: transactional adjacency insertion.
        for e in lo..hi {
            let src = ctx.load(&src_arr.cell(e)) as u64;
            let dst = ctx.load(&dst_arr.cell(e));
            let w = ctx.load(&w_arr.cell(e));
            let base = ctx.load(&offsets.cell(src));
            ctx.work(140);
            ctx.atomic(|txn| {
                let idx = txn.read_idx(&fill, src)?;
                txn.write_idx(&fill, src, idx + 1)?;
                txn.write_idx(&adjacency, base + idx, dst)?;
                txn.write_idx(&weights_out, base + idx, w)
            });
        }
    });

    let offsets_v: Vec<u64> = (0..=n).map(|i| heap.load_elem(&offsets, i)).collect();
    let mut adjacency_v: Vec<u32> = (0..m).map(|i| heap.load_elem(&adjacency, i)).collect();
    let mut weights_v: Vec<u32> = (0..m).map(|i| heap.load_elem(&weights_out, i)).collect();
    normalize(&offsets_v, &mut adjacency_v, &mut weights_v);
    (
        Graph {
            offsets: offsets_v,
            adjacency: adjacency_v,
            weights: weights_v,
        },
        report,
    )
}

/// Run one ssca2 configuration end to end (generate, sequential
/// reference, transactional run, verify).
pub fn run(params: &Ssca2Params, cfg: TmConfig) -> AppReport {
    let input = generate(params);
    let seq = compute_graph_seq(&input);
    let (par, report) = compute_graph_tm(&input, cfg);
    let verified = par == seq;
    AppReport::new(
        "ssca2",
        format!("s={} edges={}", params.scale, input.edges.len()),
        report,
        verified,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::SystemKind;

    fn small_params() -> Ssca2Params {
        Ssca2Params {
            scale: 8,
            prob_interclique: 1.0,
            prob_unidirectional: 1.0,
            max_path_length: 3,
            max_parallel_edges: 3,
            seed: 3,
        }
    }

    #[test]
    fn generator_is_deterministic_and_plausible() {
        let p = small_params();
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.nodes, 256);
        assert!(a.edges.len() > a.nodes as usize, "graph too sparse");
        for &(s, d, w) in &a.edges {
            assert!((s as u64) < a.nodes && (d as u64) < a.nodes);
            assert!(w > 0);
        }
    }

    #[test]
    fn sequential_kernel1_builds_consistent_arrays() {
        let input = generate(&small_params());
        let g = compute_graph_seq(&input);
        assert_eq!(*g.offsets.last().unwrap(), input.edges.len() as u64);
        assert_eq!(g.adjacency.len(), input.edges.len());
        // Every edge appears exactly once in its source's slice.
        let mut expect: Vec<(u32, u32, u32)> = input.edges.clone();
        expect.sort_unstable();
        let mut got = Vec::new();
        for s in 0..input.nodes as usize {
            for k in g.offsets[s] as usize..g.offsets[s + 1] as usize {
                got.push((s as u32, g.adjacency[k], g.weights[k]));
            }
        }
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_matches_sequential_on_all_systems() {
        let input = generate(&small_params());
        let seq = compute_graph_seq(&input);
        for sys in SystemKind::ALL_TM {
            let (par, report) = compute_graph_tm(&input, TmConfig::new(sys, 4));
            assert_eq!(par, seq, "graph mismatch under {sys}");
            assert!(
                report.stats.commits >= 2 * input.edges.len() as u64,
                "missing transactions under {sys}"
            );
        }
    }

    #[test]
    fn run_entry_point_verifies() {
        let rep = run(&small_params(), TmConfig::new(SystemKind::EagerStm, 2));
        assert!(rep.verified);
        // Table VI: ssca2 has tiny read/write sets (10 and 4 lines at
        // the 90th percentile) and short transactions.
        assert!(rep.run.stats.p90_read_lines() <= 12);
        assert!(rep.run.stats.p90_write_lines() <= 6);
    }
}
