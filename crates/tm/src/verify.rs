//! `tm::verify` — an opt-in serializability sanitizer for the TM engine.
//!
//! When enabled (`TmConfig::verify(true)`, or `--verify` on an app
//! binary), every transactional heap access is routed through a global
//! verify mutex that pairs the access with an exact *(value, version)*
//! observation against a shadow copy of the heap. Each committed
//! install gets a globally unique sequence number (unique even under
//! eager undo, because rollback restores the *previous shadow entry*,
//! never re-issues a number). From the per-transaction observation logs
//! the finalize pass builds the direct serialization graph:
//!
//! * **WR** edges: the committed writer of an observed version precedes
//!   its reader,
//! * **WW** edges: consecutive committed installs on the same address,
//!   in install order,
//! * **RW** edges: a reader precedes the committed writer that next
//!   overwrites what it read.
//!
//! A cycle among *committed* transactions means the execution is not
//! serializable — the report names the transaction pair(s), the
//! conflicting addresses, and the owning TM system. On top of the
//! graph the sanitizer checks:
//!
//! * **dirty reads** — a committed transaction observed a version
//!   installed by an attempt that never committed (eager in-place
//!   write leaked past an abort),
//! * **zombie / unstable reads** — one attempt observed two different
//!   versions of the same address. Committed attempts must be stable
//!   on every system; for the two STMs (which promise opacity via
//!   read-time validation) even *aborted* attempts are checked,
//! * **bypassed writes** — the real heap value diverged from the
//!   shadow value, i.e. somebody wrote memory without going through a
//!   `Txn`/`ThreadCtx` barrier while transactions were live,
//! * **early-release audit** — after [`crate::txn::Txn::early_release`]
//!   drops a line from the read set, the same transaction must not
//!   write that line without re-reading it first (labyrinth's
//!   revalidation pattern re-arms the line; a blind write would be
//!   invisible to conflict detection).
//!
//! The sanitizer is a pure observer: it charges **zero** simulated
//! cycles, so `sim_cycles` figures are bit-identical with verification
//! on or off. Its cost is real wall-clock time (a global mutex on the
//! instrumented paths plus the finalize pass) and is reported in
//! [`crate::stats::VerifyCost`].
//!
//! Deadlock discipline: code holding the verify mutex never touches
//! the scheduler, lock table, directory, or commit token — it only
//! reads/writes the heap word under inspection and the shadow map.
//! (The converse — taking the verify mutex while holding a directory
//! shard lock, as the lazy HTM's per-line commit does — is fine.)

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use parking_lot::Mutex;

use crate::config::SystemKind;
use crate::heap::TmHeap;
use crate::stats::VerifyCost;
use crate::{LineAddr, WordAddr};

/// Who installed a shadow entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    /// Pre-existing memory, setup-phase writes, or instrumented
    /// non-transactional stores (`ThreadCtx::store`): not a graph node.
    Env,
    /// A transactional attempt, by its globally unique attempt id.
    Attempt(u64),
}

/// Current shadow state of one heap word.
#[derive(Debug, Clone, Copy)]
struct ShadowEntry {
    /// Globally unique install sequence number.
    seq: u64,
    /// Who installed it.
    writer: Writer,
    /// The value that the heap must hold while this entry is current.
    value: u64,
}

/// One read observation: `(address, version)` plus provenance.
#[derive(Debug, Clone, Copy)]
struct ReadObs {
    addr: u64,
    seq: u64,
    writer: Writer,
    /// Set when the transaction later early-releases the line; released
    /// observations are excluded from edges and consistency checks.
    released: bool,
}

/// One committed install: `(address, version)`.
#[derive(Debug, Clone, Copy)]
struct WriteObs {
    addr: u64,
    seq: u64,
}

/// A read observation made under the verify mutex but not yet
/// confirmed. STM read barriers validate the lock word *after* the
/// raw load; only reads that actually return to the application are
/// recorded, so the barrier confirms the pending observation after
/// its post-load recheck passes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRead {
    obs: ReadObs,
    line: u64,
}

/// Per-thread, per-attempt observation log. Lives in `ThreadCtx`;
/// reset by [`begin_attempt`], harvested by [`commit_attempt`].
#[derive(Debug, Default)]
pub(crate) struct VerifyTxn {
    /// Globally unique id of the current attempt (0 = none yet).
    attempt: u64,
    reads: Vec<ReadObs>,
    writes: Vec<WriteObs>,
    /// Shadow entries displaced by eager in-place writes, in push
    /// order; restored (in reverse) on rollback, mirroring the
    /// engine's own undo log one-for-one.
    shadow_undo: Vec<(u64, ShadowEntry)>,
    /// line -> indices into `reads` that an early release of that line
    /// would retroactively mark as released.
    line_reads: HashMap<u64, Vec<usize>>,
    /// Lines released by `early_release` and not re-read since.
    released_lines: HashSet<u64>,
    /// Addresses written while their line sat in `released_lines`.
    release_violations: Vec<u64>,
}

/// A committed transaction's harvested log.
#[derive(Debug)]
struct CommittedTxn {
    attempt: u64,
    tid: usize,
    reads: Vec<ReadObs>,
    writes: Vec<WriteObs>,
    release_violations: Vec<u64>,
}

#[derive(Debug, Default)]
struct VerifyInner {
    next_seq: u64,
    next_attempt: u64,
    shadow: HashMap<u64, ShadowEntry>,
    committed: Vec<CommittedTxn>,
    /// Violations detected while the run is still going (bypassed
    /// writes, zombie reads in aborted STM attempts).
    runtime_violations: Vec<Violation>,
    /// Addresses already reported as bypassed (dedup).
    bypass_reported: HashSet<u64>,
}

/// Global sanitizer state, one per [`crate::runtime::TmRuntime::run`]
/// phase (it hangs off `Global`).
#[derive(Debug, Default)]
pub struct VerifyState {
    inner: Mutex<VerifyInner>,
}

/// Identifies one transaction in a report: which attempt, on which
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnId {
    /// Globally unique attempt id (assigned at `begin_attempt`).
    pub attempt: u64,
    /// The thread that ran it.
    pub tid: usize,
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}@tid{}", self.attempt, self.tid)
    }
}

/// The kind of a direct-serialization-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Writer → reader of the installed version.
    WriteRead,
    /// Earlier installer → next installer of the same address.
    WriteWrite,
    /// Reader → the committed writer that next overwrote what it read.
    ReadWrite,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeKind::WriteRead => "WR",
            EdgeKind::WriteWrite => "WW",
            EdgeKind::ReadWrite => "RW",
        })
    }
}

/// One edge of the serialization graph, with the address that induced
/// it (the witness used in cycle reports).
#[derive(Debug, Clone, Copy)]
pub struct EdgeWitness {
    /// Source transaction.
    pub from: TxnId,
    /// Destination transaction (must serialize after `from`).
    pub to: TxnId,
    /// Dependency kind.
    pub kind: EdgeKind,
    /// The heap word the two transactions conflict on.
    pub addr: u64,
}

impl fmt::Display for EdgeWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -{}(0x{:x})-> {}",
            self.from, self.kind, self.addr, self.to
        )
    }
}

/// One correctness violation found by the sanitizer.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The committed transactions are not serializable: the direct
    /// serialization graph contains this cycle.
    SerializationCycle {
        /// The transactions on the cycle, in order (the last edge
        /// closes back to the first entry).
        txns: Vec<TxnId>,
        /// One witness edge per consecutive pair.
        edges: Vec<EdgeWitness>,
    },
    /// A committed transaction read a version installed by an attempt
    /// that never committed.
    DirtyRead {
        /// The committed reader.
        reader: TxnId,
        /// The heap word involved.
        addr: u64,
        /// Attempt id of the aborted writer whose value leaked.
        writer_attempt: u64,
    },
    /// One attempt observed two different versions of the same word —
    /// its reads fit no single snapshot (zombie read / opacity
    /// violation).
    UnstableRead {
        /// The attempt with inconsistent reads (`attempt` id is still
        /// meaningful for aborted attempts).
        txn: TxnId,
        /// The word read twice.
        addr: u64,
        /// Version seen first.
        first_seq: u64,
        /// Different version seen later in the same attempt.
        second_seq: u64,
        /// Whether the attempt went on to commit.
        committed: bool,
    },
    /// The heap value diverged from the shadow value: something wrote
    /// memory without going through a `Txn`/`ThreadCtx` barrier.
    BypassedWrite {
        /// The word that diverged.
        addr: u64,
        /// What the heap actually held.
        heap_value: u64,
        /// What the last instrumented write installed.
        shadow_value: u64,
    },
    /// A transaction wrote a word whose line it had early-released
    /// without re-reading it first — the write is invisible to
    /// conflict detection.
    EarlyReleaseWrite {
        /// The offending transaction.
        txn: TxnId,
        /// The word written on the still-released line.
        addr: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SerializationCycle { txns, edges } => {
                write!(f, "serialization cycle among {} txns: ", txns.len())?;
                for (i, e) in edges.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Violation::DirtyRead {
                reader,
                addr,
                writer_attempt,
            } => write!(
                f,
                "dirty read: {reader} observed 0x{addr:x} from aborted attempt T{writer_attempt}"
            ),
            Violation::UnstableRead {
                txn,
                addr,
                first_seq,
                second_seq,
                committed,
            } => write!(
                f,
                "unstable read: {txn} ({}) saw 0x{addr:x} at version {first_seq} then {second_seq}",
                if *committed { "committed" } else { "aborted" }
            ),
            Violation::BypassedWrite {
                addr,
                heap_value,
                shadow_value,
            } => write!(
                f,
                "bypassed write: heap[0x{addr:x}] = {heap_value} but last barriered write installed {shadow_value}"
            ),
            Violation::EarlyReleaseWrite { txn, addr } => write!(
                f,
                "early-release misuse: {txn} wrote 0x{addr:x} on a line it released without re-reading"
            ),
        }
    }
}

/// The sanitizer's end-of-run report, attached to
/// [`crate::runtime::RunReport`] when verification is enabled.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The TM system the run used (named in violation reports).
    pub system: SystemKind,
    /// Bookkeeping cost of the verification pass.
    pub cost: VerifyCost,
    /// Everything the sanitizer found; empty means the run was clean.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} txns, {} edges, {:?}: ",
            self.system.label(),
            self.cost.txns_checked,
            self.cost.edges,
            self.cost.wall
        )?;
        if self.is_clean() {
            f.write_str("clean")
        } else {
            writeln!(f, "{} violation(s)", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

impl VerifyInner {
    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Look up (seeding on first touch) the shadow entry for `addr`,
    /// cross-checking it against the real heap value. A divergence is
    /// a bypassed write: report it once per address and re-seed so the
    /// run can continue producing meaningful observations.
    fn entry_checked(&mut self, addr: u64, heap_value: u64) -> ShadowEntry {
        let seq = self.next_seq + 1;
        match self.shadow.entry(addr) {
            MapEntry::Occupied(mut e) => {
                let cur = *e.get();
                if cur.value != heap_value {
                    if self.bypass_reported.insert(addr) {
                        self.runtime_violations.push(Violation::BypassedWrite {
                            addr,
                            heap_value,
                            shadow_value: cur.value,
                        });
                    }
                    let fresh = ShadowEntry {
                        seq,
                        writer: Writer::Env,
                        value: heap_value,
                    };
                    e.insert(fresh);
                    self.next_seq = seq;
                    fresh
                } else {
                    cur
                }
            }
            MapEntry::Vacant(e) => {
                let fresh = ShadowEntry {
                    seq,
                    writer: Writer::Env,
                    value: heap_value,
                };
                e.insert(fresh);
                self.next_seq = seq;
                fresh
            }
        }
    }
}

/// Assign the next attempt id and clear the per-attempt log.
pub(crate) fn begin_attempt(vs: &VerifyState, vtx: &mut VerifyTxn) {
    let mut inner = vs.inner.lock();
    inner.next_attempt += 1;
    vtx.attempt = inner.next_attempt;
    drop(inner);
    vtx.reads.clear();
    vtx.writes.clear();
    vtx.shadow_undo.clear();
    vtx.line_reads.clear();
    vtx.released_lines.clear();
    vtx.release_violations.clear();
}

fn make_pending(
    inner: &mut VerifyInner,
    vtx: &VerifyTxn,
    addr: WordAddr,
    heap: &TmHeap,
) -> (u64, PendingRead) {
    let value = heap.raw_load(addr);
    let entry = inner.entry_checked(addr.0, value);
    let _ = vtx; // provenance lives in the entry; vtx is the eventual sink
    (
        value,
        PendingRead {
            obs: ReadObs {
                addr: addr.0,
                seq: entry.seq,
                writer: entry.writer,
                released: false,
            },
            line: addr.line().0,
        },
    )
}

/// Transactional read, observation recorded immediately (HTM/hybrid
/// barriers, where the raw load is the last step of the read).
pub(crate) fn read_record(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
) -> u64 {
    let mut inner = vs.inner.lock();
    let (value, pending) = make_pending(&mut inner, vtx, addr, heap);
    drop(inner);
    confirm_read(vtx, pending);
    value
}

/// Transactional read whose observation is only tentative: the STM
/// read barrier still re-validates the lock word after the load, and
/// only a read that survives that recheck reaches the application.
pub(crate) fn read_pending(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
) -> (u64, PendingRead) {
    let mut inner = vs.inner.lock();
    let r = make_pending(&mut inner, vtx, addr, heap);
    drop(inner);
    r
}

/// Record a read observation produced by [`read_pending`] once the
/// barrier's post-load validation has passed.
pub(crate) fn confirm_read(vtx: &mut VerifyTxn, pending: PendingRead) {
    // A fresh read re-arms an early-released line.
    vtx.released_lines.remove(&pending.line);
    let idx = vtx.reads.len();
    vtx.reads.push(pending.obs);
    vtx.line_reads.entry(pending.line).or_default().push(idx);
}

fn note_write_line(vtx: &mut VerifyTxn, addr: WordAddr) {
    let line = addr.line().0;
    if vtx.released_lines.remove(&line) {
        vtx.release_violations.push(addr.0);
    }
}

/// Eager in-place transactional write: installs the new value in heap
/// and shadow, pushing the displaced shadow entry onto the attempt's
/// shadow undo log. Returns the previous heap value for the engine's
/// own undo log (the two logs stay index-aligned).
pub(crate) fn write_eager(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
    value: u64,
) -> u64 {
    note_write_line(vtx, addr);
    let mut inner = vs.inner.lock();
    let prev_value = heap.raw_load(addr);
    let prev = inner.entry_checked(addr.0, prev_value);
    vtx.shadow_undo.push((addr.0, prev));
    let seq = inner.fresh_seq();
    inner.shadow.insert(
        addr.0,
        ShadowEntry {
            seq,
            writer: Writer::Attempt(vtx.attempt),
            value,
        },
    );
    heap.raw_store(addr, value);
    drop(inner);
    vtx.writes.push(WriteObs { addr: addr.0, seq });
    prev_value
}

/// Commit-time write-back (lazy systems): installs with no undo.
pub(crate) fn write_commit(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    addr: WordAddr,
    value: u64,
) {
    note_write_line(vtx, addr);
    let mut inner = vs.inner.lock();
    let prev_value = heap.raw_load(addr);
    inner.entry_checked(addr.0, prev_value);
    let seq = inner.fresh_seq();
    inner.shadow.insert(
        addr.0,
        ShadowEntry {
            seq,
            writer: Writer::Attempt(vtx.attempt),
            value,
        },
    );
    heap.raw_store(addr, value);
    drop(inner);
    vtx.writes.push(WriteObs { addr: addr.0, seq });
}

/// Instrumented non-transactional store (`ThreadCtx::store`,
/// `Txn::init_word`): keeps the shadow in sync so later transactional
/// reads don't see a phantom bypass. Not a graph node.
pub(crate) fn write_nontxn(vs: &VerifyState, heap: &TmHeap, addr: WordAddr, value: u64) {
    let mut inner = vs.inner.lock();
    let prev_value = heap.raw_load(addr);
    inner.entry_checked(addr.0, prev_value);
    let seq = inner.fresh_seq();
    inner.shadow.insert(
        addr.0,
        ShadowEntry {
            seq,
            writer: Writer::Env,
            value,
        },
    );
    heap.raw_store(addr, value);
}

/// The transaction early-released `line`: its observations of that
/// line stop participating in conflict edges, and the line is armed
/// for the write-without-re-read audit.
pub(crate) fn release_line(vtx: &mut VerifyTxn, line: LineAddr) {
    if let Some(idxs) = vtx.line_reads.remove(&line.0) {
        for i in idxs {
            vtx.reads[i].released = true;
        }
    }
    vtx.released_lines.insert(line.0);
}

/// Check an attempt's read log for two observations of the same word
/// at different versions (own writes and released lines excluded).
fn unstable_reads(vtx: &VerifyTxn, tid: usize, committed: bool) -> Vec<Violation> {
    let mut first_seen: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for obs in &vtx.reads {
        if obs.released || obs.writer == Writer::Attempt(vtx.attempt) {
            continue;
        }
        match first_seen.entry(obs.addr) {
            MapEntry::Vacant(e) => {
                e.insert(obs.seq);
            }
            MapEntry::Occupied(e) => {
                if *e.get() != obs.seq {
                    out.push(Violation::UnstableRead {
                        txn: TxnId {
                            attempt: vtx.attempt,
                            tid,
                        },
                        addr: obs.addr,
                        first_seq: *e.get(),
                        second_seq: obs.seq,
                        committed,
                    });
                }
            }
        }
    }
    out
}

/// Harvest a committed attempt's log into the global record.
pub(crate) fn commit_attempt(vs: &VerifyState, vtx: &mut VerifyTxn, tid: usize) {
    let committed = CommittedTxn {
        attempt: vtx.attempt,
        tid,
        reads: std::mem::take(&mut vtx.reads),
        writes: std::mem::take(&mut vtx.writes),
        release_violations: std::mem::take(&mut vtx.release_violations),
    };
    vtx.shadow_undo.clear();
    vtx.line_reads.clear();
    vtx.released_lines.clear();
    vs.inner.lock().committed.push(committed);
}

/// Roll back an aborted attempt: restore heap *and* shadow from the
/// two index-aligned undo logs (newest first), then — on the STMs,
/// which promise opacity — audit the zombie's reads for snapshot
/// consistency.
pub(crate) fn rollback_restore(
    vs: &VerifyState,
    vtx: &mut VerifyTxn,
    heap: &TmHeap,
    undo: &[(u64, u64)],
    tid: usize,
    system: SystemKind,
) {
    let mut inner = vs.inner.lock();
    debug_assert_eq!(undo.len(), vtx.shadow_undo.len());
    for (&(addr, value), &(saddr, sentry)) in undo.iter().rev().zip(vtx.shadow_undo.iter().rev()) {
        debug_assert_eq!(addr, saddr);
        heap.raw_store(WordAddr(addr), value);
        inner.shadow.insert(saddr, sentry);
    }
    if matches!(system, SystemKind::EagerStm | SystemKind::LazyStm) {
        let zombies = unstable_reads(vtx, tid, false);
        inner.runtime_violations.extend(zombies);
    }
    drop(inner);
    vtx.shadow_undo.clear();
}

/// Find a directed cycle in a graph of `n` nodes. Returns the nodes on
/// one cycle in path order (each consecutive pair is an edge, and so
/// is last → first), or `None` if the graph is acyclic.
///
/// Public so the property tests can drive it directly with random
/// DAGs and planted cycles.
pub fn find_cycle(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; n];
    let mut path: Vec<u32> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS: (node, next-child index).
        let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            if *idx == 0 {
                color[u as usize] = 1;
                path.push(u);
            }
            if let Some(&v) = adj[u as usize].get(*idx) {
                *idx += 1;
                match color[v as usize] {
                    0 => stack.push((v, 0)),
                    1 => {
                        let pos = path.iter().position(|&p| p == v).expect("on path");
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                }
            } else {
                color[u as usize] = 2;
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

/// End-of-run analysis: build the serialization graph over committed
/// transactions, run every check, and produce the report.
pub(crate) fn finalize(vs: &VerifyState, system: SystemKind) -> VerifyReport {
    let t0 = Instant::now();
    let mut inner = vs.inner.lock();
    let committed = std::mem::take(&mut inner.committed);
    let mut violations = std::mem::take(&mut inner.runtime_violations);
    drop(inner);

    let ids: Vec<TxnId> = committed
        .iter()
        .map(|c| TxnId {
            attempt: c.attempt,
            tid: c.tid,
        })
        .collect();
    let node_of: HashMap<u64, u32> = committed
        .iter()
        .enumerate()
        .map(|(i, c)| (c.attempt, i as u32))
        .collect();

    // Committed installs per address, in install order.
    let mut installs: HashMap<u64, Vec<(u64, u32)>> = HashMap::new();
    for (i, c) in committed.iter().enumerate() {
        for w in &c.writes {
            installs.entry(w.addr).or_default().push((w.seq, i as u32));
        }
    }
    for v in installs.values_mut() {
        v.sort_unstable();
    }

    let mut edges: Vec<EdgeWitness> = Vec::new();
    let mut edge_set: HashSet<(u32, u32)> = HashSet::new();
    let push_edge = |edges: &mut Vec<EdgeWitness>,
                     edge_set: &mut HashSet<(u32, u32)>,
                     from: u32,
                     to: u32,
                     kind: EdgeKind,
                     addr: u64| {
        if from != to && edge_set.insert((from, to)) {
            edges.push(EdgeWitness {
                from: ids[from as usize],
                to: ids[to as usize],
                kind,
                addr,
            });
        }
    };

    // WW: consecutive committed installs on each address.
    for (addr, list) in &installs {
        for pair in list.windows(2) {
            push_edge(
                &mut edges,
                &mut edge_set,
                pair[0].1,
                pair[1].1,
                EdgeKind::WriteWrite,
                *addr,
            );
        }
    }

    // WR / RW / dirty reads / committed-attempt stability.
    for (i, c) in committed.iter().enumerate() {
        let me = i as u32;
        let mut first_seen: HashMap<u64, u64> = HashMap::new();
        for obs in &c.reads {
            if obs.released {
                continue;
            }
            if obs.writer == Writer::Attempt(c.attempt) {
                continue; // own write read back
            }
            if let Writer::Attempt(a) = obs.writer {
                match node_of.get(&a) {
                    Some(&w) => push_edge(
                        &mut edges,
                        &mut edge_set,
                        w,
                        me,
                        EdgeKind::WriteRead,
                        obs.addr,
                    ),
                    None => violations.push(Violation::DirtyRead {
                        reader: ids[i],
                        addr: obs.addr,
                        writer_attempt: a,
                    }),
                }
            }
            if let Some(list) = installs.get(&obs.addr) {
                // First committed install strictly after what we read.
                let pos = list.partition_point(|&(s, _)| s <= obs.seq);
                if let Some(&(_, w2)) = list.get(pos) {
                    push_edge(
                        &mut edges,
                        &mut edge_set,
                        me,
                        w2,
                        EdgeKind::ReadWrite,
                        obs.addr,
                    );
                }
            }
            match first_seen.entry(obs.addr) {
                MapEntry::Vacant(e) => {
                    e.insert(obs.seq);
                }
                MapEntry::Occupied(e) => {
                    if *e.get() != obs.seq {
                        violations.push(Violation::UnstableRead {
                            txn: ids[i],
                            addr: obs.addr,
                            first_seq: *e.get(),
                            second_seq: obs.seq,
                            committed: true,
                        });
                    }
                }
            }
        }
        for &addr in &c.release_violations {
            violations.push(Violation::EarlyReleaseWrite { txn: ids[i], addr });
        }
    }

    // Cycle detection over the committed-transaction graph.
    let flat: Vec<(u32, u32)> = edges
        .iter()
        .map(|e| (node_of[&e.from.attempt], node_of[&e.to.attempt]))
        .collect();
    if let Some(cycle) = find_cycle(committed.len(), &flat) {
        let mut witness = Vec::new();
        for k in 0..cycle.len() {
            let from = cycle[k];
            let to = cycle[(k + 1) % cycle.len()];
            if let Some(e) = edges
                .iter()
                .find(|e| node_of[&e.from.attempt] == from && node_of[&e.to.attempt] == to)
            {
                witness.push(*e);
            }
        }
        violations.push(Violation::SerializationCycle {
            txns: cycle.iter().map(|&n| ids[n as usize]).collect(),
            edges: witness,
        });
    }

    let report = VerifyReport {
        system,
        cost: VerifyCost {
            txns_checked: committed.len() as u64,
            edges: edges.len() as u64,
            wall: t0.elapsed(),
        },
        violations,
    };
    if crate::trace::enabled(crate::trace::TraceLevel::Verify) {
        crate::trace::emit(crate::trace::TraceLevel::Verify, format_args!("{report}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_cycle_on_dag_is_none() {
        // 0 -> 1 -> 2, 0 -> 2: acyclic.
        assert!(find_cycle(3, &[(0, 1), (1, 2), (0, 2)]).is_none());
        assert!(find_cycle(0, &[]).is_none());
        assert!(find_cycle(5, &[]).is_none());
    }

    #[test]
    fn find_cycle_two_cycle() {
        let c = find_cycle(2, &[(0, 1), (1, 0)]).expect("cycle");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn find_cycle_returns_real_cycle() {
        // 0 -> 1 -> 2 -> 3 -> 1 plus noise.
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 1), (0, 3)];
        let c = find_cycle(4, &edges).expect("cycle");
        assert!(c.len() >= 2);
        let set: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        for k in 0..c.len() {
            assert!(
                set.contains(&(c[k], c[(k + 1) % c.len()])),
                "edge {k} missing"
            );
        }
    }

    #[test]
    fn shadow_tracks_installs_and_detects_bypass() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(7u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 7);
        write_eager(&vs, &mut vtx, &heap, addr, 8);
        commit_attempt(&vs, &mut vtx, 0);
        // Un-instrumented store behind the sanitizer's back:
        heap.raw_store(addr, 99);
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 99);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize(&vs, SystemKind::EagerStm);
        assert_eq!(report.cost.txns_checked, 2);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::BypassedWrite { heap_value: 99, .. })));
    }

    #[test]
    fn eager_rollback_restores_shadow() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(5u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        let prev = write_eager(&vs, &mut vtx, &heap, addr, 6);
        assert_eq!(prev, 5);
        let undo = [(addr.0, prev)];
        rollback_restore(&vs, &mut vtx, &heap, &undo, 0, SystemKind::EagerStm);
        assert_eq!(heap.raw_load(addr), 5);
        // Committed reader after the rollback sees the restored entry,
        // not a phantom bypass.
        begin_attempt(&vs, &mut vtx);
        assert_eq!(read_record(&vs, &mut vtx, &heap, addr), 5);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize(&vs, SystemKind::EagerStm);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn lost_update_is_a_cycle() {
        // T1 and T2 both read v0 of the counter and both commit an
        // install: T1 -RW-> T2 (T2 overwrote what T1 read is wrong way;
        // actually T1 read v0, T2 installs v1: T1 -RW-> T2; T2 read v0,
        // T1 installs v2 after: T2 -RW-> T1 and T1 -WW-> ... either
        // way the pair must cycle).
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(0u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut t1 = VerifyTxn::default();
        let mut t2 = VerifyTxn::default();
        begin_attempt(&vs, &mut t1);
        begin_attempt(&vs, &mut t2);
        assert_eq!(read_record(&vs, &mut t1, &heap, addr), 0);
        assert_eq!(read_record(&vs, &mut t2, &heap, addr), 0);
        write_commit(&vs, &mut t2, &heap, addr, 1);
        commit_attempt(&vs, &mut t2, 1);
        write_commit(&vs, &mut t1, &heap, addr, 1);
        commit_attempt(&vs, &mut t1, 0);
        let report = finalize(&vs, SystemKind::LazyStm);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::SerializationCycle { .. })),
            "report: {report}"
        );
    }

    #[test]
    fn early_release_write_without_reread_flagged() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(3u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, addr);
        release_line(&mut vtx, addr.line());
        write_eager(&vs, &mut vtx, &heap, addr, 4);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize(&vs, SystemKind::EagerStm);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::EarlyReleaseWrite { .. })),
            "report: {report}"
        );
    }

    #[test]
    fn early_release_with_reread_is_clean() {
        let heap = TmHeap::new();
        let cell = heap.alloc_cell(3u64);
        let addr = cell.addr();
        let vs = VerifyState::default();
        let mut vtx = VerifyTxn::default();
        begin_attempt(&vs, &mut vtx);
        read_record(&vs, &mut vtx, &heap, addr);
        release_line(&mut vtx, addr.line());
        // labyrinth's pattern: re-read transactionally, then write.
        read_record(&vs, &mut vtx, &heap, addr);
        write_eager(&vs, &mut vtx, &heap, addr, 4);
        commit_attempt(&vs, &mut vtx, 0);
        let report = finalize(&vs, SystemKind::EagerStm);
        assert!(report.is_clean(), "report: {report}");
    }
}
