//! Transactions: the barrier, commit, and abort protocols of all six TM
//! systems (§IV of the paper).
//!
//! A transaction is executed by passing a closure to
//! [`crate::runtime::ThreadCtx::atomic`]; the closure receives a [`Txn`]
//! handle and returns `Result<_, Abort>`, using `?` on every transactional
//! access so the engine can restart it on conflicts. Nesting is not
//! supported (STAMP uses flat transactions).
//!
//! # Consistency model
//!
//! The STMs provide opacity (TL2 validation) so transaction bodies never
//! observe inconsistent state. The lazy HTM and lazy hybrid doom
//! conflicting transactions *before and after* applying a commit's writes
//! (atomically per line, under the directory shard lock or the
//! doom–apply–doom signature scan), so a transaction that could observe
//! mixed state is always already doomed; every barrier checks the doom
//! flag, and bounds checks that fail inside a doomed transaction convert
//! to aborts instead of panics. This bounds zombie execution to a single
//! barrier.

use crate::addr::{LineAddr, WordAddr};
use crate::cm::{CmCtx, ContentionManager};
use crate::config::{MutationHook, SystemKind};
use crate::fault::{FaultConfig, FaultKind};
use crate::heap::{TArray, TCell, TmValue};
use crate::locks::LockWord;
use crate::prof::ProfBucket;
use crate::runtime::{LineSet, ThreadCtx, WordMap, NO_PRIORITY};
use crate::stats::TxnRecord;
use crate::trace::TraceLevel;

/// A transaction abort: unwinds the body back to the retry loop.
///
/// Constructed only by the engine; application code simply propagates it
/// with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort(pub(crate) ());

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Abort>;

/// Explicitly abort and restart the current transaction (the analogue of
/// STAMP's `TM_RESTART`): return this from the transaction body.
///
/// labyrinth uses this when commit-time revalidation of a routed path
/// fails (§III-B5 of the paper).
pub fn abort<T>() -> TxResult<T> {
    Err(Abort(()))
}

/// Per-attempt transaction state, owned by the thread context and reused
/// across attempts to avoid allocation churn.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// TL2 read timestamp.
    pub rv: u64,
    /// STM read set: lock-table indices to validate at commit.
    pub read_locks: Vec<u32>,
    /// Lazy redo buffer: word address -> value.
    pub write_map: WordMap,
    /// Eager undo log: (word address, previous value), in write order.
    pub undo: Vec<(u64, u64)>,
    /// Eager STM: locks held, with the version to restore on abort.
    pub held_locks: Vec<(u32, u64)>,
    /// Distinct lines read (stats for all systems; tracked read set for
    /// HTMs/hybrids).
    pub read_lines: LineSet,
    /// Distinct lines written.
    pub write_lines: LineSet,
    /// Lines registered in the directory (HTMs), to clear on completion.
    pub dir_lines: Vec<u64>,
    /// HTM: lines resident in the modeled L1 (speculative state).
    pub resident: LineSet,
    /// Eager HTM: lines that overflowed into the Bloom signature.
    pub overflowed: LineSet,
    /// HTM capacity model: lines per L1 set.
    pub set_counts: crate::fxhash::FxHashMap<u64, u8>,
    /// Lazy HTM: true once overflow forced this transaction to hold the
    /// commit token (serialized execution).
    pub serialized: bool,
    /// Software systems: true while this attempt holds the commit token
    /// because the contention manager serialized it (released centrally
    /// in `try_commit`/`rollback`; the lazy HTM reuses `serialized`
    /// instead so its existing token management applies).
    pub cm_token: bool,
    /// True when the contention manager serialized this attempt (for
    /// the `serialized_commits` statistic).
    pub cm_serialized_attempt: bool,
    /// Application cycles in this attempt (Table VI "instructions").
    pub app_cycles: u64,
    /// Read barrier invocations in this attempt.
    pub read_barriers: u32,
    /// Write barrier invocations in this attempt.
    pub write_barriers: u32,
}

impl TxnState {
    fn reset(&mut self) {
        self.rv = 0;
        self.read_locks.clear();
        self.write_map.clear();
        self.undo.clear();
        self.held_locks.clear();
        self.read_lines.clear();
        self.write_lines.clear();
        self.dir_lines.clear();
        self.resident.clear();
        self.overflowed.clear();
        self.set_counts.clear();
        self.serialized = false;
        self.cm_token = false;
        self.cm_serialized_attempt = false;
        self.app_cycles = 0;
        self.read_barriers = 0;
        self.write_barriers = 0;
    }
}

impl ThreadCtx {
    /// Execute `body` as an atomic transaction, retrying on conflicts
    /// until it commits, and return its result.
    ///
    /// The body may run multiple times; it must be idempotent apart from
    /// its transactional effects (allocations it performs are leaked on
    /// abort, as with the original STAMP `TM_MALLOC`).
    ///
    /// # Panics
    ///
    /// Panics if called inside another transaction (flat nesting only).
    pub fn atomic<R>(&mut self, mut body: impl FnMut(&mut Txn<'_>) -> TxResult<R>) -> R {
        assert!(
            !self.in_txn,
            "nested transactions are not supported (STAMP uses flat transactions)"
        );
        let start_clock = self.clock;
        let mut retries: u32 = 0;
        loop {
            self.begin_attempt(retries);
            let committed = {
                let mut txn = Txn { ctx: &mut *self };
                match body(&mut txn) {
                    Ok(value) => {
                        if txn.try_commit().is_ok() {
                            Some(value)
                        } else {
                            None
                        }
                    }
                    Err(Abort(())) => {
                        txn.rollback();
                        None
                    }
                }
            };
            self.in_txn = false;
            // Fold the attempt's staged cycles into their outcome
            // buckets before any post-attempt charges (abort fixed
            // cost, backoff) land in theirs.
            self.prof_end_attempt(committed.is_some());
            match committed {
                Some(value) => {
                    self.finish_commit(start_clock, retries);
                    return value;
                }
                None => {
                    retries = retries.saturating_add(1);
                    self.stats.aborts += 1;
                    // An injected fault recorded itself at the barrier
                    // that delivered it; the flag routes the abort to
                    // the spurious accounting and tells the contention
                    // manager not to learn contention from it.
                    let spurious = self.fault.as_ref().is_some_and(|f| f.injected.is_some());
                    if spurious {
                        self.stats.spurious_aborts += 1;
                    }
                    self.after_abort(retries, spurious);
                    if let Some(wd) = self.watchdog {
                        if wd.should_escalate(retries, self.clock - start_clock) {
                            // Starvation watchdog: this transaction has
                            // crossed the consecutive-abort or invested-
                            // cycle bound. Escalate to irrevocable mode
                            // for a hard forward-progress guarantee.
                            self.stats.watchdog_trips += 1;
                            return self.run_irrevocable(&mut body, start_clock, retries);
                        }
                    }
                }
            }
        }
    }

    fn begin_attempt(&mut self, retries: u32) {
        use std::sync::atomic::Ordering;
        // Eager-HTM livelock guard, second half: while another thread
        // holds the priority token, starting an attempt is futile (the
        // holder dooms us on first contact) and actively harmful under
        // deterministic dispatch — restarting victims re-register their
        // lines between the holder's occupancy probes, which can
        // phase-lock into a schedule where the holder never observes
        // its conflict set drain. Wait (in simulated cycles) for the
        // holder to commit; free-running schedules broke the cycle by
        // chance, the strict scheduler must break it by rule.
        if self.global.config.system == SystemKind::EagerHtm && !self.has_priority {
            while {
                let p = self.global.priority.load(Ordering::SeqCst);
                p != NO_PRIORITY && p != self.tid
            } {
                self.spin_charge(20);
            }
        }
        self.in_txn = true;
        self.stats.attempts += 1;
        self.txn.reset();
        self.verify_begin_attempt();
        self.prof_begin_attempt();
        self.global.doomed[self.tid].store(false, Ordering::SeqCst);
        self.global.active[self.tid].store(true, Ordering::SeqCst);
        // Irrevocability gate: while a watchdog-escalated transaction
        // holds it, stand down (clearing `active` so the holder's
        // quiesce completes) and wait for it to commit. The store-then-
        // load order against the holder's CAS-then-scan (both SeqCst)
        // guarantees at least one side sees the other, so no attempt
        // ever runs concurrently with an irrevocable one. When the gate
        // is free — every run without fault injection — this is a
        // single uncharged load.
        loop {
            if self.global.irrevocable.load(Ordering::SeqCst) == NO_PRIORITY {
                break;
            }
            self.global.active[self.tid].store(false, Ordering::SeqCst);
            while self.global.irrevocable.load(Ordering::SeqCst) != NO_PRIORITY {
                self.spin_charge(20);
            }
            self.global.active[self.tid].store(true, Ordering::SeqCst);
        }
        self.cm_admission(retries);
        self.txn.rv = self.global.clock.read();
        {
            use std::sync::atomic::Ordering;
            let ts = self.global.ts_counter.fetch_add(1, Ordering::AcqRel);
            self.global.txn_ts[self.tid].store(ts, Ordering::SeqCst);
        }
        if self.global.config.system == SystemKind::GlobalLock {
            // Coarse-grain lock: serialize the whole transaction.
            while !self.global.commit_token.try_acquire() {
                self.spin_charge(10);
            }
        }
        // Derive this attempt's fault stream last, so gate/queue waits
        // above don't count toward the interrupt hazard's elapsed time.
        let (tid, attempt, clock) = (self.tid, self.stats.attempts, self.clock);
        if let Some(f) = &mut self.fault {
            f.begin_attempt(tid, attempt, clock);
        }
        self.charge_txn_fixed();
    }

    /// Contention-manager admission control: ask the CM whether this
    /// attempt should be funneled through the global serialization
    /// queue, and if so hold the commit token for the attempt's whole
    /// duration. Runs before the TL2 read-timestamp is taken so a long
    /// queue wait still yields a fresh snapshot.
    fn cm_admission(&mut self, retries: u32) {
        let system = self.global.config.system;
        if matches!(system, SystemKind::Sequential | SystemKind::GlobalLock) {
            return; // never transactional / already fully serialized
        }
        let (cm, mut cctx) = self.cm_ctx(retries, 0, false);
        if !cm.on_begin(&mut cctx) {
            return;
        }
        // The wait advances simulated time only (10 cycles per probe,
        // like the GlobalLock spin), never host wall-clock sleeps.
        while !self.global.commit_token.try_acquire() {
            self.spin_charge(10);
        }
        self.txn.cm_serialized_attempt = true;
        if system == SystemKind::LazyHtm {
            // Reuse the overflow-serialization path: commit and rollback
            // already release the token when `serialized` is set.
            self.txn.serialized = true;
        } else {
            self.txn.cm_token = true;
        }
    }

    /// Split-borrow this context into its contention manager and the
    /// [`CmCtx`] view a callback receives.
    fn cm_ctx(
        &mut self,
        retries: u32,
        attempt_work: u64,
        spurious: bool,
    ) -> (&mut dyn ContentionManager, CmCtx<'_>) {
        let cctx = CmCtx {
            tid: self.tid,
            retries,
            attempt_work,
            spurious,
            rng: &mut self.rng,
            shared: &self.global.cm_shared,
        };
        (&mut *self.cm, cctx)
    }

    fn finish_commit(&mut self, start_clock: u64, retries: u32) {
        use std::sync::atomic::Ordering;
        self.verify_commit_attempt();
        self.global.active[self.tid].store(false, Ordering::SeqCst);
        if self.has_priority {
            self.global
                .priority
                .compare_exchange(self.tid, NO_PRIORITY, Ordering::AcqRel, Ordering::Relaxed)
                .ok();
            self.has_priority = false;
        }
        let (cm, mut cctx) = self.cm_ctx(retries, self.txn.app_cycles, false);
        cm.on_commit(&mut cctx);
        if self.txn.cm_serialized_attempt {
            self.stats.serialized_commits += 1;
        }
        self.stats.commits += 1;
        self.stats.cycles_in_txn += self.clock - start_clock;
        let rec = TxnRecord {
            app_cycles: self.txn.app_cycles,
            read_lines: self.txn.read_lines.len() as u32,
            write_lines: self.txn.write_lines.len() as u32,
            read_barriers: self.txn.read_barriers,
            write_barriers: self.txn.write_barriers,
            retries,
        };
        self.stats.records.push(rec);
    }

    fn after_abort(&mut self, retries: u32, spurious: bool) {
        use std::sync::atomic::Ordering;
        // The fixed abort cost belongs to the attempt that just died,
        // not to (committed-attempt) overhead.
        let fixed = self.global.config.cost.abort_fixed;
        self.charge_bucket(fixed, ProfBucket::Wasted);
        let (cm, mut cctx) = self.cm_ctx(retries, self.txn.app_cycles, spurious);
        let action = cm.on_abort(&mut cctx);
        if action.backoff_cycles > 0 {
            // A zero-cycle charge never flushes (pending stays below the
            // flush threshold), so skipping it is interleaving-neutral
            // and keeps the default schedules bit-identical.
            self.stats.backoff_cycles += action.backoff_cycles;
            self.charge_bucket(action.backoff_cycles, ProfBucket::Backoff);
        }
        if action.request_priority
            && self.global.config.system == SystemKind::EagerHtm
            && !self.has_priority
        {
            // The paper's livelock guard: after 32 aborts a transaction is
            // promoted so no other transaction can abort it.
            if self
                .global
                .priority
                .compare_exchange(NO_PRIORITY, self.tid, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.has_priority = true;
            }
        }
    }

    /// Watchdog escalation: execute `body` to completion in irrevocable
    /// mode — serialized behind the irrevocability gate and the global
    /// commit token, with in-place writes and no conflict-abort path.
    /// This is the engine's hard forward-progress guarantee: whatever
    /// the fault and conflict schedule, an escalated transaction
    /// commits (explicit application aborts re-execute serially, which
    /// converges because no other thread changes data underneath).
    ///
    /// Deadlock-safe ordering: (1) take the gate — new attempts now
    /// park at the top of `begin_attempt`; (2) quiesce on the `active`
    /// flags *without* holding the commit token, because an in-flight
    /// lazy committer needs the token to finish its attempt; (3) take
    /// the commit token. A drop guard releases token and gate even if
    /// the body panics, so the other threads' park loops always exit
    /// and the panic propagates as a run failure instead of a hang.
    fn run_irrevocable<R>(
        &mut self,
        body: &mut impl FnMut(&mut Txn<'_>) -> TxResult<R>,
        start_clock: u64,
        mut retries: u32,
    ) -> R {
        use std::sync::atomic::Ordering;
        if crate::trace::enabled(TraceLevel::Faults) {
            crate::trace::emit(
                TraceLevel::Faults,
                format_args!(
                    "watchdog tid={} retries={retries} invested={} -> irrevocable",
                    self.tid,
                    self.clock - start_clock
                ),
            );
        }
        // 1. The irrevocability gate (one escalated transaction at a
        // time; losers wait their turn here).
        while self
            .global
            .irrevocable
            .compare_exchange(NO_PRIORITY, self.tid, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.spin_charge(20);
        }
        struct IrrevGuard {
            global: std::sync::Arc<crate::runtime::Global>,
            tid: usize,
            token_held: bool,
        }
        impl Drop for IrrevGuard {
            fn drop(&mut self) {
                use std::sync::atomic::Ordering;
                // Token before gate: a thread released by the gate must
                // find the token in a consistent state.
                if self.token_held {
                    self.global.commit_token.release();
                }
                self.global
                    .irrevocable
                    .compare_exchange(self.tid, NO_PRIORITY, Ordering::SeqCst, Ordering::SeqCst)
                    .ok();
            }
        }
        let mut guard = IrrevGuard {
            global: self.global.clone(),
            tid: self.tid,
            token_held: false,
        };
        // 2. Quiesce: wait for every other thread's in-flight attempt
        // to resolve. New attempts park at the gate, so once `active`
        // drains, this thread is the only one touching shared data.
        let n = self.global.config.threads;
        while (0..n).any(|t| t != self.tid && self.global.active[t].load(Ordering::SeqCst)) {
            self.spin_charge(20);
        }
        // 3. The commit token, for the whole irrevocable execution:
        // read-only fences and lazy commits spin on it, so even a
        // thread mid-attempt when the gate closed cannot slip a commit
        // under our in-place writes.
        while !self.global.commit_token.try_acquire() {
            self.spin_charge(10);
        }
        guard.token_held = true;
        loop {
            // An irrevocable attempt is a real attempt: it enters the
            // statistics, the profiler, and the sanitizer's
            // serialization graph exactly like a normal one.
            self.irrevocable = true;
            self.in_txn = true;
            self.stats.attempts += 1;
            self.txn.reset();
            self.verify_begin_attempt();
            self.prof_begin_attempt();
            self.global.doomed[self.tid].store(false, Ordering::SeqCst);
            self.charge_txn_fixed();
            let result = {
                let mut txn = Txn { ctx: &mut *self };
                body(&mut txn)
            };
            match result {
                Ok(value) => {
                    self.charge_txn_fixed(); // commit tail, as in normal commits
                    self.txn.undo.clear();
                    self.in_txn = false;
                    self.prof_end_attempt(true);
                    self.irrevocable = false;
                    self.stats.irrevocable_commits += 1;
                    self.finish_commit(start_clock, retries);
                    drop(guard);
                    return value;
                }
                Err(Abort(())) => {
                    // Explicit application abort (labyrinth's
                    // TM_RESTART): roll back the in-place writes and
                    // re-execute, still irrevocable.
                    let undo_len = self.txn.undo.len();
                    if undo_len > 0 || self.global.verify.is_some() {
                        self.undo_restore();
                        self.txn.undo.clear();
                        if undo_len > 0 {
                            let per = self.global.config.cost.abort_per_undo;
                            self.charge_tm(per * undo_len as u64);
                        }
                    }
                    self.in_txn = false;
                    self.prof_end_attempt(false);
                    self.charge_bucket(self.global.config.cost.abort_fixed, ProfBucket::Wasted);
                    self.irrevocable = false;
                    retries = retries.saturating_add(1);
                    self.stats.aborts += 1;
                }
            }
        }
    }
}

/// Handle to the currently executing transaction attempt.
///
/// All transactional reads and writes go through this handle; propagate
/// the [`Abort`] error with `?` so the retry loop can restart the body.
pub struct Txn<'a> {
    pub(crate) ctx: &'a mut ThreadCtx,
}

impl Txn<'_> {
    /// This thread's id.
    pub fn tid(&self) -> usize {
        self.ctx.tid
    }

    /// The system being modeled.
    pub fn system(&self) -> SystemKind {
        self.ctx.global.config.system
    }

    /// Charge `cycles` of in-transaction application work.
    pub fn work(&mut self, cycles: u64) {
        self.ctx.charge_app(cycles);
    }

    /// A deterministic per-thread random number in `0..bound`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.ctx.rng.below(bound)
    }

    /// Allocate fresh words inside the transaction (leaked if the
    /// transaction aborts, like `TM_MALLOC`).
    pub fn alloc_words(&mut self, words: u64) -> WordAddr {
        self.ctx.charge_app(20 + words / 4);
        self.ctx.global.heap.alloc_words(words)
    }

    /// Allocate fresh words padded to whole cache lines.
    pub fn alloc_words_line_padded(&mut self, words: u64) -> WordAddr {
        self.ctx.charge_app(20 + words / 4);
        self.ctx.global.heap.alloc_words_line_padded(words)
    }

    /// Initialize a word of *freshly allocated, unpublished* memory
    /// without transactional instrumentation. Safe because the memory is
    /// unreachable by other threads until a transactional write publishes
    /// a pointer to it — the standard STAMP optimization for initializing
    /// `TM_MALLOC`ed nodes.
    pub fn init_word(&mut self, addr: WordAddr, value: u64) {
        let c = self.ctx.mem_cost(addr.line());
        self.ctx.charge_app(c);
        self.ctx.nontxn_store(addr, value);
    }

    /// Typed [`Txn::init_word`].
    pub fn init<T: TmValue>(&mut self, cell: &TCell<T>, value: T) {
        self.init_word(cell.addr(), value.to_bits());
    }

    /// Whether this transaction has been doomed by a committer (lazy
    /// systems) or a priority transaction (eager HTM).
    pub fn is_doomed(&self) -> bool {
        self.ctx.global.doomed[self.ctx.tid].load(std::sync::atomic::Ordering::Acquire)
    }

    /// Costed but *unbarriered* read, for data the program guarantees is
    /// immutable or thread-private for the transaction's duration — the
    /// manual barrier-elision optimization the paper applies following
    /// Adl-Tabatabai et al. and Harris et al. (§III-D). On the HTMs this
    /// is equivalent to a normal read without occupying speculative
    /// cache state (the data can never conflict).
    ///
    /// Misuse (calling this on genuinely shared mutable data) breaks
    /// isolation, exactly as eliding a barrier in the C suite would.
    pub fn load_private(&mut self, addr: WordAddr) -> u64 {
        let c = self.ctx.mem_cost(addr.line());
        self.ctx.charge_app(c);
        self.ctx.global.heap.raw_load(addr)
    }

    /// Transactional read of a typed cell.
    pub fn read<T: TmValue>(&mut self, cell: &TCell<T>) -> TxResult<T> {
        self.read_word(cell.addr()).map(T::from_bits)
    }

    /// Transactional write of a typed cell.
    pub fn write<T: TmValue>(&mut self, cell: &TCell<T>, value: T) -> TxResult<()> {
        self.write_word(cell.addr(), value.to_bits())
    }

    /// Transactional read of array element `idx`.
    ///
    /// # Errors
    ///
    /// Aborts instead of panicking on an out-of-bounds index when the
    /// transaction is doomed (a zombie read produced the index).
    pub fn read_idx<T: TmValue>(&mut self, arr: &TArray<T>, idx: u64) -> TxResult<T> {
        if idx >= arr.len() {
            return self.zombie_or_panic(arr, idx);
        }
        self.read_word(arr.base().offset(idx)).map(T::from_bits)
    }

    /// Transactional write of array element `idx`.
    ///
    /// # Errors
    ///
    /// As [`Txn::read_idx`].
    pub fn write_idx<T: TmValue>(&mut self, arr: &TArray<T>, idx: u64, value: T) -> TxResult<()> {
        if idx >= arr.len() {
            return self.zombie_or_panic(arr, idx).map(|_| ());
        }
        self.write_word(arr.base().offset(idx), value.to_bits())
    }

    #[cold]
    fn zombie_or_panic<T: TmValue>(&mut self, arr: &TArray<T>, idx: u64) -> TxResult<T> {
        if self.is_doomed() {
            return Err(Abort(()));
        }
        panic!("index {idx} out of bounds (len {})", arr.len());
    }

    #[cold]
    fn unmapped_or_panic(&mut self, addr: WordAddr) -> TxResult<u64> {
        if self.is_doomed() {
            return Err(Abort(()));
        }
        panic!("transactional access to unmapped address {addr}");
    }

    /// Whether this transaction is executing in irrevocable mode (the
    /// starvation watchdog escalated it after sustained aborts): it is
    /// serialized, writes in place, and can no longer conflict-abort.
    pub fn is_irrevocable(&self) -> bool {
        self.ctx.irrevocable
    }

    /// Transactional read of a raw word address.
    pub fn read_word(&mut self, addr: WordAddr) -> TxResult<u64> {
        self.ctx.txn.read_barriers += 1;
        if !self.ctx.global.heap.is_mapped(addr) {
            return self.unmapped_or_panic(addr);
        }
        if self.ctx.irrevocable {
            return self.irrev_read(addr);
        }
        self.fault_probe()?;
        match self.ctx.global.config.system {
            SystemKind::Sequential | SystemKind::GlobalLock => Ok(self.seq_read(addr)),
            SystemKind::LazyStm => self.stm_lazy_read(addr),
            SystemKind::EagerStm => self.stm_eager_read(addr),
            SystemKind::LazyHtm => self.htm_lazy_read(addr),
            SystemKind::EagerHtm => self.htm_eager_read(addr),
            SystemKind::LazyHybrid => self.hyb_lazy_read(addr),
            SystemKind::EagerHybrid => self.hyb_eager_read(addr),
        }
    }

    /// Transactional write of a raw word address.
    pub fn write_word(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        self.ctx.txn.write_barriers += 1;
        if !self.ctx.global.heap.is_mapped(addr) {
            return self.unmapped_or_panic(addr).map(|_| ());
        }
        if self.ctx.irrevocable {
            return self.irrev_write(addr, value);
        }
        self.fault_probe()?;
        match self.ctx.global.config.system {
            SystemKind::Sequential | SystemKind::GlobalLock => {
                self.seq_write(addr, value);
                Ok(())
            }
            SystemKind::LazyStm => {
                self.stm_lazy_write(addr, value);
                Ok(())
            }
            SystemKind::EagerStm => self.stm_eager_write(addr, value),
            SystemKind::LazyHtm => self.htm_lazy_write(addr, value),
            SystemKind::EagerHtm => self.htm_eager_write(addr, value),
            SystemKind::LazyHybrid => self.hyb_lazy_write(addr, value),
            SystemKind::EagerHybrid => self.hyb_eager_write(addr, value),
        }
    }

    /// Early release (§III-B5): drop `addr` from the transactional read
    /// set so it no longer generates conflicts. The caller guarantees
    /// atomicity is preserved.
    ///
    /// On the eager HTM, addresses that overflowed into the Bloom filter
    /// cannot be released (the paper's labyrinth+ observation). On the
    /// hybrids this is a no-op (signatures cannot remove); the
    /// applications use unbarriered reads there instead.
    pub fn early_release(&mut self, addr: WordAddr) {
        let line = addr.line();
        match self.ctx.global.config.system {
            SystemKind::LazyHtm | SystemKind::EagerHtm => {
                if self.ctx.txn.overflowed.contains(&line.0) {
                    return; // tracked only by the Bloom filter: cannot release
                }
                if self.ctx.txn.read_lines.remove(&line.0) {
                    self.ctx.verify_release_line(line);
                    self.ctx.global.directory.remove_reader(line, self.ctx.tid);
                    if !self.ctx.txn.write_lines.contains(&line.0)
                        && self.ctx.txn.resident.remove(&line.0)
                    {
                        let set = self.ctx.global.config.l1.set_of(line.0);
                        if let Some(c) = self.ctx.txn.set_counts.get_mut(&set) {
                            *c = c.saturating_sub(1);
                        }
                    }
                }
                self.ctx.charge_tm(2);
            }
            SystemKind::LazyStm | SystemKind::EagerStm => {
                let idx = self.ctx.global.locks.index_of(addr);
                self.ctx.txn.read_locks.retain(|&i| i != idx);
                self.ctx.txn.read_lines.remove(&line.0);
                self.ctx.verify_release_line(line);
                self.ctx.charge_tm(2);
            }
            _ => {}
        }
    }

    // ----- fault injection & irrevocable barriers -----------------------

    /// Probe the fault-injection layer at a barrier boundary. Draws are
    /// taken from the attempt's seeded stream in a fixed order
    /// (interrupt hazard, capacity pressure, signature false positive),
    /// so a fault schedule is a pure function of
    /// `(fault_seed, tid, attempt)`. An injected fault records its kind
    /// for the spurious-abort accounting and aborts the attempt
    /// *without* a `prof_conflict` call — no innocent address is ever
    /// blamed in the conflict table for an injected event.
    fn fault_probe(&mut self) -> TxResult<()> {
        if self.ctx.fault.is_none() {
            return Ok(());
        }
        let clock = self.ctx.clock;
        let quantum = self.ctx.global.config.quantum;
        let system = self.ctx.global.config.system;
        let footprint = self.ctx.txn.read_lines.len() + self.ctx.txn.write_lines.len();
        let f = self.ctx.fault.as_mut().expect("checked above");
        let injected = 'probe: {
            if f.cfg.interrupt_permille != 0 && quantum > 0 {
                // One hazard roll per scheduling-quantum boundary the
                // attempt has crossed since it began.
                let elapsed = (clock - f.attempt_start) / quantum;
                while f.quanta_rolled < elapsed {
                    f.quanta_rolled += 1;
                    if f.stream.roll(f.cfg.interrupt_permille) {
                        break 'probe Some(FaultKind::Interrupt);
                    }
                }
            }
            if footprint >= f.cfg.capacity_lines && f.stream.roll(f.cfg.capacity_permille) {
                break 'probe Some(FaultKind::Capacity);
            }
            if FaultConfig::sigfp_applies(system) && f.stream.roll(f.cfg.sigfp_permille) {
                break 'probe Some(FaultKind::SigFalsePositive);
            }
            None
        };
        let Some(kind) = injected else {
            return Ok(());
        };
        f.injected = Some(kind);
        if crate::trace::enabled(TraceLevel::Faults) {
            crate::trace::emit(
                TraceLevel::Faults,
                format_args!(
                    "inject kind={kind} tid={} attempt={} footprint={footprint}",
                    self.ctx.tid, self.ctx.stats.attempts
                ),
            );
        }
        Err(Abort(()))
    }

    /// Irrevocable read barrier: direct load with the system's barrier
    /// cost. No conflict detection — the gate and quiesce in
    /// `run_irrevocable` guarantee exclusive execution.
    fn irrev_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        let config = &self.ctx.global.config;
        let tm = config.cost.read_barrier(config.system);
        self.ctx.charge_tm(tm);
        let line = addr.line();
        self.ctx.txn.read_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(self.ctx.txn_load(addr))
    }

    /// Irrevocable write barrier: eager in-place store (undo-logged so
    /// an explicit application abort can still roll back).
    fn irrev_write(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        let config = &self.ctx.global.config;
        let tm = config.cost.write_barrier(config.system);
        self.ctx.charge_tm(tm);
        let line = addr.line();
        self.ctx.txn.write_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        self.ctx.txn_store_eager(addr, value);
        Ok(())
    }

    // ----- sequential ---------------------------------------------------

    fn seq_read(&mut self, addr: WordAddr) -> u64 {
        let line = addr.line();
        self.ctx.txn.read_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        self.ctx.txn_load(addr)
    }

    fn seq_write(&mut self, addr: WordAddr, value: u64) {
        let line = addr.line();
        self.ctx.txn.write_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        self.ctx.txn_store_commit(addr, value);
    }

    // ----- TL2 STMs -----------------------------------------------------

    fn stm_lazy_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        let cost = self.ctx.global.config.cost.stm_lazy_read;
        self.ctx.charge_tm(cost);
        if let Some(&v) = self.ctx.txn.write_map.get(&addr.0) {
            return Ok(v);
        }
        let locks = &self.ctx.global.locks;
        let idx = locks.index_of(addr);
        let w1 = locks.load(idx);
        let LockWord::Unlocked { version: v1 } = w1 else {
            if let LockWord::Locked { owner } = w1 {
                self.ctx
                    .prof_conflict(addr.line().0, Some(owner), self.ctx.tid);
            }
            return Err(Abort(()));
        };
        if v1 > self.ctx.txn.rv {
            // Version overrun: the conflicting writer already committed
            // and is anonymous.
            self.ctx.prof_conflict(addr.line().0, None, self.ctx.tid);
            return Err(Abort(()));
        }
        // With the sanitizer on, the observation is recorded only after
        // the post-load lock recheck passes: a load that aborts here is
        // never part of the attempt's read set.
        let (val, pending) = self.ctx.txn_load_pending(addr);
        let w2 = self.ctx.global.locks.load(idx);
        if w2 != w1 {
            let aborter = match w2 {
                LockWord::Locked { owner } => Some(owner),
                LockWord::Unlocked { .. } => None,
            };
            self.ctx.prof_conflict(addr.line().0, aborter, self.ctx.tid);
            return Err(Abort(()));
        }
        self.ctx.txn_load_confirm(pending);
        self.ctx.txn.read_locks.push(idx);
        let line = addr.line();
        self.ctx.prof_note_lock_line(idx, line.0);
        self.ctx.txn.read_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(val)
    }

    fn stm_lazy_write(&mut self, addr: WordAddr, value: u64) {
        let cost = self.ctx.global.config.cost.stm_lazy_write;
        self.ctx.charge_tm(cost);
        self.ctx.txn.write_map.insert(addr.0, value);
        self.ctx.txn.write_lines.insert(addr.line().0);
    }

    fn stm_eager_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        let cost = self.ctx.global.config.cost.stm_eager_read;
        self.ctx.charge_tm(cost);
        let locks = &self.ctx.global.locks;
        let idx = locks.index_of(addr);
        let val = match locks.load(idx) {
            LockWord::Locked { owner } if owner == self.ctx.tid => {
                // We hold the lock covering this word: the value is
                // stable, so the observation can be recorded directly.
                self.ctx.txn_load(addr)
            }
            LockWord::Locked { owner } => {
                self.ctx
                    .prof_conflict(addr.line().0, Some(owner), self.ctx.tid);
                return Err(Abort(()));
            }
            w1 @ LockWord::Unlocked { version } => {
                if version > self.ctx.txn.rv {
                    self.ctx.prof_conflict(addr.line().0, None, self.ctx.tid);
                    return Err(Abort(()));
                }
                let (val, pending) = self.ctx.txn_load_pending(addr);
                let w2 = self.ctx.global.locks.load(idx);
                if w2 != w1 {
                    let aborter = match w2 {
                        LockWord::Locked { owner } => Some(owner),
                        LockWord::Unlocked { .. } => None,
                    };
                    self.ctx.prof_conflict(addr.line().0, aborter, self.ctx.tid);
                    return Err(Abort(()));
                }
                self.ctx.txn_load_confirm(pending);
                self.ctx.txn.read_locks.push(idx);
                self.ctx.prof_note_lock_line(idx, addr.line().0);
                val
            }
        };
        let line = addr.line();
        self.ctx.txn.read_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(val)
    }

    fn stm_eager_write(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        let cost = self.ctx.global.config.cost.stm_eager_write;
        self.ctx.charge_tm(cost);
        let locks = &self.ctx.global.locks;
        let idx = locks.index_of(addr);
        match locks.load(idx) {
            LockWord::Locked { owner } if owner == self.ctx.tid => {}
            LockWord::Locked { owner } => {
                self.ctx
                    .prof_conflict(addr.line().0, Some(owner), self.ctx.tid);
                return Err(Abort(()));
            }
            LockWord::Unlocked { version } => {
                if version > self.ctx.txn.rv {
                    self.ctx.prof_conflict(addr.line().0, None, self.ctx.tid);
                    return Err(Abort(()));
                }
                match locks.try_lock(idx, self.ctx.tid) {
                    Ok(saved) => self.ctx.txn.held_locks.push((idx, saved)),
                    Err(w) => {
                        let aborter = match w {
                            LockWord::Locked { owner } => Some(owner),
                            LockWord::Unlocked { .. } => None,
                        };
                        self.ctx.prof_conflict(addr.line().0, aborter, self.ctx.tid);
                        return Err(Abort(()));
                    }
                }
            }
        }
        self.ctx.txn_store_eager(addr, value);
        let line = addr.line();
        self.ctx.txn.write_lines.insert(line.0);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(())
    }

    // ----- HTMs ---------------------------------------------------------

    /// Profiler helper: record a conflict that aborts *this*
    /// transaction, attributing it to the lowest-tid transaction in
    /// `mask` (or anonymously when the mask is empty).
    #[inline]
    fn prof_lost_to_mask(&self, line: LineAddr, mask: u32) {
        let aborter = (mask != 0).then(|| mask.trailing_zeros() as usize);
        self.ctx.prof_conflict(line.0, aborter, self.ctx.tid);
    }

    /// Profiler helper: doom thread `v` and record the conflict edge on
    /// the first (false → true) doom transition, so each victim abort
    /// is attributed exactly once. `swap` is semantically identical to
    /// the plain `store(true)` the engine used before profiling.
    #[inline]
    fn doom_and_record(&self, line: u64, v: usize) {
        use std::sync::atomic::Ordering;
        if !self.ctx.global.doomed[v].swap(true, Ordering::SeqCst) {
            self.ctx.prof_conflict(line, Some(self.ctx.tid), v);
        }
    }

    #[inline]
    fn check_doomed(&mut self) -> TxResult<()> {
        if self.is_doomed() {
            Err(Abort(()))
        } else {
            Ok(())
        }
    }

    /// L1 capacity tracking for the lazy HTM: inserting a line that no
    /// longer fits forces serialized execution (hold the commit token for
    /// the rest of the transaction).
    fn cache_insert_lazy(&mut self, line: LineAddr) -> TxResult<()> {
        if self.ctx.txn.resident.contains(&line.0) {
            return Ok(());
        }
        let assoc = self.ctx.global.config.l1.assoc as u8;
        let set = self.ctx.global.config.l1.set_of(line.0);
        let count = self.ctx.txn.set_counts.entry(set).or_insert(0);
        if *count >= assoc {
            if !self.ctx.txn.serialized {
                self.acquire_commit_token()?;
                self.ctx.txn.serialized = true;
            }
            Ok(())
        } else {
            *count += 1;
            self.ctx.txn.resident.insert(line.0);
            Ok(())
        }
    }

    /// L1 capacity tracking for the eager HTM: overflowing lines move to
    /// the Bloom signature (conservative: may cause false conflicts for
    /// other transactions, and cannot be early-released).
    fn cache_insert_eager(&mut self, line: LineAddr) {
        if self.ctx.txn.resident.contains(&line.0) || self.ctx.txn.overflowed.contains(&line.0) {
            return;
        }
        let assoc = self.ctx.global.config.l1.assoc as u8;
        let set = self.ctx.global.config.l1.set_of(line.0);
        let count = self.ctx.txn.set_counts.entry(set).or_insert(0);
        if *count >= assoc {
            if crate::trace::enabled(TraceLevel::Overflows) {
                crate::trace::emit(
                    TraceLevel::Overflows,
                    format_args!("line={} set={set} tid={}", line.0, self.ctx.tid),
                );
            }
            self.ctx.global.overflow_sigs[self.ctx.tid].insert(line);
            self.ctx.txn.overflowed.insert(line.0);
        } else {
            *count += 1;
            self.ctx.txn.resident.insert(line.0);
        }
    }

    /// Spin (in simulated time) for the global commit token, aborting if
    /// doomed while waiting.
    fn acquire_commit_token(&mut self) -> TxResult<()> {
        while !self.ctx.global.commit_token.try_acquire() {
            if self.is_doomed() {
                return Err(Abort(()));
            }
            self.ctx.spin_charge(10);
        }
        Ok(())
    }

    /// Read-only commit fence for the lazy systems: wait for any
    /// in-flight commit to finish (its second doom scan included), then
    /// make the final doom check. A reader that observed a partial
    /// commit is necessarily doomed by the time the committer releases
    /// the token, so this is sufficient for consistency without
    /// serializing read-only transactions against each other.
    fn read_only_fence(&mut self) -> TxResult<()> {
        while self.ctx.global.commit_token.is_locked() {
            if self.is_doomed() {
                return Err(Abort(()));
            }
            self.ctx.spin_charge(5);
        }
        self.check_doomed()
    }

    fn htm_lazy_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        self.check_doomed()?;
        if let Some(&v) = self.ctx.txn.write_map.get(&addr.0) {
            let c = self.ctx.global.config.cost.l1_hit;
            self.ctx.charge_app(c);
            return Ok(v);
        }
        let line = addr.line();
        if !self.ctx.txn.read_lines.contains(&line.0) {
            self.ctx.global.directory.add_reader(line, self.ctx.tid);
            self.ctx.txn.dir_lines.push(line.0);
            self.cache_insert_lazy(line)?;
            self.ctx.txn.read_lines.insert(line.0);
        }
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(self.ctx.txn_load(addr))
    }

    fn htm_lazy_write(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        self.check_doomed()?;
        let line = addr.line();
        if !self.ctx.txn.write_lines.contains(&line.0) {
            self.ctx.global.directory.add_writer(line, self.ctx.tid);
            self.ctx.txn.dir_lines.push(line.0);
            self.cache_insert_lazy(line)?;
            self.ctx.txn.write_lines.insert(line.0);
        }
        self.ctx.txn.write_map.insert(addr.0, value);
        let c = self.ctx.global.config.cost.l1_hit;
        self.ctx.charge_app(c);
        Ok(())
    }

    /// Eager-HTM conflict resolution: the requester loses and aborts
    /// unless it holds the priority token, in which case the victims are
    /// doomed and the requester waits (in simulated time) for them to
    /// vacate the line.
    fn resolve_eager(&mut self, line: LineAddr, victims: u32) -> TxResult<()> {
        use std::sync::atomic::Ordering;
        if crate::trace::enabled(TraceLevel::Conflicts) {
            crate::trace::emit(
                TraceLevel::Conflicts,
                format_args!(
                    "line={} tid={} victims={:#x} priority={}",
                    line.0, self.ctx.tid, victims, self.ctx.has_priority
                ),
            );
        }
        let stall = self.ctx.global.config.htm_conflict
            == crate::config::HtmConflictPolicy::RequesterStalls;
        // Contention-manager arbitration (Karma): a requester with
        // strictly higher priority than every victim wins the conflict
        // as if it held the priority token. Fixed policies never win.
        let cm_win = !self.ctx.has_priority
            && self
                .ctx
                .cm
                .wins_conflict(self.ctx.tid, victims, &self.ctx.global.cm_shared);
        if !self.ctx.has_priority && !cm_win && !stall {
            self.ctx.stats.priority_losses += 1;
            self.prof_lost_to_mask(line, victims);
            return Err(Abort(()));
        }
        if stall && !self.ctx.has_priority && !cm_win {
            // LogTM-style deadlock avoidance: only the *older*
            // transaction may stall; a younger requester aborts so the
            // wait-for graph stays acyclic.
            let my_ts = self.ctx.global.txn_ts[self.ctx.tid].load(Ordering::SeqCst);
            let mut mask = victims;
            while mask != 0 {
                let v = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if self.ctx.global.txn_ts[v].load(Ordering::SeqCst) < my_ts {
                    self.ctx.prof_conflict(line.0, Some(v), self.ctx.tid);
                    return Err(Abort(()));
                }
            }
        }
        let doom = self.ctx.has_priority || cm_win;
        // Stalling requesters get a bounded wait (LogTM-style, with a
        // timeout in place of deadlock detection); priority holders doom
        // their victims and wait for them to vacate.
        let limit: u32 = if doom { 100_000 } else { 10_000 };
        let mut spins = 0u32;
        loop {
            let occ = self.ctx.global.directory.occupancy(line);
            let remaining = (occ.readers | occ.writers) & victims;
            if remaining == 0 {
                if doom {
                    self.ctx.stats.priority_wins += 1;
                }
                return Ok(());
            }
            if doom {
                // (Re-)doom every iteration: a victim that restarted and
                // re-registered cleared its doom flag at begin.
                let mut mask = remaining;
                while mask != 0 {
                    let v = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    self.doom_and_record(line.0, v);
                }
                // A karma winner can itself be doomed by a token holder
                // or a concurrent karma winner: yield rather than stall
                // a conflict we have already lost.
                if cm_win && !self.ctx.has_priority && self.is_doomed() {
                    self.ctx.stats.priority_losses += 1;
                    self.ctx.prof_conflict(line.0, None, self.ctx.tid);
                    return Err(Abort(()));
                }
            } else if self.is_doomed() {
                self.ctx.prof_conflict(line.0, None, self.ctx.tid);
                return Err(Abort(()));
            }
            self.ctx.spin_charge(20);
            spins += 1;
            if spins > limit {
                // Timeout: give up (stall) / safety valve (priority).
                if doom {
                    self.ctx.stats.priority_losses += 1;
                }
                self.prof_lost_to_mask(line, remaining);
                return Err(Abort(()));
            }
        }
    }

    /// Conflict check against other transactions' overflow Bloom filters
    /// (eager HTM). False positives abort the requester, as in the paper.
    fn check_overflow_sigs(&mut self, line: LineAddr) -> TxResult<()> {
        use std::sync::atomic::Ordering;
        let n = self.ctx.global.config.threads;
        for t in 0..n {
            if t == self.ctx.tid || !self.ctx.global.active[t].load(Ordering::Acquire) {
                continue;
            }
            if self.ctx.global.overflow_sigs[t].maybe_contains(line) {
                if crate::trace::enabled(TraceLevel::SigHits) {
                    crate::trace::emit(
                        TraceLevel::SigHits,
                        format_args!("line={} tid={} owner={t}", line.0, self.ctx.tid),
                    );
                }
                if !self.ctx.has_priority {
                    self.ctx.prof_conflict(line.0, Some(t), self.ctx.tid);
                    return Err(Abort(()));
                }
                // Priority: doom the filter's owner and wait for it to
                // finish rolling back.
                let mut spins = 0u32;
                while self.ctx.global.active[t].load(Ordering::Acquire)
                    && self.ctx.global.overflow_sigs[t].maybe_contains(line)
                {
                    self.doom_and_record(line.0, t);
                    self.ctx.spin_charge(20);
                    spins += 1;
                    if spins > 100_000 {
                        self.ctx.prof_conflict(line.0, Some(t), self.ctx.tid);
                        return Err(Abort(()));
                    }
                }
            }
        }
        Ok(())
    }

    fn htm_eager_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        self.check_doomed()?;
        let line = addr.line();
        if !self.ctx.txn.read_lines.contains(&line.0) && !self.ctx.txn.write_lines.contains(&line.0)
        {
            self.check_overflow_sigs(line)?;
            let occ = self.ctx.global.directory.add_reader(line, self.ctx.tid);
            self.ctx.txn.dir_lines.push(line.0);
            let conflicts = occ.other_writers(self.ctx.tid);
            if conflicts != 0 {
                self.resolve_eager(line, conflicts)?;
            }
            self.cache_insert_eager(line);
            self.ctx.txn.read_lines.insert(line.0);
        }
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(self.ctx.txn_load(addr))
    }

    fn htm_eager_write(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        self.check_doomed()?;
        let line = addr.line();
        if !self.ctx.txn.write_lines.contains(&line.0) {
            self.check_overflow_sigs(line)?;
            let occ = self.ctx.global.directory.add_writer(line, self.ctx.tid);
            self.ctx.txn.dir_lines.push(line.0);
            let conflicts = occ.others(self.ctx.tid);
            if conflicts != 0 {
                self.resolve_eager(line, conflicts)?;
            }
            if !self.ctx.txn.read_lines.contains(&line.0) {
                self.cache_insert_eager(line);
            }
            self.ctx.txn.write_lines.insert(line.0);
        }
        self.ctx.txn_store_eager(addr, value);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(())
    }

    // ----- hybrids (SigTM-style) ----------------------------------------

    fn hyb_lazy_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        self.check_doomed()?;
        let cost = self.ctx.global.config.cost.hybrid_read;
        self.ctx.charge_tm(cost);
        if let Some(&v) = self.ctx.txn.write_map.get(&addr.0) {
            return Ok(v);
        }
        let line = addr.line();
        if !self.ctx.txn.read_lines.contains(&line.0) {
            self.ctx.global.read_sigs[self.ctx.tid].insert(line);
            self.ctx.txn.read_lines.insert(line.0);
        }
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(self.ctx.txn_load(addr))
    }

    fn hyb_lazy_write(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        self.check_doomed()?;
        let cost = self.ctx.global.config.cost.hybrid_write;
        self.ctx.charge_tm(cost);
        let line = addr.line();
        if !self.ctx.txn.write_lines.contains(&line.0) {
            self.ctx.global.write_sigs[self.ctx.tid].insert(line);
            self.ctx.txn.write_lines.insert(line.0);
        }
        self.ctx.txn.write_map.insert(addr.0, value);
        Ok(())
    }

    fn hyb_eager_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        use std::sync::atomic::Ordering;
        let cost = self.ctx.global.config.cost.hybrid_read;
        self.ctx.charge_tm(cost);
        let line = addr.line();
        if !self.ctx.txn.read_lines.contains(&line.0) && !self.ctx.txn.write_lines.contains(&line.0)
        {
            self.ctx.global.read_sigs[self.ctx.tid].insert(line);
            self.ctx.txn.read_lines.insert(line.0);
            let n = self.ctx.global.config.threads;
            for t in 0..n {
                if t != self.ctx.tid
                    && self.ctx.global.active[t].load(Ordering::Acquire)
                    && self.ctx.global.write_sigs[t].maybe_contains(line)
                {
                    self.ctx.prof_conflict(line.0, Some(t), self.ctx.tid);
                    return Err(Abort(())); // requester loses; backoff breaks ties
                }
            }
        }
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(self.ctx.txn_load(addr))
    }

    fn hyb_eager_write(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        use std::sync::atomic::Ordering;
        let cost = self.ctx.global.config.cost.hybrid_write;
        self.ctx.charge_tm(cost);
        let line = addr.line();
        if !self.ctx.txn.write_lines.contains(&line.0) {
            self.ctx.global.write_sigs[self.ctx.tid].insert(line);
            self.ctx.txn.write_lines.insert(line.0);
            let n = self.ctx.global.config.threads;
            for t in 0..n {
                if t != self.ctx.tid && self.ctx.global.active[t].load(Ordering::Acquire) {
                    let sig_hit = self.ctx.global.write_sigs[t].maybe_contains(line)
                        || self.ctx.global.read_sigs[t].maybe_contains(line);
                    if sig_hit {
                        self.ctx.prof_conflict(line.0, Some(t), self.ctx.tid);
                        return Err(Abort(()));
                    }
                }
            }
        }
        self.ctx.txn_store_eager(addr, value);
        let c = self.ctx.mem_cost(line);
        self.ctx.charge_app(c);
        Ok(())
    }

    // ----- commit / rollback ---------------------------------------------

    pub(crate) fn try_commit(&mut self) -> TxResult<()> {
        let result = match self.ctx.global.config.system {
            SystemKind::Sequential => Ok(()),
            SystemKind::GlobalLock => {
                self.ctx.global.commit_token.release();
                Ok(())
            }
            SystemKind::LazyStm => self.commit_lazy_stm(),
            SystemKind::EagerStm => self.commit_eager_stm(),
            SystemKind::LazyHtm => self.commit_lazy_htm(),
            SystemKind::EagerHtm => self.commit_eager_htm(),
            SystemKind::LazyHybrid => self.commit_lazy_hybrid(),
            SystemKind::EagerHybrid => self.commit_eager_hybrid(),
        };
        if result.is_ok() {
            // Injected delayed commit: extra cycles modeling commit
            // arbitration / coherence-burst stalls, charged as TM
            // overhead of the committing attempt.
            let stall = self.ctx.fault.as_mut().map_or(0, |f| {
                if f.stream.roll(f.cfg.stall_permille) {
                    f.cfg.stall_cycles
                } else {
                    0
                }
            });
            if stall > 0 {
                if crate::trace::enabled(TraceLevel::Faults) {
                    crate::trace::emit(
                        TraceLevel::Faults,
                        format_args!(
                            "inject kind={} tid={} cycles={stall}",
                            FaultKind::CommitStall,
                            self.ctx.tid
                        ),
                    );
                }
                self.ctx.charge_tm(stall);
            }
        }
        if result.is_ok() && self.ctx.txn.cm_token {
            // CM-serialized attempt: the token was held since begin;
            // release it only now that the commit's effects are visible.
            self.ctx.global.commit_token.release();
            self.ctx.txn.cm_token = false;
        }
        if result.is_err() {
            self.rollback();
        }
        result
    }

    /// TL2 read-set validation. `acquired` holds (index, pre-lock
    /// version) pairs, sorted by index, for locks this commit acquired:
    /// a read entry locked by ourselves is valid only if the version the
    /// lock held *before we acquired it* is no newer than `rv`. (Eager
    /// STM passes an empty slice: it version-checks at acquisition.)
    /// On failure, returns the offending lock-table index and the
    /// conflicting owner when one is identifiable (for the profiler's
    /// conflict table; `None` means the writer already committed).
    fn validate_read_set(&self, acquired: &[(u32, u64)]) -> Result<(), (u32, Option<usize>)> {
        let rv = self.ctx.txn.rv;
        for &idx in &self.ctx.txn.read_locks {
            match self.ctx.global.locks.load(idx) {
                LockWord::Locked { owner } if owner == self.ctx.tid => {
                    if let Ok(pos) = acquired.binary_search_by_key(&idx, |&(i, _)| i) {
                        if acquired[pos].1 > rv {
                            return Err((idx, None));
                        }
                    }
                }
                LockWord::Locked { owner } => return Err((idx, Some(owner))),
                LockWord::Unlocked { version } => {
                    if version > rv {
                        return Err((idx, None));
                    }
                }
            }
        }
        Ok(())
    }

    /// Profiler helper: attribute a TL2 validation failure at lock-table
    /// index `idx` to the heap line the attempt read through it.
    #[inline]
    fn prof_validation_conflict(&self, idx: u32, owner: Option<usize>) {
        if let Some(line) = self.ctx.prof_lock_line(idx) {
            self.ctx.prof_conflict(line, owner, self.ctx.tid);
        }
    }

    fn commit_lazy_stm(&mut self) -> TxResult<()> {
        self.ctx.charge_txn_fixed();
        if self.ctx.txn.write_map.is_empty() {
            return Ok(()); // read-only: rv-consistent by TL2 validation
        }
        // Lock the write set in index order (deadlock-free; any failure
        // aborts). Each index carries one heap line it guards, so a
        // lock-acquisition conflict can be attributed by the profiler.
        let mut idxs: Vec<(u32, u64)> = self
            .ctx
            .txn
            .write_map
            .keys()
            .map(|&a| {
                let addr = WordAddr(a);
                (self.ctx.global.locks.index_of(addr), addr.line().0)
            })
            .collect();
        idxs.sort_unstable();
        idxs.dedup_by_key(|&mut (i, _)| i);
        let mut acquired: Vec<(u32, u64)> = Vec::with_capacity(idxs.len());
        for &(idx, line) in &idxs {
            match self.ctx.global.locks.try_lock(idx, self.ctx.tid) {
                Ok(saved) => acquired.push((idx, saved)),
                Err(w) => {
                    let aborter = match w {
                        LockWord::Locked { owner } => Some(owner),
                        LockWord::Unlocked { .. } => None,
                    };
                    self.ctx.prof_conflict(line, aborter, self.ctx.tid);
                    for &(i, v) in &acquired {
                        self.ctx.global.locks.unlock(i, v);
                    }
                    return Err(Abort(()));
                }
            }
        }
        let wv = self.ctx.global.clock.increment();
        // Mutation hook for `tm::verify` teeth tests: skipping TL2
        // commit-time validation admits stale read sets, which the
        // sanitizer must surface as a serialization cycle.
        let skip_validation = self.ctx.global.config.mutation == MutationHook::SkipTl2Validation;
        if wv > self.ctx.txn.rv + 1 && !skip_validation {
            if let Err((idx, owner)) = self.validate_read_set(&acquired) {
                self.prof_validation_conflict(idx, owner);
                for &(i, v) in &acquired {
                    self.ctx.global.locks.unlock(i, v);
                }
                return Err(Abort(()));
            }
        }
        let cost = self.ctx.global.config.cost;
        let entries: Vec<(u64, u64)> = self
            .ctx
            .txn
            .write_map
            .iter()
            .map(|(&a, &v)| (a, v))
            .collect();
        for (a, v) in entries {
            let addr = WordAddr(a);
            self.ctx.txn_store_commit(addr, v);
            let c = self.ctx.mem_cost(addr.line());
            self.ctx.charge_app(c);
            self.ctx.charge_tm(cost.commit_per_write);
        }
        self.ctx
            .charge_tm(cost.commit_per_read * self.ctx.txn.read_locks.len() as u64);
        for &(i, _) in &acquired {
            self.ctx.global.locks.unlock(i, wv);
        }
        Ok(())
    }

    fn commit_eager_stm(&mut self) -> TxResult<()> {
        let cost = self.ctx.global.config.cost;
        self.ctx.charge_txn_fixed();
        let wv = self.ctx.global.clock.increment();
        // Mutation hook: see `commit_lazy_stm`.
        let skip_validation = self.ctx.global.config.mutation == MutationHook::SkipTl2Validation;
        if wv > self.ctx.txn.rv + 1 && !skip_validation {
            if let Err((idx, owner)) = self.validate_read_set(&[]) {
                self.prof_validation_conflict(idx, owner);
                return Err(Abort(())); // rollback (in try_commit) undoes and releases
            }
        }
        self.ctx
            .charge_tm(cost.commit_per_read * self.ctx.txn.read_locks.len() as u64);
        for &(idx, _) in &self.ctx.txn.held_locks {
            self.ctx.global.locks.unlock(idx, wv);
        }
        self.ctx.txn.held_locks.clear();
        self.ctx.txn.undo.clear();
        Ok(())
    }

    fn commit_lazy_htm(&mut self) -> TxResult<()> {
        self.check_doomed()?;
        if self.ctx.txn.write_map.is_empty() && !self.ctx.txn.serialized {
            self.read_only_fence()?;
            self.release_directory_entries();
            self.ctx.charge_txn_fixed();
            return Ok(());
        }
        if !self.ctx.txn.serialized {
            self.acquire_commit_token()?;
            self.ctx.txn.serialized = true; // rollback must release it now
        }
        if self.is_doomed() {
            return Err(Abort(()));
        }
        // Group buffered writes by line and apply each line atomically
        // with its victim scan (doom-then-apply under the shard lock).
        let mut entries: Vec<(u64, u64)> = self
            .ctx
            .txn
            .write_map
            .iter()
            .map(|(&a, &v)| (a, v))
            .collect();
        entries.sort_unstable_by_key(|&(a, _)| a);
        let cost = self.ctx.global.config.cost;
        let mut i = 0;
        while i < entries.len() {
            let line = WordAddr(entries[i].0).line();
            let mut j = i;
            while j < entries.len() && WordAddr(entries[j].0).line() == line {
                j += 1;
            }
            let slice = &entries[i..j];
            // Split-borrow the context so the commit closure can update
            // the sanitizer shadow heap while the directory shard lock is
            // held (shard lock → verify mutex is the sanctioned order;
            // the verify helpers never take shard locks).
            let victims = {
                let ThreadCtx {
                    global, vtx, tid, ..
                } = &mut *self.ctx;
                let heap = &global.heap;
                let vs = global.verify.as_ref();
                global.directory.commit_line(line, *tid, || {
                    for &(a, v) in slice {
                        match vs {
                            Some(vs) => crate::verify::write_commit(vs, vtx, heap, WordAddr(a), v),
                            None => heap.raw_store(WordAddr(a), v),
                        }
                    }
                })
            };
            let mut mask = victims;
            while mask != 0 {
                let t = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.doom_and_record(line.0, t);
            }
            let c = self.ctx.mem_cost(line);
            self.ctx.charge_app(c);
            self.ctx.charge_tm(cost.htm_commit_per_line);
            i = j;
        }
        self.release_directory_entries();
        self.ctx.global.commit_token.release();
        self.ctx.txn.serialized = false;
        self.ctx.charge_txn_fixed();
        Ok(())
    }

    fn commit_eager_htm(&mut self) -> TxResult<()> {
        self.check_doomed()?;
        self.release_directory_entries();
        self.ctx.global.overflow_sigs[self.ctx.tid].clear();
        self.ctx.txn.undo.clear();
        self.ctx.charge_txn_fixed();
        Ok(())
    }

    /// Doom every active transaction whose signature intersects this
    /// commit's write lines.
    fn scan_and_doom(&self, lines: &[u64]) {
        use std::sync::atomic::Ordering;
        let n = self.ctx.global.config.threads;
        for t in 0..n {
            if t == self.ctx.tid || !self.ctx.global.active[t].load(Ordering::Acquire) {
                continue;
            }
            for &l in lines {
                let line = LineAddr(l);
                if self.ctx.global.read_sigs[t].maybe_contains(line)
                    || self.ctx.global.write_sigs[t].maybe_contains(line)
                {
                    self.doom_and_record(l, t);
                    break;
                }
            }
        }
    }

    fn commit_lazy_hybrid(&mut self) -> TxResult<()> {
        use std::sync::atomic::Ordering;
        self.check_doomed()?;
        let cost = self.ctx.global.config.cost;
        // A CM-serialized attempt already holds the commit token: the
        // fence/acquire below would self-deadlock, and the token is
        // released centrally in `try_commit`/`rollback` instead.
        let cm_held = self.ctx.txn.cm_token;
        if self.ctx.txn.write_map.is_empty() && !cm_held {
            self.read_only_fence()?;
            self.ctx.global.active[self.ctx.tid].store(false, Ordering::SeqCst);
            self.ctx.global.read_sigs[self.ctx.tid].clear();
            self.ctx.global.write_sigs[self.ctx.tid].clear();
            self.ctx.charge_txn_fixed();
            return Ok(());
        }
        if !cm_held {
            self.acquire_commit_token()?;
        }
        if self.is_doomed() {
            if !cm_held {
                self.ctx.global.commit_token.release();
            }
            return Err(Abort(()));
        }
        let lines: Vec<u64> = self.ctx.txn.write_lines.iter().copied().collect();
        // Doom–apply–doom: any reader that slips between the scans still
        // gets doomed by the second scan, so no zombie survives.
        self.scan_and_doom(&lines);
        let entries: Vec<(u64, u64)> = self
            .ctx
            .txn
            .write_map
            .iter()
            .map(|(&a, &v)| (a, v))
            .collect();
        for (a, v) in entries {
            let addr = WordAddr(a);
            self.ctx.txn_store_commit(addr, v);
            let c = self.ctx.mem_cost(addr.line());
            self.ctx.charge_app(c);
            self.ctx.charge_tm(cost.commit_per_write);
        }
        self.scan_and_doom(&lines);
        // Mark inactive and clear signatures *before* releasing the
        // token: committed lines no longer conflict with anyone.
        self.ctx.global.active[self.ctx.tid].store(false, Ordering::SeqCst);
        self.ctx.global.read_sigs[self.ctx.tid].clear();
        self.ctx.global.write_sigs[self.ctx.tid].clear();
        if !cm_held {
            self.ctx.global.commit_token.release();
        }
        self.ctx.charge_txn_fixed();
        Ok(())
    }

    fn commit_eager_hybrid(&mut self) -> TxResult<()> {
        use std::sync::atomic::Ordering;
        // Conflicts were resolved at encounter time; nothing to validate.
        // Mark inactive first, then clear signatures: observers check the
        // active flag before the signature, and our writes are committed
        // (in place) either way.
        self.ctx.txn.undo.clear();
        self.ctx.global.active[self.ctx.tid].store(false, Ordering::SeqCst);
        self.ctx.global.read_sigs[self.ctx.tid].clear();
        self.ctx.global.write_sigs[self.ctx.tid].clear();
        self.ctx.charge_txn_fixed();
        Ok(())
    }

    fn release_directory_entries(&mut self) {
        let tid = self.ctx.tid;
        for &l in &self.ctx.txn.dir_lines {
            self.ctx.global.directory.remove(LineAddr(l), tid);
        }
        self.ctx.txn.dir_lines.clear();
    }

    /// Undo all side effects of the current attempt. Called on every
    /// abort path; also used by `try_commit` on failure. Idempotent.
    pub(crate) fn rollback(&mut self) {
        use std::sync::atomic::Ordering;
        let sys = self.ctx.global.config.system;
        if sys == SystemKind::GlobalLock {
            // Writes were applied in place under the lock; there is no
            // log to roll back. Explicit aborts are a programming error
            // in lock-based execution.
            self.ctx.global.commit_token.release();
            panic!("explicit transaction abort under GlobalLock leaves partial writes");
        }
        let cost = self.ctx.global.config.cost;
        // 1. Restore memory (eager systems), newest first. With the
        // sanitizer on this also rolls back the shadow heap and audits
        // the zombie attempt's read set, so it runs even when the undo
        // log is empty (lazy systems buffer writes, but their aborted
        // reads still need the stability audit).
        let undo_len = self.ctx.txn.undo.len();
        if undo_len > 0 || self.ctx.global.verify.is_some() {
            self.ctx.undo_restore();
            self.ctx.txn.undo.clear();
            // Charge exactly as the uninstrumented engine would: even a
            // zero-cycle charge can flush pending cycles at a different
            // point and perturb the simulated interleaving.
            if undo_len > 0 {
                self.ctx.charge_tm(cost.abort_per_undo * undo_len as u64);
            }
        }
        // 2. Release STM locks, restoring their pre-lock versions.
        if !self.ctx.txn.held_locks.is_empty() {
            let held = std::mem::take(&mut self.ctx.txn.held_locks);
            for &(idx, saved) in &held {
                self.ctx.global.locks.unlock(idx, saved);
            }
        }
        // 3. Clear coherence / signature state.
        match sys {
            SystemKind::LazyHtm | SystemKind::EagerHtm => {
                self.release_directory_entries();
                if sys == SystemKind::EagerHtm {
                    self.ctx.global.overflow_sigs[self.ctx.tid].clear();
                }
                if self.ctx.txn.serialized {
                    self.ctx.global.commit_token.release();
                    self.ctx.txn.serialized = false;
                }
            }
            SystemKind::LazyHybrid | SystemKind::EagerHybrid => {
                self.ctx.global.active[self.ctx.tid].store(false, Ordering::SeqCst);
                self.ctx.global.read_sigs[self.ctx.tid].clear();
                self.ctx.global.write_sigs[self.ctx.tid].clear();
            }
            _ => {}
        }
        // 4. Release the CM serialization token (held since begin when
        // the contention manager serialized this attempt). After the
        // coherence/signature cleanup above, so no successor observes
        // this attempt's stale conflict state.
        if self.ctx.txn.cm_token {
            self.ctx.global.commit_token.release();
            self.ctx.txn.cm_token = false;
        }
        self.ctx.global.active[self.ctx.tid].store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("tid", &self.ctx.tid)
            .field("system", &self.ctx.global.config.system)
            .field("read_barriers", &self.ctx.txn.read_barriers)
            .field("write_barriers", &self.ctx.txn.write_barriers)
            .finish()
    }
}
