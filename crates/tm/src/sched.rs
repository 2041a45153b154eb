//! Deterministic cooperative scheduling for the sim engine.
//!
//! The seed scheduler only *bounded* clock skew: any thread within one
//! quantum of the slowest runnable thread could run, so the actual
//! interleaving — and with it `sim_cycles`, abort counts, and every
//! contention-manager statistic — depended on host core count and load.
//! This module replaces that window with strict turn-based dispatch:
//! at any instant exactly one logical thread (the *turn holder*) is
//! between scheduler calls, and the holder is a pure function of the
//! published clocks, thread statuses, and a seeded tie-break. Identical
//! (app, variant, system, threads, seed) inputs therefore produce
//! bit-identical runs on any host.
//!
//! Two dispatch modes ([`SchedMode`], [`crate::TmConfig::sched`]):
//!
//! * [`SchedMode::MinClock`] (default) — the turn goes to the runnable
//!   thread with the minimum published clock; ties break by a seeded
//!   permutation ([`crate::TmConfig::sched_seed`]). The holder
//!   retains the turn while within one quantum of the slowest runnable
//!   thread, so clock skew obeys exactly the bound the seed scheduler
//!   enforced and the Table V cost model is undisturbed.
//! * [`SchedMode::Pct`] — PCT-style schedule exploration (Burckhardt et
//!   al., *A Randomized Scheduler with Probabilistic Guarantees of
//!   Finding Bugs*): each thread gets a seeded priority, the
//!   highest-priority thread inside the quantum window runs, and at
//!   seeded change points the running thread's priority drops below
//!   everyone else's. Different seeds drive the run through different —
//!   deliberately adversarial — interleavings, every one of them
//!   reproducible and still quantum-bounded.
//!
//! The scheduler is the only place a logical thread blocks. A thread
//! waits for the turn in [`Scheduler::advance`]/[`Scheduler::wait_turn`],
//! or for the rest of the run at the phase barrier
//! ([`Scheduler::barrier`]), which parks it out of dispatch and
//! releases every thread at once at the latest arrival's clock.
//! Simulated-time waits (commit token, irrevocability gate, eager-HTM
//! stalls) are plain probe loops whose every probe publishes cycles and
//! so hands the turn on through `advance`.
//!
//! The `bench --bin schedfuzz` harness sweeps seeds in both modes with
//! the [`crate::verify`] sanitizer recording every transaction, turning
//! the sanitizer from a spot check into a fuzzing oracle.

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::sim::XorShift64;

/// Default deterministic-scheduler seed ([`crate::TmConfig::sched_seed`]).
pub const DEFAULT_SCHED_SEED: u64 = 0x5eed_feed;

/// Default mean gap (in published scheduler steps) between PCT priority
/// change points.
pub const DEFAULT_PCT_GAP: u64 = 400;

/// Cycles a phase barrier adds to the latest arrival's clock.
pub(crate) const BARRIER_CYCLES: u64 = 100;

/// Dispatch policy of the deterministic [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Strict min-clock-first dispatch with seeded tie-breaking — the
    /// canonical "fair" schedule used for golden cycle counts.
    #[default]
    MinClock,
    /// PCT-style randomized-priority dispatch: adversarial interleaving
    /// exploration, still deterministic per seed.
    Pct {
        /// Mean number of published scheduler steps between priority
        /// change points.
        avg_gap: u64,
    },
}

impl SchedMode {
    /// Parse a mode name: `minclock` (also `det`/`deterministic`) or
    /// `pct`.
    pub fn parse(s: &str) -> Option<SchedMode> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "minclock" | "det" | "deterministic" => SchedMode::MinClock,
            "pct" => SchedMode::Pct {
                avg_gap: DEFAULT_PCT_GAP,
            },
            _ => return None,
        })
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedMode::MinClock => "minclock",
            SchedMode::Pct { .. } => "pct",
        }
    }
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    Running,
    /// Arrived at the phase barrier; excluded from dispatch until the
    /// last arrival releases it.
    Parked,
    Done,
}

/// Initial PCT priorities sit above this base; every demotion takes a
/// fresh value counting down from just below it, so priorities are
/// always pairwise distinct and demoted threads rank below everyone.
const PRIO_BASE: u64 = u64::MAX / 2;

struct SchedState {
    clocks: Vec<u64>,
    status: Vec<ThreadStatus>,
    /// The unique thread currently allowed to run (turn holder).
    current: Option<usize>,
    /// PCT priorities (untouched in MinClock mode).
    prio: Vec<u64>,
    /// Published-advance counter driving PCT change points.
    steps: u64,
    /// Step count at which the next PCT priority change fires.
    next_change: u64,
    /// Next demotion priority value (counts down from `PRIO_BASE - 1`).
    next_low: u64,
    /// Seeded stream for PCT change-point gaps.
    rng: XorShift64,
    /// Threads parked at the current phase barrier.
    arrived: usize,
    /// Latest published clock among the current barrier's arrivals.
    arrival_max: u64,
}

/// The deterministic turn-based scheduler: exactly one logical thread
/// runs at a time, chosen by [`SchedMode`] over published clocks with
/// seeded tie-breaking. See the module docs for the dispatch rules.
pub struct Scheduler {
    quantum: u64,
    mode: SchedMode,
    /// Seeded tie-break rank per thread (lower rank runs first on clock
    /// ties); a Fisher–Yates permutation of `0..threads`.
    rank: Vec<u64>,
    state: Mutex<SchedState>,
    /// Turn changes: threads waiting for the turn sleep here.
    cv: Condvar,
    /// Barrier releases: parked threads sleep here, so turn handoffs
    /// never wake them.
    park_cv: Condvar,
}

impl Scheduler {
    /// Create a scheduler for `threads` logical processors dispatched by
    /// `mode` with deterministic tie-breaking derived from `seed`.
    pub fn new(threads: usize, quantum: u64, mode: SchedMode, seed: u64) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut order: Vec<usize> = (0..threads).collect();
        for i in (1..threads).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut rank = vec![0u64; threads];
        for (pos, &tid) in order.iter().enumerate() {
            rank[tid] = pos as u64;
        }
        let prio: Vec<u64> = rank
            .iter()
            .map(|r| PRIO_BASE + (threads as u64 - r))
            .collect();
        let next_change = match mode {
            SchedMode::Pct { avg_gap } => 1 + rng.below(2 * avg_gap.max(1)),
            SchedMode::MinClock => u64::MAX,
        };
        Scheduler {
            quantum,
            mode,
            rank,
            state: Mutex::new(SchedState {
                clocks: vec![0; threads],
                status: vec![ThreadStatus::Running; threads],
                current: None,
                prio,
                steps: 0,
                next_change,
                next_low: PRIO_BASE - 1,
                rng,
                arrived: 0,
                arrival_max: 0,
            }),
            cv: Condvar::new(),
            park_cv: Condvar::new(),
        }
    }

    /// Compute (and record) the turn holder. Pure in the scheduler
    /// state: no host-timing input ever reaches this decision.
    fn pick(&self, s: &mut SchedState) -> Option<usize> {
        let n = s.clocks.len();
        // Turn retention: the holder keeps running while within one
        // quantum of the slowest runnable thread. This bounds skew by
        // exactly the window the seed scheduler enforced (so the Table V
        // cost model is undisturbed) and bounds the handoff rate.
        if let Some(cur) = s.current {
            if s.status[cur] == ThreadStatus::Running {
                let min_other = (0..n)
                    .filter(|&t| t != cur && s.status[t] == ThreadStatus::Running)
                    .map(|t| s.clocks[t])
                    .min();
                match min_other {
                    None => return Some(cur),
                    Some(m) if s.clocks[cur] <= m + self.quantum => return Some(cur),
                    _ => {}
                }
            }
        }
        let next = match self.mode {
            SchedMode::MinClock => (0..n)
                .filter(|&t| s.status[t] == ThreadStatus::Running)
                .min_by_key(|&t| (s.clocks[t], self.rank[t])),
            SchedMode::Pct { .. } => {
                let min = (0..n)
                    .filter(|&t| s.status[t] == ThreadStatus::Running)
                    .map(|t| s.clocks[t])
                    .min();
                min.and_then(|m| {
                    (0..n)
                        .filter(|&t| {
                            s.status[t] == ThreadStatus::Running && s.clocks[t] <= m + self.quantum
                        })
                        .max_by_key(|&t| s.prio[t])
                })
            }
        };
        s.current = next;
        next
    }

    /// Block until `tid` holds the turn.
    ///
    /// A thread only ever sleeps here when `pick` selected someone else,
    /// and `pick` records its selection in `current` — so the holder can
    /// never itself be asleep, and one notification per holder *change*
    /// suffices (re-notifying on an unchanged holder would only wake
    /// threads that go straight back to sleep).
    fn wait_turn_locked(&self, tid: usize, mut s: MutexGuard<'_, SchedState>) {
        loop {
            let prev = s.current;
            let next = self.pick(&mut s);
            if next == Some(tid) {
                return;
            }
            if next != prev {
                self.cv.notify_all();
            }
            self.cv.wait(&mut s);
        }
    }

    /// Block until `tid` holds the turn: the gate a logical thread must
    /// pass before its first shared-state access.
    pub fn wait_turn(&self, tid: usize) {
        let s = self.state.lock();
        self.wait_turn_locked(tid, s);
    }

    /// Publish `cycles` of progress for `tid`, then block until `tid`
    /// holds the turn again (it usually still does, by retention).
    ///
    /// Must not be called while holding any other lock.
    pub fn advance(&self, tid: usize, cycles: u64) {
        let mut s = self.state.lock();
        debug_assert_eq!(s.status[tid], ThreadStatus::Running);
        s.clocks[tid] += cycles;
        if let SchedMode::Pct { avg_gap } = self.mode {
            s.steps += 1;
            if s.steps >= s.next_change {
                // PCT change point: demote the publishing thread below
                // every other priority so the schedule pivots here.
                s.next_low -= 1;
                s.prio[tid] = s.next_low;
                let gap = 1 + s.rng.below(2 * avg_gap.max(1));
                s.next_change = s.steps + gap;
                s.current = None;
            }
        }
        self.wait_turn_locked(tid, s);
    }

    /// Phase barrier for all threads of the run: park `tid` at its
    /// published clock and block until every thread has arrived, then
    /// until `tid` holds the turn again. Returns the release clock, the
    /// latest arrival's clock plus 100 cycles.
    ///
    /// The last arrival releases every parked thread in one step, under
    /// the scheduler lock, before any of them can run again: the
    /// post-barrier dispatch order depends only on clocks, seeded ranks
    /// and priorities, never on the host order in which the woken
    /// threads reach the lock.
    pub fn barrier(&self, tid: usize) -> u64 {
        let mut s = self.state.lock();
        debug_assert_eq!(s.status[tid], ThreadStatus::Running);
        s.status[tid] = ThreadStatus::Parked;
        s.arrival_max = s.arrival_max.max(s.clocks[tid]);
        s.arrived += 1;
        let woken = if s.arrived == s.clocks.len() {
            let release = s.arrival_max + BARRIER_CYCLES;
            s.arrived = 0;
            s.arrival_max = 0;
            s.status.fill(ThreadStatus::Running);
            s.clocks.fill(release);
            s.current = None;
            &self.park_cv
        } else {
            // Hand the turn on: this thread is out of dispatch until the
            // release flips its status back.
            self.pick(&mut s);
            &self.cv
        };
        // Notify outside the lock, as `done` does: a woken thread that
        // runs at once then finds the lock free instead of sleeping on
        // it again.
        drop(s);
        woken.notify_all();
        let mut s = self.state.lock();
        while s.status[tid] == ThreadStatus::Parked {
            self.park_cv.wait(&mut s);
        }
        let release = s.clocks[tid];
        self.wait_turn_locked(tid, s);
        release
    }

    /// Mark `tid` as finished.
    pub fn done(&self, tid: usize) {
        let mut s = self.state.lock();
        s.status[tid] = ThreadStatus::Done;
        if s.current == Some(tid) {
            s.current = None;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// The published clock of `tid` (excludes unflushed local cycles).
    pub fn clock(&self, tid: usize) -> u64 {
        self.state.lock().clocks[tid]
    }

    /// Maximum published clock over all threads: the simulated makespan.
    pub fn max_clock(&self) -> u64 {
        self.state.lock().clocks.iter().copied().max().unwrap_or(0)
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("quantum", &self.quantum)
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn sched(threads: usize, quantum: u64) -> Scheduler {
        Scheduler::new(threads, quantum, SchedMode::MinClock, 42)
    }

    #[test]
    fn scheduler_bounds_skew() {
        let sched = Arc::new(sched(2, 100));
        let max_seen = Arc::new(AtomicU64::new(0));
        let s1 = sched.clone();
        let m1 = max_seen.clone();
        let fast = std::thread::spawn(move || {
            for _ in 0..1000 {
                s1.advance(0, 10);
                let skew = s1.clock(0).saturating_sub(s1.clock(1));
                m1.fetch_max(skew, Ordering::Relaxed);
            }
            s1.done(0);
        });
        let s2 = sched.clone();
        let slow = std::thread::spawn(move || {
            for _ in 0..1000 {
                s2.advance(1, 10);
                std::hint::spin_loop();
            }
            s2.done(1);
        });
        fast.join().unwrap();
        slow.join().unwrap();
        // Turn retention allows at most quantum + one advance of skew
        // while both threads are runnable.
        assert!(max_seen.load(Ordering::Relaxed) <= 100 + 10);
        assert_eq!(sched.max_clock(), 10_000);
    }

    #[test]
    fn strict_dispatch_serializes_threads() {
        // With one turn holder at a time, a data-race-prone read-modify-
        // write on a plain (non-atomic-RMW) cell is safe as long as every
        // access happens between scheduler calls.
        let sched = Arc::new(sched(4, 50));
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for tid in 0..4 {
            let s = sched.clone();
            let v = value.clone();
            handles.push(std::thread::spawn(move || {
                s.wait_turn(tid);
                for _ in 0..500 {
                    let read = v.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    v.store(read + 1, Ordering::Relaxed);
                    s.advance(tid, 7);
                }
                s.done(tid);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn dispatch_order_is_seeded_and_deterministic() {
        // Same seed → same tie-break permutation; some other seed in a
        // small sweep must produce a different one (2 threads would make
        // this flaky, 8 give 40320 permutations).
        let order_of = |seed: u64| {
            let s = Scheduler::new(8, 100, SchedMode::MinClock, seed);
            s.rank.clone()
        };
        assert_eq!(order_of(7), order_of(7));
        assert!(
            (0..32u64).any(|seed| order_of(seed) != order_of(7)),
            "every seed produced the identical permutation"
        );
    }

    #[test]
    fn pct_mode_changes_interleaving_with_seed() {
        // Record the order in which threads win the turn under PCT with
        // two different seeds; the traces must be deterministic per seed.
        let trace_of = |seed: u64| {
            let sched = Arc::new(Scheduler::new(2, 100, SchedMode::Pct { avg_gap: 3 }, seed));
            let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for tid in 0..2 {
                let s = sched.clone();
                let t = trace.clone();
                handles.push(std::thread::spawn(move || {
                    s.wait_turn(tid);
                    for _ in 0..200 {
                        t.lock().push(tid);
                        s.advance(tid, 10);
                    }
                    s.done(tid);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            Arc::try_unwrap(trace).unwrap().into_inner()
        };
        assert_eq!(trace_of(1), trace_of(1));
        assert_eq!(trace_of(9), trace_of(9));
    }

    #[test]
    fn barrier_releases_at_latest_arrival_across_generations() {
        // Thread t works 1000 * t cycles before each of three barriers,
        // so thread 0 parks at once while the others run many quanta
        // past it. Every generation releases all three at the latest
        // arrival + BARRIER_CYCLES.
        let sched = Arc::new(sched(3, 50));
        let handles: Vec<_> = (0..3)
            .map(|tid| {
                let s = sched.clone();
                std::thread::spawn(move || {
                    s.wait_turn(tid);
                    let mut releases = Vec::new();
                    for _ in 0..3 {
                        for _ in 0..tid * 10 {
                            s.advance(tid, 100);
                        }
                        let release = s.barrier(tid);
                        assert_eq!(s.clock(tid), release);
                        releases.push(release);
                    }
                    s.done(tid);
                    releases
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2100, 4200, 6300]);
        }
    }

    #[test]
    fn barrier_with_one_thread_releases_at_once() {
        let s = sched(1, 50);
        s.wait_turn(0);
        s.advance(0, 70);
        assert_eq!(s.barrier(0), 70 + BARRIER_CYCLES);
        assert_eq!(s.barrier(0), 70 + 2 * BARRIER_CYCLES);
        s.done(0);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(SchedMode::parse("min-clock"), Some(SchedMode::MinClock));
        assert_eq!(SchedMode::parse("deterministic"), Some(SchedMode::MinClock));
        assert_eq!(
            SchedMode::parse("pct"),
            Some(SchedMode::Pct {
                avg_gap: DEFAULT_PCT_GAP
            })
        );
        assert_eq!(SchedMode::parse("bogus"), None);
    }
}
