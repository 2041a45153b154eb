//! Time-ordered execution simulation.
//!
//! The STAMP paper evaluates every TM system on an execution-driven
//! simulator (Table V) and reports *simulated cycles*, not hardware wall
//! clock. This module provides the equivalent substrate: application
//! threads run as real OS threads whose interleaving is dictated by the
//! deterministic turn-based [`crate::sched::Scheduler`]. Every TM
//! barrier, memory access, and unit of application work advances the
//! local clock, so contention, aborts, and serialization emerge from
//! reproducible interleavings of the *logical* processors — independent
//! of how many host cores exist.
//!
//! Synchronization primitives that must not stall simulated time
//! ([`SimMutex`]) spin in simulated time; the phase barrier
//! ([`SimBarrier`]) parks threads outside the scheduler's runnable set and
//! re-synchronizes their clocks on release, like a hardware barrier would.

use parking_lot::{Condvar, Mutex};

/// Cycles a thread accumulates locally before publishing to the scheduler.
/// This bounds scheduler overhead; the effective quantum is
/// `quantum + FLUSH_CYCLES`.
pub(crate) const FLUSH_CYCLES: u64 = 64;

/// A mutex that spins in *simulated* time.
///
/// Holders are expected to release quickly (commit sections); waiters call
/// [`SimMutex::acquire_until`] with a closure that charges simulated
/// cycles per failed attempt, which lets the scheduler run the holder.
pub struct SimMutex {
    locked: std::sync::atomic::AtomicBool,
}

impl Default for SimMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMutex {
    /// Create an unlocked mutex.
    pub const fn new() -> Self {
        SimMutex {
            locked: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Try to acquire without spinning. Returns true on success.
    #[inline]
    pub fn try_acquire(&self) -> bool {
        !self.locked.swap(true, std::sync::atomic::Ordering::Acquire)
    }

    /// Acquire, calling `spin_tick` once per failed attempt; the closure
    /// charges simulated cycles and returns whether to keep waiting.
    /// Returns true once acquired, false if `spin_tick` gave up.
    ///
    /// This is the substrate for contention-manager serialization
    /// ([`crate::cm`]): the wait advances *simulated* time only, so a
    /// serialized transaction's queueing delay shows up in `sim_cycles`
    /// exactly like any other stall.
    pub fn acquire_until(&self, mut spin_tick: impl FnMut() -> bool) -> bool {
        let mut spins = 0u32;
        while !self.try_acquire() {
            if !spin_tick() {
                return false;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        true
    }

    /// Release the mutex.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the mutex was held.
    #[inline]
    pub fn release(&self) {
        debug_assert!(self.locked.load(std::sync::atomic::Ordering::Relaxed));
        self.locked
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Whether the mutex is currently held by someone.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.locked.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl std::fmt::Debug for SimMutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimMutex(locked={})", self.is_locked())
    }
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    max_clock: u64,
    release_clock: u64,
}

/// A phase barrier for logical threads that re-synchronizes simulated
/// clocks: all participants leave with their clock set to the latest
/// arrival time (plus a small fixed cost).
pub struct SimBarrier {
    n: usize,
    cost: u64,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl SimBarrier {
    /// Barrier for `n` logical threads.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        SimBarrier {
            n,
            cost: 100,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                max_clock: 0,
                release_clock: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Arrive with simulated clock `clock`; blocks until all `n` threads
    /// arrive, then returns the synchronized release clock.
    ///
    /// The caller must have parked itself in the scheduler first (handled
    /// by `ThreadCtx::barrier`).
    pub fn wait(&self, clock: u64) -> u64 {
        self.wait_role(clock).0
    }

    /// Like [`SimBarrier::wait`], but also reports whether the caller
    /// was the *releaser* (the last arrival). The releaser is the one
    /// thread that must re-admit all participants to the scheduler in a
    /// single deterministic step ([`crate::sched::Scheduler::unpark_all`])
    /// before the others race back from the barrier.
    pub fn wait_role(&self, clock: u64) -> (u64, bool) {
        let mut s = self.state.lock();
        s.max_clock = s.max_clock.max(clock);
        s.arrived += 1;
        if s.arrived == self.n {
            s.arrived = 0;
            s.generation += 1;
            s.release_clock = s.max_clock + self.cost;
            s.max_clock = 0;
            let release = s.release_clock;
            drop(s);
            self.cv.notify_all();
            (release, true)
        } else {
            let gen = s.generation;
            while s.generation == gen {
                self.cv.wait(&mut s);
            }
            (s.release_clock, false)
        }
    }
}

impl std::fmt::Debug for SimBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimBarrier(n={})", self.n)
    }
}

/// A tiny, fast, seedable PRNG (xorshift64*), used for backoff delays and
/// as the engine-internal randomness source. Deterministic per seed.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create from a seed (zero is mapped to a fixed nonzero constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn sim_mutex_mutual_exclusion() {
        let m = Arc::new(SimMutex::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            let c = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.acquire_until(|| true);
                    let v = c.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    c.store(v + 1, Ordering::Relaxed);
                    m.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn sim_mutex_acquire_until_charges_and_gives_up() {
        let m = SimMutex::new();
        // Uncontended: acquired without a single tick.
        let mut ticks = 0u32;
        assert!(m.acquire_until(|| {
            ticks += 1;
            true
        }));
        assert_eq!(ticks, 0);
        // Contended with a bounded wait: ticks accumulate (simulated
        // cycles would be charged), then the waiter gives up.
        let mut ticks = 0u32;
        assert!(!m.acquire_until(|| {
            ticks += 1;
            ticks < 10
        }));
        assert_eq!(ticks, 10);
        m.release();
        assert!(m.acquire_until(|| false));
        m.release();
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let b = Arc::new(SimBarrier::new(3));
        let mut handles = Vec::new();
        for (i, clock) in [100u64, 500, 300].into_iter().enumerate() {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let _ = i;
                b.wait(clock)
            }));
        }
        let releases: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &releases {
            assert_eq!(*r, 600); // max(100,500,300) + barrier cost 100
        }
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let b = Arc::new(SimBarrier::new(2));
        for round in 0..3u64 {
            let b1 = b.clone();
            let t = std::thread::spawn(move || b1.wait(round * 10));
            let r_main = b.wait(round * 10 + 5);
            let r_thread = t.join().unwrap();
            assert_eq!(r_main, r_thread);
            assert_eq!(r_main, round * 10 + 5 + 100);
        }
    }

    #[test]
    fn xorshift_deterministic_and_bounded() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
        }
    }
}
