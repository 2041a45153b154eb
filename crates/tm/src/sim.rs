//! Simulated-time primitives shared by the engine.
//!
//! The turn-based [`crate::sched::Scheduler`] decides which logical
//! thread runs; this module holds what the threads use in between: the
//! flush threshold for locally accumulated cycles, [`SimMutex`] (the
//! global commit token, which waiters probe with `try_acquire` while
//! charging simulated cycles, so a wait costs simulated time and hands
//! the turn to the holder), and the seedable [`XorShift64`] PRNG.

/// Cycles a thread accumulates locally before publishing to the scheduler.
/// This bounds scheduler overhead; the effective quantum is
/// `quantum + FLUSH_CYCLES`.
pub(crate) const FLUSH_CYCLES: u64 = 64;

/// A mutex that is waited on in *simulated* time.
///
/// Holders release quickly (commit sections). Waiters loop on
/// [`SimMutex::try_acquire`], charging simulated cycles per failed
/// probe, which lets the scheduler run the holder.
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
                    while !m.try_acquire() {
                        std::hint::spin_loop();
                    }
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
