//! The three workloads and the fixed run list each one makes from a seed.
//!
//! Why each workload is there (see also `perfbench/README.md`):
//!
//! * `solo` — every app at one simulated thread on all six systems: no
//!   turn handoffs, so host time is barrier dispatch, read/write-set
//!   bookkeeping and app compute. The control for scheduler changes.
//! * `herd` — low-contention apps at sixteen simulated threads, where
//!   host time is the scheduler waking every parked thread on each turn
//!   change.
//! * `contended` — high-contention apps at four threads on all six
//!   systems: the abort, rollback, backoff and serialization paths and
//!   the conflict-detection structures.
//!
//! A fourth workload, small inputs under MinClock and PCT with the
//! sanitizer and profiler on, was dropped: its host time varied by up to
//! 1.4x between processes of one seed (see `README.md`). The traced run
//! still times both observers on every workload's run list.

use stamp_util::AppParams;
use tm::{SchedMode, SplitMix64, SystemKind, TmConfig};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One simulated thread, every app, all six systems.
    Solo,
    /// Sixteen simulated threads, low contention.
    Herd,
    /// Four simulated threads, high contention.
    Contended,
}

/// One application run: an input, a TM configuration and the observers.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Table IV variant the input derives from.
    pub variant: &'static str,
    /// Application parameters, seed included.
    pub params: AppParams,
    /// Modelled TM system.
    pub system: SystemKind,
    /// Simulated threads.
    pub threads: usize,
    /// Scheduler seed.
    pub sched_seed: u64,
    /// Whether the serializability sanitizer runs.
    pub verify: bool,
    /// Whether the cycle profiler runs.
    pub prof: bool,
}

impl RunSpec {
    /// The engine configuration of this run, under the MinClock
    /// scheduler.
    ///
    /// # Panics
    ///
    /// If `threads` is 0 or above the engine's limit of 32.
    pub fn config(&self) -> TmConfig {
        TmConfig::new(self.system, self.threads)
            .sched(SchedMode::MinClock)
            .sched_seed(self.sched_seed)
            .verify(self.verify)
            .prof(self.prof)
    }
}

/// A value derived from the workload seed; `salt` keeps the streams of
/// different consumers apart.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The scheduler seed every run of a workload uses.
pub fn sched_seed(seed: u64) -> u64 {
    derive(seed, 0x5c4e_d000)
}

/// `params` with its input seed replaced.
fn reseed(params: AppParams, seed: u32) -> AppParams {
    match params {
        AppParams::Bayes(p) => AppParams::Bayes(stamp_util::BayesParams { seed, ..p }),
        AppParams::Genome(p) => AppParams::Genome(stamp_util::GenomeParams { seed, ..p }),
        AppParams::Intruder(p) => AppParams::Intruder(stamp_util::IntruderParams { seed, ..p }),
        AppParams::Kmeans(p) => AppParams::Kmeans(stamp_util::KmeansParams { seed, ..p }),
        AppParams::Labyrinth(p) => AppParams::Labyrinth(stamp_util::LabyrinthParams { seed, ..p }),
        AppParams::Ssca2(p) => AppParams::Ssca2(stamp_util::Ssca2Params { seed, ..p }),
        AppParams::Vacation(p) => AppParams::Vacation(stamp_util::VacationParams { seed, ..p }),
        AppParams::Yada(p) => AppParams::Yada(stamp_util::YadaParams { seed, ..p }),
    }
}

/// The Table IV variant `name`, divided by `scale`, with input seed
/// `seed`.
fn input(name: &'static str, scale: u32, seed: u64) -> (&'static str, AppParams) {
    let v = stamp_util::variant(name).expect("workload names a Table IV variant");
    (name, reseed(v.scaled(scale), seed as u32))
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Solo, Workload::Herd, Workload::Contended];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Herd => "herd",
            Workload::Contended => "contended",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's run list for `seed`. `shrink` divides every input
    /// further (1 for the benchmark itself; larger values give the
    /// tiny runs the benchmark's own tests use).
    pub fn runs(self, seed: u64, shrink: u32) -> Vec<RunSpec> {
        let plain = |(variant, params): (&'static str, AppParams), system, threads| RunSpec {
            variant,
            params,
            system,
            threads,
            sched_seed: sched_seed(seed),
            verify: false,
            prof: false,
        };
        // Every run gets an input of its own, so a pass averages over
        // many inputs and its host time depends little on the seed.
        let run_seed = |runs: &Vec<RunSpec>| derive(seed, runs.len() as u64);
        let mut runs = Vec::new();
        match self {
            Workload::Solo => {
                for name in [
                    "bayes",
                    "genome",
                    "intruder",
                    "kmeans-high",
                    "labyrinth",
                    "ssca2",
                    "vacation-high",
                    "yada",
                ] {
                    for system in SystemKind::ALL_TM {
                        runs.push(plain(input(name, 4 * shrink, run_seed(&runs)), system, 1));
                    }
                }
            }
            Workload::Herd => {
                for name in ["genome", "kmeans-low", "ssca2", "vacation-low"] {
                    for system in [SystemKind::LazyStm, SystemKind::LazyHtm] {
                        for _ in 0..HERD_INPUTS {
                            let input = input(name, 4 * HERD_INPUTS * shrink, run_seed(&runs));
                            runs.push(plain(input, system, 16));
                        }
                    }
                }
            }
            Workload::Contended => {
                for name in ["intruder", "kmeans-high", "vacation-high", "labyrinth"] {
                    for system in SystemKind::ALL_TM {
                        runs.push(plain(input(name, 4 * shrink, run_seed(&runs)), system, 4));
                    }
                }
            }
        }
        runs
    }
}

/// Inputs per (app, system) in `herd`, each this many times smaller
/// than the other workloads' inputs. How many iterations kmeans takes to
/// converge depends on its input: over twelve seeds, one kmeans-low input
/// per system made the pass's simulated work vary by 8% (quartile
/// distance over median), with kmeans-low a third of the pass's time.
const HERD_INPUTS: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_runs() {
        for w in Workload::ALL {
            let a = w.runs(7, 1);
            let b = w.runs(7, 1);
            assert!(!a.is_empty());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(format!("{a:?}"), format!("{:?}", w.runs(8, 1)));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
