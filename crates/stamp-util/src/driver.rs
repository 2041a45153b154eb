//! Helpers shared by the application binaries: building a [`TmConfig`]
//! from command-line flags. Flags are the only way a binary sets a run
//! knob; the engine reads no environment variable except the
//! diagnostics-only `TM_TRACE`.

use tm::{CmPolicy, FaultConfig, Granularity, SchedMode, SystemKind, TmConfig, WatchdogConfig};

use crate::cli::Args;

/// Build a [`TmConfig`] from the common driver flags:
///
/// * `--system <name>` — one of `seq`, `lazy-htm`, `eager-htm`,
///   `lazy-stm`, `eager-stm`, `lazy-hybrid`, `eager-hybrid`
///   (default `lazy-stm`);
/// * `--threads <n>` / `-t <n>` is *not* used (apps use `-t` for their
///   own flags); thread count comes from `--threads` only;
/// * `--quantum <cycles>`, `--seed <s>`, `--cache-sim`,
///   `--granularity word|line`;
/// * `--sched minclock|pct` and `--sched-seed <s>` — deterministic
///   scheduler dispatch mode and replay seed (see `tm::sched`);
/// * `--verify` — run under the `tm::verify` sanitizer;
/// * `--prof` — run under the `tm::prof` cycle-accounting profiler
///   (both are zero-simulated-cost observers); the CLI summary then
///   appends the cycle breakdown and hottest conflict lines;
/// * `--cm <policy>` — contention manager (`immediate`, `linear`,
///   `exponential`, `karma`, `adaptive`; see `tm::cm`);
/// * `--fault <spec>` — seeded fault injection (see
///   `tm::FaultConfig::parse` for the grammar);
/// * `--watchdog aborts=N,cycles=C` — starvation-watchdog bounds.
///
/// # Panics
///
/// Panics on an unknown or malformed flag value.
pub fn tm_config_from_args(args: &Args) -> TmConfig {
    let system = args
        .get("system")
        .map(|s| SystemKind::parse(s).unwrap_or_else(|| panic!("unknown system {s:?}")))
        .unwrap_or(SystemKind::LazyStm);
    let threads = args.get_u64("threads", 4) as usize;
    let mut cfg = if system == SystemKind::Sequential {
        TmConfig::sequential()
    } else {
        TmConfig::new(system, threads)
    };
    let quantum = args.get_u64("quantum", cfg.quantum);
    let seed = args.get_u64("seed", cfg.seed);
    let sched_seed = args.get_u64("sched-seed", cfg.sched_seed);
    cfg = cfg.quantum(quantum).seed(seed).sched_seed(sched_seed);
    if let Some(mode) = args.get("sched") {
        cfg = cfg.sched(
            SchedMode::parse(mode)
                .unwrap_or_else(|| panic!("unknown sched mode {mode:?} (minclock|pct)")),
        );
    }
    if args.get_bool("cache-sim") {
        cfg = cfg.cache_sim(true);
    }
    if args.get_bool("verify") {
        cfg = cfg.verify(true);
    }
    if args.get_bool("prof") {
        cfg = cfg.prof(true);
    }
    if let Some(v) = args.get("cm") {
        cfg = cfg.cm(CmPolicy::parse(v).unwrap_or_else(|| {
            panic!(
                "--cm {v:?} is not a contention-manager policy \
                 (expected immediate|linear|exponential|karma|adaptive)"
            )
        }));
    }
    if let Some(v) = args.get("fault") {
        cfg = cfg.fault(FaultConfig::parse(v).unwrap_or_else(|e| panic!("--fault {v:?}: {e}")));
    }
    if let Some(v) = args.get("watchdog") {
        cfg = cfg
            .watchdog(WatchdogConfig::parse(v).unwrap_or_else(|e| panic!("--watchdog {v:?}: {e}")));
    }
    match args.get("granularity") {
        Some("line") => cfg = cfg.stm_granularity(Granularity::Line),
        Some("word") | None => {}
        Some(other) => panic!("unknown granularity {other:?}"),
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let cfg = tm_config_from_args(&parse(""));
        assert_eq!(cfg.system, SystemKind::LazyStm);
        assert_eq!(cfg.threads, 4);
    }

    #[test]
    fn full_flags() {
        let cfg = tm_config_from_args(&parse(
            "--system eager-htm --threads 8 --quantum 100 --cache-sim --granularity line \
             --sched pct --sched-seed 99 --cm karma --fault seed=3,intr=5 \
             --watchdog aborts=8,cycles=0",
        ));
        assert_eq!(cfg.system, SystemKind::EagerHtm);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.quantum, 100);
        assert!(cfg.cache_sim);
        assert_eq!(cfg.stm_granularity, Granularity::Line);
        assert_eq!(cfg.sched_seed, 99);
        assert!(matches!(cfg.sched, SchedMode::Pct { .. }));
        assert_eq!(cfg.cm, Some(CmPolicy::DEFAULT_KARMA));
        let fault = cfg.fault.expect("--fault parsed");
        assert_eq!((fault.seed, fault.interrupt_permille), (3, 5));
        assert_eq!(
            cfg.watchdog,
            Some(WatchdogConfig {
                max_consecutive_aborts: 8,
                max_invested_cycles: 0,
            })
        );
    }

    #[test]
    #[should_panic(expected = "not a contention-manager policy")]
    fn bad_cm_rejected() {
        let _ = tm_config_from_args(&parse("--cm bogus"));
    }

    #[test]
    fn observer_flags() {
        let cfg = tm_config_from_args(&parse("--verify --prof"));
        assert!(cfg.verify);
        assert!(cfg.prof);
        let cfg = tm_config_from_args(&parse(""));
        assert!(!cfg.prof);
    }

    #[test]
    fn sequential_forces_one_thread() {
        let cfg = tm_config_from_args(&parse("--system seq --threads 8"));
        assert_eq!(cfg.threads, 1);
    }
}
