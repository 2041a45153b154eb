//! A run must be a pure function of its explicit configuration: no
//! environment variable may change a knob or a simulated result.
//!
//! This file holds exactly one test, so its process has no other
//! thread reading the environment while the variables are set.

use bench::golden::{check_variant, golden_dir};
use stamp::tm::{SchedMode, SystemKind, TmConfig, DEFAULT_SCHED_SEED};

/// Every variable the engine once read as a run-knob override, each
/// set to a non-default value.
const FORMER_KNOBS: [(&str, &str); 8] = [
    ("TM_CM", "karma"),
    ("TM_SCHED", "pct"),
    ("TM_SCHED_GAP", "3"),
    ("TM_SCHED_SEED", "7"),
    ("TM_VERIFY", "1"),
    ("TM_PROF", "1"),
    ("TM_FAULT", "seed=7,cap=200,intr=200"),
    ("TM_WATCHDOG", "aborts=4,cycles=0"),
];

#[test]
fn environment_changes_no_knob_and_no_result() {
    for (key, value) in FORMER_KNOBS {
        std::env::set_var(key, value);
    }

    let cfg = TmConfig::new(SystemKind::LazyStm, 4);
    assert_eq!(cfg.cm, None);
    assert_eq!(cfg.sched, SchedMode::MinClock);
    assert_eq!(cfg.sched_seed, DEFAULT_SCHED_SEED);
    assert!(!cfg.verify && !cfg.prof);
    assert_eq!(cfg.fault, None);
    assert_eq!(cfg.watchdog, None);

    let genome = stamp_util::variant("genome").expect("known variant");
    check_variant(&golden_dir(), &genome).unwrap();
}
