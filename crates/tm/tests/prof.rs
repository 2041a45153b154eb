//! Integration tests for `tm::prof`, the cycle-accounting profiler.
//!
//! The load-bearing property is the hard accounting invariant: with
//! profiling on, every simulated cycle a thread burns lands in exactly
//! one of the six buckets, so per thread the buckets sum *exactly* to
//! the final clock — across every system, thread count, and schedule
//! sampled here. The second property is the observer contract shared
//! with `tm::verify`: enabling profiling changes no simulated number.

use tm::{ProfBucket, RunReport, SchedMode, SystemKind, TmConfig, TmRuntime};

const ALL_EXECUTION_MODES: [SystemKind; 8] = [
    SystemKind::Sequential,
    SystemKind::GlobalLock,
    SystemKind::LazyHtm,
    SystemKind::EagerHtm,
    SystemKind::LazyStm,
    SystemKind::EagerStm,
    SystemKind::LazyHybrid,
    SystemKind::EagerHybrid,
];

/// A contended workload: every thread hammers one shared counter (plus
/// some private work), guaranteeing aborts on every TM system at >1
/// thread. Returns the report and the final counter value.
fn contended(cfg: TmConfig, iters: u64) -> (RunReport, u64) {
    let rt = TmRuntime::new(cfg);
    let counter = rt.heap().alloc_cell(0u64);
    let report = rt.run(|ctx| {
        for _ in 0..iters {
            ctx.atomic(|txn| {
                let v = txn.read(&counter)?;
                txn.work(8);
                txn.write(&counter, v + 1)
            });
            ctx.work(12);
        }
    });
    let v = rt.heap().load_cell(&counter);
    (report, v)
}

#[test]
fn buckets_sum_to_clock_on_every_system_and_thread_count() {
    for sys in ALL_EXECUTION_MODES {
        for threads in [1, 2, 4] {
            if sys == SystemKind::Sequential && threads != 1 {
                continue;
            }
            let cfg = TmConfig::new(sys, threads)
                .sched(SchedMode::MinClock)
                .prof(true);
            let (rep, value) = contended(cfg, 200);
            assert_eq!(value, 200 * threads as u64, "lost updates under {sys}");
            let prof = rep.prof.as_ref().expect("prof report present");
            prof.check()
                .unwrap_or_else(|e| panic!("{sys} x{threads}: {e}"));
            assert_eq!(prof.threads.len(), threads);
            // The per-thread clocks the profiler saw must be the same
            // ones the stats pipeline aggregated.
            assert_eq!(prof.total_cycles(), rep.stats.cycles_total);
            assert!(prof.bucket(ProfBucket::Useful) > 0, "{sys}: no useful work");
            if rep.stats.aborts > 0 {
                assert!(
                    prof.bucket(ProfBucket::Wasted) > 0,
                    "{sys}: {} aborts but no wasted cycles",
                    rep.stats.aborts
                );
            }
            assert_eq!(
                prof.bucket(ProfBucket::Backoff),
                rep.stats.backoff_cycles,
                "{sys}: Backoff bucket must equal the engine's backoff counter"
            );
        }
    }
}

#[test]
fn profiling_is_zero_simulated_cost() {
    for sys in ALL_EXECUTION_MODES {
        let threads = if sys == SystemKind::Sequential { 1 } else { 4 };
        let base = TmConfig::new(sys, threads).sched(SchedMode::MinClock);
        let (plain, v1) = contended(base.clone(), 150);
        let (profiled, v2) = contended(base.prof(true), 150);
        assert_eq!(v1, v2);
        assert!(plain.prof.is_none());
        assert!(profiled.prof.is_some());
        assert_eq!(
            plain.sim_cycles, profiled.sim_cycles,
            "{sys}: profiling changed sim_cycles"
        );
        assert_eq!(plain.stats.commits, profiled.stats.commits);
        assert_eq!(plain.stats.aborts, profiled.stats.aborts);
        assert_eq!(plain.stats.backoff_cycles, profiled.stats.backoff_cycles);
        assert_eq!(plain.stats.cycles_total, profiled.stats.cycles_total);
    }
}

#[test]
fn hot_lines_name_the_contended_address() {
    // One shared counter is the only possible conflict source; whenever
    // aborts happened, the hottest line must be the counter's line.
    for sys in SystemKind::ALL_TM {
        let cfg = TmConfig::new(sys, 4).sched(SchedMode::MinClock).prof(true);
        let rt = TmRuntime::new(cfg);
        let counter = rt.heap().alloc_cell(0u64);
        let line = counter.addr().line().0;
        let rep = rt.run(|ctx| {
            for _ in 0..300 {
                ctx.atomic(|txn| {
                    let v = txn.read(&counter)?;
                    txn.work(5);
                    txn.write(&counter, v + 1)
                });
            }
        });
        let prof = rep.prof.as_ref().unwrap();
        prof.check().unwrap_or_else(|e| panic!("{sys}: {e}"));
        if rep.stats.aborts > 0 {
            assert!(
                !prof.hot_lines.is_empty(),
                "{sys}: {} aborts but empty conflict table",
                rep.stats.aborts
            );
            assert_eq!(
                prof.hot_lines[0].line, line,
                "{sys}: hottest line is not the contended counter"
            );
            let top = &prof.hot_lines[0];
            assert!(top.events > 0);
            assert!(!top.pairs.is_empty());
            let pair_sum: u64 = top.pairs.iter().map(|p| p.events).sum();
            assert_eq!(pair_sum, top.events, "{sys}: pair breakdown must sum");
        }
    }
}

#[test]
fn barrier_wait_is_attributed() {
    let cfg = TmConfig::new(SystemKind::LazyStm, 4)
        .sched(SchedMode::MinClock)
        .prof(true);
    let rt = TmRuntime::new(cfg);
    let rep = rt.run(|ctx| {
        // Unbalanced phase: thread 0 does 10x the work, the others wait.
        let units = if ctx.tid() == 0 { 10_000 } else { 1_000 };
        ctx.work(units);
        ctx.barrier();
        ctx.work(100);
    });
    let prof = rep.prof.as_ref().unwrap();
    prof.check().unwrap();
    assert!(
        prof.bucket(ProfBucket::Barrier) > 0,
        "unbalanced barrier produced no barrier-wait cycles"
    );
    // Thread 0 was the latest arrival: it only pays the barrier's own
    // fixed release cost, while the early arrivals also absorb the
    // ~9000-cycle imbalance.
    assert!(
        prof.threads[0].bucket(ProfBucket::Barrier) < prof.threads[1].bucket(ProfBucket::Barrier),
        "latest arrival waited longer than an early one"
    );
    assert!(prof.threads[1].bucket(ProfBucket::Barrier) >= 9_000);
}

#[test]
fn prof_and_verify_compose() {
    // Both shadow layers on at once: still zero simulated cost, the
    // sanitizer still passes, and the buckets still sum.
    for sys in SystemKind::ALL_TM {
        let base = TmConfig::new(sys, 4).sched(SchedMode::MinClock);
        let (plain, _) = contended(base.clone(), 150);
        let (both, _) = contended(base.verify(true).prof(true), 150);
        assert_eq!(
            plain.sim_cycles, both.sim_cycles,
            "{sys}: verify+prof changed sim_cycles"
        );
        let verify = both.verify.as_ref().expect("verify report");
        assert!(
            verify.violations.is_empty(),
            "{sys}: sanitizer violations with prof on: {:?}",
            verify.violations
        );
        both.prof
            .as_ref()
            .unwrap()
            .check()
            .unwrap_or_else(|e| panic!("{sys}: {e}"));
    }
}

#[test]
fn replay_determinism_of_prof_report() {
    // Same config + seeds → the entire profiler report (buckets and
    // conflict table) must replay identically.
    for sys in [SystemKind::EagerHtm, SystemKind::LazyStm] {
        let cfg = || {
            TmConfig::new(sys, 4)
                .sched(SchedMode::MinClock)
                .sched_seed(11)
                .prof(true)
        };
        let (a, _) = contended(cfg(), 200);
        let (b, _) = contended(cfg(), 200);
        assert_eq!(a.prof, b.prof, "{sys}: prof report did not replay");
    }
}
