//! Engine integration tests: every TM system must preserve atomicity and
//! isolation under contention, and the simulation machinery must produce
//! sensible cycle counts.

use tm::{CmPolicy, Granularity, SystemKind, TmConfig, TmRuntime};

fn all_systems() -> [SystemKind; 6] {
    SystemKind::ALL_TM
}

/// N threads each increment a shared counter M times; final value must be
/// exactly N*M under every system.
#[test]
fn counter_increments_are_atomic() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4).quantum(100));
        let counter = rt.heap().alloc_cell(0u64);
        let report = rt.run(|ctx| {
            for _ in 0..250 {
                ctx.atomic(|txn| {
                    let v = txn.read(&counter)?;
                    txn.work(5);
                    txn.write(&counter, v + 1)
                });
            }
        });
        assert_eq!(
            rt.heap().load_cell(&counter),
            1000,
            "lost updates under {sys}"
        );
        assert_eq!(report.stats.commits, 1000, "commit count under {sys}");
        assert!(report.sim_cycles > 0, "no simulated time under {sys}");
    }
}

/// Transfers between two accounts must conserve the total (isolation):
/// a concurrent observer transaction must never see a partial transfer.
#[test]
fn transfers_conserve_total() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4).quantum(50));
        let a = rt.heap().alloc_cell(1_000i64);
        let b = rt.heap().alloc_cell(1_000i64);
        rt.run(|ctx| {
            if ctx.tid() == 0 {
                // Observer: totals must always be 2000.
                for _ in 0..200 {
                    let total = ctx.atomic(|txn| {
                        let x = txn.read(&a)?;
                        let y = txn.read(&b)?;
                        Ok(x + y)
                    });
                    assert_eq!(total, 2000, "partial transfer visible under {sys}");
                }
            } else {
                for i in 0..200 {
                    let amount = (i % 7) as i64 + 1;
                    ctx.atomic(|txn| {
                        let x = txn.read(&a)?;
                        let y = txn.read(&b)?;
                        txn.write(&a, x - amount)?;
                        txn.write(&b, y + amount)
                    });
                }
            }
        });
        assert_eq!(
            rt.heap().load_cell(&a) + rt.heap().load_cell(&b),
            2000,
            "total not conserved under {sys}"
        );
    }
}

/// Word-granularity STM should not conflict on different words of the
/// same line; the line-granularity systems will (false sharing), but must
/// still be correct.
#[test]
fn adjacent_word_updates_are_correct_everywhere() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4));
        let arr = rt.heap().alloc_array::<u64>(4, 0); // one cache line
        rt.run(|ctx| {
            let tid = ctx.tid() as u64;
            for _ in 0..100 {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, tid)?;
                    txn.write_idx(&arr, tid, v + 1)
                });
            }
        });
        for i in 0..4 {
            assert_eq!(rt.heap().load_elem(&arr, i), 100, "slot {i} under {sys}");
        }
    }
}

/// A transaction aborted by the body (Err) must leave no trace, even for
/// eager (in-place) systems — exercised via a body that writes then
/// aborts on its first attempts.
#[test]
fn failed_attempts_roll_back() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 2));
        let cell = rt.heap().alloc_cell(7u64);
        let probe = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            if ctx.tid() == 0 {
                let mut attempts = 0;
                ctx.atomic(|txn| {
                    txn.write(&cell, 99)?;
                    attempts += 1;
                    if attempts < 3 {
                        // Simulate a conflict-driven abort.
                        return tm::txn::abort();
                    }
                    txn.write(&probe, attempts as u64)
                });
            }
        });
        assert_eq!(
            rt.heap().load_cell(&cell),
            99,
            "final write lost under {sys}"
        );
        assert_eq!(
            rt.heap().load_cell(&probe),
            3,
            "wrong retry count under {sys}"
        );
    }
}

/// Read-only transactions commit without locking anything.
#[test]
fn read_only_transactions_commit() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 4));
        let cell = rt.heap().alloc_cell(5u64);
        let report = rt.run(|ctx| {
            for _ in 0..50 {
                let v = ctx.atomic(|txn| txn.read(&cell));
                assert_eq!(v, 5);
            }
        });
        assert_eq!(report.stats.commits, 200);
    }
}

/// Large transactions overflow the modeled L1 on the HTMs: the lazy HTM
/// must serialize (still correct), and the eager HTM must spill to its
/// Bloom filter (still correct, extra aborts allowed).
#[test]
fn htm_capacity_overflow_remains_correct() {
    for sys in [SystemKind::LazyHtm, SystemKind::EagerHtm] {
        let mut cfg = TmConfig::new(sys, 2).quantum(1000);
        // Shrink the modeled L1 so overflow happens quickly.
        cfg.l1 = tm::CacheGeometry {
            size_bytes: 1024, // 32 lines
            assoc: 2,
            line_bytes: 32,
        };
        let rt = TmRuntime::new(cfg);
        let arr = rt.heap().alloc_array::<u64>(1024, 0); // 256 lines >> L1
        let rt_ref = &rt;
        let report = rt.run(move |ctx| {
            let tid = ctx.tid() as u64;
            let _ = rt_ref;
            for round in 0..5 {
                ctx.atomic(|txn| {
                    // Touch many lines: guaranteed overflow.
                    let mut sum = 0u64;
                    for i in 0..256 {
                        sum += txn.read_idx(&arr, i * 4)?;
                    }
                    txn.write_idx(&arr, tid * 4, sum + round + 1)
                });
            }
        });
        assert!(report.stats.commits >= 10, "commits under {sys}");
        // Values written must reflect complete transactions.
        let v0 = rt.heap().load_elem(&arr, 0);
        let v1 = rt.heap().load_elem(&arr, 4);
        assert!(v0 > 0 && v1 > 0, "writes lost under {sys}");
    }
}

/// High contention with many threads: the engine must make progress (no
/// livelock/deadlock) on every system, including the no-backoff HTMs.
#[test]
fn high_contention_progress() {
    for sys in all_systems() {
        let rt = TmRuntime::new(TmConfig::new(sys, 8).quantum(50));
        let hot = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            for _ in 0..50 {
                ctx.atomic(|txn| {
                    let v = txn.read(&hot)?;
                    txn.work(20);
                    txn.write(&hot, v + 1)
                });
            }
        });
        assert_eq!(rt.heap().load_cell(&hot), 400, "under {sys}");
    }
}

/// More threads must not increase the simulated makespan of an
/// embarrassingly parallel workload (sanity of the speedup metric).
#[test]
fn parallel_work_scales_in_simulated_time() {
    let mut cycles = Vec::new();
    for threads in [1usize, 2, 4] {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, threads));
        let total_items = 4000u64;
        let arr = rt.heap().alloc_array::<u64>(total_items, 1);
        let report = rt.run(|ctx| {
            let n = ctx.threads() as u64;
            let tid = ctx.tid() as u64;
            let per = total_items / n;
            for i in tid * per..(tid + 1) * per {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, i)?;
                    txn.work(50);
                    txn.write_idx(&arr, i, v * 2)
                });
            }
        });
        cycles.push(report.sim_cycles);
    }
    // Perfect scaling would halve each time; require at least 1.6x.
    assert!(
        (cycles[0] as f64) / (cycles[1] as f64) > 1.6,
        "1->2 threads: {cycles:?}"
    );
    assert!(
        (cycles[1] as f64) / (cycles[2] as f64) > 1.6,
        "2->4 threads: {cycles:?}"
    );
}

/// The STM backoff policy must engage: with contention and no backoff,
/// retries should be at least as high as with backoff.
#[test]
fn backoff_reduces_or_equals_retries() {
    let run = |policy: CmPolicy| {
        let rt = TmRuntime::new(
            TmConfig::new(SystemKind::EagerStm, 8)
                .quantum(50)
                .cm(policy)
                .seed(11),
        );
        let hot = rt.heap().alloc_cell(0u64);
        let report = rt.run(|ctx| {
            for _ in 0..100 {
                ctx.atomic(|txn| {
                    let v = txn.read(&hot)?;
                    txn.work(30);
                    txn.write(&hot, v + 1)
                });
            }
        });
        assert_eq!(rt.heap().load_cell(&hot), 800);
        report.stats.retries_per_txn()
    };
    let without = run(CmPolicy::Immediate);
    let with = run(CmPolicy::RandomizedLinear {
        after: 1,
        base: 500,
    });
    assert!(
        with <= without * 1.5 + 0.5,
        "backoff made contention much worse: {with} vs {without}"
    );
}

/// Line-granularity STM (the bayes ablation) must still be correct when
/// threads update different words of the same line.
#[test]
fn stm_line_granularity_correct() {
    let rt =
        TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 4).stm_granularity(Granularity::Line));
    let arr = rt.heap().alloc_array::<u64>(4, 0);
    let report = rt.run(|ctx| {
        let tid = ctx.tid() as u64;
        for _ in 0..100 {
            ctx.atomic(|txn| {
                let v = txn.read_idx(&arr, tid)?;
                txn.write_idx(&arr, tid, v + 1)
            });
        }
    });
    for i in 0..4 {
        assert_eq!(rt.heap().load_elem(&arr, i), 100);
    }
    // False sharing should cause some retries (not required, but the
    // stats must at least be consistent).
    assert_eq!(report.stats.commits, 400);
}

/// Transaction statistics describe the workload faithfully.
#[test]
fn stats_reflect_workload() {
    let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 2));
    let arr = rt.heap().alloc_array::<u64>(64, 0);
    let report = rt.run(|ctx| {
        for _ in 0..20 {
            ctx.atomic(|txn| {
                // 8 reads, 2 writes per transaction.
                let mut sum = 0;
                for i in 0..8u64 {
                    sum += txn.read_idx(&arr, i * 8)?;
                }
                txn.write_idx(&arr, 0, sum)?;
                txn.write_idx(&arr, 32, sum)
            });
        }
    });
    assert_eq!(report.stats.commits, 40);
    assert_eq!(report.stats.p90_read_barriers(), 8);
    assert_eq!(report.stats.p90_write_barriers(), 2);
    assert!(report.stats.p90_read_lines() >= 7);
    assert!(report.stats.time_in_txn() > 0.5);
}

/// The phase barrier keeps phases separate: writes from phase 1 are
/// visible to every thread in phase 2.
#[test]
fn barrier_separates_phases() {
    for sys in [
        SystemKind::LazyHtm,
        SystemKind::LazyStm,
        SystemKind::EagerHybrid,
    ] {
        let rt = TmRuntime::new(TmConfig::new(sys, 4));
        let arr = rt.heap().alloc_array::<u64>(4, 0);
        let sum = rt.heap().alloc_cell(0u64);
        rt.run(|ctx| {
            let tid = ctx.tid() as u64;
            ctx.atomic(|txn| txn.write_idx(&arr, tid, tid + 1));
            ctx.barrier();
            // Phase 2: everyone sees all phase-1 writes.
            let total = ctx.atomic(|txn| {
                let mut s = 0;
                for i in 0..4 {
                    s += txn.read_idx(&arr, i)?;
                }
                Ok(s)
            });
            assert_eq!(total, 10, "phase-1 writes missing under {sys}");
            if tid == 0 {
                ctx.atomic(|txn| txn.write(&sum, total));
            }
        });
        assert_eq!(rt.heap().load_cell(&sum), 10);
    }
}

/// Sequential mode works and reports zero retries.
#[test]
fn sequential_baseline() {
    let rt = TmRuntime::new(TmConfig::sequential());
    let cell = rt.heap().alloc_cell(0u64);
    let report = rt.run(|ctx| {
        for _ in 0..10 {
            ctx.atomic(|txn| {
                let v = txn.read(&cell)?;
                txn.write(&cell, v + 1)
            });
        }
    });
    assert_eq!(rt.heap().load_cell(&cell), 10);
    assert_eq!(report.stats.aborts, 0);
    assert_eq!(report.stats.retries_per_txn(), 0.0);
}

/// Early release removes read-set entries: on the lazy HTM a released
/// read must not cause the transaction to be doomed by a conflicting
/// commit.
#[test]
fn early_release_avoids_conflicts() {
    let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyHtm, 2).quantum(10_000));
    // Two separate lines: a "grid" the reader scans + releases, and a flag.
    let grid = rt.heap().alloc_array::<u64>(64, 0);
    let done = rt.heap().alloc_cell(0u64);
    let aborts = rt
        .run(|ctx| {
            if ctx.tid() == 0 {
                // Long transaction: read the whole grid, release it all,
                // then do private work, then commit.
                ctx.atomic(|txn| {
                    let mut sum = 0;
                    for i in 0..64u64 {
                        sum += txn.read_idx(&grid, i)?;
                    }
                    for i in 0..64u64 {
                        txn.early_release(grid.addr_of(i));
                    }
                    txn.work(20_000);
                    let _ = sum;
                    Ok(())
                });
                ctx.atomic(|txn| {
                    let v = txn.read(&done)?;
                    txn.write(&done, v + 1)
                });
            } else {
                // Writer: stomp the grid repeatedly.
                for i in 0..64u64 {
                    ctx.atomic(|txn| txn.write_idx(&grid, i, i));
                }
                ctx.atomic(|txn| {
                    let v = txn.read(&done)?;
                    txn.write(&done, v + 1)
                });
            }
        })
        .stats
        .aborts;
    assert_eq!(rt.heap().load_cell(&done), 2);
    // The reader should survive without dooming in most interleavings;
    // correctness is what we assert, plus the run completing at all.
    let _ = aborts;
}

/// Simulated cycles are deterministic enough to be comparable: two runs
/// of the same single-threaded workload report identical makespans.
#[test]
fn single_thread_sim_is_deterministic() {
    let run = || {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::EagerStm, 1).seed(3));
        let arr = rt.heap().alloc_array::<u64>(128, 0);
        rt.run(|ctx| {
            for i in 0..128u64 {
                ctx.atomic(|txn| {
                    let v = txn.read_idx(&arr, i)?;
                    txn.work(17);
                    txn.write_idx(&arr, i, v + i)
                });
            }
        })
        .sim_cycles
    };
    assert_eq!(run(), run());
}
