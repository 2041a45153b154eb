//! Layer probes: host nanoseconds per operation of the scheduler, the
//! transactional barriers and the conflict-detection structures, each
//! driven through its public API on a fixed synthetic load.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tm::directory::Directory;
use tm::locks::LockTable;
use tm::signature::Signature;
use tm::{Granularity, LineAddr, SystemKind, TmConfig, TmRuntime, WordAddr};

/// Words touched by each probe transaction.
const TXN_WORDS: u64 = 64;
/// Distinct lines the structure probes cycle through.
const LINES: u64 = 1024;

/// Host ns per operation: `timed(n)` performs `n` operations and returns
/// their time; `n` doubles from `min_ops` until one batch takes at least
/// `target`.
fn ns_per_op(target: Duration, min_ops: u64, mut timed: impl FnMut(u64) -> Duration) -> f64 {
    let mut n = min_ops;
    loop {
        let t = timed(n);
        if t >= target || n >= 1 << 30 {
            return t.as_nanos() as f64 / n as f64;
        }
        n *= 2;
    }
}

fn elapsed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Host ns per `ctx.work(quantum)` at `threads` simulated threads, timed
/// by the engine's own phase clock.
fn turn_ns(threads: usize, target: Duration) -> f64 {
    ns_per_op(target, threads as u64 * 16, |n| {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, threads));
        let quantum = rt.config().quantum;
        let per_thread = n / threads as u64;
        rt.run(|ctx| {
            for _ in 0..per_thread {
                ctx.work(quantum);
            }
        })
        .wall
    })
}

/// Host ns per transactional read (`write == false`) or write in
/// single-thread transactions of [`TXN_WORDS`] accesses each.
fn txn_ns(system: SystemKind, write: bool, target: Duration) -> f64 {
    let rt = TmRuntime::new(TmConfig::new(system, 1));
    let arr = rt.heap().alloc_array::<u64>(TXN_WORDS, 1);
    ns_per_op(target, TXN_WORDS, |n| {
        let txns = n / TXN_WORDS;
        rt.run(|ctx| {
            for t in 0..txns {
                let sum = ctx.atomic(|txn| {
                    let mut sum = 0u64;
                    for i in 0..TXN_WORDS {
                        if write {
                            txn.write_idx(&arr, i, t ^ i)?;
                        } else {
                            sum = sum.wrapping_add(txn.read_idx(&arr, i)?);
                        }
                    }
                    Ok(sum)
                });
                black_box(sum);
            }
        })
        .wall
    })
}

fn line(i: u64) -> LineAddr {
    WordAddr((i % LINES + 1) * tm::WORDS_PER_LINE).line()
}

/// Every probe as `(metric name, host ns per operation)`. `target` is
/// the minimum measured batch per probe.
pub fn all(target: Duration) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for t in [1, 2, 4, 16] {
        out.push((format!("sched.turn_ns.t{t}"), turn_ns(t, target)));
    }
    for system in SystemKind::ALL_TM {
        let key = system_key(system);
        out.push((format!("txn.{key}.read_ns"), txn_ns(system, false, target)));
        out.push((format!("txn.{key}.write_ns"), txn_ns(system, true, target)));
    }

    let dir = Directory::new();
    out.push((
        "directory.add_remove_ns".to_string(),
        ns_per_op(target, LINES, |n| {
            elapsed(|| {
                for i in 0..n {
                    black_box(dir.add_reader(line(i), 0));
                    dir.remove(line(i), 0);
                }
            })
        }),
    ));
    // One other reader per line, so each commit finds a victim.
    for i in 0..LINES {
        dir.add_reader(line(i), 1);
    }
    out.push((
        "directory.commit_line_ns".to_string(),
        ns_per_op(target, LINES, |n| {
            elapsed(|| {
                for i in 0..n {
                    black_box(dir.commit_line(line(i), 0, || {}));
                }
            })
        }),
    ));

    let locks = LockTable::new(20, Granularity::Word);
    out.push((
        "locks.lock_unlock_ns".to_string(),
        ns_per_op(target, LINES, |n| {
            elapsed(|| {
                for i in 0..n {
                    let idx = locks.index_of(WordAddr(i % (LINES * 4) + 1));
                    let version = locks.try_lock(idx, 0).expect("probe holds no lock");
                    locks.unlock(idx, version + 1);
                }
            })
        }),
    ));

    let sig = Signature::new(2048);
    out.push((
        "signature.insert_ns".to_string(),
        ns_per_op(target, LINES, |n| {
            elapsed(|| {
                for i in 0..n {
                    if i % LINES == 0 {
                        sig.clear();
                    }
                    sig.insert(line(i));
                }
            })
        }),
    ));
    out.push((
        "signature.probe_ns".to_string(),
        ns_per_op(target, LINES, |n| {
            elapsed(|| {
                for i in 0..n {
                    black_box(sig.maybe_contains(line(i.wrapping_mul(7))));
                }
            })
        }),
    ));
    out
}

/// Metric-name form of a system, e.g. `lazy_stm`.
pub fn system_key(system: SystemKind) -> String {
    system.label().to_ascii_lowercase().replace(' ', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_cost() {
        let probes = all(Duration::from_micros(200));
        assert_eq!(probes.len(), 4 + 12 + 5);
        for (name, ns) in probes {
            assert!(ns.is_finite() && ns > 0.0, "{name}: {ns}");
        }
    }

    #[test]
    fn system_keys_are_metric_names() {
        assert_eq!(system_key(SystemKind::LazyStm), "lazy_stm");
        assert_eq!(system_key(SystemKind::EagerHybrid), "eager_hybrid");
    }
}
