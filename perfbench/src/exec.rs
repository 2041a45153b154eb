//! Running one application with each layer timed from outside: input
//! generation, the `*_tm` phase call (with the engine's own
//! `RunReport::wall` inside it) and the app's verifier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stamp_util::AppParams;
use tm::{RunReport, TmConfig, TmRuntime, PROF_BUCKETS};

use crate::spans::Tracer;
use crate::sys::{self, Usage};
use crate::workload::RunSpec;

/// Exact simulated counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated makespan.
    pub sim_cycles: u64,
    /// Simulated cycles summed over threads.
    pub thread_cycles: u64,
    /// Transaction attempts.
    pub attempts: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Simulated cycles spent backing off.
    pub backoff_cycles: u64,
    /// Commits made under the serializing token.
    pub serialized_commits: u64,
    /// Conflicts won on priority.
    pub priority_wins: u64,
}

impl Counts {
    fn of(report: &RunReport) -> Counts {
        let s = &report.stats;
        Counts {
            sim_cycles: report.sim_cycles,
            thread_cycles: s.cycles_total,
            attempts: s.attempts,
            commits: s.commits,
            aborts: s.aborts,
            backoff_cycles: s.backoff_cycles,
            serialized_commits: s.serialized_commits,
            priority_wins: s.priority_wins,
        }
    }
}

/// Everything measured about one run.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Why the run failed, if it did.
    pub failure: Option<String>,
    /// Host time of the whole run: input generation, phase call and
    /// verifier.
    pub wall: Duration,
    /// Host time generating the input (and, for yada, building the
    /// initial mesh in the heap).
    pub generate: Duration,
    /// Host time of the whole `*_tm` phase call.
    pub phase_call: Duration,
    /// Host time of the parallel phase, as the engine reports it.
    pub phase_wall: Duration,
    /// Host time of the app's verifier.
    pub verify: Duration,
    /// Resource usage across the phase call (traced runs only).
    pub phase_usage: Usage,
    /// Simulated counts; `None` when the run panicked.
    pub counts: Option<Counts>,
    /// Profiler cycles per bucket, when the profiler ran.
    pub prof_buckets: Option<[u64; PROF_BUCKETS]>,
    /// Sanitizer finalize time, when the sanitizer ran.
    pub verify_finalize: Option<Duration>,
    /// The engine configuration, once the engine accepted it.
    pub config: Option<TmConfig>,
}

impl RunRecord {
    /// Host time before and around the parallel phase that is not the
    /// phase itself: input generation, runtime construction, heap
    /// population, thread spawn and join, observer finalize.
    pub fn setup(&self) -> Duration {
        self.generate + self.outside_phase()
    }

    /// The phase call's time outside the engine-reported phase.
    pub fn outside_phase(&self) -> Duration {
        self.phase_call.saturating_sub(self.phase_wall)
    }
}

/// Accumulates one run's layer times while the app code runs.
struct Layers<'t> {
    tr: &'t mut Tracer,
    app: &'static str,
    run: usize,
    rec: RunRecord,
}

impl Layers<'_> {
    fn generate<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let open = self.tr.enter("app.generate", self.app, self.run);
        let out = f();
        self.rec.generate += self.tr.exit(open);
        out
    }

    fn phase<R>(&mut self, f: impl FnOnce() -> (R, RunReport)) -> (R, RunReport) {
        let before = self.tr.on().then(sys::usage);
        let open = self.tr.enter("app.phase", self.app, self.run);
        let (out, report) = f();
        self.tr.inner("tm.run", self.app, self.run, report.wall);
        self.rec.phase_call += self.tr.exit(open);
        if let Some(before) = before {
            self.rec.phase_usage += sys::usage() - before;
        }
        self.rec.phase_wall += report.wall;
        (out, report)
    }

    fn verify(&mut self, f: impl FnOnce() -> bool) -> bool {
        let open = self.tr.enter("app.verify", self.app, self.run);
        let ok = f();
        self.rec.verify += self.tr.exit(open);
        ok
    }
}

/// Run the app of `spec` layer by layer; returns the phase report and
/// the verifier's verdict.
fn layered(spec: &RunSpec, l: &mut Layers<'_>) -> (RunReport, bool) {
    let cfg = spec.config();
    l.rec.config = Some(cfg.clone());
    match &spec.params {
        AppParams::Bayes(p) => {
            let input = l.generate(|| bayes::generate(p));
            let (net, rep) = l.phase(|| bayes::learn_tm(&input, p, cfg));
            (rep, l.verify(|| bayes::verify(&input, p, &net)))
        }
        AppParams::Genome(p) => {
            let input = l.generate(|| genome::generate(p));
            let (asm, rep) = l.phase(|| genome::assemble_tm(&input, cfg));
            (rep, l.verify(|| genome::verify(&input, &asm)))
        }
        AppParams::Intruder(p) => {
            let input = l.generate(|| intruder::generate(p));
            let (got, rep) = l.phase(|| intruder::detect_tm(&input, cfg));
            let ok = l.verify(|| {
                let expect = intruder::detect_seq(&input);
                got == expect && expect == input.attacks
            });
            (rep, ok)
        }
        AppParams::Kmeans(p) => {
            // Every Table IV kmeans variant has min == max clusters.
            let k = p.min_clusters as usize;
            let input = l.generate(|| kmeans::generate_input(p));
            let (par, rep) = l.phase(|| kmeans::cluster_tm(&input, k, p.threshold, cfg));
            let ok = l.verify(|| {
                let seq = kmeans::cluster_seq(&input, k, p.threshold);
                kmeans::verify(&input, &seq, &par)
            });
            (rep, ok)
        }
        AppParams::Labyrinth(p) => {
            let input = l.generate(|| labyrinth::generate(p));
            let (routing, rep) = l.phase(|| labyrinth::route_tm(&input, cfg));
            (rep, l.verify(|| labyrinth::verify(&input, &routing)))
        }
        AppParams::Ssca2(p) => {
            let input = l.generate(|| ssca2::generate(p));
            let (par, rep) = l.phase(|| ssca2::compute_graph_tm(&input, cfg));
            (rep, l.verify(|| ssca2::compute_graph_seq(&input) == par))
        }
        AppParams::Vacation(p) => {
            // Vacation exposes only `run`: population, phase and the
            // consistency check are one call, so everything in it but
            // the phase counts as setup.
            let (ok, rep) = l.phase(|| {
                let r = vacation::run(p, cfg);
                (r.verified, r.run)
            });
            (rep, ok)
        }
        AppParams::Yada(p) => {
            let rt = TmRuntime::new(cfg);
            let (problem, initial_skinny) = l.generate(|| yada::build_initial(rt.heap(), p));
            // The insertion cap and the verdict are those of `yada::run`.
            let max_inserts = p.init_points as u64 * 15 + 2000;
            let ((), rep) = l.phase(|| ((), yada::refine_on(&rt, &problem, max_inserts)));
            let ok = l.verify(|| {
                let snap = yada::snapshot(rt.heap(), &problem);
                let retired = rt.heap().load_cell(&problem.retired);
                yada::verify_snapshot(&snap) && (initial_skinny == 0 || retired > 0)
            });
            (rep, ok)
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Run `spec` as run `run` of a pass. A panic, a false verdict from the
/// app's verifier, a sanitizer violation or (with `check_prof`) a broken
/// profiler invariant marks the record failed; none of them stops the
/// caller.
pub fn execute(spec: &RunSpec, run: usize, tr: &mut Tracer, check_prof: bool) -> RunRecord {
    let app = spec.params.app().name();
    let root = tr.enter("run", app, run);
    let mut layers = Layers {
        tr,
        app,
        run,
        rec: RunRecord::default(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| layered(spec, &mut layers)));
    let Layers { tr, mut rec, .. } = layers;
    rec.wall = tr.exit(root);
    match outcome {
        Err(payload) => rec.failure = Some(format!("panic: {}", panic_message(&*payload))),
        Ok((report, verified)) => {
            rec.counts = Some(Counts::of(&report));
            if let Some(v) = &report.verify {
                rec.verify_finalize = Some(v.cost.wall);
                if !v.is_clean() {
                    rec.failure = Some(format!("sanitizer: {} violations", v.violations.len()));
                }
            }
            if let Some(p) = &report.prof {
                rec.prof_buckets = Some(tm::ProfBucket::ALL.map(|b| p.bucket(b)));
                if let (true, Err(e)) = (check_prof, p.check()) {
                    rec.failure = Some(format!("profiler invariant: {e}"));
                }
            }
            if !verified {
                rec.failure = Some("app verifier returned false".to_string());
            }
        }
    }
    rec
}

/// One pass over a run list.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host time of the whole pass.
    pub wall: Duration,
    /// One record per run, in run-list order.
    pub records: Vec<RunRecord>,
    /// Most heap bytes live at once during the pass, above those live
    /// when it began (the benchmark's own records of earlier passes).
    pub peak_heap: usize,
}

/// The run in progress, when it began, and how many runs have started
/// and failed in this process; read by [`hung`].
struct Progress {
    current: Option<(Instant, String)>,
    started: u64,
    failed: u64,
}

static PROGRESS: Mutex<Progress> = Mutex::new(Progress {
    current: None,
    started: 0,
    failed: 0,
});

fn progress() -> std::sync::MutexGuard<'static, Progress> {
    // Every update leaves the record whole, so a poisoned lock is usable.
    PROGRESS.lock().unwrap_or_else(|e| e.into_inner())
}

fn begin_run(what: String) {
    let mut p = progress();
    p.current = Some((Instant::now(), what));
    p.started += 1;
}

fn end_run(failed: bool) {
    let mut p = progress();
    p.current = None;
    p.failed += u64::from(failed);
}

/// A run that has gone on for longer than `limit`: its description and
/// the runs started and failed so far, not counting it as failed. A run
/// cannot be cancelled, so the caller can only report it and exit.
pub fn hung(limit: Duration) -> Option<(String, u64, u64)> {
    let p = progress();
    let (since, what) = p.current.as_ref()?;
    (since.elapsed() > limit).then(|| (what.clone(), p.started, p.failed))
}

/// Run every spec once, in order.
pub fn pass(specs: &[RunSpec], tr: &mut Tracer, check_prof: bool) -> Pass {
    let before = crate::alloc::reset_peak();
    let start = Instant::now();
    let records = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            begin_run(format!(
                "{} on {} at {} threads (sched seed {:#x}, {:?})",
                spec.variant,
                spec.system.label(),
                spec.threads,
                spec.sched_seed,
                spec.params
            ));
            let rec = execute(spec, i, tr, check_prof);
            end_run(rec.failure.is_some());
            rec
        })
        .collect();
    Pass {
        wall: start.elapsed(),
        records,
        peak_heap: crate::alloc::peak().saturating_sub(before),
    }
}

impl Pass {
    /// Runs that failed.
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.failure.is_some()).count() as u64
    }

    /// Sum of `f` over the records.
    pub fn sum<T: std::iter::Sum<T>>(&self, f: impl Fn(&RunRecord) -> T) -> T {
        self.records.iter().map(f).sum()
    }

    /// Sum of a simulated count over the runs that did not panic.
    pub fn count(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.counts.as_ref())
            .map(f)
            .sum()
    }

    /// FNV-1a over every run's simulated counts, in run order, folded to
    /// 53 bits so a JSON number holds it exactly. A panicked run hashes
    /// as all ones.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.records {
            let words = match &r.counts {
                Some(c) => [
                    c.sim_cycles,
                    c.thread_cycles,
                    c.attempts,
                    c.commits,
                    c.aborts,
                ],
                None => [u64::MAX; 5],
            };
            for w in words {
                for byte in w.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        (h ^ (h >> 53)) & ((1 << 53) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_long_run_is_reported_as_hung() {
        begin_run("yada on Eager HTM".to_string());
        let (what, started, _) = hung(Duration::ZERO).expect("run in progress");
        assert_eq!(what, "yada on Eager HTM");
        assert!(started >= 1);
        assert!(hung(Duration::from_secs(3600)).is_none());
        end_run(true);
        assert!(hung(Duration::ZERO).is_none());
    }
}
