//! # perfbench — host-time benchmark for the STAMP-rs simulator
//!
//! Times, in host seconds, how long the simulator takes to produce its
//! simulated cycles on three fixed workloads, and splits that time by
//! layer. Simulated cycles are behaviour, not speed: they appear here
//! only as exact counts and as a digest that must repeat.
//!
//! [`measure`] runs one workload: a warm-up pass, then timed passes
//! over the workload's run list until the time is up. It reports host
//! times as the sum of each run's fastest repetition and peak heap as
//! the median pass's. With tracing on it alternates untraced and traced
//! passes (spans in memory, `getrusage` around each phase) and reports
//! medians over them, then runs rounds with the observers off, the
//! sanitizer alone and the profiler alone, then the layer probes. See
//! `README.md` beside this crate for the metric map.

#![warn(missing_docs)]

pub mod alloc;
pub mod exec;
pub mod probes;
pub mod spans;
pub mod sys;
pub mod workload;

use std::time::{Duration, Instant};

use bench::json::Row;
use stamp_util::AppKind;
use tm::ProfBucket;

use exec::{Pass, RunRecord};
use spans::Tracer;
use workload::{RunSpec, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Fewest timed passes (or pass pairs, or observer rounds) a run makes,
/// however short `seconds` is.
pub const MIN_PASSES: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed all inputs and schedule seeds derive from.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Extra divisor on every input (1 for the benchmark proper).
    pub shrink: u32,
    /// Minimum batch each layer probe times.
    pub probe_target: Duration,
}

impl Settings {
    /// The benchmark proper for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: Duration, trace: bool) -> Settings {
        Settings {
            workload,
            seed,
            seconds,
            trace,
            shrink: 1,
            probe_target: Duration::from_millis(20),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No run failed, and every pass reproduced the same simulated
    /// counts.
    pub correct: bool,
    /// Runs executed, over every pass.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in the traced run.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line per reason.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result as the one-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where and how the numbers were produced; echoed into every row.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Host name.
    pub host: String,
    /// CPUs online on the host.
    pub nproc: usize,
    /// CPUs this process may run on (1 once pinned).
    pub cpus_allowed: usize,
    /// The CPU the measuring thread runs on, when known.
    pub cpu: Option<usize>,
    /// Commit of the checkout, or `none` outside a git work tree.
    pub git_rev: String,
    /// Whether the work tree differs from that commit.
    pub git_dirty: bool,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile of the build.
    pub profile: &'static str,
}

impl Provenance {
    /// Provenance of this process, taking the git state from `git` in
    /// the current directory when it holds a `.git`.
    pub fn collect() -> Provenance {
        let git = |args: &[&str]| -> Option<String> {
            if !std::path::Path::new(".git").exists() {
                return None;
            }
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        Provenance {
            host: sys::hostname(),
            nproc: sys::online_cpus(),
            cpus_allowed: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: sys::current_cpu().ok(),
            git_rev: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string()),
            git_dirty: git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn row(&self, s: &Settings, kind: &str) -> Row {
        Row::new()
            .str("row", kind)
            .str("host", &self.host)
            .u64("nproc", self.nproc as u64)
            .u64("cpus_allowed", self.cpus_allowed as u64)
            .str(
                "cpu",
                &self.cpu.map_or("unknown".to_string(), |c| c.to_string()),
            )
            .str("git_rev", &self.git_rev)
            .bool("git_dirty", self.git_dirty)
            .str("rustc", self.rustc)
            .str("profile", self.profile)
            .str("workload", s.workload.name())
            .u64("seed", s.seed)
            .u64("sched_seed", workload::sched_seed(s.seed))
    }
}

/// Row for one run: provenance, the run's effective engine
/// configuration, its host times and its simulated counts.
fn run_row(prov: &Provenance, s: &Settings, spec: &RunSpec, rec: &RunRecord) -> String {
    let c = rec.counts.unwrap_or_default();
    let mut row = prov
        .row(s, "run")
        .str("variant", spec.variant)
        .str("system", spec.system.label())
        .u64("threads", spec.threads as u64);
    if let Some(cfg) = &rec.config {
        row = row
            .str("effective_cm", cfg.effective_cm().label())
            .str("sched", cfg.sched.label())
            .u64("run_sched_seed", cfg.sched_seed)
            .bool("verify", cfg.verify)
            .bool("prof", cfg.prof);
    }
    row.f64("generate_s", rec.generate.as_secs_f64())
        .f64("phase_call_s", rec.phase_call.as_secs_f64())
        .f64("phase_wall_s", rec.phase_wall.as_secs_f64())
        .f64("verify_s", rec.verify.as_secs_f64())
        .u64("sim_cycles", c.sim_cycles)
        .u64("commits", c.commits)
        .u64("aborts", c.aborts)
        .str("failure", rec.failure.as_deref().unwrap_or(""))
        .render()
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const MIB: f64 = 1024.0 * 1024.0;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

const MAX_PROBLEMS: usize = 50;

/// Tallies failures and digest agreement over every pass of a run.
struct Ledger {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    problems: Vec<String>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            attempted: 0,
            failed: 0,
            digest: None,
            problems: Vec::new(),
        }
    }

    fn record(&mut self, label: &str, specs: &[RunSpec], pass: &Pass) {
        self.attempted += pass.records.len() as u64;
        self.failed += pass.failed();
        for (spec, rec) in specs.iter().zip(&pass.records) {
            if let Some(why) = &rec.failure {
                self.problem(format!(
                    "{label}: {} on {} at {} threads failed: {why}",
                    spec.variant,
                    spec.system.label(),
                    spec.threads
                ));
            }
        }
        let d = pass.digest();
        match self.digest {
            None => self.digest = Some(d),
            Some(first) if first != d => self.problem(format!(
                "{label}: simulated counts changed (digest {d} != {first})"
            )),
            Some(_) => {}
        }
    }

    /// Keep the first [`MAX_PROBLEMS`] reasons; the counts carry the rest.
    fn problem(&mut self, why: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(why);
        }
    }

    fn finish(self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
        }
    }
}

/// Timed passes until `seconds` have gone by and at least
/// [`MIN_PASSES`] have run; `each` runs one.
fn until_deadline<T>(seconds: Duration, mut each: impl FnMut() -> T) -> Vec<T> {
    let deadline = Instant::now() + seconds;
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || Instant::now() < deadline {
        out.push(each());
    }
    out
}

/// Run the workload of `s` and compute its metrics; `emit` receives
/// each provenance row as it is produced.
pub fn measure(s: &Settings, emit: &mut dyn FnMut(String)) -> Outcome {
    measure_runs(s, &s.workload.runs(s.seed, s.shrink), emit)
}

/// [`measure`] on an explicit run list in place of the workload's.
pub fn measure_runs(s: &Settings, specs: &[RunSpec], emit: &mut dyn FnMut(String)) -> Outcome {
    let prov = Provenance::collect();
    let mut ledger = Ledger::new();

    let warm = exec::pass(specs, &mut Tracer::new(false), s.trace);
    for (spec, rec) in specs.iter().zip(&warm.records) {
        emit(run_row(&prov, s, spec, rec));
    }
    ledger.record("warm-up", specs, &warm);

    if !s.trace {
        let passes = until_deadline(s.seconds, || {
            exec::pass(specs, &mut Tracer::new(false), false)
        });
        for p in &passes {
            ledger.record("timed", specs, p);
        }
        let metrics = end_to_end(&passes, &ledger);
        return ledger.finish(metrics);
    }

    // Half the time alternates untraced and traced passes, the other
    // half measures the observers. Which of a pair runs first alternates.
    let mut traced_first = false;
    let pairs = until_deadline(s.seconds / 2, || {
        let mut tr = Tracer::new(true);
        let (plain, traced) = if traced_first {
            let traced = exec::pass(specs, &mut tr, true);
            (exec::pass(specs, &mut Tracer::new(false), true), traced)
        } else {
            let plain = exec::pass(specs, &mut Tracer::new(false), true);
            (plain, exec::pass(specs, &mut tr, true))
        };
        traced_first = !traced_first;
        (plain, traced, tr)
    });
    for (plain, traced, _) in &pairs {
        ledger.record("untraced", specs, plain);
        ledger.record("traced", specs, traced);
    }
    let (_, last, last_tr) = pairs.last().expect("at least MIN_PASSES pairs");
    for (name, t) in last_tr.totals() {
        emit(
            prov.row(s, "span")
                .str("name", name)
                .u64("count", t.count)
                .f64("total_s", secs(t.total))
                .f64("self_s", secs(t.self_time))
                .render(),
        );
    }

    // The same run list with both observers off and with each alone,
    // in rounds; each overhead is the median round's ratio.
    let observed = |verify: bool, prof: bool| -> Vec<RunSpec> {
        specs
            .iter()
            .map(|r| RunSpec {
                verify,
                prof,
                ..r.clone()
            })
            .collect()
    };
    let lists = [
        ("observers off", observed(false, false)),
        ("sanitizer on", observed(true, false)),
        ("profiler on", observed(false, true)),
    ];
    let mut round = 0;
    let rounds: Vec<[Pass; 3]> = until_deadline(s.seconds / 2, || {
        // Each round starts with a different list, so that no list always
        // runs first.
        let mut ran: [Option<Pass>; 3] = Default::default();
        for k in 0..lists.len() {
            let i = (k + round) % lists.len();
            let (label, list) = &lists[i];
            let p = exec::pass(list, &mut Tracer::new(false), true);
            ledger.record(label, list, &p);
            ran[i] = Some(p);
        }
        round += 1;
        ran.map(|p| p.expect("every list ran"))
    });
    let phase = |p: &Pass| secs(p.sum(|r| r.phase_wall));

    let mut metrics = per_layer(&pairs, last, &ledger);
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    put(
        "verify.phase_overhead",
        median(
            rounds
                .iter()
                .map(|r| ratio(phase(&r[1]), phase(&r[0])))
                .collect(),
        ),
        "ratio",
    );
    put(
        "verify.finalize_s",
        median(
            rounds
                .iter()
                .map(|r| secs(r[1].sum(|x| x.verify_finalize.unwrap_or_default())))
                .collect(),
        ),
        "s",
    );
    put(
        "prof.phase_overhead",
        median(
            rounds
                .iter()
                .map(|r| ratio(phase(&r[2]), phase(&r[0])))
                .collect(),
        ),
        "ratio",
    );
    // Bucket cycles are simulated counts: the same in every round.
    let mut buckets = [0u64; tm::PROF_BUCKETS];
    for b in rounds[0][2].records.iter().filter_map(|r| r.prof_buckets) {
        for (sum, x) in buckets.iter_mut().zip(b) {
            *sum += x;
        }
    }
    let total: u64 = buckets.iter().sum();
    for (bucket, cycles) in ProfBucket::ALL.iter().zip(buckets) {
        put(
            &format!("prof.{}_frac", bucket.key()),
            ratio(cycles as f64, total as f64),
            "ratio",
        );
    }
    for (name, ns) in probes::all(s.probe_target) {
        put(&name, ns, "ns");
    }
    ledger.finish(metrics)
}

/// Σ over the run list of each run's least `f` over `passes`: every run
/// at its fastest repetition.
///
/// Other tenants of a shared host only ever add time, in bursts that
/// come and go within seconds. In one process timing one seed, the
/// median pass took 42% longer in one 20 s window than in another; the
/// sum of fastest repetitions moved by 11%.
fn fastest(passes: &[Pass], f: impl Fn(&RunRecord) -> Duration) -> Duration {
    (0..passes[0].records.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| f(&p.records[i]))
                .min()
                .expect("at least one pass")
        })
        .sum()
}

fn end_to_end(passes: &[Pass], ledger: &Ledger) -> Vec<Metric> {
    let m = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    // Simulated counts repeat exactly on every pass; the first one's.
    let thread_cycles = passes[0].count(|c| c.thread_cycles) as f64;
    vec![
        m("wall_s", secs(fastest(passes, |r| r.wall)), "s"),
        m("setup_s", secs(fastest(passes, RunRecord::setup)), "s"),
        m(
            "sim_mcycles_per_s",
            ratio(thread_cycles, secs(fastest(passes, |r| r.phase_wall))) / 1e6,
            "Mcycles/s",
        ),
        m(
            "peak_heap_mb",
            median(passes.iter().map(|p| p.peak_heap as f64 / MIB).collect()),
            "MiB",
        ),
        m(
            "pass_frac",
            1.0 - ratio(ledger.failed as f64, ledger.attempted as f64),
            "ratio",
        ),
    ]
}

/// Medians over the traced passes of the span-derived and counted
/// metrics, plus the tracing overhead against the untraced passes.
fn per_layer(pairs: &[(Pass, Pass, Tracer)], last: &Pass, ledger: &Ledger) -> Vec<Metric> {
    let over = |f: &dyn Fn(&Pass, &Tracer) -> f64| -> f64 {
        median(pairs.iter().map(|(_, p, tr)| f(p, tr)).collect())
    };
    let self_s = |name: &'static str| {
        move |_: &Pass, tr: &Tracer| tr.totals().get(name).map_or(0.0, |t| secs(t.self_time))
    };
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    put("app.generate_s".into(), over(&self_s("app.generate")), "s");
    put("app.verify_s".into(), over(&self_s("app.verify")), "s");
    for app in AppKind::ALL {
        let name = app.name();
        put(
            format!("app.{name}.phase_s"),
            over(&|_, tr| secs(tr.app_total("tm.run", name))),
            "s",
        );
    }
    put(
        "runtime.outside_phase_s".into(),
        over(&self_s("app.phase")),
        "s",
    );
    put(
        "phase.user_s".into(),
        over(&|p, _| secs(p.sum(|r| r.phase_usage.user))),
        "s",
    );
    put(
        "phase.sys_s".into(),
        over(&|p, _| secs(p.sum(|r| r.phase_usage.sys))),
        "s",
    );
    put(
        "phase.vcsw".into(),
        over(&|p, _| p.sum(|r| r.phase_usage.vcsw) as f64),
        "count",
    );
    put(
        "phase.vcsw_per_commit".into(),
        over(&|p, _| {
            ratio(
                p.sum(|r| r.phase_usage.vcsw) as f64,
                p.count(|c| c.commits) as f64,
            )
        }),
        "count/commit",
    );
    put(
        "phase.ns_per_attempt".into(),
        over(&|p, _| {
            ratio(
                p.sum(|r| r.phase_wall).as_nanos() as f64,
                p.count(|c| c.attempts) as f64,
            )
        }),
        "ns",
    );
    // Simulated counts repeat exactly on every pass; the last one's.
    let count = |f: fn(&exec::Counts) -> u64| last.count(f) as f64;
    put("txn.attempts".into(), count(|c| c.attempts), "count");
    put(
        "txn.commit_ratio".into(),
        ratio(count(|c| c.commits), count(|c| c.attempts)),
        "ratio",
    );
    put(
        "cm.backoff_cycles".into(),
        count(|c| c.backoff_cycles),
        "cycles",
    );
    put(
        "cm.serialized_commits".into(),
        count(|c| c.serialized_commits),
        "count",
    );
    put(
        "cm.priority_wins".into(),
        count(|c| c.priority_wins),
        "count",
    );
    put("sim.cycles".into(), count(|c| c.thread_cycles), "cycles");
    put("sim.commits".into(), count(|c| c.commits), "count");
    put("sim.aborts".into(), count(|c| c.aborts), "count");
    put("sim.digest".into(), last.digest() as f64, "hash");
    put(
        "trace.overhead".into(),
        ratio(
            median(pairs.iter().map(|(_, p, _)| secs(p.wall)).collect()),
            median(pairs.iter().map(|(p, _, _)| secs(p.wall)).collect()),
        ),
        "ratio",
    );
    put(
        "peak_rss_mb".into(),
        sys::usage().max_rss_kib as f64 / 1024.0,
        "MiB",
    );
    put(
        "failed_frac".into(),
        ratio(ledger.failed as f64, ledger.attempted as f64),
        "ratio",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_sums_each_runs_least_time() {
        let pass = |ms: [u64; 2]| Pass {
            wall: Duration::ZERO,
            records: ms
                .iter()
                .map(|&m| RunRecord {
                    wall: Duration::from_millis(m),
                    ..RunRecord::default()
                })
                .collect(),
            peak_heap: 0,
        };
        let passes = [pass([5, 9]), pass([7, 3])];
        assert_eq!(fastest(&passes, |r| r.wall), Duration::from_millis(8));
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "wall_s".into(),
                value: 1.25,
                unit: "s",
            }],
            problems: vec![],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
