//! The benchmark's own checks, at tiny input sizes: every metric that
//! `BENCHMARK.json` names is emitted once with its unit, simulated
//! counts repeat, failures are counted, and the layered execution
//! matches each app's own `run`.

use std::collections::BTreeMap;
use std::time::Duration;

use perfbench::exec::{self, Counts};
use perfbench::spans::Tracer;
use perfbench::workload::{RunSpec, Workload};
use perfbench::{measure, measure_runs, Outcome, Settings};

/// Divisor that takes every input down to its floor size.
const TINY: u32 = 256;

fn tiny(workload: Workload, trace: bool) -> Settings {
    Settings {
        shrink: TINY,
        probe_target: Duration::from_micros(200),
        ..Settings::new(workload, 3, Duration::ZERO, trace)
    }
}

/// The string fields of each entry in one list of `BENCHMARK.json`,
/// starting a new entry at each `name`. The file is this crate's own,
/// one key per line, so a line scan suffices.
fn declared(section: &str) -> Vec<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let mut out: Vec<BTreeMap<String, String>> = Vec::new();
    for line in text
        .lines()
        .skip_while(|l| !l.contains(&format!("\"{section}\"")))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
    {
        let Some((key, value)) = line.trim().split_once("\": \"") else {
            continue;
        };
        let key = key.trim_start_matches('"');
        let value = value.trim_end_matches(',').trim_end_matches('"');
        if key == "name" {
            out.push(BTreeMap::new());
        }
        out.last_mut()
            .expect("name comes first")
            .insert(key.to_string(), value.to_string());
    }
    assert!(!out.is_empty(), "nothing under {section}");
    out
}

fn declared_metrics(section: &str) -> Vec<(String, String)> {
    declared(section)
        .into_iter()
        .map(|e| (e["name"].clone(), e["unit"].clone()))
        .collect()
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            (m.name.clone(), m.unit.to_string())
        })
        .collect()
}

fn assert_same_metrics(mut got: Vec<(String, String)>, mut want: Vec<(String, String)>) {
    let n = got.len();
    got.sort();
    got.dedup_by(|a, b| a.0 == b.0);
    assert_eq!(got.len(), n, "a metric is emitted twice");
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn every_workload_emits_every_declared_metric_once() {
    let declared_workloads: Vec<String> = declared("workloads")
        .into_iter()
        .map(|e| e["name"].clone())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared_workloads, ours);
    for w in Workload::ALL {
        for trace in [false, true] {
            let mut rows = 0;
            let o = measure(&tiny(w, trace), &mut |row| {
                assert!(row.contains("\"git_rev\": ") && row.contains("\"sched_seed\": "));
                if row.starts_with("{\"row\": \"run\"") {
                    assert!(row.contains("\"effective_cm\": "), "{row}");
                }
                rows += 1;
            });
            assert!(o.correct, "{}: {:?}", w.name(), o.problems);
            assert_eq!(o.failed, 0);
            assert!(o.attempted > 0 && rows > 0);
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_same_metrics(emitted(&o), declared_metrics(section));
            let json = o.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!json.contains('\n'));
        }
    }
}

#[test]
fn digest_repeats_over_passes() {
    for w in Workload::ALL {
        let specs = w.runs(11, TINY);
        let a = exec::pass(&specs, &mut Tracer::new(false), true);
        let b = exec::pass(&specs, &mut Tracer::new(true), true);
        assert_eq!(a.failed(), 0, "{}", w.name());
        assert_eq!(a.digest(), b.digest(), "{}", w.name());
        assert!(a.digest() < 1 << 53);
        let other = exec::pass(&w.runs(12, TINY), &mut Tracer::new(false), true);
        assert_ne!(a.digest(), other.digest(), "{}", w.name());
    }
}

#[test]
fn a_failing_run_is_counted_not_fatal() {
    let mut specs = Workload::Solo.runs(5, TINY);
    specs.truncate(3);
    // Zero threads is a configuration the engine refuses with a panic.
    specs.push(RunSpec {
        threads: 0,
        ..specs[0].clone()
    });
    let metric = |o: &Outcome, name: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric emitted")
    };
    let plain = measure_runs(&tiny(Workload::Solo, false), &specs, &mut |_| {});
    assert!(!plain.correct);
    assert_eq!(plain.failed * 4, plain.attempted);
    assert_eq!(metric(&plain, "pass_frac"), 0.75);
    assert!(plain.problems.iter().any(|p| p.contains("panic")));

    let traced = measure_runs(&tiny(Workload::Solo, true), &specs, &mut |_| {});
    assert!(!traced.correct);
    assert_eq!(metric(&traced, "failed_frac"), 0.25);
}

#[test]
fn layered_runs_match_each_apps_own_run() {
    let mut seen = BTreeMap::new();
    for spec in Workload::Contended
        .runs(9, TINY)
        .into_iter()
        .chain(Workload::Solo.runs(9, TINY))
        .filter(|s| s.system == tm::SystemKind::LazyStm)
    {
        let app = spec.params.app().name();
        if seen.contains_key(app) {
            continue;
        }
        let rec = exec::execute(&spec, 0, &mut Tracer::new(false), true);
        assert!(rec.failure.is_none(), "{app}: {:?}", rec.failure);
        let own = bench::run_params(&spec.params, spec.config());
        assert!(own.verified, "{app}");
        let c: Counts = rec.counts.expect("no panic");
        assert_eq!(
            (c.sim_cycles, c.commits, c.aborts, c.attempts),
            (
                own.run.sim_cycles,
                own.run.stats.commits,
                own.run.stats.aborts,
                own.run.stats.attempts
            ),
            "{app}"
        );
        seen.insert(app, ());
    }
    assert_eq!(seen.len(), 8);
}

#[test]
fn refuses_to_run_with_tm_variables_set() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "solo",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("TM_CM", "karma")
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("TM_CM"));
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "solo", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "solo",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "solo",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
