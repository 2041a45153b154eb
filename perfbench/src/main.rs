//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON row per run and, last, the result object. Exits 2
//! without a result on bad arguments or when a `TM_*` variable is set.
//! A failed run or simulated counts that do not repeat show as
//! `"correct": false` in the result. So does a run that takes longer than
//! [`RUN_LIMIT`]: the result then has no metrics.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::workload::Workload;
use perfbench::{measure, Outcome, Settings};

/// Longest host time one run may take before it counts as hung; normal
/// runs take well under a second.
const RUN_LIMIT: Duration = Duration::from_secs(60);

const USAGE: &str = "usage: perfbench --workload <solo|herd|contended> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Settings::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    // The engine reads TM_* variables as overrides; any of them would
    // change what is measured, so refuse rather than measure it.
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TM_"))
        .collect();
    if !ambient.is_empty() {
        eprintln!("perfbench: unset {} first", ambient.join(", "));
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The turn scheduler runs one simulated thread at a time, so the
    // simulation never uses a second core. Unpinned, every turn handoff
    // between threads on different CPUs waits for the other CPU to wake,
    // which on a shared virtual machine varies with the host's load.
    if let Err(e) = perfbench::sys::pin_to_current_cpu() {
        eprintln!("perfbench: cannot pin to one CPU: {e}");
        return ExitCode::from(2);
    }
    if let Err(e) = perfbench::sys::fix_malloc_thresholds() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    // A run that never ends cannot be cancelled: report it as a failure
    // and end the process, which stops the run's threads. This thread
    // ends with the process and is not joined.
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_secs(1));
        if let Some((what, started, failed)) = perfbench::exec::hung(RUN_LIMIT) {
            eprintln!("perfbench: {what} made no progress in {RUN_LIMIT:?}");
            let outcome = Outcome {
                correct: false,
                attempted: started,
                failed: failed + 1,
                metrics: Vec::new(),
                problems: Vec::new(),
            };
            println!("{}", outcome.json());
            std::process::exit(0);
        }
    });
    let outcome = measure(&settings, &mut |row| println!("{row}"));
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
