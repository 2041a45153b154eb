//! Common result types returned by every application's `run` entry point
//! and consumed by the bench harness.

use tm::{RunReport, SystemKind};

/// Result of running one application configuration on one TM system.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application name (e.g. `kmeans`).
    pub app: &'static str,
    /// Variant or parameter summary.
    pub config: String,
    /// The TM run report (simulated cycles + transactional statistics).
    pub run: RunReport,
    /// Whether the parallel result matched the sequential reference /
    /// validity predicate.
    pub verified: bool,
}

impl AppReport {
    /// Convenience constructor.
    pub fn new(app: &'static str, config: String, run: RunReport, verified: bool) -> Self {
        AppReport {
            app,
            config,
            run,
            verified,
        }
    }

    /// The system the run modeled.
    pub fn system(&self) -> SystemKind {
        self.run.system
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<14} {:<12} threads={:<2} cycles={:<12} commits={:<8} retries/txn={:<6.2} inTxn={:>5.1}% {}",
            self.app,
            self.run.system.label(),
            self.run.threads,
            self.run.sim_cycles,
            self.run.stats.commits,
            self.run.stats.retries_per_txn(),
            self.run.stats.time_in_txn() * 100.0,
            if self.verified { "OK" } else { "FAILED-VERIFY" }
        )
    }
}

impl std::fmt::Display for AppReport {
    /// The summary line; runs under `tm::prof` (`--prof`)
    /// append the profiler's cycle breakdown and hottest conflict lines.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())?;
        if let Some(prof) = &self.run.prof {
            write!(f, "\n{}", prof.summary(3).trim_end())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::{SystemKind, TmConfig, TmRuntime};

    #[test]
    fn summary_contains_key_fields() {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 2));
        let c = rt.heap().alloc_cell(0u64);
        let run = rt.run(|ctx| {
            ctx.atomic(|txn| {
                let v = txn.read(&c)?;
                txn.write(&c, v + 1)
            });
        });
        let rep = AppReport::new("demo", "cfg".into(), run, true);
        let s = rep.summary();
        assert!(s.contains("demo"));
        assert!(s.contains("Lazy STM"));
        assert!(s.contains("OK"));
        assert_eq!(rep.system(), SystemKind::LazyStm);
    }

    #[test]
    fn display_appends_prof_breakdown() {
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 2).prof(true));
        let c = rt.heap().alloc_cell(0u64);
        let run = rt.run(|ctx| {
            ctx.atomic(|txn| {
                let v = txn.read(&c)?;
                txn.write(&c, v + 1)
            });
        });
        let shown = AppReport::new("demo", "cfg".into(), run, true).to_string();
        assert!(shown.contains("cycle breakdown:"));
        assert!(shown.contains("useful="));
        // Without the profiler, Display stays a single line.
        let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 2));
        let run = rt.run(|_| {});
        assert!(!AppReport::new("demo", "cfg".into(), run, true)
            .to_string()
            .contains('\n'));
    }
}
