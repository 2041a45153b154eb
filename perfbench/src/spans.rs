//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, the application it ran for, the run it belongs to
//! (spans of one run share that identifier), a start and an end, and the
//! span that was open when it began. A layer's self time is its span's
//! duration minus the time its child spans cover. With tracing off the
//! tracer still returns each interval's duration (the end-to-end metrics
//! need them) but records nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `app.generate`.
    pub name: &'static str,
    /// Application the run drives, e.g. `genome`.
    pub app: &'static str,
    /// Index of the run in its pass.
    pub run: usize,
    /// Offset of the start from the tracer's creation.
    pub start: Duration,
    /// Offset of the end from the tracer's creation.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An interval opened by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Span recorder; see the module documentation.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Count, total duration and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total: Duration,
    /// Sum of their durations minus the time their children cover.
    pub self_time: Duration,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The recorded spans, in the order they opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open an interval nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, app: &'static str, run: usize) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let at = start - self.t0;
            self.spans.push(Span {
                name,
                app,
                run,
                start: at,
                end: at,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, idx }
    }

    /// Close an interval and return its duration. Spans opened inside it
    /// and left open (by a panic that unwound past them) close with it.
    pub fn exit(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            let at = now - self.t0;
            while let Some(top) = self.open.pop() {
                self.spans[top].end = at;
                if top == idx {
                    break;
                }
            }
        }
        now - open.start
    }

    /// Record a child of the innermost open span whose length was
    /// measured inside the program rather than here. Only its duration
    /// is known, so it is placed to end now.
    pub fn inner(&mut self, name: &'static str, app: &'static str, run: usize, length: Duration) {
        if !self.on {
            return;
        }
        let end = Instant::now() - self.t0;
        self.spans.push(Span {
            name,
            app,
            run,
            start: end.saturating_sub(length),
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total += span.duration();
            t.self_time += span.duration().saturating_sub(covered);
        }
        out
    }

    /// Sum of the durations of the spans named `name` for `app`.
    pub fn app_total(&self, name: &str, app: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.app == app)
            .map(Span::duration)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("run", "genome", 0);
        let child = tr.enter("app.phase", "genome", 0);
        std::thread::sleep(Duration::from_millis(4));
        tr.inner("tm.run", "genome", 0, Duration::from_millis(2));
        let phase = tr.exit(child);
        let whole = tr.exit(root);
        let totals = tr.totals();
        assert_eq!(totals["run"].count, 1);
        assert_eq!(totals["run"].total, whole);
        assert_eq!(totals["app.phase"].total, phase);
        assert_eq!(totals["tm.run"].self_time, Duration::from_millis(2));
        assert_eq!(
            totals["app.phase"].self_time,
            phase - Duration::from_millis(2)
        );
        assert_eq!(totals["run"].self_time, whole - phase);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.app_total("tm.run", "genome"), Duration::from_millis(2));
    }

    #[test]
    fn exit_closes_spans_left_open() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("run", "yada", 0);
        let _leaked = tr.enter("app.phase", "yada", 0);
        tr.exit(root);
        let next = tr.enter("run", "yada", 1);
        tr.exit(next);
        assert_eq!(tr.spans()[2].parent, None);
        assert!(tr.spans()[1].end >= tr.spans()[1].start);
    }

    #[test]
    fn off_records_nothing_but_times() {
        let mut tr = Tracer::new(false);
        let o = tr.enter("run", "ssca2", 0);
        std::thread::sleep(Duration::from_millis(1));
        tr.inner("tm.run", "ssca2", 0, Duration::from_millis(1));
        assert!(tr.exit(o) >= Duration::from_millis(1));
        assert!(tr.spans().is_empty());
    }
}
