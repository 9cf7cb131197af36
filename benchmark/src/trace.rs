//! The benchmark's own tracer: spans recorded from outside the program,
//! around every call into a layer. Spans stay in memory and are written
//! out when the run ends. Every timed call goes through [`Tracer::begin`]
//! / [`Tracer::end`] in both modes, so traced and untraced runs execute
//! the same clock reads; an untraced run simply keeps no span.

use std::fmt::Write as _;
use std::time::Instant;

/// The harness's one wall-clock read.
#[allow(clippy::disallowed_methods)] // the root clippy.toml mirrors detlint's banned-clock
pub fn now() -> Instant {
    Instant::now() // detlint::allow(banned-clock): the benchmark measures host time; nothing read here reaches a SimReport
}

/// One closed span. `parent` indexes the span that was open when this one
/// began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span: where it will be stored (traced runs only) and when it
/// began.
#[derive(Debug)]
pub struct Open {
    slot: Option<usize>,
    started: Instant,
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (started - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { slot, started }
    }

    /// Closes `open` and returns its duration in seconds. Spans close in
    /// the reverse of the order they opened.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = now();
        if let Some(slot) = open.slot {
            assert_eq!(self.open.pop(), Some(slot), "spans close innermost first");
            self.spans[slot].end_ns = (ended - self.epoch).as_nanos() as u64;
        }
        (ended - open.started).as_secs_f64()
    }

    /// Times one call as a span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = call();
        (out, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span as `[name index, start_ns, end_ns,
    /// parent index or -1]` plus the per-name summary.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let summary = summarize(&self.spans);
        let mut out = String::with_capacity(64 + self.spans.len() * 32);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"summary\":["
        );
        for (i, s) in summary.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.count,
                s.total_ns,
                s.self_ns
            );
        }
        out.push_str("],\"names\":[");
        for (i, s) in summary.iter().enumerate() {
            let _ = write!(out, "{}\"{}\"", if i == 0 { "" } else { "," }, s.name);
        }
        out.push_str("],\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            let name = summary
                .iter()
                .position(|s| s.name == span.name)
                .expect("every span name is summarized");
            let _ = write!(
                out,
                "{}[{},{},{},{}]",
                if i == 0 { "" } else { "," },
                name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or(-1, |p| p as i64)
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-name count, total and self time, in first-seen order. A span's
/// self time is its duration minus the durations of its direct children
/// (one thread records spans, so siblings never overlap).
pub fn summarize(spans: &[Span]) -> Vec<Summary> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut summary: Vec<Summary> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let total = span.end_ns - span.start_ns;
        let own = total.saturating_sub(child_ns[i]);
        match summary.iter_mut().find(|s| s.name == span.name) {
            Some(s) => {
                s.count += 1;
                s.total_ns += total;
                s.self_ns += own;
            }
            None => summary.push(Summary {
                name: span.name,
                count: 1,
                total_ns: total,
                self_ns: own,
            }),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("minute", 10, 40, Some(0)),
            span("probe", 15, 25, Some(1)),
            span("minute", 50, 90, Some(0)),
        ];
        let summary = summarize(&spans);
        assert_eq!(
            summary,
            vec![
                Summary {
                    name: "run",
                    count: 1,
                    total_ns: 100,
                    self_ns: 30
                },
                Summary {
                    name: "minute",
                    count: 2,
                    total_ns: 70,
                    self_ns: 60
                },
                Summary {
                    name: "probe",
                    count: 1,
                    total_ns: 10,
                    self_ns: 10
                },
            ]
        );
        // Self times partition the root: nothing is counted twice.
        assert_eq!(summary.iter().map(|s| s.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_untraced_keeps_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        let ((), inner_s) = tracer.time("inner", || ());
        let outer_s = tracer.end(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[0].parent, None);
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
        let json = tracer.to_json("w", 7);
        assert!(json.contains("\"names\":[\"outer\",\"inner\"]"));
        assert!(json.contains("[1,"), "inner span row present: {json}");

        let mut off = Tracer::new(false);
        let (v, _) = off.time("x", || 5);
        assert_eq!(v, 5);
        assert!(off.spans().is_empty());
    }
}
