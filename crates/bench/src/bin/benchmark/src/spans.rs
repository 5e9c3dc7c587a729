//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] is either off — [`Tracer::span`] then just runs its
//! closure, with no clock read, so end-to-end runs carry no tracing cost —
//! or on, recording each span's name, start, end and parent (the span
//! that was open when it started). Spans stay in memory until the run
//! ends; per-layer metrics are aggregated from them and `--trace-out`
//! appends them as JSON lines tagged with the run id.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `adaptive.decide_cold`.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder of one benchmark run.
pub struct Tracer {
    run: Option<String>,
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            run: None,
            t0: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// A recording tracer; `run` tags every span it writes out.
    pub fn on(run: String) -> Tracer {
        Tracer {
            run: Some(run),
            t0: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.run.is_some()
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let start = self.t0.elapsed().as_secs_f64();
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            let idx = inner.spans.len() - 1;
            inner.open.push(idx);
            idx
        };
        let out = f();
        let end = self.t0.elapsed().as_secs_f64();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        inner.spans[idx].end = end;
        out
    }

    /// Record an interval timed elsewhere (e.g. on a client thread) as a
    /// closed span under the currently open one.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
        });
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Append every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let Some(run) = &self.run else { return Ok(()) };
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for (id, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"run":"{run}","id":{id},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent}}}"#,
                s.name,
                s.start * 1e6,
                s.end * 1e6,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let t = Tracer::on("t".into());
        t.span("outer", || {
            t.span("inner", || ());
            t.span("inner", || ());
        });
        let spans = t.inner.borrow().spans.clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end >= spans[2].end);
        assert_eq!(t.durations("inner").len(), 2);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        t.record("y", Instant::now(), Instant::now());
        assert!(t.durations("x").is_empty() && t.durations("y").is_empty());
    }
}
