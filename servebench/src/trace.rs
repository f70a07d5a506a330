//! In-memory span recording around calls into the serving stack.
//!
//! The benchmark times every call it makes into a layer through
//! [`Tracer::time`]. The measurement itself is identical with tracing on
//! or off; a tracer that is on additionally keeps one [`Span`] per call —
//! name, start, end, parent span and request id — in memory. Spans are
//! written out once, when the run ends ([`Tracer::write_jsonl`]).
//!
//! A span's layer is its name up to the first `.` (`protocol.client_send`
//! belongs to `protocol`). Self time is a span's duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (or drain, or sequence) the call served.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Records spans for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans count from `epoch`. When `on` is false,
    /// [`Tracer::time`] still measures but records nothing.
    #[must_use]
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Another tracer with the same setting and epoch, for a second
    /// thread; fold it back with [`Tracer::absorb`].
    #[must_use]
    pub fn fork(&self) -> Self {
        Self::new(self.on, self.epoch)
    }

    /// Runs `f`, returning its result and its wall time in seconds. With
    /// tracing on, also records a span named `name` for `request`, nested
    /// under whichever span of this tracer is open.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        if !self.on {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[index].end_ns = self.ns_at(end);
        (out, (end - start).as_secs_f64())
    }

    fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Self) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name` among those
    /// recorded at indices `window`.
    #[must_use]
    pub fn durations(&self, name: &str, window: Range<usize>) -> Vec<f64> {
        self.spans[window]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// Calls, total and self time per layer.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(children_ns) {
            let totals = layers.entry(span.layer()).or_default();
            totals.calls += 1;
            totals.total_ns += span.ns();
            totals.self_ns += span.ns().saturating_sub(children);
        }
        layers
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.time("engine.drain", 0, |t| {
            t.time("batcher.form", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let layers = t.layers();
        let engine = layers["engine"];
        assert!(engine.self_ns < engine.total_ns);
        assert_eq!(layers["batcher"].calls, 1);

        let mut off = Tracer::new(false, Instant::now());
        let ((), secs) = off.time("engine.drain", 0, |_| {});
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
