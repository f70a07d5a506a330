//! The oxbar serving benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics from a separate traced
//! invocation.
//!
//! ```text
//! servebench --workload <wire_mixed|warm_offline|thrash_offline>
//!            --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! # Workloads
//!
//! * `wire_mixed` ([`wire`]): a loopback [`oxbar_serve::Server`] driven by
//!   two protocol clients in closed loop — one sends CNN `Infer` requests,
//!   the other runs back-to-back `Generate` sequences on `llm_tiny`.
//! * `warm_offline` ([`offline`]): an in-process engine whose single chip
//!   holds the whole catalog drains a long open-loop trace.
//! * `thrash_offline` ([`offline`]): the same trace on two chips that each
//!   hold a third of the catalog, so tiles are evicted and reprogrammed.
//!
//! # End-to-end metrics
//!
//! Every workload reports every metric of [`END_TO_END`], each measured on
//! that workload's own serving path: over the socket on `wire_mixed`
//! (client `send` → frame received), and on the engine's drain timeline
//! offline (the drain starts with the whole trace queued; a request
//! completes when the dispatch round holding its batch ends, from the
//! batch times the engine measured). Set-up is timed on its own and never
//! inside a measured phase. A tail is the highest percentile with at least
//! ten samples beyond it ([`stats::tail`]); the printed report gives it
//! with its percentile and sample count.
//!
//! # Per-layer metrics
//!
//! With `--trace 1` the workload runs twice on one set-up, untraced and
//! then traced, and the difference is reported as `trace.overhead.*`. The
//! traced run records a span around every call the benchmark makes into a
//! layer ([`trace`]); the per-layer metrics and the end-to-end metric each
//! should move are listed in [`layers::PER_LAYER`].

pub mod layers;
pub mod offline;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["wire_mixed", "warm_offline", "thrash_offline"];

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("infer_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("ttft_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Untraced and then traced set-ups of a traced run.
const TRACED_SETUPS: usize = 2;

/// Share of `--seconds` each of the untraced and traced phases of a
/// traced invocation gets; the rest goes to the per-layer measurements.
const TRACED_PHASE_SHARE: f64 = 0.35;

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced invocation.
    pub trace: bool,
    /// Where the traced invocation writes its spans.
    pub spans: Option<PathBuf>,
}

impl Options {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace` and
    /// `--spans`.
    ///
    /// # Errors
    ///
    /// A message naming the missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut spans = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    });
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            spans,
        })
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// What the value is, where the name does not say.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            n,
            note: String::new(),
        }
    }

    /// Attaches a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The end-to-end samples of one measured phase. Latency samples come in
/// groups — one per drain offline; on the wire one per phase, except token
/// gaps, grouped by blocks of sequences — and a
/// percentile is the mean over groups of that percentile within each
/// group: a drain's samples share its conditions, and averaging drains
/// stays steady where their figures fall into two modes.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// CNN inferences completed.
    pub completed: u64,
    /// Wall time those inferences were served in, s: summed drain walls
    /// offline, the client loop's wall on the wire.
    pub serving_s: f64,
    /// CNN request latencies, ms.
    pub req_ms: Vec<Vec<f64>>,
    /// Time to first token per sequence, ms.
    pub ttft_ms: Vec<Vec<f64>>,
    /// Gaps between consecutive tokens of a sequence, ms.
    pub itl_ms: Vec<Vec<f64>>,
    /// Peak resident set at the end of the phase, MB.
    pub peak_rss_mb: f64,
    /// CNN requests plus sequences attempted.
    pub attempted: u64,
    /// Attempts answered with an error, a shed or not at all.
    pub failed: u64,
}

/// `stat` of each group, then the mean over groups; with the total sample
/// count.
fn grouped(groups: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> (f64, usize) {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| stat(g))
        .collect();
    (stats::mean(&per_group), groups.iter().map(Vec::len).sum())
}

impl Samples {
    /// The [`END_TO_END`] metrics of these samples, in table order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let median = |g: &[Vec<f64>], name: &str| {
            let (value, n) = grouped(g, stats::median);
            Metric::new(name, "ms", value, n)
                .note(format!("p50 per group, mean of {} groups", g.len()))
        };
        let tail = |g: &[Vec<f64>], name: &str| {
            let (value, n) = grouped(g, |s| stats::tail(s).0);
            let pct = g.first().map_or(100.0, |s| stats::tail(s).1);
            Metric::new(name, "ms", value, n)
                .note(format!("p{pct:.1} per group, mean of {} groups", g.len()))
        };
        vec![
            Metric::new(
                "setup_s",
                "s",
                stats::median(&self.setup_s),
                self.setup_s.len(),
            ),
            Metric::new(
                "infer_per_s",
                "1/s",
                self.completed as f64 / self.serving_s.max(f64::MIN_POSITIVE),
                usize::try_from(self.completed).unwrap_or(usize::MAX),
            ),
            median(&self.req_ms, "req_p50_ms"),
            tail(&self.req_ms, "req_tail_ms"),
            median(&self.ttft_ms, "ttft_ms"),
            median(&self.itl_ms, "itl_p50_ms"),
            tail(&self.itl_ms, "itl_tail_ms"),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_mb, 1),
        ]
    }
}

/// What a workload's closing step found.
#[derive(Debug, Default)]
pub struct Finish {
    /// Outputs compared against a reference.
    pub checked: u64,
    /// Outputs that differed from it (each also counts as failed).
    pub mismatches: u64,
    /// Per-layer metrics (traced invocation only).
    pub per_layer: Vec<Metric>,
    /// Report lines for the reader.
    pub report: Vec<String>,
}

/// One workload, driven by [`run`]: set up (several times), measure one or
/// two phases on the last set-up, then check outputs and, when traced,
/// measure the layers.
pub trait Workload {
    /// A set-up system, ready to serve.
    type System;
    /// Builds a system: engine, admission, prewarm, warm-up and, on the
    /// wire, server start and handshakes.
    fn setup(&self, t: &mut Tracer) -> Self::System;
    /// Releases a system that will not be measured.
    fn teardown(&self, system: Self::System);
    /// Serves for `seconds`, tracing into `t`.
    fn phase(&self, system: &mut Self::System, seconds: f64, t: &mut Tracer) -> Samples;
    /// Checks every phase's outputs, and with a `layer_budget` measures
    /// the per-layer metrics of the traced phase; consumes the system.
    fn finish(
        &self,
        system: Self::System,
        t: &mut Tracer,
        layer_budget: Option<Duration>,
    ) -> Finish;
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Requests and sequences attempted.
    pub attempted: u64,
    /// Attempts that failed or mismatched.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs the selected workload.
///
/// # Errors
///
/// Fails only if the span file cannot be written.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "wire_mixed" => drive(&wire::WireMixed { seed: opts.seed }, opts),
        "warm_offline" => drive(&offline::Offline::warm(opts.seed), opts),
        "thrash_offline" => drive(&offline::Offline::thrash(opts.seed), opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn drive<W: Workload>(w: &W, opts: &Options) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    let mut report = Vec::new();
    let (metrics, attempted, failed, finish) = if opts.trace {
        let mut on = Tracer::new(true, epoch);
        let (untraced_setup, spare) = setups(w, &mut off, TRACED_SETUPS);
        if let Some(spare) = spare {
            w.teardown(spare);
        }
        let (traced_setup, system) = setups(w, &mut on, TRACED_SETUPS);
        let mut system = system.expect("at least one set-up");
        let phase = opts.seconds * TRACED_PHASE_SHARE;
        let mut untraced = w.phase(&mut system, phase, &mut off);
        untraced.setup_s = untraced_setup;
        untraced.peak_rss_mb = workload::peak_rss_mb();
        let mut traced = w.phase(&mut system, phase, &mut on);
        traced.setup_s = traced_setup;
        traced.peak_rss_mb = workload::peak_rss_mb();
        let budget = opts.seconds * (1.0 - 2.0 * TRACED_PHASE_SHARE);
        let finish = w.finish(system, &mut on, Some(Duration::from_secs_f64(budget)));
        let mut metrics = finish.per_layer.clone();
        for (a, b) in untraced.metrics().iter().zip(traced.metrics()) {
            report.push(format!(
                "e2e {:<12} untraced {:>12.4} traced {:>12.4} {}",
                a.name, a.value, b.value, a.unit
            ));
            metrics.push(
                Metric::new(
                    format!("trace.overhead.{}", a.name),
                    a.unit,
                    b.value - a.value,
                    b.n,
                )
                .note("traced minus untraced"),
            );
        }
        let table = layers::per_layer_table();
        for m in &mut metrics {
            if let Some((_, _, _, moves)) = table.iter().find(|row| row.0 == m.name) {
                let sep = if m.note.is_empty() { "" } else { "; " };
                m.note = format!("{}{sep}moves {moves}", m.note);
            }
        }
        report.extend(span_table(&on));
        // One file per workload, so repeated traced runs do not pile up.
        let path = opts
            .spans
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_out/spans-{}.jsonl", opts.workload)));
        on.write_jsonl(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        report.push(format!(
            "{} spans written to {}",
            on.spans().len(),
            path.display()
        ));
        (
            metrics,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            finish,
        )
    } else {
        let (setup_s, system) = setups(w, &mut off, SETUPS);
        let mut system = system.expect("at least one set-up");
        let mut samples = w.phase(&mut system, opts.seconds, &mut off);
        samples.setup_s = setup_s;
        samples.peak_rss_mb = workload::peak_rss_mb();
        let finish = w.finish(system, &mut off, None);
        (samples.metrics(), samples.attempted, samples.failed, finish)
    };
    report.extend(finish.report);
    let failed = failed + finish.mismatches;
    report.push(format!(
        "checked {} outputs, {} mismatched; failed_frac {:.6} ({failed} of {attempted})",
        finish.checked,
        finish.mismatches,
        failed as f64 / attempted.max(1) as f64
    ));
    Ok(Outcome {
        correct: finish.mismatches == 0 && failed == 0 && finish.checked > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
    })
}

/// Sets up `count` times, keeping only the last system.
fn setups<W: Workload>(w: &W, t: &mut Tracer, count: usize) -> (Vec<f64>, Option<W::System>) {
    let mut secs = Vec::with_capacity(count);
    let mut kept = None;
    for _ in 0..count {
        if let Some(old) = kept.take() {
            w.teardown(old);
        }
        let (system, s) = t.time("bench.setup", 0, |t| w.setup(t));
        secs.push(s);
        kept = Some(system);
    }
    (secs, kept)
}

/// Per-layer calls, total and self time of every recorded span.
fn span_table(t: &Tracer) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<10} {:>9} {:>12} {:>12}",
        "layer", "calls", "total_ms", "self_ms"
    )];
    for (layer, totals) in t.layers() {
        lines.push(format!(
            "{layer:<10} {:>9} {:>12.3} {:>12.3}",
            totals.calls,
            totals.total_ns as f64 * 1e-6,
            totals.self_ns as f64 * 1e-6
        ));
    }
    lines
}
