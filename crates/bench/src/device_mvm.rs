//! `device_mvm` perf snapshot: field-walk vs compiled transfer-matrix
//! device-level MVM, emitted as machine-readable `BENCH_device_mvm.json`
//! at the workspace root so successive PRs can track the trajectory.
//!
//! Every case times the *same* workload on [`MvmEngine::FieldWalk`]
//! (the cell-by-cell propagation baseline, "before") and
//! [`MvmEngine::Compiled`] (the transfer-matrix fast path, "after"); the
//! headline case is the release-mode LeNet-5 device-level forward pass,
//! whose target is a ≥10× speedup. The kernel cases time the batched
//! complex-gain MVM alone at the tile shapes and window counts warm CNN
//! serving drives. The dynamic cases time one attention MVM
//! ([`DeviceExecutor::dynamic_mv`]: `QKᵀ` and `AV` of one `llm_tiny`
//! head) on a warm noisy 128×128 executor. The decode cases time one
//! decode batch of eight `llm_tiny` sequences at a fixed position on a
//! warm one-chip [`ServeEngine`], through its public API only. Every
//! timing is the median and p10/p90 over repeated runs.

use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_nn::{Conv2d, TensorShape};
use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
use oxbar_photonics::transfer::{BatchScratch, CompiledCrossbar};
use oxbar_serve::{catalog, ServeConfig, ServeEngine};
use oxbar_sim::{DeviceExecutor, MvmEngine, SimConfig};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The headline speedup target (from the issue's acceptance criteria).
pub const TARGET_SPEEDUP: f64 = 10.0;

/// Median and p10/p90 of one per-iteration time over repeated runs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Spread {
    /// Median run.
    pub median: f64,
    /// 10th-percentile run (nearest rank).
    pub p10: f64,
    /// 90th-percentile run (nearest rank).
    pub p90: f64,
}

impl Spread {
    fn of(mut runs: Vec<f64>) -> Self {
        runs.sort_by(f64::total_cmp);
        let rank = |q: f64| runs[((runs.len() - 1) as f64 * q).round() as usize];
        Self {
            median: rank(0.5),
            p10: rank(0.1),
            p90: rank(0.9),
        }
    }
}

/// One timed workload, on both engines.
#[derive(Debug, Clone, Serialize)]
pub struct CaseResult {
    /// Workload name.
    pub name: String,
    /// Timed iterations per run (after one warm-up).
    pub iterations: usize,
    /// Timed runs per engine.
    pub runs: usize,
    /// Per-iteration wall time on the field-walk baseline (ms).
    pub field_walk_ms: Spread,
    /// Per-iteration wall time on the compiled path (ms). For forward
    /// workloads this is the weight-stationary steady state (programmed
    /// tiles reused across images, as the hardware runs).
    pub compiled_ms: Spread,
    /// Cold-start compiled time (fresh executor every run: PCM
    /// programming + transfer-matrix compile + MVM). Equals `compiled_ms`
    /// for workloads without a reuse dimension.
    pub compiled_cold_ms: Spread,
    /// `field_walk_ms / compiled_ms`, medians.
    pub speedup: f64,
}

/// One batched MVM shape, timed on the compiled kernel alone.
#[derive(Debug, Clone, Serialize)]
pub struct KernelCase {
    /// `complex/<rows>x<cols>x<windows>`.
    pub name: String,
    /// Tile rows (N).
    pub rows: usize,
    /// Tile columns (M).
    pub cols: usize,
    /// Drive windows per call.
    pub windows: usize,
    /// Timed calls per run (after one warm-up).
    pub calls: usize,
    /// Timed runs.
    pub runs: usize,
    /// Per-call wall time of `run_normalized_batch_with` (µs).
    pub call_us: Spread,
    /// Median ns per complex multiply-accumulate (`rows · cols · windows`
    /// per call).
    pub ns_per_mac: f64,
}

/// One dynamic attention MVM shape, timed through
/// [`DeviceExecutor::dynamic_mv`] on a warm noisy 128×128 executor.
#[derive(Debug, Clone, Serialize)]
pub struct DynamicCase {
    /// `dynamic/<kind>/p<position>`.
    pub name: String,
    /// `qk` (`position` key rows of 8 codes times a signed query) or `av`
    /// (8 value rows of `position` codes times unsigned attention
    /// weights).
    pub kind: String,
    /// Cached sequence positions the product spans.
    pub position: usize,
    /// Timed calls per run (after one warm-up call).
    pub calls: usize,
    /// Timed runs.
    pub runs: usize,
    /// Per-call wall time (µs).
    pub call_us: Spread,
}

/// One warm decode batch, timed through a one-chip [`ServeEngine`].
#[derive(Debug, Clone, Serialize)]
pub struct DecodeCase {
    /// `decode/p<position>`.
    pub name: String,
    /// `llm_tiny` sequences in the batch.
    pub sequences: usize,
    /// The position every sequence of the batch decodes at.
    pub position: usize,
    /// Timed runs, one batch each (after one warm-up drain).
    pub runs: usize,
    /// The batch's wall time as the engine measures it
    /// (`DrainTrace::batch_ms`, ms).
    pub batch_ms: Spread,
}

/// The full machine-readable snapshot (`BENCH_device_mvm.json`).
#[derive(Debug, Clone, Serialize)]
pub struct DeviceMvmReport {
    /// Snapshot identifier (`"device_mvm"`).
    pub bench: String,
    /// `"quick"` (CI smoke) or `"full"`.
    pub mode: String,
    /// Time unit of the per-case numbers (`"ms"`).
    pub unit: String,
    /// The headline speedup target.
    pub target_speedup: f64,
    /// Whether the LeNet-5 headline case met the target; `null` when the
    /// headline was not run (quick mode times smoke workloads only).
    pub achieved: Option<bool>,
    /// Per-workload results, headline first.
    pub cases: Vec<CaseResult>,
    /// Batched complex-gain kernel shapes, narrowest tiles first.
    pub kernels: Vec<KernelCase>,
    /// Dynamic attention MVM shapes, `qk` then `av`, shortest first.
    pub dynamic: Vec<DynamicCase>,
    /// Warm decode batches, shortest position first.
    pub decode: Vec<DecodeCase>,
}

/// Times `f` over `runs` runs of `iterations` calls (after one warm-up),
/// per-call ms.
fn time_ms<F: FnMut()>(runs: usize, iterations: usize, mut f: F) -> Spread {
    f();
    Spread::of(
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iterations {
                    f();
                }
                start.elapsed().as_secs_f64() * 1e3 / iterations as f64
            })
            .collect(),
    )
}

fn case<F, G, H>(
    name: &str,
    (runs, iterations): (usize, usize),
    mut field_walk: F,
    mut compiled_cold: G,
    compiled_warm: Option<H>,
) -> CaseResult
where
    F: FnMut(),
    G: FnMut(),
    H: FnMut(),
{
    let field_walk_ms = time_ms(runs, iterations, &mut field_walk);
    let compiled_cold_ms = time_ms(runs, iterations, &mut compiled_cold);
    let compiled_ms = match compiled_warm {
        Some(mut warm) => time_ms(runs, iterations, &mut warm),
        None => compiled_cold_ms,
    };
    CaseResult {
        name: name.to_string(),
        iterations,
        runs,
        field_walk_ms,
        compiled_ms,
        compiled_cold_ms,
        speedup: field_walk_ms.median / compiled_ms.median,
    }
}

/// A LeNet-5 device-level forward pass on the given engine and threads.
///
/// `compiled` (the headline number) is the weight-stationary steady
/// state: one executor keeps its programmed+compiled tiles across images,
/// exactly as the PCM hardware amortizes programming over inference.
/// `compiled_cold` rebuilds the executor every pass (programming +
/// compile + MVM); the field-walk baseline is always cold because the
/// oracle engine never caches.
fn lenet_case(name: &str, timing: (usize, usize), threads: usize) -> CaseResult {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 77);
    let filters = synthetic::filter_banks(&net, 6, 78);
    let config = SimConfig::ideal(128, 128).with_threads(threads);
    let walk = DeviceExecutor::new(config.clone()).with_engine(MvmEngine::FieldWalk);
    let warm = DeviceExecutor::new(config.clone());
    let cold_config = config.clone();
    case(
        name,
        timing,
        || {
            black_box(walk.forward(&net, &input, &filters).unwrap());
        },
        || {
            let fresh = DeviceExecutor::new(cold_config.clone());
            black_box(fresh.forward(&net, &input, &filters).unwrap());
        },
        Some(|| {
            black_box(warm.forward(&net, &input, &filters).unwrap());
        }),
    )
}

/// One padded conv layer (duplicate/dark windows) on a small array.
fn conv_case(timing: (usize, usize)) -> CaseResult {
    let conv = Conv2d::new("probe", TensorShape::new(12, 12, 3), 3, 3, 8, 1, 1);
    let input = synthetic::activations(conv.input, 6, 31);
    let bank = synthetic::filter_bank(&conv, 6, 32);
    let out = conv.output_shape();
    let pixels: Vec<usize> = (0..out.h * out.w).collect();
    let config = SimConfig::ideal(64, 32).with_threads(1);
    let walk = DeviceExecutor::new(config.clone()).with_engine(MvmEngine::FieldWalk);
    let warm = DeviceExecutor::new(config.clone());
    let cold_config = config.clone();
    case(
        "conv3x3_12x12x3/64x32/serial",
        timing,
        || {
            black_box(walk.conv_pixels_flat(&conv, &input, &bank, 0, &pixels));
        },
        || {
            let fresh = DeviceExecutor::new(cold_config.clone());
            black_box(fresh.conv_pixels_flat(&conv, &input, &bank, 0, &pixels));
        },
        Some(|| {
            black_box(warm.conv_pixels_flat(&conv, &input, &bank, 0, &pixels));
        }),
    )
}

/// The raw crossbar kernel: one `run_normalized` MVM, walk vs compiled.
fn kernel_case(size: usize, timing: (usize, usize)) -> CaseResult {
    let sim = CrossbarSimulator::ideal(CrossbarConfig::new(size, size));
    let inputs: Vec<f64> = (0..size).map(|i| (i % 17) as f64 / 16.0).collect();
    let weights: Vec<Vec<f64>> = (0..size)
        .map(|i| (0..size).map(|j| ((i + j) % 13) as f64 / 12.0).collect())
        .collect();
    let compiled = CompiledCrossbar::new(&sim, &weights);
    let mut out = vec![0.0; size];
    case::<_, _, fn()>(
        &format!("crossbar_mvm/{size}x{size}"),
        timing,
        || {
            black_box(sim.run_normalized(black_box(&inputs), black_box(&weights)));
        },
        || {
            compiled.run_normalized_into(black_box(&inputs), &mut out);
            black_box(&out);
        },
        None,
    )
}

/// Batched complex-gain kernel shapes `(rows, cols, windows)` that warm
/// CNN serving on 128×128 arrays drives: LeNet-5's conv1/conv2/fc tiles
/// (25×6 × 784, 128×16 × 100, 128×10 × 3), the sampled VGG/AlexNet
/// 128×128 and 128×64 tiles at one, a few and many windows, and a
/// one-column depthwise tile (9×1 × 36).
const KERNEL_SHAPES: [(usize, usize, usize); 8] = [
    (9, 1, 36),
    (25, 6, 784),
    (128, 10, 3),
    (128, 16, 100),
    (128, 64, 36),
    (128, 128, 1),
    (128, 128, 3),
    (128, 128, 64),
];

/// Times one batched complex-gain MVM shape: noisy-chip phase errors
/// (complex gains), 6-bit drive codes with about a quarter of them dark.
fn batched_kernel_case(
    (rows, cols, windows): (usize, usize, usize),
    runs: usize,
    macs_per_run: usize,
) -> KernelCase {
    let sim = CrossbarSimulator::new(
        CrossbarConfig::new(rows, cols)
            .with_phase_error_sigma(0.05)
            .with_phase_error_seed(7),
    );
    let weights: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            (0..cols)
                .map(|j| ((i * 7 + j * 3) % 64) as f64 / 63.0)
                .collect()
        })
        .collect();
    let compiled = CompiledCrossbar::new(&sim, &weights);
    assert!(!compiled.is_real(), "phase errors give complex gains");
    let drives: Vec<f64> = (0..windows * rows)
        .map(|k| {
            let code = ((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as u8;
            if code < 16 {
                0.0
            } else {
                f64::from(code) / 63.0
            }
        })
        .collect();
    let mut out = vec![0.0; windows * cols];
    let mut scratch = BatchScratch::default();
    let macs = rows * cols * windows;
    let calls = (macs_per_run / macs).max(1);
    let call_ms = time_ms(runs, calls, || {
        compiled.run_normalized_batch_with(black_box(&drives), &mut out, &mut scratch);
        black_box(&out);
    });
    KernelCase {
        name: format!("complex/{rows}x{cols}x{windows}"),
        rows,
        cols,
        windows,
        calls,
        runs,
        call_us: Spread {
            median: call_ms.median * 1e3,
            p10: call_ms.p10 * 1e3,
            p90: call_ms.p90 * 1e3,
        },
        ns_per_mac: call_ms.median * 1e6 / macs as f64,
    }
}

/// `llm_tiny`'s per-head width: the fixed side of both attention products.
const HEAD_DIM: usize = 8;

/// Dynamic shapes `(kind, position)`: one tile, a full 16-step decode
/// window, a full array height, and a length that folds.
const DYNAMIC_SHAPES: [(&str, usize); 8] = [
    ("qk", 1),
    ("qk", 16),
    ("qk", 128),
    ("qk", 300),
    ("av", 1),
    ("av", 16),
    ("av", 128),
    ("av", 300),
];

/// Times one dynamic attention MVM shape on a warm noisy 128×128
/// executor (its first call programs the stage's draws; the timed calls
/// repeat it).
fn dynamic_case(kind: &str, position: usize, runs: usize, calls: usize) -> DynamicCase {
    let exec = DeviceExecutor::new(SimConfig::noisy(128, 128).with_threads(1));
    let code = |k: usize, span: usize| ((k.wrapping_mul(0x9E37_79B9) >> 7) % span) as i64;
    let (stage, outputs, inputs, low) = match kind {
        "qk" => (0, position, HEAD_DIM, -63),
        _ => (1, HEAD_DIM, position, 0),
    };
    let rows: Vec<Vec<i8>> = (0..outputs)
        .map(|o| {
            (0..inputs)
                .map(|i| (code(o * inputs + i, 63) - 31) as i8)
                .collect()
        })
        .collect();
    let drive: Vec<i64> = (0..inputs)
        .map(|i| low + code(i + 7, (63 - low + 1) as usize))
        .collect();
    let call_ms = time_ms(runs, calls, || {
        black_box(exec.dynamic_mv(stage, black_box(&rows), black_box(&drive)));
    });
    DynamicCase {
        name: format!("dynamic/{kind}/p{position}"),
        kind: kind.to_string(),
        position,
        calls,
        runs,
        call_us: Spread {
            median: call_ms.median * 1e3,
            p10: call_ms.p10 * 1e3,
            p90: call_ms.p90 * 1e3,
        },
    }
}

/// Sequences per timed decode batch.
const DECODE_SEQUENCES: usize = 8;

/// Decode positions: the second token, a full 16-step window, and the
/// end of `llm_tiny`'s positional table.
const DECODE_POSITIONS: [usize; 3] = [1, 16, 64];

/// Times the decode batch at `position` of eight `llm_tiny` sequences on
/// a warm one-chip engine (noisy 128×128, one worker): each run begins
/// eight sequences together and drains them to idle, one batch per
/// step, and records the batch at `position`. A warm-up drain first
/// programs the tiles and the attention stages' noise draws.
fn decode_case(position: usize, runs: usize) -> DecodeCase {
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let mut engine = ServeEngine::new(ServeConfig::new(device).with_workers(1));
    let model = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    let batch_ms = |engine: &mut ServeEngine| {
        for s in 0..DECODE_SEQUENCES {
            let prompt = (s * 7 + 3) as u32 % 32;
            engine
                .begin_sequence(model, prompt, position + 1, 0, 1)
                .expect("valid sequence");
        }
        let trace = engine.drain_traced();
        assert_eq!(
            trace.batch_ms.len(),
            position + 1,
            "one batch of every sequence per step"
        );
        trace.batch_ms[position]
    };
    batch_ms(&mut engine);
    let times = (0..runs).map(|_| batch_ms(&mut engine)).collect();
    DecodeCase {
        name: format!("decode/p{position}"),
        sequences: DECODE_SEQUENCES,
        position,
        runs,
        batch_ms: Spread::of(times),
    }
}

/// Runs the snapshot. `quick` keeps the workloads small enough for a CI
/// smoke step; the full mode times the LeNet-5 headline at 128×128.
#[must_use]
pub fn generate(quick: bool) -> DeviceMvmReport {
    let cases = if quick {
        vec![conv_case((3, 2)), kernel_case(32, (3, 20))]
    } else {
        vec![
            lenet_case("lenet5_forward/128x128/serial", (11, 3), 1),
            lenet_case("lenet5_forward/128x128/parallel", (11, 3), 0),
            conv_case((11, 10)),
            kernel_case(128, (11, 200)),
        ]
    };
    let (runs, macs_per_run) = if quick { (3, 100_000) } else { (31, 4_000_000) };
    let kernels = KERNEL_SHAPES
        .iter()
        .map(|&shape| batched_kernel_case(shape, runs, macs_per_run))
        .collect();
    let dynamic = if quick {
        vec![dynamic_case("qk", 16, runs, 50)]
    } else {
        DYNAMIC_SHAPES
            .iter()
            .map(|&(kind, position)| dynamic_case(kind, position, runs, 200))
            .collect()
    };
    let decode = if quick {
        vec![decode_case(16, runs)]
    } else {
        DECODE_POSITIONS
            .iter()
            .map(|&position| decode_case(position, runs))
            .collect()
    };
    let achieved = cases
        .iter()
        .find(|c| c.name.starts_with("lenet5_forward"))
        .map(|c| c.speedup >= TARGET_SPEEDUP);
    DeviceMvmReport {
        bench: "device_mvm".to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        unit: "ms".to_string(),
        target_speedup: TARGET_SPEEDUP,
        achieved,
        cases,
        kernels,
        dynamic,
        decode,
    }
}

/// Prints the before/after table and the kernel table.
pub fn render(report: &DeviceMvmReport) {
    println!(
        "# device_mvm — field walk (before) vs compiled transfer matrix (after), {} mode",
        report.mode
    );
    println!("(compiled_ms = weight-stationary steady state; cold_ms = program+compile+MVM;");
    println!(" medians over {{runs}} runs, [p10, p90] in brackets)");
    println!(
        "{:<34} {:>11} {:>28} {:>28} {:>10} {:>9}",
        "case", "runs×iters", "field_walk_ms", "compiled_ms", "cold_ms", "speedup"
    );
    let spread = |s: Spread| format!("{:.4} [{:.4}, {:.4}]", s.median, s.p10, s.p90);
    for c in &report.cases {
        println!(
            "{:<34} {:>11} {:>28} {:>28} {:>10.3} {:>8.1}x",
            c.name,
            format!("{}×{}", c.runs, c.iterations),
            spread(c.field_walk_ms),
            spread(c.compiled_ms),
            c.compiled_cold_ms.median,
            c.speedup
        );
    }
    match report.achieved {
        Some(met) => println!(
            "target {:.0}x on the LeNet-5 headline: {}",
            report.target_speedup,
            if met { "MET" } else { "NOT MET" }
        ),
        None => println!(
            "target {:.0}x: headline not run in {} mode",
            report.target_speedup, report.mode
        ),
    }
    println!();
    println!("# batched complex-gain kernel (run_normalized_batch_with), µs per call");
    println!(
        "{:<24} {:>11} {:>10} {:>10} {:>10} {:>10}",
        "shape", "runs×calls", "median", "p10", "p90", "ns/MAC"
    );
    for k in &report.kernels {
        println!(
            "{:<24} {:>11} {:>10.2} {:>10.2} {:>10.2} {:>10.3}",
            k.name,
            format!("{}×{}", k.runs, k.calls),
            k.call_us.median,
            k.call_us.p10,
            k.call_us.p90,
            k.ns_per_mac
        );
    }
    println!();
    println!(
        "# dynamic attention MVM (DeviceExecutor::dynamic_mv, warm noisy 128x128), µs per call"
    );
    println!(
        "{:<24} {:>11} {:>10} {:>10} {:>10}",
        "shape", "runs×calls", "median", "p10", "p90"
    );
    for d in &report.dynamic {
        println!(
            "{:<24} {:>11} {:>10.2} {:>10.2} {:>10.2}",
            d.name,
            format!("{}×{}", d.runs, d.calls),
            d.call_us.median,
            d.call_us.p10,
            d.call_us.p90
        );
    }
    render_decode(report);
}

/// Prints the warm decode batch table.
fn render_decode(report: &DeviceMvmReport) {
    println!();
    println!(
        "# warm decode batch ({DECODE_SEQUENCES} llm_tiny sequences, one-chip ServeEngine, noisy 128x128), ms per batch"
    );
    println!(
        "{:<24} {:>6} {:>10} {:>10} {:>10}",
        "shape", "runs", "median", "p10", "p90"
    );
    for d in &report.decode {
        println!(
            "{:<24} {:>6} {:>10.4} {:>10.4} {:>10.4}",
            d.name, d.runs, d.batch_ms.median, d.batch_ms.p10, d.batch_ms.p90
        );
    }
}

/// Generates the snapshot and writes `BENCH_device_mvm.json` at the
/// workspace root (under `results/` in quick mode).
///
/// # Panics
///
/// Panics if the snapshot cannot be serialized or written.
#[must_use]
pub fn run(quick: bool) -> DeviceMvmReport {
    let report = generate(quick);
    let path = crate::snapshot_path("BENCH_device_mvm.json", quick);
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json + "\n").expect("write BENCH_device_mvm.json");
    println!("[written] {}", path.display());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_valid_schema() {
        let report = generate(true);
        assert_eq!(report.bench, "device_mvm");
        assert_eq!(report.mode, "quick");
        assert_eq!(report.unit, "ms");
        assert_eq!(
            report.achieved, None,
            "quick mode does not run the LeNet-5 headline"
        );
        assert!(!report.cases.is_empty());
        let ordered = |s: Spread| 0.0 < s.p10 && s.p10 <= s.median && s.median <= s.p90;
        for c in &report.cases {
            assert!(ordered(c.field_walk_ms) && ordered(c.compiled_ms), "{c:?}");
            assert!(ordered(c.compiled_cold_ms), "{c:?}");
            let ratio = c.field_walk_ms.median / c.compiled_ms.median;
            assert!((c.speedup - ratio).abs() < 1e-9);
        }
        assert_eq!(report.kernels.len(), KERNEL_SHAPES.len());
        for k in &report.kernels {
            assert!(
                ordered(k.call_us) && k.calls > 0 && k.ns_per_mac > 0.0,
                "{k:?}"
            );
        }
        assert!(!report.dynamic.is_empty());
        for d in &report.dynamic {
            assert_eq!(d.name, format!("dynamic/{}/p{}", d.kind, d.position));
            assert!(ordered(d.call_us) && d.calls > 0, "{d:?}");
        }
        assert_eq!(report.decode.len(), 1, "quick mode times decode/p16 only");
        for d in &report.decode {
            assert_eq!(d.name, format!("decode/p{}", d.position));
            assert!(ordered(d.batch_ms) && d.runs > 0, "{d:?}");
        }
    }
}
