//! Drift aging study — inference accuracy vs time since PCM programming,
//! and what deterministic recalibration restores.
//!
//! Not a numbered figure in the paper; this is the supporting study for
//! its §V non-volatility claim. PCM amorphous loss drifts as
//! `d(t) = d(t₀)·(t/t₀)^ν`, so a weight-stationary tile slowly walks away
//! from its programmed transmissions. The sweep ages one device executor
//! through decades of wall-clock time (via its virtual drift clock),
//! replays the same image batch at each age, and reports how far the
//! outputs drift from the fresh-program readouts. The final point
//! recalibrates every tile in place and must come back **bit-exact** to
//! the fresh run — the property the serving engine's self-healing stage
//! relies on.

use crate::{fmt, write_csv};
use oxbar_nn::reference::Tensor3;
use oxbar_nn::{synthetic, zoo};
use oxbar_sim::DeviceExecutor;
use oxbar_sim::SimConfig;
use oxbar_units::Time;
use serde::Serialize;

/// Ages swept, in seconds since programming (decade grid). The device's
/// drift baseline (`drift_elapsed`, 1 h for the noisy preset) is the
/// programming reference point; these are *additional* seconds.
pub const AGE_SECONDS: [f64; 9] = [1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

/// Images replayed at every age.
const IMAGES: usize = 4;

/// One age point: the aged replay compared element-wise against the
/// fresh-program replay of the same batch.
#[derive(Debug, Clone, Serialize)]
pub struct DriftAgingPoint {
    /// Seconds since the tiles were programmed.
    pub seconds_since_program: f64,
    /// Output elements compared (summed over the batch).
    pub elements: usize,
    /// Elements whose aged readout differs from the fresh readout.
    pub mismatches: usize,
    /// `mismatches / elements`.
    pub error_rate: f64,
    /// Worst absolute output-code deviation.
    pub max_abs_delta: i64,
    /// Fraction of images whose arg-max class matches the fresh run.
    pub top1_agreement: f64,
}

/// The whole study: the decade sweep plus the post-recalibration point.
#[derive(Debug, Clone, Serialize)]
pub struct DriftAgingResult {
    /// Network swept.
    pub network: String,
    /// Images per point.
    pub images: usize,
    /// The drift exponent ν of the device.
    pub drift_nu: f64,
    /// The programming reference time t₀ (s).
    pub baseline_elapsed_seconds: f64,
    /// The analytic accuracy budget: virtual ticks (1 tick = 1 s here)
    /// until the worst-case level slips half an LSB; `None` would mean
    /// drift is off.
    pub budget_ticks: Option<u64>,
    /// One point per decade of [`AGE_SECONDS`].
    pub points: Vec<DriftAgingPoint>,
    /// The same batch replayed after recalibrating every tile at the
    /// oldest age.
    pub recalibrated: DriftAgingPoint,
    /// Whether the recalibrated replay was bit-exact to the fresh one —
    /// anything but `true` is a correctness failure (recalibration
    /// re-derives the identical programming stream at the baseline).
    pub recalibration_exact: bool,
}

/// Compares one output tensor against the fresh baseline.
fn compare(aged: &Tensor3, fresh: &Tensor3) -> (usize, i64) {
    let mut mismatches = 0usize;
    let mut max_delta = 0i64;
    for (a, f) in aged.data().iter().zip(fresh.data()) {
        if a != f {
            mismatches += 1;
            max_delta = max_delta.max((a - f).abs());
        }
    }
    (mismatches, max_delta)
}

/// The arg-max class of an output tensor.
fn argmax(t: &Tensor3) -> usize {
    t.data()
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| **v)
        .map_or(0, |(i, _)| i)
}

/// Replays the batch at the executor's current age and grades it against
/// the fresh outputs.
fn grade_age(
    executor: &DeviceExecutor,
    network: &oxbar_nn::Network,
    images: &[Tensor3],
    filters: &[oxbar_nn::reference::FilterBank],
    fresh: &[Tensor3],
    seconds: f64,
) -> DriftAgingPoint {
    let mut elements = 0usize;
    let mut mismatches = 0usize;
    let mut max_delta = 0i64;
    let mut top1 = 0usize;
    for (image, baseline) in images.iter().zip(fresh) {
        let aged = executor
            .forward(network, image, filters)
            .expect("supported network")
            .output;
        let (mism, delta) = compare(&aged, baseline);
        elements += baseline.data().len();
        mismatches += mism;
        max_delta = max_delta.max(delta);
        if argmax(&aged) == argmax(baseline) {
            top1 += 1;
        }
    }
    DriftAgingPoint {
        seconds_since_program: seconds,
        elements,
        mismatches,
        error_rate: mismatches as f64 / elements.max(1) as f64,
        max_abs_delta: max_delta,
        top1_agreement: top1 as f64 / images.len() as f64,
    }
}

/// Runs the sweep: LeNet-5 on the noisy 64×64 device, one virtual tick
/// per second of wall clock.
#[must_use]
pub fn generate() -> DriftAgingResult {
    let network = zoo::lenet5();
    let images: Vec<Tensor3> = (0..IMAGES)
        .map(|i| synthetic::activations(network.input(), 6, 1000 + i as u64))
        .collect();
    let filters = synthetic::filter_banks(&network, 6, 4);
    let config = SimConfig::noisy(64, 64)
        .with_threads(1)
        .with_drift_tick(Time::from_seconds(1.0));
    let executor = DeviceExecutor::new(config.clone());

    // Fresh-program outputs at age 0 — the comparison baseline (and the
    // programming pass that populates the tile cache).
    let fresh: Vec<Tensor3> = images
        .iter()
        .map(|image| {
            executor
                .forward(&network, image, &filters)
                .expect("supported network")
                .output
        })
        .collect();

    // Age the same executor decade by decade. The drift clock only moves
    // forward, so one executor walks the whole sweep and every point
    // re-derives its readouts at the new age.
    let points: Vec<DriftAgingPoint> = AGE_SECONDS
        .iter()
        .map(|&seconds| {
            executor.set_clock(seconds as u64);
            grade_age(&executor, &network, &images, &filters, &fresh, seconds)
        })
        .collect();

    // Recalibrate every tile at the oldest age, then replay: the replay
    // re-derives each marked tile's programming stream, a pure function
    // of the seed, so the outputs must return to the fresh readouts
    // exactly.
    for info in executor.tile_ages() {
        executor.mark_recalibrated(info.layer, info.tile);
    }
    let recalibrated = grade_age(
        &executor,
        &network,
        &images,
        &filters,
        &fresh,
        *AGE_SECONDS.last().expect("non-empty sweep"),
    );
    let recalibration_exact = recalibrated.mismatches == 0;

    DriftAgingResult {
        network: network.name().to_string(),
        images: IMAGES,
        drift_nu: config.noise.drift_nu,
        baseline_elapsed_seconds: config.noise.drift_elapsed.as_seconds(),
        budget_ticks: executor.drift_budget_ticks(),
        points,
        recalibrated,
        recalibration_exact,
    }
}

/// Prints the aging table.
pub fn render(result: &DriftAgingResult) {
    println!("# Drift aging — output accuracy vs time since PCM programming");
    println!(
        "({}, {} images, nu = {}, t0 = {:.0} s, half-LSB budget = {} ticks)",
        result.network,
        result.images,
        result.drift_nu,
        result.baseline_elapsed_seconds,
        result
            .budget_ticks
            .map_or_else(|| "∞".to_string(), |t| t.to_string()),
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>8}",
        "age[s]", "mismatch", "err_rate", "max|Δ|", "top1"
    );
    for p in &result.points {
        println!(
            "{:>14.0} {:>10} {:>10.4} {:>10} {:>8.2}",
            p.seconds_since_program, p.mismatches, p.error_rate, p.max_abs_delta, p.top1_agreement
        );
    }
    let r = &result.recalibrated;
    println!(
        "{:>14} {:>10} {:>10.4} {:>10} {:>8.2}  (after recalibration)",
        "recal", r.mismatches, r.error_rate, r.max_abs_delta, r.top1_agreement
    );
    println!(
        "recalibration bit-exact to fresh program: {}",
        if result.recalibration_exact {
            "yes"
        } else {
            "NO (bug)"
        }
    );
}

/// Runs the sweep and writes `results/drift_aging.csv`.
#[must_use]
pub fn run() -> DriftAgingResult {
    let result = generate();
    let mut rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                fmt(p.seconds_since_program, 0),
                p.mismatches.to_string(),
                fmt(p.error_rate, 6),
                p.max_abs_delta.to_string(),
                fmt(p.top1_agreement, 3),
            ]
        })
        .collect();
    rows.push(vec![
        "recalibrated".to_string(),
        result.recalibrated.mismatches.to_string(),
        fmt(result.recalibrated.error_rate, 6),
        result.recalibrated.max_abs_delta.to_string(),
        fmt(result.recalibrated.top1_agreement, 3),
    ]);
    write_csv(
        "drift_aging",
        &[
            "seconds_since_program",
            "mismatches",
            "error_rate",
            "max_abs_delta",
            "top1_agreement",
        ],
        &rows,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aging_erodes_and_recalibration_restores() {
        let result = generate();
        assert_eq!(result.points.len(), AGE_SECONDS.len());
        assert!(result.budget_ticks.is_some(), "drift aging is on");
        // Drift is a monotone walk of the analog transmissions: the last
        // decade diverges at least as much as the first.
        let first = &result.points[0];
        let last = result.points.last().expect("non-empty sweep");
        assert!(last.mismatches >= first.mismatches);
        assert!(last.max_abs_delta >= first.max_abs_delta);
        assert!(
            last.mismatches > 0,
            "1e8 s of drift must be visible in the outputs"
        );
        // The golden property: recalibration is bit-exact to a fresh
        // program.
        assert!(result.recalibration_exact);
        assert_eq!(result.recalibrated.mismatches, 0);
        assert_eq!(result.recalibrated.max_abs_delta, 0);
        assert_eq!(result.recalibrated.top1_agreement, 1.0);
        for p in &result.points {
            assert!(p.elements > 0);
            assert!((0.0..=1.0).contains(&p.error_rate));
            assert!((0.0..=1.0).contains(&p.top1_agreement));
        }
    }
}
