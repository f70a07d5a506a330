//! Field-level simulation of the coherent PCM crossbar array (§III.A).
//!
//! [`CrossbarSimulator::run`] propagates complex E-fields cell by cell
//! through the directional couplers, MMI crossings, waveguide segments, PCM
//! patches, and phase trimmers of an N×M array, then returns the column
//! output fields. In the ideal (lossless, phase-matched) configuration the
//! result equals the paper's Eq. (1) to machine precision; with losses and
//! phase errors enabled it quantifies the systematic path-loss gradient and
//! coherence penalty that the architecture must calibrate out.

use crate::coupling::CouplingPlan;
use crate::crossing::MmiCrossing;
use crate::waveguide::Waveguide;
use crate::Field;
use core::cell::RefCell;
use oxbar_units::Decibel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Geometry and non-ideality knobs for a crossbar field simulation.
///
/// # Examples
///
/// ```
/// use oxbar_photonics::crossbar::CrossbarConfig;
///
/// let cfg = CrossbarConfig::new(128, 128)
///     .with_losses(true)
///     .with_phase_error_sigma(0.02);
/// assert_eq!(cfg.rows(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    rows: usize,
    cols: usize,
    include_losses: bool,
    crossing_loss_db: f64,
    waveguide_loss_db_per_cm: f64,
    cell_pitch_um: f64,
    phase_error_sigma_rad: f64,
    phase_error_seed: u64,
    trim_resolution_rad: f64,
    compensate_path_loss: bool,
}

impl CrossbarConfig {
    /// Creates an ideal (lossless, phase-matched) configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self {
            rows,
            cols,
            include_losses: false,
            crossing_loss_db: MmiCrossing::DEFAULT_LOSS_DB,
            waveguide_loss_db_per_cm: Waveguide::DEFAULT_LOSS_DB_PER_CM,
            cell_pitch_um: 30.0,
            phase_error_sigma_rad: 0.0,
            phase_error_seed: 0,
            trim_resolution_rad: 0.0,
            compensate_path_loss: false,
        }
    }

    /// Enables or disables component losses.
    #[must_use]
    pub fn with_losses(mut self, on: bool) -> Self {
        self.include_losses = on;
        self
    }

    /// Overrides the MMI crossing loss (dB/junction).
    #[must_use]
    pub fn with_crossing_loss_db(mut self, db: f64) -> Self {
        self.crossing_loss_db = db;
        self
    }

    /// Overrides the waveguide loss (dB/cm).
    #[must_use]
    pub fn with_waveguide_loss(mut self, db_per_cm: f64) -> Self {
        self.waveguide_loss_db_per_cm = db_per_cm;
        self
    }

    /// Overrides the unit-cell pitch (µm).
    #[must_use]
    pub fn with_cell_pitch_um(mut self, pitch: f64) -> Self {
        self.cell_pitch_um = pitch;
        self
    }

    /// Injects Gaussian per-cell phase errors with the given sigma (rad).
    #[must_use]
    pub fn with_phase_error_sigma(mut self, sigma_rad: f64) -> Self {
        self.phase_error_sigma_rad = sigma_rad;
        self
    }

    /// Seeds the phase-error draw (reproducible Monte-Carlo).
    #[must_use]
    pub fn with_phase_error_seed(mut self, seed: u64) -> Self {
        self.phase_error_seed = seed;
        self
    }

    /// Enables the per-cell thermal trimmers with the given phase
    /// quantization step (rad); `0.0` disables trimming.
    #[must_use]
    pub fn with_trim_resolution(mut self, step_rad: f64) -> Self {
        self.trim_resolution_rad = step_rad;
        self
    }

    /// Pre-compensates the systematic path-loss gradient by scaling the
    /// programmed weights (calibration mode). Weights are normalized to the
    /// worst-loss cell so all stay within the PCM's [0, 1] range.
    #[must_use]
    pub fn with_path_loss_compensation(mut self, on: bool) -> Self {
        self.compensate_path_loss = on;
        self
    }

    /// Number of rows (N).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (M).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether losses are enabled.
    #[must_use]
    pub fn losses_enabled(&self) -> bool {
        self.include_losses
    }

    /// Whether the systematic path-loss gradient is pre-compensated
    /// (compensation needs losses to compensate).
    fn compensated(&self) -> bool {
        self.include_losses && self.compensate_path_loss
    }

    /// Relative power loss (dB) of the path through cell `(row, col)`
    /// compared with a loss-free path: crossings plus waveguide
    /// propagation.
    #[must_use]
    pub(crate) fn cell_path_loss(&self, row: usize, col: usize) -> Decibel {
        if !self.include_losses {
            return Decibel::ZERO;
        }
        // Row light passes `col` crossings before tapping; the product passes
        // `rows − 1 − row` crossings descending the column.
        let crossings = (col + (self.rows - 1 - row)) as f64;
        let cells_traversed = (col + 1 + (self.rows - 1 - row)) as f64;
        let path_cm = cells_traversed * self.cell_pitch_um * 1e-4;
        Decibel::new(self.crossing_loss_db * crossings + self.waveguide_loss_db_per_cm * path_cm)
    }

    /// The worst (largest) per-cell path loss in the array.
    #[must_use]
    pub(crate) fn worst_cell_path_loss(&self) -> Decibel {
        // The far corner (top row, last column) has max crossings + length.
        self.cell_path_loss(0, self.cols - 1)
    }

    /// The per-element field factors of one crossing and one cell pitch of
    /// waveguide routing, `(crossing, segment)`; both are 1 when losses are
    /// disabled. These are the two unit attenuations the propagation walk
    /// applies between cells, shared so the compiled transfer matrix
    /// ([`crate::transfer::CompiledCrossbar`]) folds exactly the same values.
    #[must_use]
    pub(crate) fn unit_loss_factors(&self) -> (f64, f64) {
        if self.include_losses {
            (
                Decibel::new(self.crossing_loss_db).attenuation_field(),
                Decibel::new(self.waveguide_loss_db_per_cm * self.cell_pitch_um * 1e-4)
                    .attenuation_field(),
            )
        } else {
            (1.0, 1.0)
        }
    }

    /// The amplitude divisor [`CrossbarSimulator::run_normalized`] applies
    /// after the `√M` prefactor: the worst-path attenuation when
    /// compensated losses are enabled (all cells then carry the
    /// worst-path loss), 1 otherwise.
    #[must_use]
    pub(crate) fn normalization_scale(&self) -> f64 {
        if self.compensated() {
            self.worst_cell_path_loss().attenuation_field()
        } else {
            1.0
        }
    }

    /// Writes the path-loss pre-compensation field factor of every cell
    /// diagonal into `out` (cleared first; left empty when compensation
    /// is off). A cell's path loss depends only on its diagonal index
    /// `k = col + (rows − 1 − row)` (crossings = k, segments = k + 1), so
    /// the `rows × cols` factor matrix has just `rows + cols − 1`
    /// distinct values: the loss advantage of that path over the worst
    /// one.
    pub(crate) fn compensation_diagonals_into(&self, out: &mut Vec<f64>) {
        out.clear();
        if !self.compensated() {
            return;
        }
        let worst = self.worst_cell_path_loss();
        let (rows, cols) = (self.rows, self.cols);
        out.extend((0..rows + cols - 1).map(|k| {
            let (i, j) = if k < cols {
                (rows - 1, k)
            } else {
                (rows - 1 - (k - (cols - 1)), cols - 1)
            };
            (worst - self.cell_path_loss(i, j)).attenuation_field()
        }));
    }
}

/// The trimmed residual phase error (rad) of successive crossbar cells,
/// in row-major order, drawn from a seeded Gaussian stream: each cell's
/// error `e = g·σ` from one Box-Muller draw `g`, minus the trimmer's
/// correction `round(e / step)·step` when trimming is on. This is the
/// stream [`CrossbarSimulator::new`] draws from
/// [`CrossbarConfig::with_phase_error_seed`]; it never ends, so one
/// prefix serves every tile size.
#[derive(Debug, Clone)]
pub struct ResidualPhases {
    rng: StdRng,
    sigma_rad: f64,
    trim_rad: f64,
}

impl ResidualPhases {
    /// The stream of `seed` at error sigma `sigma_rad`, trimmed to
    /// `trim_rad` steps (`0.0` disables trimming).
    #[must_use]
    pub fn new(seed: u64, sigma_rad: f64, trim_rad: f64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            sigma_rad,
            trim_rad,
        }
    }
}

impl Iterator for ResidualPhases {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let err = gaussian(&mut self.rng) * self.sigma_rad;
        // The trimmer cancels the measured error up to its quantization.
        let trim = if self.trim_rad > 0.0 {
            -(err / self.trim_rad).round() * self.trim_rad
        } else {
            0.0
        };
        Some(err + trim)
    }
}

/// The field-level crossbar simulator.
///
/// See the [crate-level docs](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct CrossbarSimulator {
    config: CrossbarConfig,
    plan: CouplingPlan,
    /// Per-cell residual phase errors after trimming (rad), rows × cols;
    /// empty when sigma = 0.
    residuals: Vec<f64>,
    /// Path-loss pre-compensation field factors per cell diagonal (the
    /// boost of each weight relative to the worst-loss path); empty when
    /// compensation is off. Precomputed once so `run` does not recompute
    /// `cell_path_loss` for every cell on every call.
    comp_by_diagonal: Vec<f64>,
    /// Reusable flat buffers (effective weights + cell fields) so `run`
    /// allocates nothing per call beyond its output vector.
    scratch: RefCell<Scratch>,
}

#[derive(Debug, Clone, Default)]
struct Scratch {
    weights: Vec<f64>,
    cells: Vec<Field>,
}

impl CrossbarSimulator {
    /// Builds a simulator from a configuration.
    #[must_use]
    pub fn new(config: CrossbarConfig) -> Self {
        let plan = CouplingPlan::equalizing(config.rows, config.cols);
        let residuals = if config.phase_error_sigma_rad > 0.0 {
            ResidualPhases::new(
                config.phase_error_seed,
                config.phase_error_sigma_rad,
                config.trim_resolution_rad,
            )
            .take(config.rows * config.cols)
            .collect()
        } else {
            Vec::new()
        };
        let mut comp_by_diagonal = Vec::new();
        config.compensation_diagonals_into(&mut comp_by_diagonal);
        Self {
            config,
            plan,
            residuals,
            comp_by_diagonal,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Shorthand for an ideal (lossless, phase-matched) simulator.
    #[must_use]
    pub fn ideal(config: CrossbarConfig) -> Self {
        Self::new(config.with_losses(false).with_phase_error_sigma(0.0))
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Whether any per-cell phase errors were drawn (residual phases may
    /// then be non-zero; without them every residual is exactly 0).
    #[must_use]
    pub fn has_phase_errors(&self) -> bool {
        !self.residuals.is_empty()
    }

    /// Residual phase error at a cell after trimming (rad).
    #[must_use]
    pub fn residual_phase(&self, row: usize, col: usize) -> f64 {
        self.residuals
            .get(row * self.config.cols + col)
            .copied()
            .unwrap_or(0.0)
    }

    /// Runs the full field propagation.
    ///
    /// `inputs` are the normalized row amplitudes `v_in[i] ∈ [0, 1]` (after
    /// the ODAC) and `weights[i][j] ∈ [0, 1]` are the PCM field
    /// transmissions. The laser field is normalized to amplitude 1 before
    /// the splitter tree. Returns the M column output fields.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `weights` do not match the array dimensions, or
    /// if any value is outside `[0, 1]`.
    #[must_use]
    pub fn run(&self, inputs: &[f64], weights: &[Vec<f64>]) -> Vec<Field> {
        let (n, m) = (self.config.rows, self.config.cols);
        assert_eq!(inputs.len(), n, "expected {n} row inputs");
        assert_eq!(weights.len(), n, "expected {n} weight rows");
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), m, "weight row {i} must have {m} columns");
        }
        assert!(
            inputs.iter().all(|v| (0.0..=1.0).contains(v)),
            "inputs must lie in [0, 1]"
        );
        assert!(
            weights.iter().flatten().all(|w| (0.0..=1.0).contains(w)),
            "weights must lie in [0, 1]"
        );

        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            weights: flat,
            cells: cell_fields,
        } = &mut *scratch;
        self.effective_weights_into(weights, flat);

        let (crossing_field, segment_field) = self.config.unit_loss_factors();

        // Phase-matched layout assumption (§III.A.2): waveguide segments
        // contribute loss but their design phases cancel; only the residual
        // per-cell phase errors (minus trims) remain.
        cell_fields.clear();
        cell_fields.resize(n * m, Field::DARK);
        for (i, &input) in inputs.iter().enumerate().take(n) {
            // Row field after the 1/√N splitter and the ODAC amplitude.
            let mut row_field = Field::from_amplitude(input / (n as f64).sqrt());
            for j in 0..m {
                let dc = self.plan.input_coupler(j);
                let (through, tapped) = dc.couple(row_field, Field::DARK);
                // The through light crosses the column waveguide and one
                // cell pitch of routing before the next cell.
                row_field = through.attenuate(crossing_field).attenuate(segment_field);
                // The tapped light traverses the bended waveguide + PCM.
                let idx = i * m + j;
                let mut cell = tapped.attenuate(flat[idx]).attenuate(segment_field);
                let residual = self.residual_phase(i, j);
                if residual != 0.0 {
                    cell = cell.shift_phase(residual);
                }
                cell_fields[idx] = cell;
            }
        }

        (0..m)
            .map(|j| {
                let mut column = Field::DARK;
                for i in 0..n {
                    if i > 0 {
                        // Descend one cell pitch: the bus crosses the row
                        // waveguide and accumulates a segment of routing.
                        column = column.attenuate(crossing_field).attenuate(segment_field);
                    }
                    let dc = self.plan.output_coupler(i);
                    // Ports: `a` = cell tap, `b` = running column bus. The
                    // cross output (j·k·a + t·b) continues down the column.
                    let (_, cross) = dc.couple(cell_fields[i * m + j], column);
                    column = cross;
                }
                column
            })
            .collect()
    }

    /// The analytic outputs of Eq. (1):
    /// `E_c[j] = (1/(N·√M)) Σ_i v[i]·w[i][j]`, at the propagation phase the
    /// physical array produces (each contribution crosses two DCs → j² = −1,
    /// plus one 90° pickup per descended row from the column bus couplers).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn ideal_outputs(&self, inputs: &[f64], weights: &[Vec<f64>]) -> Vec<Field> {
        let (n, m) = (self.config.rows, self.config.cols);
        assert_eq!(inputs.len(), n);
        assert_eq!(weights.len(), n);
        (0..m)
            .map(|j| {
                let sum: f64 = (0..n).map(|i| inputs[i] * weights[i][j]).sum();
                let amplitude = sum / (n as f64 * (m as f64).sqrt());
                Field::from_amplitude(amplitude).shift_phase(core::f64::consts::PI)
            })
            .collect()
    }

    /// Normalized MAC results: `y[j] = Σ_i v[i]·w[i][j] / N`, recovered from
    /// the physical simulation by undoing the architecture prefactor
    /// (amplitude × N√M / N = amplitude × √M... i.e. `|E_c[j]|·√M`).
    #[must_use]
    pub fn run_normalized(&self, inputs: &[f64], weights: &[Vec<f64>]) -> Vec<f64> {
        let m = self.config.cols as f64;
        let scale = self.config.normalization_scale();
        self.run(inputs, weights)
            .iter()
            .map(|f| f.amplitude() * m.sqrt() / scale)
            .collect()
    }

    /// Applies path-loss pre-compensation to the weight matrix if enabled,
    /// writing into the reusable flat buffer.
    fn effective_weights_into(&self, weights: &[Vec<f64>], flat: &mut Vec<f64>) {
        let (n, m) = (self.config.rows, self.config.cols);
        flat.clear();
        flat.reserve(n * m);
        if self.comp_by_diagonal.is_empty() {
            for row in weights {
                flat.extend(row.iter().copied());
            }
        } else {
            for (i, row) in weights.iter().enumerate().take(n) {
                for (j, &w) in row.iter().enumerate().take(m) {
                    flat.push(compensated_weight(&self.comp_by_diagonal, n, i, j, w));
                }
            }
        }
    }
}

/// The path-loss-compensated transmission of `weight` at cell `(row,
/// col)` of a `rows`-row array, given the per-diagonal compensation
/// factors (`weight` itself when there are none): each weight is boosted
/// by its loss advantage over the worst path, capped at 1 — the boost is
/// ≤ 1 relative to the w=1 ceiling because worst ≥ cell loss.
#[inline]
pub(crate) fn compensated_weight(
    comp_by_diagonal: &[f64],
    rows: usize,
    row: usize,
    col: usize,
    weight: f64,
) -> f64 {
    if comp_by_diagonal.is_empty() {
        weight
    } else {
        (weight * comp_by_diagonal[col + (rows - 1 - row)]).min(1.0)
    }
}

/// Standard-normal draw via Box-Muller (avoids a distributions dependency).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_case(n: usize, m: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..n).map(|_| rng.random::<f64>()).collect();
        let weights = (0..n)
            .map(|_| (0..m).map(|_| rng.random::<f64>()).collect())
            .collect();
        (inputs, weights)
    }

    #[test]
    fn ideal_propagation_matches_equation_one() {
        for (n, m) in [(1, 1), (2, 2), (4, 3), (8, 8), (16, 5), (32, 32)] {
            let sim = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
            let (inputs, weights) = random_case(n, m, 42 + n as u64);
            let outputs = sim.run(&inputs, &weights);
            let ideal = sim.ideal_outputs(&inputs, &weights);
            for j in 0..m {
                let got = outputs[j].envelope();
                let want = ideal[j].envelope();
                assert!(
                    (got - want).abs() < 1e-12,
                    "n={n} m={m} j={j}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn run_normalized_recovers_average_mac() {
        let n = 8;
        let m = 4;
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
        let (inputs, weights) = random_case(n, m, 7);
        let ys = sim.run_normalized(&inputs, &weights);
        for j in 0..m {
            let expected: f64 = (0..n).map(|i| inputs[i] * weights[i][j]).sum::<f64>() / n as f64;
            assert!((ys[j] - expected).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn outputs_scale_linearly_with_inputs() {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(4, 4));
        let (inputs, weights) = random_case(4, 4, 3);
        let halved: Vec<f64> = inputs.iter().map(|v| v / 2.0).collect();
        let full = sim.run(&inputs, &weights);
        let half = sim.run(&halved, &weights);
        for j in 0..4 {
            assert!((full[j].amplitude() - 2.0 * half[j].amplitude()).abs() < 1e-12);
        }
    }

    #[test]
    fn losses_attenuate_outputs() {
        let (inputs, weights) = random_case(8, 8, 11);
        let ideal = CrossbarSimulator::ideal(CrossbarConfig::new(8, 8));
        let lossy = CrossbarSimulator::new(CrossbarConfig::new(8, 8).with_losses(true));
        let a = ideal.run(&inputs, &weights);
        let b = lossy.run(&inputs, &weights);
        for j in 0..8 {
            assert!(b[j].amplitude() < a[j].amplitude());
        }
    }

    #[test]
    fn path_loss_gradient_exists_without_compensation() {
        let sim = CrossbarSimulator::new(CrossbarConfig::new(16, 16).with_losses(true));
        // Far corner cell loses more than the near corner cell.
        let config = sim.config();
        assert!(config.cell_path_loss(0, 15).value() > config.cell_path_loss(15, 0).value());
    }

    #[test]
    fn compensation_restores_mac_proportionality() {
        let n = 8;
        let m = 8;
        let (inputs, weights) = random_case(n, m, 5);
        let comp = CrossbarSimulator::new(
            CrossbarConfig::new(n, m)
                .with_losses(true)
                .with_path_loss_compensation(true),
        );
        let ys = comp.run_normalized(&inputs, &weights);
        for j in 0..m {
            let expected: f64 = (0..n).map(|i| inputs[i] * weights[i][j]).sum::<f64>() / n as f64;
            // Equal to the exact MAC within small numerical tolerance; the
            // systematic gradient is calibrated out.
            assert!(
                (ys[j] - expected).abs() < 1e-6,
                "j={j}: {ys:?} vs {expected}"
            );
        }
    }

    #[test]
    fn uncompensated_losses_bias_the_mac() {
        let n = 16;
        let m = 16;
        let (inputs, weights) = random_case(n, m, 9);
        let lossy = CrossbarSimulator::new(CrossbarConfig::new(n, m).with_losses(true));
        let ys = lossy.run_normalized(&inputs, &weights);
        let mut max_err = 0.0f64;
        for j in 0..m {
            let expected: f64 = (0..n).map(|i| inputs[i] * weights[i][j]).sum::<f64>() / n as f64;
            max_err = max_err.max((ys[j] - expected).abs() / expected.abs().max(1e-12));
        }
        // Without calibration the gradient produces a visible (>1%) error.
        assert!(max_err > 0.01, "max relative error {max_err}");
    }

    #[test]
    fn phase_errors_reduce_coherent_sum() {
        let n = 32;
        let m = 8;
        let inputs = vec![1.0; n];
        let weights = vec![vec![1.0; m]; n];
        let clean = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
        let noisy = CrossbarSimulator::new(
            CrossbarConfig::new(n, m)
                .with_phase_error_sigma(0.5)
                .with_phase_error_seed(13),
        );
        let a = clean.run(&inputs, &weights);
        let b = noisy.run(&inputs, &weights);
        // Large phase errors destroy constructive interference.
        assert!(b[0].amplitude() < a[0].amplitude());
    }

    #[test]
    fn trimming_recovers_coherence() {
        let n = 32;
        let m = 4;
        let inputs = vec![1.0; n];
        let weights = vec![vec![1.0; m]; n];
        let ideal = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
        let noisy = CrossbarSimulator::new(
            CrossbarConfig::new(n, m)
                .with_phase_error_sigma(0.3)
                .with_phase_error_seed(21),
        );
        let trimmed = CrossbarSimulator::new(
            CrossbarConfig::new(n, m)
                .with_phase_error_sigma(0.3)
                .with_phase_error_seed(21)
                .with_trim_resolution(0.01),
        );
        let ai = ideal.run(&inputs, &weights)[0].amplitude();
        let an = noisy.run(&inputs, &weights)[0].amplitude();
        let at = trimmed.run(&inputs, &weights)[0].amplitude();
        assert!(at > an, "trimming should improve coherence");
        assert!((at - ai).abs() / ai < 1e-3, "trimmed should be near ideal");
    }

    #[test]
    fn residual_phase_is_bounded_by_trim_step() {
        let sim = CrossbarSimulator::new(
            CrossbarConfig::new(8, 8)
                .with_phase_error_sigma(0.2)
                .with_phase_error_seed(3)
                .with_trim_resolution(0.05),
        );
        for i in 0..8 {
            for j in 0..8 {
                assert!(sim.residual_phase(i, j).abs() <= 0.025 + 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inputs must lie in [0, 1]")]
    fn out_of_range_input_panics() {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(2, 2));
        let _ = sim.run(&[1.5, 0.0], &vec![vec![0.5; 2]; 2]);
    }

    #[test]
    #[should_panic(expected = "expected 2 row inputs")]
    fn dimension_mismatch_panics() {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(2, 2));
        let _ = sim.run(&[0.5], &vec![vec![0.5; 2]; 2]);
    }
}
