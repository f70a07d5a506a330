//! Compiled transfer-matrix fast path for the crossbar MVM (Eq. (1)).
//!
//! Once a tile is programmed, the crossbar is a *fixed linear operator*:
//! every per-cell element the field walk applies — splitter, coupler taps,
//! crossing/waveguide losses, PCM transmission, path-loss compensation,
//! residual trimmed phase, bus pickup phase — is input-independent, so the
//! whole walk collapses into one complex gain per cell. This module
//! precomputes that gain matrix from a [`CrossbarSimulator`] and replays
//! inference as a dense (batched) matrix–vector product, which is what
//! turns the device-level pipeline's dominant `O(pixels × N × M)` field-ops
//! cost into one `O(N × M)` compile per tile plus a dense MVM per pixel.
//!
//! # Gain factorization
//!
//! Follow one unit of row drive `v_in[i] = 1` through
//! [`CrossbarSimulator::run`]. With `t = √(1−κ)` and `k = √κ` the field
//! amplitudes of each directional coupler, `c`/`s` the per-crossing and
//! per-cell-pitch attenuation factors, `w̃[i][j]` the effective
//! (compensation-boosted) PCM transmission, and `φ[i][j]` the residual
//! trimmed phase, the cell `(i, j)` tap is reached via
//!
//! ```text
//! row side:    (1/√N) · Π_{l<j} (t_in[l]·c·s) · (j·k_in[j])
//! cell:        w̃[i][j] · s · e^{jφ[i][j]}
//! column side: (j·k_out[i]) · Π_{l>i} (t_out[l]·c·s)
//! ```
//!
//! Multiplying the three factors (the two coupler `j`s contribute the 180°
//! propagation phase of Eq. (1)) gives the per-cell gain
//!
//! ```text
//! G[i][j] = −(1/√N) · A[j] · B[i] · w̃[i][j] · e^{jφ[i][j]}
//!   A[j]  = Π_{l<j} (t_in[l]·c·s) · k_in[j] · s
//!   B[i]  = k_out[i] · Π_{l>i} (t_out[l]·c·s)
//! ```
//!
//! and the column output of Eq. (1) is the linear combination
//! `E_c[j] = Σ_i G[i][j] · v_in[i]` — for the equalizing coupling plan in
//! the lossless case `A[j]·B[i] = 1/√(NM)`, which recovers the paper's
//! `E_c[j] = (1/(N√M)) Σ_i v[i]·w[i][j]` exactly.
//!
//! When every residual phase is zero (ideal, lossy, or fully trimmed
//! configurations) the gains are purely real and the MVM runs on `f64`
//! accumulators; otherwise gains and accumulators are complex.
//!
//! # Examples
//!
//! ```
//! use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
//! use oxbar_photonics::transfer::CompiledCrossbar;
//!
//! let sim = CrossbarSimulator::new(CrossbarConfig::new(8, 4).with_losses(true));
//! let weights = vec![vec![0.5; 4]; 8];
//! let compiled = CompiledCrossbar::new(&sim, &weights);
//! let inputs = vec![0.25; 8];
//! let walk = sim.run(&inputs, &weights);
//! let fast = compiled.mvm(&inputs);
//! for (a, b) in walk.iter().zip(&fast) {
//!     assert!((a.envelope().re - b.envelope().re).abs() < 1e-12);
//!     assert!((a.envelope().im - b.envelope().im).abs() < 1e-12);
//! }
//! ```

use crate::crossbar::CrossbarSimulator;
use crate::{Complex, Field};

/// The precompiled per-cell gain matrix of a programmed crossbar tile.
///
/// Plain immutable data (`Send + Sync`), so executors can compile once
/// and share the operator across worker threads and forward passes.
///
/// See the [module docs](self) for the derivation and an example.
#[derive(Debug, Clone)]
pub struct CompiledCrossbar {
    rows: usize,
    cols: usize,
    gains: Gains,
    /// `√M`, the prefactor `run_normalized` multiplies amplitudes by.
    sqrt_cols: f64,
    /// The compensation divisor of `run_normalized` (worst-path
    /// attenuation when compensated losses are on, else 1).
    norm_scale: f64,
}

/// Row-major per-cell gains (`gain[i * cols + j]`).
#[derive(Debug, Clone)]
enum Gains {
    /// Every residual phase is zero: gains lie on the real axis, exactly
    /// like the field walk's outputs, so the MVM runs on `f64`.
    Real(Vec<f64>),
    /// At least one non-zero residual phase. Stored as separate re/im
    /// planes (structure-of-arrays): a drive vector is real, so the
    /// complex MVM is two independent real accumulations that vectorize
    /// like the real path, joined by one magnitude pass at the end.
    Complex {
        /// Real parts, `gain[i * cols + j].re`.
        re: Vec<f64>,
        /// Imaginary parts, `gain[i * cols + j].im`.
        im: Vec<f64>,
    },
}

/// Reusable accumulator storage for [`CompiledCrossbar::run_normalized_batch_with`].
///
/// The complex-gain kernel needs `8 × cols` scratch lanes (four blocked
/// windows × re/im planes); holding them in a caller-owned pool makes a
/// warm batched MVM allocation-free. The buffer grows to the largest tile
/// it has served and is reused verbatim afterwards.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    acc: Vec<f64>,
}

impl CompiledCrossbar {
    /// Compiles the transfer matrix of `sim` for one programmed weight
    /// (transmission) matrix.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the array dimensions or any
    /// value is outside `[0, 1]` — the same contract as
    /// [`CrossbarSimulator::run`].
    #[must_use]
    pub fn new(sim: &CrossbarSimulator, weights: &[Vec<f64>]) -> Self {
        let (n, m) = (sim.config().rows(), sim.config().cols());
        assert_eq!(weights.len(), n, "expected {n} weight rows");
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), m, "weight row {i} must have {m} columns");
        }
        assert!(
            weights.iter().flatten().all(|w| (0.0..=1.0).contains(w)),
            "weights must lie in [0, 1]"
        );

        let (crossing, segment) = sim.unit_loss_factors();
        let plan = sim.plan();

        // A[j]: splitter share + input-coupler cascade + routing losses up
        // to the tap, + the tapped light's own cell pitch of routing.
        let mut col_tap = vec![0.0; m];
        let mut prefix = 1.0 / (n as f64).sqrt();
        for (j, tap) in col_tap.iter_mut().enumerate() {
            let dc = plan.input_coupler(j);
            *tap = prefix * dc.cross_amplitude() * segment;
            prefix *= dc.through_amplitude() * crossing * segment;
        }
        // B[i]: bus pickup + the bus's descent through the rows below.
        let mut row_pick = vec![0.0; n];
        let mut suffix = 1.0;
        for i in (0..n).rev() {
            let dc = plan.output_coupler(i);
            row_pick[i] = dc.cross_amplitude() * suffix;
            suffix *= dc.through_amplitude() * crossing * segment;
        }

        let gains = if sim.has_phase_errors() {
            let mut re = Vec::with_capacity(n * m);
            let mut im = Vec::with_capacity(n * m);
            for (i, row) in weights.iter().enumerate() {
                let pick = row_pick[i];
                for (j, (&w, &tap)) in row.iter().zip(&col_tap).enumerate() {
                    let mag = tap * pick * sim.effective_weight(i, j, w);
                    // The two coupler `j`s give the 180° propagation phase.
                    let g = Complex::from_polar(mag, sim.residual_phase(i, j)).scale(-1.0);
                    re.push(g.re);
                    im.push(g.im);
                }
            }
            Gains::Complex { re, im }
        } else {
            let mut g = Vec::with_capacity(n * m);
            for (i, row) in weights.iter().enumerate() {
                let pick = row_pick[i];
                for (j, (&w, &tap)) in row.iter().zip(&col_tap).enumerate() {
                    g.push(-(tap * pick * sim.effective_weight(i, j, w)));
                }
            }
            Gains::Real(g)
        };
        Self {
            rows: n,
            cols: m,
            gains,
            sqrt_cols: (m as f64).sqrt(),
            norm_scale: sim.normalization_scale(),
        }
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

    /// Whether the gain matrix is purely real (no residual phases).
    #[must_use]
    pub fn is_real(&self) -> bool {
        matches!(self.gains, Gains::Real(_))
    }

    /// The compiled complex gain of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn gain(&self, row: usize, col: usize) -> Complex {
        let idx = row * self.cols + col;
        match &self.gains {
            Gains::Real(g) => Complex::new(g[idx], 0.0),
            Gains::Complex { re, im } => Complex::new(re[idx], im[idx]),
        }
    }

    fn check_inputs(&self, inputs: &[f64]) {
        assert_eq!(inputs.len(), self.rows, "expected {} row inputs", self.rows);
        assert!(
            inputs.iter().all(|v| (0.0..=1.0).contains(v)),
            "inputs must lie in [0, 1]"
        );
    }

    /// The column output fields for one drive vector — the fast-path
    /// equivalent of [`CrossbarSimulator::run`] (matches it to machine
    /// precision).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the row count or any value is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn mvm(&self, inputs: &[f64]) -> Vec<Field> {
        self.check_inputs(inputs);
        match &self.gains {
            Gains::Real(g) => {
                let mut acc = vec![0.0f64; self.cols];
                accumulate_real(g, self.cols, inputs, &mut acc);
                acc.into_iter()
                    .map(|re| Field::new(Complex::new(re, 0.0)))
                    .collect()
            }
            Gains::Complex { re, im } => {
                let mut acc = vec![0.0f64; 2 * self.cols];
                let (acc_re, acc_im) = acc.split_at_mut(self.cols);
                accumulate_real(re, self.cols, inputs, acc_re);
                accumulate_real(im, self.cols, inputs, acc_im);
                acc_re
                    .iter()
                    .zip(acc_im.iter())
                    .map(|(&r, &i)| Field::new(Complex::new(r, i)))
                    .collect()
            }
        }
    }

    /// Normalized MAC results for one drive vector, written into `out` —
    /// the allocation-free fast-path equivalent of
    /// [`CrossbarSimulator::run_normalized`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or out-of-range inputs.
    pub fn run_normalized_into(&self, inputs: &[f64], out: &mut [f64]) {
        self.check_inputs(inputs);
        assert_eq!(out.len(), self.cols, "expected {} outputs", self.cols);
        match &self.gains {
            Gains::Real(g) => {
                out.fill(0.0);
                accumulate_real(g, self.cols, inputs, out);
                for y in out.iter_mut() {
                    *y = y.abs() * self.sqrt_cols / self.norm_scale;
                }
            }
            Gains::Complex { re, im } => {
                let mut acc = vec![0.0f64; 2 * self.cols];
                let (acc_re, acc_im) = acc.split_at_mut(self.cols);
                accumulate_real(re, self.cols, inputs, acc_re);
                accumulate_real(im, self.cols, inputs, acc_im);
                for (y, (&r, &i)) in out.iter_mut().zip(acc_re.iter().zip(acc_im.iter())) {
                    *y = Complex::new(r, i).abs() * self.sqrt_cols / self.norm_scale;
                }
            }
        }
    }

    /// Normalized MAC results for one drive vector (allocating variant of
    /// [`Self::run_normalized_into`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or out-of-range inputs.
    #[must_use]
    pub fn run_normalized(&self, inputs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.run_normalized_into(inputs, &mut out);
        out
    }

    /// Batched normalized MVM: `drives` is a flat row-major drive matrix
    /// (`batch × rows`) and `out` the flat output matrix (`batch × cols`).
    ///
    /// Allocates a fresh [`BatchScratch`] per call; hot paths should hold
    /// one and use [`Self::run_normalized_batch_with`].
    ///
    /// # Panics
    ///
    /// Panics if `drives` is not a whole number of drive vectors, `out`
    /// does not hold `batch × cols` values, or any drive is out of range.
    pub fn run_normalized_batch(&self, drives: &[f64], out: &mut [f64]) {
        self.run_normalized_batch_with(drives, out, &mut BatchScratch::default());
    }

    /// [`Self::run_normalized_batch`] with caller-owned scratch — the
    /// allocation-free variant batched executors use.
    ///
    /// Both gain representations run four windows per pass so each gain
    /// row is loaded once per four drives (the complex planes run as two
    /// real accumulations); per-window results are bit-identical to
    /// [`Self::run_normalized_into`] (each window keeps its own
    /// accumulator and accumulation order).
    ///
    /// # Panics
    ///
    /// Panics if `drives` is not a whole number of drive vectors, `out`
    /// does not hold `batch × cols` values, or any drive is out of range.
    pub fn run_normalized_batch_with(
        &self,
        drives: &[f64],
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(
            drives.len() % self.rows,
            0,
            "drive matrix must be batch × {} row-major",
            self.rows
        );
        let batch = drives.len() / self.rows;
        assert_eq!(
            out.len(),
            batch * self.cols,
            "expected {} × {} outputs",
            batch,
            self.cols
        );
        for drive in drives.chunks_exact(self.rows) {
            self.check_inputs(drive);
        }
        let quads = batch / 4;
        let (block_in, rest_in) = drives.split_at(quads * 4 * self.rows);
        let (block_out, rest_out) = out.split_at_mut(quads * 4 * self.cols);
        match &self.gains {
            Gains::Real(gains) => {
                for (quad, ys) in block_in
                    .chunks_exact(4 * self.rows)
                    .zip(block_out.chunks_exact_mut(4 * self.cols))
                {
                    self.quad_real(gains, quad, ys);
                    for o in ys.chunks_exact_mut(self.cols) {
                        for y in o.iter_mut() {
                            *y = y.abs() * self.sqrt_cols / self.norm_scale;
                        }
                    }
                }
                for (drive, ys) in rest_in
                    .chunks_exact(self.rows)
                    .zip(rest_out.chunks_exact_mut(self.cols))
                {
                    ys.fill(0.0);
                    accumulate_real(gains, self.cols, drive, ys);
                    for y in ys.iter_mut() {
                        *y = y.abs() * self.sqrt_cols / self.norm_scale;
                    }
                }
            }
            Gains::Complex { re, im } => {
                // 4 windows × (re, im) accumulator planes.
                scratch.acc.clear();
                scratch.acc.resize(8 * self.cols, 0.0);
                let (acc_re, acc_im) = scratch.acc.split_at_mut(4 * self.cols);
                for (quad, ys) in block_in
                    .chunks_exact(4 * self.rows)
                    .zip(block_out.chunks_exact_mut(4 * self.cols))
                {
                    self.quad_complex(re, im, quad, acc_re, acc_im);
                    for ((o, r), i) in ys
                        .chunks_exact_mut(self.cols)
                        .zip(acc_re.chunks_exact(self.cols))
                        .zip(acc_im.chunks_exact(self.cols))
                    {
                        for (y, (&r, &i)) in o.iter_mut().zip(r.iter().zip(i)) {
                            *y = Complex::new(r, i).abs() * self.sqrt_cols / self.norm_scale;
                        }
                    }
                }
                for (drive, ys) in rest_in
                    .chunks_exact(self.rows)
                    .zip(rest_out.chunks_exact_mut(self.cols))
                {
                    let (r, i) = (&mut acc_re[..self.cols], &mut acc_im[..self.cols]);
                    r.fill(0.0);
                    i.fill(0.0);
                    accumulate_real(re, self.cols, drive, r);
                    accumulate_real(im, self.cols, drive, i);
                    for (y, (&r, &i)) in ys.iter_mut().zip(r.iter().zip(i.iter())) {
                        *y = Complex::new(r, i).abs() * self.sqrt_cols / self.norm_scale;
                    }
                }
            }
        }
    }

    /// Accumulates four windows against a real gain plane: `ys` holds the
    /// four raw accumulator rows (`4 × cols`, zeroed here). Each window
    /// keeps its own accumulator and row order, so per-window sums are
    /// bit-identical to [`accumulate_real`] (a skipped `v = 0` row adds
    /// exactly `±0.0`, which never moves an accumulator).
    fn quad_real(&self, gains: &[f64], quad: &[f64], ys: &mut [f64]) {
        ys.fill(0.0);
        let (d0, d123) = quad.split_at(self.rows);
        let (d1, d23) = d123.split_at(self.rows);
        let (d2, d3) = d23.split_at(self.rows);
        let (o0, o123) = ys.split_at_mut(self.cols);
        let (o1, o23) = o123.split_at_mut(self.cols);
        let (o2, o3) = o23.split_at_mut(self.cols);
        for (i, row) in gains.chunks_exact(self.cols).enumerate() {
            let (v0, v1, v2, v3) = (d0[i], d1[i], d2[i], d3[i]);
            if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                continue;
            }
            for ((((&g, o0), o1), o2), o3) in row
                .iter()
                .zip(o0.iter_mut())
                .zip(o1.iter_mut())
                .zip(o2.iter_mut())
                .zip(o3.iter_mut())
            {
                *o0 += g * v0;
                *o1 += g * v1;
                *o2 += g * v2;
                *o3 += g * v3;
            }
        }
    }

    /// Complex-plane variant of [`Self::quad_real`]: one pass over both
    /// gain planes feeds the re/im accumulators of all four windows, so
    /// each complex gain row is loaded once per four drives.
    fn quad_complex(
        &self,
        re: &[f64],
        im: &[f64],
        quad: &[f64],
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        acc_re.fill(0.0);
        acc_im.fill(0.0);
        let (d0, d123) = quad.split_at(self.rows);
        let (d1, d23) = d123.split_at(self.rows);
        let (d2, d3) = d23.split_at(self.rows);
        let (r0, r123) = acc_re.split_at_mut(self.cols);
        let (r1, r23) = r123.split_at_mut(self.cols);
        let (r2, r3) = r23.split_at_mut(self.cols);
        let (i0, i123) = acc_im.split_at_mut(self.cols);
        let (i1, i23) = i123.split_at_mut(self.cols);
        let (i2, i3) = i23.split_at_mut(self.cols);
        for (i, (row_re, row_im)) in re
            .chunks_exact(self.cols)
            .zip(im.chunks_exact(self.cols))
            .enumerate()
        {
            let (v0, v1, v2, v3) = (d0[i], d1[i], d2[i], d3[i]);
            if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                continue;
            }
            for (j, (&gr, &gi)) in row_re.iter().zip(row_im).enumerate() {
                r0[j] += gr * v0;
                i0[j] += gi * v0;
                r1[j] += gr * v1;
                i1[j] += gi * v1;
                r2[j] += gr * v2;
                i2[j] += gi * v2;
                r3[j] += gr * v3;
                i3[j] += gi * v3;
            }
        }
    }
}

/// `acc[j] += Σ_i g[i][j] · v[i]` over row-major real gains, skipping dark
/// rows (`v = 0`), which im2col padding and ReLU sparsity make common.
fn accumulate_real(gains: &[f64], cols: usize, inputs: &[f64], acc: &mut [f64]) {
    for (row, &v) in gains.chunks_exact(cols).zip(inputs) {
        if v == 0.0 {
            continue;
        }
        for (a, &g) in acc.iter_mut().zip(row) {
            *a += g * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(n: usize, m: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..n).map(|_| rng.random::<f64>()).collect();
        let weights = (0..n)
            .map(|_| (0..m).map(|_| rng.random::<f64>()).collect())
            .collect();
        (inputs, weights)
    }

    fn assert_matches_walk(sim: &CrossbarSimulator, inputs: &[f64], weights: &[Vec<f64>]) {
        let compiled = CompiledCrossbar::new(sim, weights);
        let walk = sim.run(inputs, weights);
        let fast = compiled.mvm(inputs);
        for (j, (a, b)) in walk.iter().zip(&fast).enumerate() {
            assert!(
                (a.envelope().re - b.envelope().re).abs() < 1e-12
                    && (a.envelope().im - b.envelope().im).abs() < 1e-12,
                "col {j}: walk {} vs compiled {}",
                a.envelope(),
                b.envelope()
            );
        }
        let walk_norm = sim.run_normalized(inputs, weights);
        let fast_norm = compiled.run_normalized(inputs);
        for (j, (a, b)) in walk_norm.iter().zip(&fast_norm).enumerate() {
            assert!((a - b).abs() < 1e-12, "normalized col {j}: {a} vs {b}");
        }
    }

    #[test]
    fn ideal_gains_reproduce_equation_one_prefactor() {
        let (n, m) = (8, 4);
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
        let weights = vec![vec![1.0; m]; n];
        let compiled = CompiledCrossbar::new(&sim, &weights);
        assert!(compiled.is_real());
        let expected = -1.0 / (n as f64 * (m as f64).sqrt());
        for i in 0..n {
            for j in 0..m {
                let g = compiled.gain(i, j);
                assert!((g.re - expected).abs() < 1e-12, "({i},{j}): {g}");
                assert_eq!(g.im, 0.0);
            }
        }
    }

    #[test]
    fn matches_walk_ideal() {
        for (n, m) in [(1, 1), (2, 3), (8, 8), (16, 5), (32, 32)] {
            let sim = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
            let (inputs, weights) = random_case(n, m, 7 + n as u64);
            assert_matches_walk(&sim, &inputs, &weights);
        }
    }

    #[test]
    fn matches_walk_lossy_and_compensated() {
        for compensate in [false, true] {
            let sim = CrossbarSimulator::new(
                CrossbarConfig::new(16, 12)
                    .with_losses(true)
                    .with_path_loss_compensation(compensate),
            );
            let (inputs, weights) = random_case(16, 12, 11);
            assert_matches_walk(&sim, &inputs, &weights);
        }
    }

    #[test]
    fn matches_walk_with_phase_errors_and_trims() {
        for trim in [0.0, 0.01] {
            let sim = CrossbarSimulator::new(
                CrossbarConfig::new(12, 6)
                    .with_phase_error_sigma(0.15)
                    .with_phase_error_seed(5)
                    .with_trim_resolution(trim),
            );
            let (inputs, weights) = random_case(12, 6, 13);
            let compiled = CompiledCrossbar::new(&sim, &weights);
            assert!(!compiled.is_real(), "residual phases force complex gains");
            assert_matches_walk(&sim, &inputs, &weights);
        }
    }

    #[test]
    fn batch_equals_per_vector() {
        // Real and complex gains, batch sizes that exercise both the
        // 4-window blocked kernel and the remainder path, with zero rows
        // sprinkled in (k % 7 == 0 drives).
        let real = CrossbarSimulator::new(CrossbarConfig::new(8, 8).with_losses(true));
        let complex = CrossbarSimulator::new(
            CrossbarConfig::new(8, 8)
                .with_phase_error_sigma(0.1)
                .with_phase_error_seed(9)
                .with_trim_resolution(0.01),
        );
        for (name, sim) in [("real", real), ("complex", complex)] {
            let (_, weights) = random_case(8, 8, 3);
            let compiled = CompiledCrossbar::new(&sim, &weights);
            assert_eq!(compiled.is_real(), name == "real");
            for batch in [1, 3, 4, 7, 12] {
                let drives: Vec<f64> = (0..batch * 8).map(|k| (k % 7) as f64 / 7.0).collect();
                let mut batched = vec![0.0; batch * 8];
                compiled.run_normalized_batch(&drives, &mut batched);
                let mut scratched = vec![0.0; batch * 8];
                let mut scratch = BatchScratch::default();
                compiled.run_normalized_batch_with(&drives, &mut scratched, &mut scratch);
                assert_eq!(batched, scratched, "{name} batch {batch}: scratch reuse");
                // A second pass through the same warm scratch is identical.
                compiled.run_normalized_batch_with(&drives, &mut scratched, &mut scratch);
                assert_eq!(batched, scratched, "{name} batch {batch}: warm scratch");
                for (b, drive) in drives.chunks_exact(8).enumerate() {
                    let single = compiled.run_normalized(drive);
                    assert_eq!(
                        &batched[b * 8..(b + 1) * 8],
                        single.as_slice(),
                        "{name} batch {batch} window {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dark_drive_is_exactly_zero() {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(4, 4));
        let weights = vec![vec![0.7; 4]; 4];
        let compiled = CompiledCrossbar::new(&sim, &weights);
        assert_eq!(compiled.run_normalized(&[0.0; 4]), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "inputs must lie in [0, 1]")]
    fn out_of_range_input_panics() {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(2, 2));
        let compiled = CompiledCrossbar::new(&sim, &vec![vec![0.5; 2]; 2]);
        let _ = compiled.mvm(&[1.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weights must lie in [0, 1]")]
    fn out_of_range_weight_panics() {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(2, 2));
        let _ = CompiledCrossbar::new(&sim, &vec![vec![1.5; 2]; 2]);
    }
}
