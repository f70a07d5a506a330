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
//! # Kernel
//!
//! The gains are stored panel-major: full 8-column panels, then one 4-,
//! 2- and 1-column tail panel as the column count needs, each panel's
//! rows contiguous (complex gains pack their re and im planes alike). A
//! call loops over the panels, then over groups of up to four windows,
//! then over the rows in order, keeping every (window, column) sum of the
//! group in registers. One 128-row panel is at most 16 KB of gains (both
//! planes), so it stays in L1 across all of a call's groups and the call
//! reads each gain once, however many windows it drives. A batched call
//! first interleaves its drives four windows per row ([`BatchScratch`]);
//! a group of one to three windows runs a pass compiled for its own
//! window count. The re and im planes run as two separate passes, each
//! compiled out of line so that its accumulators stay in registers.
//!
//! Outputs are bit-identical to a plain loop over each window's rows in
//! order. Every (window, column) sum still starts at `+0.0` and adds
//! `g[i][j] · v[i]` in row order, with a separate multiply and add: no
//! FMA and no reassociation, which `.cargo/config.toml` relies on. A
//! one-window group skips the rows its drive leaves dark; wider groups
//! add every row, since a row is rarely dark in all of their windows and
//! the test cost more than it saved. Either way a dark row only adds
//! `±0.0`, which never moves an accumulator: a sum that starts at `+0.0`
//! is never `−0.0`, since `x + (−x)` rounds to `+0.0`. Magnitudes are
//! `|z|·√M / norm_scale`, with `|z| = |re|` for real gains.
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

use crate::coupling::CouplingPlan;
use crate::crossbar::{compensated_weight, CrossbarConfig, CrossbarSimulator};
use crate::{Complex, Field};

/// Width of the full column panels the gains are packed into.
const PANEL: usize = 8;

/// Most windows one kernel pass keeps in registers.
const GROUP: usize = 4;

/// `(first column, width)` of each gain panel of a `cols`-wide tile, in
/// column order: full [`PANEL`]-column panels, then one 4-, 2- and
/// 1-column tail panel as the remainder needs.
fn panels(cols: usize) -> impl Iterator<Item = (usize, usize)> {
    let full = cols - cols % PANEL;
    let tails = [4, 2, 1]
        .into_iter()
        .filter(move |&w| (cols % PANEL) & w != 0)
        .scan(full, |c0, w| {
            let panel = (*c0, w);
            *c0 += w;
            Some(panel)
        });
    (0..full).step_by(PANEL).map(|c0| (c0, PANEL)).chain(tails)
}

/// The precompiled per-cell gain matrix of a programmed crossbar tile.
///
/// Plain immutable data (`Send + Sync`), so executors can compile once
/// and share the operator across worker threads and forward passes.
/// [`Self::default`] is an empty operator: the rest state of a pooled
/// compile target that [`Self::rebuild`] fills in place.
///
/// See the [module docs](self) for the derivation and an example.
#[derive(Debug, Clone, Default)]
pub struct CompiledCrossbar {
    rows: usize,
    cols: usize,
    /// Real parts of the gains, panel-major: the panel of width `w`
    /// starting at column `c0` holds `gain[i][c0 + j]` at
    /// `c0 · rows + i · w + j`.
    re: Vec<f64>,
    /// Imaginary parts, laid out like `re`; empty when every residual
    /// phase is zero, so the gains lie on the real axis (exactly like the
    /// field walk's outputs) and the MVM runs on `f64`. Otherwise a drive
    /// vector is real, so the complex MVM is two independent real
    /// accumulations, joined by one magnitude per output.
    im: Vec<f64>,
    /// `√M`, the prefactor `run_normalized` multiplies amplitudes by.
    sqrt_cols: f64,
    /// The compensation divisor of `run_normalized` (worst-path
    /// attenuation when compensated losses are on, else 1).
    norm_scale: f64,
}

/// The input-independent half of a crossbar's gains, for one tile
/// geometry: the per-column tap `A[j]` and per-row pickup `B[i]` of the
/// [module docs](self), the path-loss compensation per cell diagonal,
/// each column's slot in the panel-major planes, and the output
/// normalization. A function of the [`CrossbarConfig`]'s geometry and
/// losses only — no seed, no weights — so a pooled instance is reset per
/// tile by [`Self::set`] without touching the heap once warm.
#[derive(Debug, Clone, Default)]
pub struct GainFactors {
    /// `A[j]`: splitter share + input-coupler cascade + routing losses up
    /// to the tap, + the tapped light's own cell pitch of routing.
    col_tap: Vec<f64>,
    /// `B[i]`: bus pickup + the bus's descent through the rows below.
    row_pick: Vec<f64>,
    /// Compensation field factor per cell diagonal; empty when off.
    comp_by_diagonal: Vec<f64>,
    /// `(panel base, panel width)` of each column: cell `(i, j)` lands
    /// at `base + i · width`.
    slot: Vec<(usize, usize)>,
    norm_scale: f64,
}

impl GainFactors {
    /// Recomputes the factors for `config`'s geometry and losses in
    /// place — the same values, by the same float operations, that a
    /// [`CrossbarSimulator`] of `config` applies in its field walk.
    pub fn set(&mut self, config: &CrossbarConfig) {
        let (n, m) = (config.rows(), config.cols());
        let (crossing, segment) = config.unit_loss_factors();
        self.col_tap.clear();
        let mut prefix = 1.0 / (n as f64).sqrt();
        for j in 0..m {
            let dc = CouplingPlan::equalizing_input_coupler(m, j);
            self.col_tap.push(prefix * dc.cross_amplitude() * segment);
            prefix *= dc.through_amplitude() * crossing * segment;
        }
        self.row_pick.clear();
        self.row_pick.resize(n, 0.0);
        let mut suffix = 1.0;
        for i in (0..n).rev() {
            let dc = CouplingPlan::equalizing_output_coupler(i);
            self.row_pick[i] = dc.cross_amplitude() * suffix;
            suffix *= dc.through_amplitude() * crossing * segment;
        }
        config.compensation_diagonals_into(&mut self.comp_by_diagonal);
        self.slot.clear();
        for (c0, w) in panels(m) {
            self.slot.extend((c0..c0 + w).map(|j| (c0 * n + j - c0, w)));
        }
        self.norm_scale = config.normalization_scale();
    }
}

/// Reusable drive storage for [`CompiledCrossbar::run_normalized_batch_with`].
///
/// The kernel reads a call's drives interleaved four windows per row
/// (each group of up to four windows stores row `i` of window `k` at
/// `i · windows + k`); holding that copy in a caller-owned pool makes a
/// warm batched MVM allocation-free. The buffer grows to the largest
/// call it has served and is reused verbatim afterwards.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    lanes: Vec<f64>,
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
        let mut factors = GainFactors::default();
        factors.set(sim.config());
        let phasors: Vec<(f64, f64)> = if sim.has_phase_errors() {
            (0..n * m)
                .map(|idx| {
                    let phase = sim.residual_phase(idx / m, idx % m);
                    (phase.cos(), phase.sin())
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut compiled = Self::default();
        compiled.rebuild(&factors, &phasors, |i, j| weights[i][j]);
        compiled
    }

    /// Compiles in place, reusing this operator's gain planes: the tile
    /// `factors` was [`GainFactors::set`] for, with cell `(i, j)`'s PCM
    /// transmission `transmission(i, j)` — called once per cell, in
    /// row-major order — and its residual phasor `(cos φ, sin φ)` at
    /// `phasors[i · cols + j]`. Empty `phasors` means every residual
    /// phase is zero (real gains); a longer slice than the tile needs is
    /// fine. The gains, and so every output, are bit-identical to
    /// [`Self::new`] on a simulator with those transmissions and phases.
    ///
    /// # Panics
    ///
    /// Panics if `phasors` is non-empty but shorter than the tile.
    pub fn rebuild(
        &mut self,
        factors: &GainFactors,
        phasors: &[(f64, f64)],
        mut transmission: impl FnMut(usize, usize) -> f64,
    ) {
        let (n, m) = (factors.row_pick.len(), factors.col_tap.len());
        let complex = !phasors.is_empty();
        assert!(
            !complex || phasors.len() >= n * m,
            "phasors must cover the {n}×{m} tile"
        );
        self.rows = n;
        self.cols = m;
        self.sqrt_cols = (m as f64).sqrt();
        self.norm_scale = factors.norm_scale;
        self.re.clear();
        self.re.resize(n * m, 0.0);
        self.im.clear();
        if complex {
            self.im.resize(n * m, 0.0);
        }
        for i in 0..n {
            let pick = factors.row_pick[i];
            for (j, (&tap, &(base, width))) in factors.col_tap.iter().zip(&factors.slot).enumerate()
            {
                let w = compensated_weight(&factors.comp_by_diagonal, n, i, j, transmission(i, j));
                let mag = tap * pick * w;
                let idx = base + i * width;
                if complex {
                    // The two coupler `j`s give the 180° propagation
                    // phase: `from_polar(mag, φ).scale(-1.0)`, whose
                    // `× −1` is exactly a negation.
                    let (cos, sin) = phasors[i * m + j];
                    self.re[idx] = -(mag * cos);
                    self.im[idx] = -(mag * sin);
                } else {
                    self.re[idx] = -mag;
                }
            }
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
        self.im.is_empty()
    }

    /// The compiled complex gain of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn gain(&self, row: usize, col: usize) -> Complex {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside the {}×{} tile",
            self.rows,
            self.cols
        );
        let (c0, w) = panels(self.cols)
            .find(|&(c0, w)| col < c0 + w)
            .expect("the panels cover every column");
        let idx = c0 * self.rows + row * w + col - c0;
        Complex::new(self.re[idx], self.im.get(idx).copied().unwrap_or(0.0))
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
        let mut fields = vec![Field::DARK; self.cols];
        // One window is its own interleaved layout.
        self.kernel(inputs, |_, c0, re, im| {
            for (j, (f, &re)) in fields[c0..].iter_mut().zip(re).enumerate() {
                *f = Field::new(Complex::new(re, im.map_or(0.0, |im| im[j])));
            }
        });
        fields
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
        self.normalized(inputs, out);
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

    /// Batched normalized MVM with caller-owned scratch: `drives` is a
    /// flat row-major drive matrix (`batch × rows`) and `out` the flat
    /// output matrix (`batch × cols`). A warm `scratch` makes the call
    /// allocation-free, and every window's outputs are bit-identical to
    /// [`Self::run_normalized_into`] on that window alone (see the
    /// [module docs](self#kernel)).
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
        let rows = self.rows;
        assert_eq!(
            drives.len() % rows,
            0,
            "drive matrix must be batch × {rows} row-major"
        );
        let batch = drives.len() / rows;
        assert_eq!(
            out.len(),
            batch * self.cols,
            "expected {} × {} outputs",
            batch,
            self.cols
        );
        for drive in drives.chunks_exact(rows) {
            self.check_inputs(drive);
        }
        let lanes = &mut scratch.lanes;
        lanes.clear();
        lanes.resize(drives.len(), 0.0);
        for (group, dst) in drives
            .chunks(GROUP * rows)
            .zip(lanes.chunks_mut(GROUP * rows))
        {
            let windows = group.len() / rows;
            for (k, drive) in group.chunks_exact(rows).enumerate() {
                for (i, &v) in drive.iter().enumerate() {
                    dst[i * windows + k] = v;
                }
            }
        }
        self.normalized(lanes, out);
    }

    /// Writes `|z|·√M / norm_scale` of every column sum of the kernel into
    /// `out` (`windows × cols`).
    fn normalized(&self, lanes: &[f64], out: &mut [f64]) {
        let (cols, sqrt_cols, norm_scale) = (self.cols, self.sqrt_cols, self.norm_scale);
        self.kernel(lanes, |window, c0, re, im| {
            let ys = &mut out[window * cols + c0..][..re.len()];
            match im {
                None => {
                    for (y, &re) in ys.iter_mut().zip(re) {
                        *y = re.abs() * sqrt_cols / norm_scale;
                    }
                }
                Some(im) => {
                    for (y, (&re, &im)) in ys.iter_mut().zip(re.iter().zip(im)) {
                        *y = Complex::new(re, im).abs() * sqrt_cols / norm_scale;
                    }
                }
            }
        });
    }

    /// The MVM kernel: every column sum `Σ_i gain[i][col] · v[i]` of the
    /// windows whose drives `lanes` holds interleaved (see
    /// [`BatchScratch`]), handed to `emit` one window and panel at a time
    /// as `(window, first col, re sums, im sums)`; the im sums are `None`
    /// for real gains. Loops panel by panel, then over groups of up to
    /// four windows, then over the rows in order.
    fn kernel<F>(&self, lanes: &[f64], mut emit: F)
    where
        F: FnMut(usize, usize, &[f64], Option<&[f64]>),
    {
        let (re, im) = (&self.re[..], (!self.is_real()).then_some(&self.im[..]));
        for (c0, w) in panels(self.cols) {
            let span = c0 * self.rows..(c0 + w) * self.rows;
            let (re, im) = (&re[span.clone()], im.map(|im| &im[span]));
            match w {
                8 => self.panel::<8, F>(re, im, c0, lanes, &mut emit),
                4 => self.panel::<4, F>(re, im, c0, lanes, &mut emit),
                2 => self.panel::<2, F>(re, im, c0, lanes, &mut emit),
                _ => self.panel::<1, F>(re, im, c0, lanes, &mut emit),
            }
        }
    }

    /// One `W`-column panel against every window group of the call.
    fn panel<const W: usize, F>(
        &self,
        re: &[f64],
        im: Option<&[f64]>,
        c0: usize,
        lanes: &[f64],
        emit: &mut F,
    ) where
        F: FnMut(usize, usize, &[f64], Option<&[f64]>),
    {
        for (g, group) in lanes.chunks(GROUP * self.rows).enumerate() {
            let first = g * GROUP;
            match group.len() / self.rows {
                4 => emit_group::<W, 4, F>(re, im, group, first, c0, emit),
                3 => emit_group::<W, 3, F>(re, im, group, first, c0, emit),
                2 => emit_group::<W, 2, F>(re, im, group, first, c0, emit),
                _ => emit_group::<W, 1, F>(re, im, group, first, c0, emit),
            }
        }
    }
}

/// Sums one group of `K` windows over a `W`-column panel, one pass per
/// gain plane, and emits the `K × W` results.
#[inline(always)]
fn emit_group<const W: usize, const K: usize, F>(
    re: &[f64],
    im: Option<&[f64]>,
    lanes: &[f64],
    first: usize,
    c0: usize,
    emit: &mut F,
) where
    F: FnMut(usize, usize, &[f64], Option<&[f64]>),
{
    let sums_re = panel_sums::<W, K>(re, lanes);
    let sums_im = im.map(|im| panel_sums::<W, K>(im, lanes));
    for k in 0..K {
        emit(
            first + k,
            c0,
            &sums_re[k],
            sums_im.as_ref().map(|s| &s[k][..]),
        );
    }
}

/// `acc[k][j] = Σ_i panel[i][j] · lanes[i][k]`, added in row order, one
/// multiply and one add per term; a lone window skips its dark rows.
///
/// Kept out of line: inlined next to the other plane's pass, LLVM merges
/// the two and spills the `K × W` accumulators it otherwise keeps in
/// registers (three- and four-window groups on 8-column panels ran 2–4×
/// slower).
#[inline(never)]
fn panel_sums<const W: usize, const K: usize>(panel: &[f64], lanes: &[f64]) -> [[f64; W]; K] {
    let mut acc = [[0.0; W]; K];
    let (gains, _) = panel.as_chunks::<W>();
    let (drives, _) = lanes.as_chunks::<K>();
    for (g, v) in gains.iter().zip(drives) {
        if K == 1 && v[0] == 0.0 {
            continue;
        }
        for k in 0..K {
            for j in 0..W {
                acc[k][j] += g[j] * v[k];
            }
        }
    }
    acc
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
        // Real and complex gains, batch sizes that end on every group
        // length, with zero rows sprinkled in (k % 7 == 0 drives).
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
                let mut scratch = BatchScratch::default();
                compiled.run_normalized_batch_with(&drives, &mut batched, &mut scratch);
                // A second pass through the same warm scratch is identical.
                let mut warm = vec![0.0; batch * 8];
                compiled.run_normalized_batch_with(&drives, &mut warm, &mut scratch);
                assert_eq!(batched, warm, "{name} batch {batch}: warm scratch");
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
