//! Whole-array programming: scheduling, delta-programming, time and energy.

use crate::cell::PcmCell;
use crate::drift::DriftModel;
use crate::levels::LevelTable;
use crate::pulse::ProgramPulse;
use crate::variation::{standard_normal, DeviceVariation};
use oxbar_units::{Energy, Time};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How many cells the programming drivers can write simultaneously.
///
/// The system model's headline assumption (DESIGN.md §4) is
/// [`Parallelism::FullArray`]: the whole array reprograms in one ~100 ns
/// step, i.e. ~1000 MAC cycles at 10 GHz — the number that makes the paper's
/// batch-32 knee come out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// All cells programmed concurrently (one pulse time per array).
    FullArray,
    /// One row at a time (N pulse times).
    PerRow,
    /// One cell at a time (N·M pulse times) — the pessimistic bound.
    PerCell,
}

/// Aggregate results of one array programming pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgramReport {
    /// Cells whose state actually changed (after delta filtering).
    pub cells_programmed: usize,
    /// Cells skipped because they already held the target level.
    pub cells_skipped: usize,
    /// Wall-clock programming time for the pass.
    pub time: Time,
    /// Total programming energy for the pass.
    pub energy: Energy,
}

/// An N×M array of PCM cells with batch programming.
///
/// # Examples
///
/// ```
/// use oxbar_pcm::array::{Parallelism, PcmArray};
///
/// let mut array = PcmArray::pristine(2, 3);
/// let w = vec![vec![0.9, 0.5, 0.0], vec![0.25, 0.75, 0.6]];
/// let report = array.program(&w, Parallelism::FullArray);
/// assert_eq!(report.cells_programmed, 6);
/// // Reprogramming the same weights is free under delta programming.
/// let again = array.program(&w, Parallelism::FullArray);
/// assert_eq!(again.cells_programmed, 0);
/// ```
#[derive(Debug, Clone)]
pub struct PcmArray {
    rows: usize,
    cols: usize,
    cells: Vec<PcmCell>,
    table: LevelTable,
    delta_programming: bool,
}

impl PcmArray {
    /// Creates a pristine (all-amorphous) array with the INT6 level table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn pristine(rows: usize, cols: usize) -> Self {
        Self::with_device(rows, cols, PcmCell::pristine(), 6)
    }

    /// Creates an array of copies of a custom `device` with a `bits`-level
    /// table built for it.
    ///
    /// The device-level inference pipeline uses this both for realistic
    /// cells and for idealized ones (0 dB amorphous loss, very deep
    /// crystalline extinction) whose level table is exact to machine
    /// precision.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `bits` is outside `1..=8`.
    #[must_use]
    pub fn with_device(rows: usize, cols: usize, device: PcmCell, bits: u8) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self {
            rows,
            cols,
            cells: vec![device; rows * cols],
            table: LevelTable::new(bits, device),
            delta_programming: true,
        }
    }

    /// Enables/disables delta programming (skip cells already at target).
    #[must_use]
    pub fn with_delta_programming(mut self, on: bool) -> Self {
        self.delta_programming = on;
        self
    }

    /// Rows (N).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (M).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The level table in use.
    #[must_use]
    pub fn level_table(&self) -> &LevelTable {
        &self.table
    }

    /// Immutable view of a cell.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> &PcmCell {
        &self.cells[row * self.cols + col]
    }

    /// The stored field-transmission matrix.
    ///
    /// Noise-free programming leaves every cell on one of the level
    /// table's ≤ 2^bits fractions, so the per-cell `10^(−dB/20)` is
    /// memoized per distinct fraction (all cells share the same device
    /// parameters by construction) — large arrays read out in O(cells)
    /// table lookups instead of O(cells) transcendentals.
    #[must_use]
    pub fn transmissions(&self) -> Vec<Vec<f64>> {
        let mut memo = FractionMemo::default();
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| {
                        let cell = self.cell(i, j);
                        *memo
                            .entry(cell.crystalline_fraction().to_bits())
                            .or_insert_with(|| cell.transmission())
                    })
                    .collect()
            })
            .collect()
    }

    /// Programs the array to the weight matrix `weights[i][j] ∈ [0, 1]`
    /// (fractions of full scale, quantized through the INT6 table).
    ///
    /// Returns the pass's time and energy given the driver `parallelism`.
    /// Time charges one pulse duration per *parallel group that contains at
    /// least one changed cell*; energy charges one pulse per changed cell.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the array dimensions or contains
    /// values outside `[0, 1]`.
    pub fn program(&mut self, weights: &[Vec<f64>], parallelism: Parallelism) -> ProgramReport {
        self.program_impl(weights, parallelism, &mut |target| target)
    }

    /// Programs the array directly from integer level codes
    /// (`codes[i][j] ≤ max_code`) — the value-identical fast path for
    /// callers that already hold quantized weights, skipping the per-cell
    /// float quantization round trip (`quantize_weight(code / max) ==
    /// code` exactly).
    ///
    /// # Panics
    ///
    /// Panics if `codes` does not match the array dimensions or a code
    /// exceeds the level table.
    pub fn program_codes(&mut self, codes: &[Vec<u8>], parallelism: Parallelism) -> ProgramReport {
        assert_eq!(codes.len(), self.rows, "expected {} code rows", self.rows);
        let max_code = self.table.max_code();
        let mut tally = ProgramTally::default();
        for (i, row) in codes.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.cols,
                "code row {i} must have {} cols",
                self.cols
            );
            for (j, &code) in row.iter().enumerate() {
                assert!(
                    u16::from(code) <= max_code,
                    "code {code} exceeds the {max_code}-level table"
                );
                let target_fraction = self.table.fraction_for_code(u16::from(code));
                let cell = &mut self.cells[i * self.cols + j];
                let unchanged = (cell.crystalline_fraction() - target_fraction).abs() < 1e-12;
                let written = !(self.delta_programming && unchanged);
                if written {
                    cell.set_crystalline_fraction(target_fraction);
                }
                tally.cell(written);
            }
            tally.end_row();
        }
        tally.report(parallelism)
    }

    /// One-shot *noisy* program-and-readout: the `(transmissions,
    /// report)` of a pristine array of `device` cells programmed to
    /// `codes` (each written cell with a `variation` draw, if given) and
    /// read back (after `drift`, if given), computed in one row-major
    /// pass without materializing any per-cell array state.
    ///
    /// Every cell is written and read through the [`CellWrite`] rule the
    /// device-level tile compile shares: the RNG is consumed in
    /// row-major written-cell order, and a code whose target is the
    /// pristine state is skipped (delta programming). Without variation
    /// or drift the result equals [`Self::program_codes`] on a pristine
    /// array of `device` followed by [`Self::transmissions`], report
    /// included. Without variation every cell of a code reads the same,
    /// so the pass costs one read per code, not per cell.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not `rows × cols`, a code exceeds the table,
    /// or `bits` is invalid for [`LevelTable::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn noisy_readout<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        device: PcmCell,
        bits: u8,
        codes: &[Vec<u8>],
        parallelism: Parallelism,
        variation: Option<(&DeviceVariation, &mut R)>,
        drift: Option<(&DriftModel, Time)>,
    ) -> (Vec<Vec<f64>>, ProgramReport) {
        assert_eq!(codes.len(), rows, "expected {rows} code rows");
        let table = LevelTable::new(bits, device);
        let (variation, mut rng) = match variation {
            Some((variation, rng)) => (Some(*variation), Some(rng)),
            None => (None, None),
        };
        let write = CellWrite::new(&table, variation, drift);
        let mut tally = ProgramTally::default();
        let mut normal = || standard_normal(rng.as_deref_mut().expect("variation has an rng"));
        let transmissions = codes
            .iter()
            .enumerate()
            .map(|(i, row)| {
                assert_eq!(row.len(), cols, "code row {i} must have {cols} cols");
                let mut reads = vec![0.0; cols];
                write.read_block(row, cols, &mut normal, &mut tally, &mut reads);
                reads
            })
            .collect();
        (transmissions, tally.report(parallelism))
    }

    /// Programs the array like [`PcmArray::program`], but each pulse lands
    /// with stochastic [`DeviceVariation`] drawn from `rng` — the achieved
    /// crystalline fraction deviates from the level-table target.
    ///
    /// The RNG is consumed in row-major cell order for every *written* cell
    /// (skipped cells draw nothing), so a fixed seed gives a reproducible
    /// array state.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`PcmArray::program`].
    pub fn program_with_variation<R: Rng + ?Sized>(
        &mut self,
        weights: &[Vec<f64>],
        parallelism: Parallelism,
        variation: &DeviceVariation,
        rng: &mut R,
    ) -> ProgramReport {
        self.program_impl(weights, parallelism, &mut |target| {
            variation.apply_program(target, 0.0, rng)
        })
    }

    fn program_impl(
        &mut self,
        weights: &[Vec<f64>],
        parallelism: Parallelism,
        achieved: &mut dyn FnMut(f64) -> f64,
    ) -> ProgramReport {
        assert_eq!(
            weights.len(),
            self.rows,
            "expected {} weight rows",
            self.rows
        );
        let mut tally = ProgramTally::default();
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.cols,
                "weight row {i} must have {} cols",
                self.cols
            );
            for (j, &w) in row.iter().enumerate() {
                let code = self.table.quantize_weight(w);
                let target_fraction = self.table.fraction_for_code(code);
                let cell = &mut self.cells[i * self.cols + j];
                let unchanged = (cell.crystalline_fraction() - target_fraction).abs() < 1e-12;
                let written = !(self.delta_programming && unchanged);
                if written {
                    cell.set_crystalline_fraction(achieved(target_fraction));
                }
                tally.cell(written);
            }
            tally.end_row();
        }
        tally.report(parallelism)
    }

    /// The field-transmission matrix after the stored weights have sat for
    /// `elapsed` under the given [`DriftModel`] (amorphous-phase
    /// relaxation). The cell-independent power-law factor is computed
    /// once for the whole array.
    #[must_use]
    pub fn drifted_transmissions(&self, drift: &DriftModel, elapsed: Time) -> Vec<Vec<f64>> {
        let factor = drift.drift_factor(elapsed);
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| match factor {
                        None => self.cell(i, j).transmission(),
                        Some(f) => drift.transmission_with_factor(*self.cell(i, j), f),
                    })
                    .collect()
            })
            .collect()
    }

    /// Worst-case programming time for this array size and parallelism
    /// (every cell changed) — what the dataflow scheduler must budget.
    #[must_use]
    pub fn worst_case_program_time(&self, parallelism: Parallelism) -> Time {
        let pulse = ProgramPulse::paper_default();
        let groups = match parallelism {
            Parallelism::FullArray => 1,
            Parallelism::PerRow => self.rows,
            Parallelism::PerCell => self.rows * self.cols,
        };
        pulse.duration() * groups as f64
    }
}

/// The program-and-read rule for the cells of a pristine array: write a
/// level code (with optional programming variation) and read the cell's
/// field transmission back (with optional drift). Every fused readout —
/// [`PcmArray::noisy_readout`] and the device-level tile compile — writes
/// its cells through this one rule, so they agree value for value.
///
/// Everything about a cell that depends on its code alone is worked out
/// once per code when the rule is built: the target fraction, whether
/// the write changes the pristine cell (delta programming), and — for a
/// skipped code, or any code without variation — the read itself. A cell
/// then costs only its own draw and drifted read.
#[derive(Debug, Clone)]
pub struct CellWrite {
    /// The pristine cell every write starts from.
    device: PcmCell,
    variation: Option<DeviceVariation>,
    /// The drift model and its cell-independent factor, when drift
    /// applies at the read time.
    drift: Option<(DriftModel, f64)>,
    /// Per code of the table, in code order.
    codes: Vec<CodeWrite>,
}

/// What writing one level code does to a pristine cell.
#[derive(Debug, Clone, Copy)]
struct CodeWrite {
    /// The code's target crystalline fraction.
    target: f64,
    /// Whether the target differs from the pristine state (a skipped
    /// code is never written).
    written: bool,
    /// The cell's read when it takes no draw: `None` only for a written
    /// code under variation.
    read: Option<f64>,
}

impl CellWrite {
    /// The rule for cells of `table`'s device, programmed with
    /// `variation` (if any) and read after `drift` (model and elapsed
    /// time, if any).
    #[must_use]
    pub fn new(
        table: &LevelTable,
        variation: Option<DeviceVariation>,
        drift: Option<(&DriftModel, Time)>,
    ) -> Self {
        let drift =
            drift.and_then(|(model, elapsed)| model.drift_factor(elapsed).map(|f| (*model, f)));
        let mut write = Self {
            device: table.device(),
            variation,
            drift,
            codes: Vec::with_capacity(table.levels()),
        };
        for code in 0..=table.max_code() {
            let target = table.fraction_for_code(code);
            let written = (write.device.crystalline_fraction() - target).abs() >= 1e-12;
            let read = (!written || variation.is_none()).then(|| {
                let mut cell = write.device;
                if written {
                    cell.set_crystalline_fraction(target);
                }
                write.transmission(cell)
            });
            write.codes.push(CodeWrite {
                target,
                written,
                read,
            });
        }
        write
    }

    /// The field transmission of `cell` at the read time.
    #[inline]
    fn transmission(&self, cell: PcmCell) -> f64 {
        match self.drift {
            Some((model, factor)) => model.transmission_with_factor(cell, factor),
            None => cell.transmission(),
        }
    }

    /// Writes a row-major block of level codes, `cols` per row, into
    /// pristine cells and reads each back into `out`, counting every
    /// cell (and closing every row) in `tally`. A cell whose target
    /// equals the pristine state is skipped (delta programming). A
    /// written cell under variation lands `normal()` standard deviations
    /// off target, exactly as [`DeviceVariation::apply_program`] would
    /// with that draw — `normal` is called once per written cell, in
    /// block order, never for a skip. The codes are checked against the
    /// table once per block.
    ///
    /// # Panics
    ///
    /// Panics if a code exceeds the table, `out` differs in length from
    /// `codes`, or a non-empty block is not whole `cols`-long rows.
    pub fn read_block(
        &self,
        codes: &[u8],
        cols: usize,
        mut normal: impl FnMut() -> f64,
        tally: &mut ProgramTally,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), codes.len(), "one read per code");
        let Some(&max) = codes.iter().max() else {
            return;
        };
        assert!(
            usize::from(max) < self.codes.len(),
            "code {max} exceeds the {}-level table",
            self.codes.len() - 1
        );
        assert!(
            cols > 0 && codes.len().is_multiple_of(cols),
            "codes must be whole {cols}-cell rows"
        );
        for (row, reads) in codes.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
            for (&code, read) in row.iter().zip(reads) {
                let code = self.codes[usize::from(code)];
                *read = code.read.unwrap_or_else(|| {
                    let variation = self.variation.expect("only variation leaves a read open");
                    let mut cell = self.device;
                    cell.set_crystalline_fraction(variation.apply_normal(
                        code.target,
                        0.0,
                        normal(),
                    ));
                    self.transmission(cell)
                });
                tally.cell(code.written);
            }
            tally.end_row();
        }
    }
}

/// Running counts of one programming pass, turned into its
/// [`ProgramReport`] at the end: cells written and skipped, and the rows
/// that saw a write (what [`Parallelism::PerRow`] charges).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramTally {
    programmed: usize,
    skipped: usize,
    rows_touched: usize,
    row_written: bool,
}

impl ProgramTally {
    /// Counts one cell of the current row.
    pub fn cell(&mut self, written: bool) {
        if written {
            self.programmed += 1;
            self.row_written = true;
        } else {
            self.skipped += 1;
        }
    }

    /// Closes the current row.
    pub fn end_row(&mut self) {
        self.rows_touched += usize::from(self.row_written);
        self.row_written = false;
    }

    /// The pass's time and energy under the driver `parallelism`: one
    /// pulse duration per parallel group with a written cell, one pulse
    /// energy per written cell.
    #[must_use]
    pub fn report(&self, parallelism: Parallelism) -> ProgramReport {
        let pulse = ProgramPulse::paper_default();
        let groups = match parallelism {
            Parallelism::FullArray => usize::from(self.programmed > 0),
            Parallelism::PerRow => self.rows_touched,
            Parallelism::PerCell => self.programmed,
        };
        ProgramReport {
            cells_programmed: self.programmed,
            cells_skipped: self.skipped,
            time: pulse.duration() * groups as f64,
            energy: pulse.energy() * self.programmed as f64,
        }
    }
}

/// Multiply-xor hasher for the fraction-bit memo keys in
/// [`PcmArray::transmissions`] — the default SipHash would dominate the
/// lookup at this table size.
#[derive(Default)]
struct FractionHasher(u64);

impl std::hash::Hasher for FractionHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 32;
        self.0 = z;
    }
}

type FractionMemo =
    std::collections::HashMap<u64, f64, std::hash::BuildHasherDefault<FractionHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn code_grid(rows: usize, cols: usize, max: u8) -> Vec<Vec<u8>> {
        (0..rows)
            .map(|i| {
                (0..cols)
                    .map(|j| ((i * cols + j) % (usize::from(max) + 1)) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn program_codes_equals_float_round_trip() {
        for device in [
            PcmCell::pristine(),
            PcmCell::pristine().with_loss_range(0.0, 320.0),
        ] {
            let codes = code_grid(7, 5, 63);
            let weights: Vec<Vec<f64>> = codes
                .iter()
                .map(|row| row.iter().map(|&u| f64::from(u) / 63.0).collect())
                .collect();
            let mut a = PcmArray::with_device(7, 5, device, 6);
            let mut b = PcmArray::with_device(7, 5, device, 6);
            let ra = a.program(&weights, Parallelism::FullArray);
            let rb = b.program_codes(&codes, Parallelism::FullArray);
            assert_eq!(ra, rb);
            assert_eq!(a.transmissions(), b.transmissions());
        }
    }

    #[test]
    fn noise_free_readout_equals_two_step_path() {
        for device in [
            PcmCell::pristine(),
            PcmCell::pristine().with_loss_range(0.0, 320.0),
        ] {
            let mut codes = code_grid(9, 4, 63);
            codes[0][0] = 63; // max code exercises the delta-programming skip
            codes[8][3] = 0;
            let mut array = PcmArray::with_device(9, 4, device, 6);
            let report = array.program_codes(&codes, Parallelism::FullArray);
            let (fused_t, fused_r) = PcmArray::noisy_readout::<rand::rngs::StdRng>(
                9,
                4,
                device,
                6,
                &codes,
                Parallelism::FullArray,
                None,
                None,
            );
            assert_eq!(report, fused_r);
            assert_eq!(array.transmissions(), fused_t);
        }
    }

    #[test]
    fn full_array_time_is_one_pulse() {
        let mut array = PcmArray::pristine(8, 8);
        let w = vec![vec![0.5; 8]; 8];
        let report = array.program(&w, Parallelism::FullArray);
        assert!((report.time.as_nanoseconds() - 100.0).abs() < 1e-9);
        assert!((report.energy.as_nanojoules() - 6.4).abs() < 1e-9); // 64×100pJ
    }

    #[test]
    fn per_row_time_scales_with_rows() {
        let mut array = PcmArray::pristine(8, 4);
        let w = vec![vec![0.5; 4]; 8];
        let report = array.program(&w, Parallelism::PerRow);
        assert!((report.time.as_nanoseconds() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn per_cell_time_scales_with_cells() {
        let mut array = PcmArray::pristine(4, 4);
        let w = vec![vec![0.5; 4]; 4];
        let report = array.program(&w, Parallelism::PerCell);
        assert!((report.time.as_microseconds() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn delta_programming_skips_unchanged() {
        let mut array = PcmArray::pristine(4, 4);
        let mut w = vec![vec![0.5; 4]; 4];
        array.program(&w, Parallelism::FullArray);
        w[2][3] = 0.75;
        let report = array.program(&w, Parallelism::FullArray);
        assert_eq!(report.cells_programmed, 1);
        assert_eq!(report.cells_skipped, 15);
        assert!((report.energy.as_picojoules() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disabling_delta_reprograms_everything() {
        let mut array = PcmArray::pristine(4, 4).with_delta_programming(false);
        let w = vec![vec![0.5; 4]; 4];
        array.program(&w, Parallelism::FullArray);
        let report = array.program(&w, Parallelism::FullArray);
        assert_eq!(report.cells_programmed, 16);
    }

    #[test]
    fn stored_transmissions_match_quantized_weights() {
        let mut array = PcmArray::pristine(2, 2);
        let w = vec![vec![0.0, 0.333], vec![0.666, 1.0]];
        array.program(&w, Parallelism::FullArray);
        let table = array.level_table().clone();
        let stored = array.transmissions();
        for i in 0..2 {
            for j in 0..2 {
                let code = table.quantize_weight(w[i][j]);
                assert!(
                    (stored[i][j] - table.transmission_for_code(code)).abs() < 1e-12,
                    "cell ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn worst_case_program_times() {
        let array = PcmArray::pristine(128, 128);
        assert!(
            (array
                .worst_case_program_time(Parallelism::FullArray)
                .as_nanoseconds()
                - 100.0)
                .abs()
                < 1e-9
        );
        assert!(
            (array
                .worst_case_program_time(Parallelism::PerRow)
                .as_microseconds()
                - 12.8)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn no_change_costs_nothing() {
        let mut array = PcmArray::pristine(4, 4);
        let w = vec![vec![0.25; 4]; 4];
        array.program(&w, Parallelism::FullArray);
        let report = array.program(&w, Parallelism::PerRow);
        assert_eq!(report.cells_programmed, 0);
        assert_eq!(report.time, Time::ZERO);
        assert_eq!(report.energy, Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "expected 4 weight rows")]
    fn dimension_mismatch_panics() {
        let mut array = PcmArray::pristine(4, 4);
        let _ = array.program(&vec![vec![0.5; 4]; 3], Parallelism::FullArray);
    }

    #[test]
    fn custom_device_array_uses_its_level_table() {
        // An idealized device: lossless amorphous state, ~infinite
        // extinction, so level k sits at exactly k/63 field transmission.
        let device = PcmCell::pristine().with_loss_range(0.0, 320.0);
        let mut array = PcmArray::with_device(2, 2, device, 6);
        let w = vec![vec![10.0 / 63.0, 32.0 / 63.0], vec![1.0, 0.5]];
        array.program(&w, Parallelism::FullArray);
        let t = array.transmissions();
        assert!((t[0][0] - 10.0 / 63.0).abs() < 1e-12);
        assert!((t[0][1] - 32.0 / 63.0).abs() < 1e-12);
        assert!((t[1][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variation_perturbs_programmed_state_reproducibly() {
        use crate::variation::DeviceVariation;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let variation = DeviceVariation::new(0.02, 0.0);
        let w = vec![vec![0.5; 4]; 4];
        let run = |seed: u64| {
            let mut array = PcmArray::pristine(4, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            array.program_with_variation(&w, Parallelism::FullArray, &variation, &mut rng);
            array.transmissions()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the array state");
        let c = run(8);
        assert_ne!(a, c, "different seeds must differ");
        // And the achieved state deviates from the ideal targets.
        let mut ideal = PcmArray::pristine(4, 4);
        ideal.program(&w, Parallelism::FullArray);
        assert_ne!(a, ideal.transmissions());
    }

    #[test]
    fn drifted_transmissions_decay_over_time() {
        use crate::drift::DriftModel;
        let mut array = PcmArray::pristine(2, 2);
        array.program(&vec![vec![0.5; 2]; 2], Parallelism::FullArray);
        let fresh = array.transmissions();
        let drifted = array.drifted_transmissions(&DriftModel::new(0.02), Time::from_seconds(1e6));
        for i in 0..2 {
            for j in 0..2 {
                assert!(drifted[i][j] < fresh[i][j], "cell ({i},{j})");
            }
        }
    }
}
