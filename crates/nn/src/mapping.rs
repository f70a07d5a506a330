//! Signed→unipolar weight mapping for the absorb-only PCM crossbar.
//!
//! PCM cells only attenuate, so the crossbar computes with weights in
//! `[0, 1]` (§IV of the paper). Real CNN weights are signed. Two standard
//! mappings are provided, both with *exact* integer recovery:
//!
//! * **Offset** (default): `u = s + Q` shifts codes into `[0, 2Q]`; the
//!   crossbar output then carries an extra `Q·Σv` term that is subtracted
//!   digitally (the input sum comes either from a digital adder or from one
//!   all-ones reference column).
//! * **Differential**: each signed column splits into `u⁺ = max(s, 0)` and
//!   `u⁻ = max(−s, 0)`; the balanced receiver (or digital subtraction)
//!   forms `y = y⁺ − y⁻`. Costs 2× columns, needs no input sum.

use serde::{Deserialize, Serialize};

/// Which signed→unipolar scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightMapping {
    /// Shift by `Q` and subtract `Q·Σv` digitally (1 column per output).
    Offset,
    /// Positive/negative column pair (2 columns per output).
    Differential,
}

impl WeightMapping {
    /// Physical crossbar columns consumed per logical output column.
    #[must_use]
    pub fn columns_per_output(self) -> usize {
        match self {
            WeightMapping::Offset => 1,
            WeightMapping::Differential => 2,
        }
    }

    /// The unipolar level signed code `s` programs on physical column
    /// `k` (`0..columns_per_output`) of its output: `s + q` (offset), or
    /// `max(s, 0)` then `max(−s, 0)` (differential).
    ///
    /// # Panics
    ///
    /// Panics if `|s| > q`.
    #[must_use]
    #[inline]
    pub fn unipolar_level(self, s: i8, q: i8, k: usize) -> u8 {
        assert!(
            i64::from(s).abs() <= i64::from(q),
            "code {s} exceeds the ±{q} range"
        );
        self.level(s, q, k)
    }

    /// [`Self::unipolar_level`] of every code in `codes`, written in order
    /// into `levels`, with the whole slice checked against `±q` once.
    ///
    /// # Panics
    ///
    /// Panics if a code exceeds `±q`.
    pub fn unipolar_levels<'a>(
        self,
        codes: &[i8],
        q: i8,
        k: usize,
        levels: impl Iterator<Item = &'a mut u8>,
    ) {
        let widest = codes.iter().map(|s| s.unsigned_abs()).max().unwrap_or(0);
        assert!(
            widest <= q.unsigned_abs(),
            "code ±{widest} exceeds the ±{q} range"
        );
        for (level, &s) in levels.zip(codes) {
            *level = self.level(s, q, k);
        }
    }

    /// The level rule behind [`Self::unipolar_level`], for a code in range.
    #[inline]
    fn level(self, s: i8, q: i8, k: usize) -> u8 {
        match (self, k) {
            (WeightMapping::Offset, _) => (i64::from(s) + i64::from(q)) as u8,
            (WeightMapping::Differential, 0) => s.max(0) as u8,
            (WeightMapping::Differential, _) => (-s.max(-127)).max(0) as u8,
        }
    }

    /// Recovers the signed MAC results from unipolar column outputs
    /// driven by `inputs`, into `out` (one value per logical column):
    /// subtracts `q·Σv` (offset) or column pairs (differential).
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is not `out.len() × columns_per_output` long.
    pub fn recover_into(self, q: i64, outputs: &[i64], inputs: &[u8], out: &mut [i64]) {
        assert_eq!(
            outputs.len(),
            out.len() * self.columns_per_output(),
            "expected {} outputs",
            out.len() * self.columns_per_output()
        );
        match self {
            WeightMapping::Offset => {
                let input_sum: i64 = inputs.iter().map(|&v| i64::from(v)).sum();
                for (o, &y) in out.iter_mut().zip(outputs) {
                    *o = y - q * input_sum;
                }
            }
            WeightMapping::Differential => {
                for (o, pair) in out.iter_mut().zip(outputs.chunks_exact(2)) {
                    *o = pair[0] - pair[1];
                }
            }
        }
    }
}

/// A signed weight matrix mapped onto unipolar crossbar levels.
///
/// # Examples
///
/// ```
/// use oxbar_nn::mapping::{MappedWeights, WeightMapping};
///
/// let signed = vec![vec![3i8, -2], vec![-1, 4]];
/// let mapped = MappedWeights::map(&signed, WeightMapping::Offset, 31);
/// let inputs = vec![5u8, 7];
/// let outputs = mapped.ideal_crossbar_outputs(&inputs);
/// let recovered = mapped.recover(&outputs, &inputs);
/// // Exact signed MAC: col0 = 5·3 + 7·(−1) = 8; col1 = 5·(−2) + 7·4 = 18.
/// assert_eq!(recovered, vec![8, 18]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappedWeights {
    mapping: WeightMapping,
    q: i64,
    rows: usize,
    logical_cols: usize,
    /// Unipolar levels, `rows × physical_cols`, each in `[0, 2Q]` (offset)
    /// or `[0, Q]` (differential).
    unipolar: Vec<Vec<u8>>,
}

impl MappedWeights {
    /// Maps a signed code matrix (`rows × cols`, codes in `[-q, q]`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is ragged/empty or a code exceeds `q`.
    #[must_use]
    pub fn map(signed: &[Vec<i8>], mapping: WeightMapping, q: i8) -> Self {
        assert!(!signed.is_empty(), "weight matrix must be non-empty");
        let rows = signed.len();
        let logical_cols = signed[0].len();
        assert!(logical_cols > 0, "weight matrix must have columns");
        let per_output = mapping.columns_per_output();
        let mut unipolar = vec![Vec::with_capacity(logical_cols * per_output); rows];
        for (i, row) in signed.iter().enumerate() {
            assert_eq!(row.len(), logical_cols, "row {i} is ragged");
            for &s in row {
                unipolar[i].extend((0..per_output).map(|k| mapping.unipolar_level(s, q, k)));
            }
        }
        Self {
            mapping,
            q: i64::from(q),
            rows,
            logical_cols,
            unipolar,
        }
    }

    /// The mapping scheme.
    #[must_use]
    pub fn mapping(&self) -> WeightMapping {
        self.mapping
    }

    /// Physical columns occupied on the crossbar.
    #[must_use]
    pub fn physical_cols(&self) -> usize {
        self.logical_cols * self.mapping.columns_per_output()
    }

    /// Logical (signed) output columns.
    #[must_use]
    pub fn logical_cols(&self) -> usize {
        self.logical_cols
    }

    /// The unipolar level matrix (`rows × physical_cols`).
    #[must_use]
    pub fn unipolar(&self) -> &[Vec<u8>] {
        &self.unipolar
    }

    /// The unipolar matrix normalized to `[0, 1]` transmissions (full scale
    /// = `2Q` for offset, `Q` for differential) — what gets programmed into
    /// the PCM level table.
    #[must_use]
    pub fn transmissions(&self) -> Vec<Vec<f64>> {
        let full_scale = match self.mapping {
            WeightMapping::Offset => 2.0 * self.q as f64,
            WeightMapping::Differential => self.q as f64,
        };
        self.unipolar
            .iter()
            .map(|row| row.iter().map(|&u| f64::from(u) / full_scale).collect())
            .collect()
    }

    /// The exact integer outputs an ideal unipolar crossbar produces:
    /// `y'[p] = Σ_i v[i] · u[i][p]` per physical column.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` length differs from the row count.
    #[must_use]
    pub fn ideal_crossbar_outputs(&self, inputs: &[u8]) -> Vec<i64> {
        assert_eq!(inputs.len(), self.rows, "expected {} inputs", self.rows);
        (0..self.physical_cols())
            .map(|p| {
                self.unipolar
                    .iter()
                    .zip(inputs)
                    .map(|(row, &v)| i64::from(row[p]) * i64::from(v))
                    .sum()
            })
            .collect()
    }

    /// Recovers the signed MAC results from unipolar column outputs.
    ///
    /// For [`WeightMapping::Offset`] this subtracts `Q·Σv`; for
    /// [`WeightMapping::Differential`] it subtracts column pairs.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` length differs from the physical column count.
    #[must_use]
    pub fn recover(&self, outputs: &[i64], inputs: &[u8]) -> Vec<i64> {
        let mut out = vec![0i64; self.logical_cols];
        self.recover_into(outputs, inputs, &mut out);
        out
    }

    /// [`Self::recover`] writing into a caller buffer (`logical_cols`
    /// long) — the allocation-free variant batched executors use.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` or `out` have the wrong length.
    pub fn recover_into(&self, outputs: &[i64], inputs: &[u8], out: &mut [i64]) {
        assert_eq!(
            out.len(),
            self.logical_cols,
            "expected {} recovered columns",
            self.logical_cols
        );
        self.mapping.recover_into(self.q, outputs, inputs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn signed_mac(signed: &[Vec<i8>], inputs: &[u8]) -> Vec<i64> {
        let cols = signed[0].len();
        (0..cols)
            .map(|j| {
                signed
                    .iter()
                    .zip(inputs)
                    .map(|(row, &v)| i64::from(row[j]) * i64::from(v))
                    .sum()
            })
            .collect()
    }

    fn random_case(rows: usize, cols: usize, seed: u64) -> (Vec<Vec<i8>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let signed = (0..rows)
            .map(|_| (0..cols).map(|_| rng.random_range(-31..=31i8)).collect())
            .collect();
        let inputs = (0..rows).map(|_| rng.random_range(0..=63u8)).collect();
        (signed, inputs)
    }

    #[test]
    fn offset_mapping_is_exact() {
        for seed in 0..10 {
            let (signed, inputs) = random_case(16, 8, seed);
            let mapped = MappedWeights::map(&signed, WeightMapping::Offset, 31);
            let outputs = mapped.ideal_crossbar_outputs(&inputs);
            assert_eq!(
                mapped.recover(&outputs, &inputs),
                signed_mac(&signed, &inputs)
            );
        }
    }

    #[test]
    fn differential_mapping_is_exact() {
        for seed in 0..10 {
            let (signed, inputs) = random_case(16, 8, seed + 100);
            let mapped = MappedWeights::map(&signed, WeightMapping::Differential, 31);
            assert_eq!(mapped.physical_cols(), 16);
            let outputs = mapped.ideal_crossbar_outputs(&inputs);
            assert_eq!(
                mapped.recover(&outputs, &inputs),
                signed_mac(&signed, &inputs)
            );
        }
    }

    #[test]
    fn offset_levels_in_range() {
        let (signed, _) = random_case(8, 8, 7);
        let mapped = MappedWeights::map(&signed, WeightMapping::Offset, 31);
        for row in mapped.unipolar() {
            for &u in row {
                assert!(u <= 62);
            }
        }
    }

    #[test]
    fn transmissions_normalized() {
        let (signed, _) = random_case(8, 4, 3);
        for mapping in [WeightMapping::Offset, WeightMapping::Differential] {
            let mapped = MappedWeights::map(&signed, mapping, 31);
            for row in mapped.transmissions() {
                for w in row {
                    assert!((0.0..=1.0).contains(&w));
                }
            }
        }
    }

    #[test]
    fn differential_doubles_columns() {
        assert_eq!(WeightMapping::Differential.columns_per_output(), 2);
        assert_eq!(WeightMapping::Offset.columns_per_output(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the ±15 range")]
    fn over_range_code_panics() {
        let _ = MappedWeights::map(&[vec![20i8]], WeightMapping::Offset, 15);
    }
}
