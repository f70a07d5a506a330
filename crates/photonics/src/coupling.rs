//! Coupling-coefficient design for uniform power distribution (§III.A).
//!
//! The crossbar needs every unit cell in a row to tap an equal share of the
//! row's field, and every cell in a column to contribute an equal weight to
//! the coherent column sum. Both are achieved with position-dependent
//! directional-coupler ratios:
//!
//! * input (row) couplers:  `κ_in[j]  = 1 / (M − j)` for column `j`
//! * output (column) couplers: `κ_out[i] = 1 / (i + 1)` for row `i` (row 0 at
//!   the top of the column, farthest from the output)
//!
//! With these, each cell receives field `v_i·E/√(NM)` and contributes with
//! uniform weight `1/√N`, which yields the paper's Eq. (1).

use crate::coupler::DirectionalCoupler;
use serde::{Deserialize, Serialize};

/// `κ_in[j] = 1 / (M − j)`: column `j`'s input coupler taps an equal share
/// of what is left of the row.
fn equalizing_kappa_in(m_cols: usize, j: usize) -> f64 {
    1.0 / (m_cols - j) as f64
}

/// `κ_out[i] = 1 / (i + 1)`: row `i`'s output coupler weighs its cell
/// equally against the `i` rows above it.
fn equalizing_kappa_out(i: usize) -> f64 {
    1.0 / (i + 1) as f64
}

/// The designed coupler ratios for an N×M array.
///
/// # Examples
///
/// ```
/// use oxbar_photonics::coupling::CouplingPlan;
///
/// let plan = CouplingPlan::equalizing(4, 4);
/// // First input coupler taps 1/M of the power, last taps everything left.
/// assert!((plan.kappa_in(0) - 0.25).abs() < 1e-12);
/// assert!((plan.kappa_in(3) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CouplingPlan {
    kappa_in: Vec<f64>,
    kappa_out: Vec<f64>,
}

impl CouplingPlan {
    /// Designs the equal-tap plan for an `n_rows × m_cols` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn equalizing(n_rows: usize, m_cols: usize) -> Self {
        assert!(
            n_rows > 0 && m_cols > 0,
            "array dimensions must be non-zero"
        );
        let kappa_in = (0..m_cols)
            .map(|j| equalizing_kappa_in(m_cols, j))
            .collect();
        let kappa_out = (0..n_rows).map(equalizing_kappa_out).collect();
        Self {
            kappa_in,
            kappa_out,
        }
    }

    /// The equalizing plan's input coupler of column `j` in an
    /// `m_cols`-wide array — what `equalizing(_, m_cols).input_coupler(j)`
    /// builds, without materializing the plan.
    #[must_use]
    pub(crate) fn equalizing_input_coupler(m_cols: usize, j: usize) -> DirectionalCoupler {
        DirectionalCoupler::new(equalizing_kappa_in(m_cols, j)).expect("designed ratio is valid")
    }

    /// The equalizing plan's output coupler of row `i` — what
    /// `equalizing(..).output_coupler(i)` builds, without the plan.
    #[must_use]
    pub(crate) fn equalizing_output_coupler(i: usize) -> DirectionalCoupler {
        DirectionalCoupler::new(equalizing_kappa_out(i)).expect("designed ratio is valid")
    }

    /// Number of columns in the plan.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.kappa_in.len()
    }

    /// Number of rows in the plan.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.kappa_out.len()
    }

    /// The input coupler power ratio at column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn kappa_in(&self, j: usize) -> f64 {
        self.kappa_in[j]
    }

    /// The output coupler power ratio at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn kappa_out(&self, i: usize) -> f64 {
        self.kappa_out[i]
    }

    /// Builds the input [`DirectionalCoupler`] for column `j`.
    #[must_use]
    pub fn input_coupler(&self, j: usize) -> DirectionalCoupler {
        DirectionalCoupler::new(self.kappa_in[j]).expect("designed ratio is valid")
    }

    /// Builds the output [`DirectionalCoupler`] for row `i`.
    #[must_use]
    pub fn output_coupler(&self, i: usize) -> DirectionalCoupler {
        DirectionalCoupler::new(self.kappa_out[i]).expect("designed ratio is valid")
    }

    /// The effective field tap amplitude of each cell along a row.
    ///
    /// For the equalizing design this is `1/√M` for every column: the
    /// product of the through-amplitudes of couplers `0..j` times the cross
    /// amplitude of coupler `j`.
    #[must_use]
    pub fn row_tap_amplitudes(&self) -> Vec<f64> {
        let mut remaining = 1.0f64; // running through-amplitude product
        let mut taps = Vec::with_capacity(self.cols());
        for &kappa in &self.kappa_in {
            taps.push(remaining * kappa.sqrt());
            remaining *= (1.0 - kappa).sqrt();
        }
        taps
    }

    /// The effective field weight of each row's contribution at the column
    /// output: `√κ_out[i] · Π_{l>i} √(1−κ_out[l])`, which is `1/√N` for the
    /// equalizing design.
    #[must_use]
    pub fn column_sum_weights(&self) -> Vec<f64> {
        let n = self.rows();
        let mut weights = vec![0.0; n];
        // Suffix product of through-amplitudes below row i.
        let mut suffix = 1.0f64;
        for i in (0..n).rev() {
            weights[i] = self.kappa_out[i].sqrt() * suffix;
            suffix *= (1.0 - self.kappa_out[i]).sqrt();
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_taps_are_uniform() {
        for m in [1usize, 2, 3, 8, 64, 128] {
            let plan = CouplingPlan::equalizing(4, m);
            let expected = 1.0 / (m as f64).sqrt();
            for (j, tap) in plan.row_tap_amplitudes().iter().enumerate() {
                assert!(
                    (tap - expected).abs() < 1e-12,
                    "m={m} j={j} tap={tap} expected={expected}"
                );
            }
        }
    }

    #[test]
    fn column_weights_are_uniform() {
        for n in [1usize, 2, 5, 32, 256] {
            let plan = CouplingPlan::equalizing(n, 4);
            let expected = 1.0 / (n as f64).sqrt();
            for (i, w) in plan.column_sum_weights().iter().enumerate() {
                assert!(
                    (w - expected).abs() < 1e-12,
                    "n={n} i={i} w={w} expected={expected}"
                );
            }
        }
    }

    #[test]
    fn boundary_couplers_fully_couple() {
        let plan = CouplingPlan::equalizing(8, 8);
        assert!((plan.kappa_in(7) - 1.0).abs() < 1e-12);
        assert!((plan.kappa_out(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_input_coupler_taps_one_over_m() {
        let plan = CouplingPlan::equalizing(8, 16);
        assert!((plan.kappa_in(0) - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn bottom_output_coupler_is_one_over_n() {
        let plan = CouplingPlan::equalizing(16, 8);
        assert!((plan.kappa_out(15) - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "array dimensions must be non-zero")]
    fn zero_dimension_panics() {
        let _ = CouplingPlan::equalizing(0, 4);
    }
}
