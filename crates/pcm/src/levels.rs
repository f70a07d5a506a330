//! INT6 weight-level quantization table.

use crate::cell::PcmCell;
use serde::{Deserialize, Serialize};

/// The 2^bits-level mapping between weight codes and field transmissions.
///
/// The paper maps all weights to `[0, 1]` over 64 levels (§IV). Levels are
/// uniform in *field amplitude* so the optical MAC stays linear in the
/// digital weight; level `k` targets transmission
/// `k / (2^bits − 1) × t_max`, where `t_max` is the amorphous-state
/// transmission of the device.
///
/// # Examples
///
/// ```
/// use oxbar_pcm::{LevelTable, PcmCell};
///
/// let table = LevelTable::int6(PcmCell::pristine());
/// assert_eq!(table.levels(), 64);
/// let w = table.transmission_for_code(32);
/// assert!((w / table.transmission_for_code(16) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelTable {
    bits: u8,
    device: PcmCell,
    /// Target field transmission per code; `transmissions[0] == 0` is
    /// approximated by the crystalline floor.
    transmissions: Vec<f64>,
    /// Crystalline fraction to program per code (`None` ⇒ clamp to floor).
    fractions: Vec<f64>,
}

impl LevelTable {
    /// Builds a table with `bits` of resolution for the given device.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 8`.
    #[must_use]
    pub fn new(bits: u8, device: PcmCell) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8, got {bits}");
        let max_code = (1u16 << bits) - 1;
        let t_max = device.max_transmission();
        let t_min = device.min_transmission();
        let mut transmissions = Vec::with_capacity(usize::from(max_code) + 1);
        let mut fractions = Vec::with_capacity(usize::from(max_code) + 1);
        for code in 0..=max_code {
            let ideal = f64::from(code) / f64::from(max_code) * t_max;
            // The device cannot go fully dark; clamp code 0 to the floor.
            let target = ideal.max(t_min);
            transmissions.push(target);
            fractions.push(
                device
                    .fraction_for_transmission(target)
                    .expect("clamped target is always reachable"),
            );
        }
        Self {
            bits,
            device,
            transmissions,
            fractions,
        }
    }

    /// The paper's 6-bit table.
    #[must_use]
    pub fn int6(device: PcmCell) -> Self {
        Self::new(6, device)
    }

    /// Number of levels (`2^bits`).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.transmissions.len()
    }

    /// The device the table was built for (the pristine cell every
    /// programming pass starts from).
    #[must_use]
    pub(crate) fn device(&self) -> PcmCell {
        self.device
    }

    /// Resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The largest code.
    #[must_use]
    pub fn max_code(&self) -> u16 {
        (self.levels() - 1) as u16
    }

    /// Target field transmission for a code.
    ///
    /// # Panics
    ///
    /// Panics if the code is out of range.
    #[must_use]
    pub fn transmission_for_code(&self, code: u16) -> f64 {
        self.transmissions[usize::from(code)]
    }

    /// Crystalline fraction to program for a code.
    ///
    /// # Panics
    ///
    /// Panics if the code is out of range.
    #[must_use]
    pub fn fraction_for_code(&self, code: u16) -> f64 {
        self.fractions[usize::from(code)]
    }

    /// Nearest code for a desired weight `w ∈ [0, 1]` (fraction of
    /// full-scale transmission).
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside `[0, 1]`.
    #[must_use]
    pub fn quantize_weight(&self, w: f64) -> u16 {
        assert!(
            (0.0..=1.0).contains(&w),
            "weight must be in [0, 1], got {w}"
        );
        (w * f64::from(self.max_code())).round() as u16
    }

    /// The weight value a code represents, in `[0, 1]`.
    #[must_use]
    pub fn dequantize_code(&self, code: u16) -> f64 {
        f64::from(code) / f64::from(self.max_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int6_has_64_levels() {
        let t = LevelTable::int6(PcmCell::pristine());
        assert_eq!(t.levels(), 64);
        assert_eq!(t.max_code(), 63);
    }

    #[test]
    fn transmissions_strictly_increase_above_floor() {
        let t = LevelTable::int6(PcmCell::pristine());
        for code in 1..=63u16 {
            assert!(
                t.transmission_for_code(code) > t.transmission_for_code(code - 1)
                    || t.transmission_for_code(code - 1) == t.transmission_for_code(0),
                "code {code}"
            );
        }
    }

    #[test]
    fn fractions_monotone_decreasing() {
        let t = LevelTable::int6(PcmCell::pristine());
        for code in 1..=63u16 {
            assert!(t.fraction_for_code(code) <= t.fraction_for_code(code - 1));
        }
    }

    #[test]
    fn quantize_round_trips_exact_levels() {
        let t = LevelTable::int6(PcmCell::pristine());
        for code in [0u16, 1, 17, 42, 63] {
            assert_eq!(t.quantize_weight(t.dequantize_code(code)), code);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let t = LevelTable::int6(PcmCell::pristine());
        let lsb = 1.0 / 63.0;
        for k in 0..200 {
            let w = k as f64 / 199.0;
            let err = (t.dequantize_code(t.quantize_weight(w)) - w).abs();
            assert!(err <= lsb / 2.0 + 1e-12);
        }
    }

    #[test]
    fn programmed_fraction_hits_target_transmission() {
        let device = PcmCell::pristine();
        let t = LevelTable::int6(device);
        for code in [1u16, 10, 35, 63] {
            let mut cell = device;
            cell.set_crystalline_fraction(t.fraction_for_code(code));
            assert!(
                (cell.transmission() - t.transmission_for_code(code)).abs() < 1e-12,
                "code {code}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "weight must be in [0, 1]")]
    fn out_of_range_weight_panics() {
        let _ = LevelTable::int6(PcmCell::pristine()).quantize_weight(-0.1);
    }
}
