//! Device-to-device and cycle-to-cycle programming variation.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Stochastic variation of PCM programming.
///
/// Two components, both Gaussian:
///
/// * **cycle-to-cycle** — each programming pulse lands on a crystalline
///   fraction offset from the target (`sigma_program`);
/// * **device-to-device** — each cell has a static offset in its achieved
///   fraction (`sigma_device`), drawn once per cell.
///
/// # Examples
///
/// ```
/// use oxbar_pcm::variation::DeviceVariation;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let var = DeviceVariation::new(0.01, 0.005);
/// let mut rng = StdRng::seed_from_u64(1);
/// let achieved = var.apply_program(0.5, 0.0, &mut rng);
/// assert!((achieved - 0.5).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceVariation {
    sigma_program: f64,
    sigma_device: f64,
}

impl DeviceVariation {
    /// No variation (ideal devices).
    pub const NONE: Self = Self {
        sigma_program: 0.0,
        sigma_device: 0.0,
    };

    /// Creates a variation model.
    ///
    /// # Panics
    ///
    /// Panics if either sigma is negative.
    #[must_use]
    pub fn new(sigma_program: f64, sigma_device: f64) -> Self {
        assert!(
            sigma_program >= 0.0 && sigma_device >= 0.0,
            "variation sigmas must be non-negative"
        );
        Self {
            sigma_program,
            sigma_device,
        }
    }

    /// Cycle-to-cycle sigma (crystalline-fraction units).
    #[must_use]
    pub fn sigma_program(self) -> f64 {
        self.sigma_program
    }

    /// Device-to-device sigma (crystalline-fraction units).
    #[must_use]
    pub fn sigma_device(self) -> f64 {
        self.sigma_device
    }

    /// Draws a static per-device offset.
    pub fn draw_device_offset<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        standard_normal(rng) * self.sigma_device
    }

    /// The crystalline fraction actually achieved when programming toward
    /// `target` on a device with the given static `device_offset`.
    ///
    /// The result is clamped to `[0, 1]`.
    pub fn apply_program<R: Rng + ?Sized>(
        self,
        target: f64,
        device_offset: f64,
        rng: &mut R,
    ) -> f64 {
        self.apply_normal(target, device_offset, standard_normal(rng))
    }

    /// [`Self::apply_program`] with its cycle-to-cycle draw supplied: the
    /// fraction achieved when the pulse lands `normal` standard
    /// deviations off `target`. Callers that replay a remembered
    /// [`standard_normal`] stream get exactly the value `apply_program`
    /// would have drawn.
    #[must_use]
    pub(crate) fn apply_normal(self, target: f64, device_offset: f64, normal: f64) -> f64 {
        (target + device_offset + normal * self.sigma_program).clamp(0.0, 1.0)
    }
}

impl Default for DeviceVariation {
    fn default() -> Self {
        Self::NONE
    }
}

/// One standard-normal draw via Box-Muller — the draw
/// [`DeviceVariation::apply_program`] consumes per programmed cell.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_variation_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let achieved = DeviceVariation::NONE.apply_program(0.37, 0.0, &mut rng);
        assert_eq!(achieved, 0.37);
    }

    #[test]
    fn result_clamped_to_unit_interval() {
        let var = DeviceVariation::new(0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let achieved = var.apply_program(0.99, 0.0, &mut rng);
            assert!((0.0..=1.0).contains(&achieved));
        }
    }

    #[test]
    fn statistics_match_sigma() {
        let var = DeviceVariation::new(0.02, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| var.apply_program(0.5, 0.0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 0.5).abs() < 1e-3);
        assert!((sd - 0.02).abs() < 2e-3);
    }

    #[test]
    fn seeded_reproducibility() {
        let var = DeviceVariation::new(0.05, 0.01);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            var.apply_program(0.4, 0.0, &mut a),
            var.apply_program(0.4, 0.0, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "variation sigmas must be non-negative")]
    fn negative_sigma_panics() {
        let _ = DeviceVariation::new(-0.1, 0.0);
    }
}
