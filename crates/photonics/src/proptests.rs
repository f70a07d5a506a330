//! Property-based tests for the photonic substrate.

use crate::coupler::DirectionalCoupler;
use crate::coupling::CouplingPlan;
use crate::crossbar::{CrossbarConfig, CrossbarSimulator};
use crate::Field;
use proptest::collection::vec;
use proptest::prelude::*;

fn unit_interval() -> impl Strategy<Value = f64> {
    0.0..=1.0f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coupler_is_unitary(kappa in unit_interval(), amp_a in 0.0..2.0f64,
                          amp_b in 0.0..2.0f64,
                          phase_b in -std::f64::consts::PI..std::f64::consts::PI) {
        let dc = DirectionalCoupler::new(kappa).unwrap();
        let a = Field::from_amplitude(amp_a);
        let b = Field::from_amplitude(amp_b).shift_phase(phase_b);
        let (t, c) = dc.couple(a, b);
        let p_in = a.power().as_watts() + b.power().as_watts();
        let p_out = t.power().as_watts() + c.power().as_watts();
        prop_assert!((p_in - p_out).abs() < 1e-12 * p_in.max(1.0));
    }

    #[test]
    fn coupling_plan_equalizes_any_size(n in 1usize..64, m in 1usize..64) {
        let plan = CouplingPlan::equalizing(n, m);
        let taps = plan.row_tap_amplitudes();
        let weights = plan.column_sum_weights();
        let tap_expected = 1.0 / (m as f64).sqrt();
        let w_expected = 1.0 / (n as f64).sqrt();
        for t in taps {
            prop_assert!((t - tap_expected).abs() < 1e-10);
        }
        for w in weights {
            prop_assert!((w - w_expected).abs() < 1e-10);
        }
    }

    #[test]
    fn crossbar_matches_equation_one(
        n in 1usize..12,
        m in 1usize..12,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random()).collect();
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| rng.random()).collect())
            .collect();
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
        let outputs = sim.run(&inputs, &weights);
        for j in 0..m {
            let expected: f64 = (0..n).map(|i| inputs[i] * weights[i][j]).sum::<f64>()
                / (n as f64 * (m as f64).sqrt());
            prop_assert!((outputs[j].amplitude() - expected.abs()).abs() < 1e-10);
        }
    }

    #[test]
    fn crossbar_output_monotone_in_weight(
        n in 2usize..8,
        base in 0.0..0.5f64,
        delta in 0.01..0.5f64,
    ) {
        let inputs = vec![1.0; n];
        let low = vec![vec![base; 1]; n];
        let high = vec![vec![base + delta; 1]; n];
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(n, 1));
        let lo = sim.run(&inputs, &low)[0].amplitude();
        let hi = sim.run(&inputs, &high)[0].amplitude();
        prop_assert!(hi > lo);
    }

    #[test]
    fn lossy_output_never_exceeds_ideal(
        n in 1usize..8,
        m in 1usize..8,
        vals in vec(0.0..=1.0f64, 64),
    ) {
        let inputs: Vec<f64> = (0..n).map(|i| vals[i % vals.len()]).collect();
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..m).map(|j| vals[(i * m + j) % vals.len()]).collect())
            .collect();
        let ideal = CrossbarSimulator::ideal(CrossbarConfig::new(n, m));
        let lossy = CrossbarSimulator::new(
            CrossbarConfig::new(n, m).with_losses(true),
        );
        let a = ideal.run(&inputs, &weights);
        let b = lossy.run(&inputs, &weights);
        for j in 0..m {
            prop_assert!(b[j].amplitude() <= a[j].amplitude() + 1e-12);
        }
    }

    #[test]
    fn field_attenuation_composes(db1 in 0.0..20.0f64, db2 in 0.0..20.0f64) {
        use oxbar_units::Decibel;
        let f = Field::from_amplitude(1.0);
        let once = f
            .attenuate(Decibel::new(db1).attenuation_field())
            .attenuate(Decibel::new(db2).attenuation_field());
        let combined = f.attenuate(Decibel::new(db1 + db2).attenuation_field());
        prop_assert!((once.amplitude() - combined.amplitude()).abs() < 1e-12);
    }

    #[test]
    fn compiled_transfer_matrix_matches_field_walk(
        n in 1usize..24,
        m in 1usize..24,
        seed in 0u64..10_000,
        knobs in 0u64..8,
        phase_sigma in 0.0..0.3f64,
        trim_step in 0.001..0.05f64,
    ) {
        use crate::transfer::CompiledCrossbar;
        use rand::{Rng, SeedableRng};

        // Decode the non-ideality combination from `knobs` so every mix of
        // losses / compensation / trimming appears across the cases.
        let losses = knobs & 1 != 0;
        let compensate = knobs & 2 != 0;
        let trimmed = knobs & 4 != 0;
        let config = CrossbarConfig::new(n, m)
            .with_losses(losses)
            .with_path_loss_compensation(compensate)
            .with_phase_error_sigma(phase_sigma)
            .with_phase_error_seed(seed)
            .with_trim_resolution(if trimmed { trim_step } else { 0.0 });
        let sim = CrossbarSimulator::new(config);

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random()).collect();
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| rng.random()).collect())
            .collect();

        let compiled = CompiledCrossbar::new(&sim, &weights);
        let walk = sim.run(&inputs, &weights);
        let fast = compiled.mvm(&inputs);
        for j in 0..m {
            let a = walk[j].envelope();
            let b = fast[j].envelope();
            prop_assert!(
                (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                "col {}: walk {} vs compiled {} (losses={} comp={} sigma={} trim={})",
                j, a, b, losses, compensate, phase_sigma, trimmed
            );
        }
        let walk_norm = sim.run_normalized(&inputs, &weights);
        let mut fast_norm = vec![0.0; m];
        compiled.run_normalized_into(&inputs, &mut fast_norm);
        for j in 0..m {
            prop_assert!(
                (walk_norm[j] - fast_norm[j]).abs() < 1e-12,
                "normalized col {}: {} vs {}", j, walk_norm[j], fast_norm[j]
            );
        }
    }
}

proptest! {
    // Each case is one shape. The panel tails follow `m % 8` and the
    // window groups follow `windows % 4`, so the kernel needs more cases
    // than the default count.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_kernel_matches_row_order_reference(
        n in 1usize..=130,
        m in 1usize..=130,
        windows in 1usize..=13,
        seed in 0u64..10_000,
        knobs in 0u64..4,
    ) {
        use crate::transfer::{BatchScratch, CompiledCrossbar};
        use crate::Complex;
        use rand::{Rng, SeedableRng};

        // Bit 0: residual phases (complex gains); bit 1: compensated
        // losses (a normalization scale other than 1).
        let complex = knobs & 1 != 0;
        let compensated = knobs & 2 != 0;
        let sim = CrossbarSimulator::new(
            CrossbarConfig::new(n, m)
                .with_losses(compensated)
                .with_path_loss_compensation(compensated)
                .with_phase_error_sigma(if complex { 0.1 } else { 0.0 })
                .with_phase_error_seed(seed),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6B65_726E);
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| rng.random()).collect())
            .collect();
        // About 30% dark rows, and about one window in six dark throughout.
        let mut drives = vec![0.0; windows * n];
        for window in drives.chunks_exact_mut(n) {
            if rng.random_range(0..6u32) == 0 {
                continue;
            }
            for v in window.iter_mut() {
                if rng.random::<f64>() >= 0.3 {
                    *v = rng.random();
                }
            }
        }
        let compiled = CompiledCrossbar::new(&sim, &weights);
        prop_assert_eq!(compiled.is_real(), !complex);
        let mut out = vec![0.0; windows * m];
        compiled.run_normalized_batch_with(&drives, &mut out, &mut BatchScratch::default());

        let gains: Vec<Vec<Complex>> = (0..n)
            .map(|i| (0..m).map(|j| compiled.gain(i, j)).collect())
            .collect();
        let (sqrt_m, scale) = ((m as f64).sqrt(), sim.config().normalization_scale());
        for (w, drive) in drives.chunks_exact(n).enumerate() {
            for j in 0..m {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for (i, &v) in drive.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    re += gains[i][j].re * v;
                    im += gains[i][j].im * v;
                }
                let z = if complex { Complex::new(re, im).abs() } else { re.abs() };
                let expected = z * sqrt_m / scale;
                prop_assert!(
                    out[w * m + j].to_bits() == expected.to_bits(),
                    "{}x{} window {}/{} col {}: kernel {} vs reference {} (complex={})",
                    n, m, w, windows, j, out[w * m + j], expected, complex
                );
            }
        }
    }
}
