//! Criterion benches for the compiled transfer-matrix fast path vs the
//! cell-by-cell field walk: raw crossbar MVM kernels, compile cost, and a
//! full tile (PCM programming + batched MVM + readout) on both engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oxbar_dataflow::tiles::WeightTiles;
use oxbar_dataflow::FoldPlan;
use oxbar_nn::synthetic;
use oxbar_nn::{Conv2d, TensorShape};
use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
use oxbar_photonics::transfer::CompiledCrossbar;
use oxbar_sim::tile::{run_tile_with, CompiledTile, TileDrive};
use oxbar_sim::{ExecArena, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_case(n: usize, m: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = (0..n).map(|_| rng.random()).collect();
    let weights = (0..n)
        .map(|_| (0..m).map(|_| rng.random()).collect())
        .collect();
    (inputs, weights)
}

fn bench_mvm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_mvm/kernel");
    group.sample_size(20);
    for size in [32usize, 64, 128] {
        let sim = CrossbarSimulator::ideal(CrossbarConfig::new(size, size));
        let (inputs, weights) = random_case(size, size, 1);
        let compiled = CompiledCrossbar::new(&sim, &weights);
        let mut out = vec![0.0; size];
        group.bench_with_input(BenchmarkId::new("field_walk", size), &size, |b, _| {
            b.iter(|| black_box(sim.run_normalized(black_box(&inputs), black_box(&weights))));
        });
        group.bench_with_input(BenchmarkId::new("compiled", size), &size, |b, _| {
            b.iter(|| {
                compiled.run_normalized_into(black_box(&inputs), &mut out);
                black_box(&out);
            });
        });
        group.bench_with_input(BenchmarkId::new("compile_cost", size), &size, |b, _| {
            b.iter(|| black_box(CompiledCrossbar::new(&sim, black_box(&weights))));
        });
    }
    group.finish();
}

fn bench_full_tile(c: &mut Criterion) {
    // One fold tile of a padded conv, driven at every output pixel —
    // PCM programming + crossbar MVM batch + readout + recovery.
    let conv = Conv2d::new("c", TensorShape::new(12, 12, 3), 3, 3, 8, 1, 1);
    let bank = synthetic::filter_bank(&conv, 6, 3);
    let plan = FoldPlan::plan(&conv, 32, 8, 1);
    let tile = WeightTiles::new(&conv, &bank.weights, &plan)
        .next()
        .expect("at least one tile");
    let out = conv.output_shape();
    let positive: Vec<u8> = (0..out.h * out.w)
        .flat_map(|p| (0..tile.rows()).map(move |r| ((p * 31 + r * 7) % 64) as u8))
        .collect();
    let drive = TileDrive::new(tile.rows(), positive, None);
    let config = SimConfig::noisy(32, 8);
    let mut arena = ExecArena::default();
    let mut group = c.benchmark_group("device_mvm/tile_noisy");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("field_walk"), |b| {
        b.iter(|| black_box(run_tile_with(&tile, &drive, &config, 9, &mut arena)));
    });
    for (label, dedupe) in [("compiled", true), ("compiled_no_cache", false)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let compiled = CompiledTile::compile(&tile, &config, 9);
                compiled.execute_into(&drive, &config, dedupe, &mut arena);
                black_box(arena.partials()[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mvm_kernels, bench_full_tile);
criterion_main!(benches);
