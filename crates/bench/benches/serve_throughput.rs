//! Criterion bench: serving throughput of the batched engine vs
//! single-request dispatch, and the cost of a cold (budget-0) engine.

use criterion::{criterion_group, criterion_main, Criterion};
use oxbar_serve::loadgen::{MixEntry, OpenLoop};
use oxbar_serve::{catalog, BatchPolicy, ModelId, ServeConfig, ServeEngine};
use oxbar_sim::SimConfig;
use std::hint::black_box;

const REQUESTS: usize = 16;

fn engine_with(policy: BatchPolicy, budget: usize) -> ServeEngine {
    let mut engine = ServeEngine::new(
        ServeConfig::new(SimConfig::noisy(128, 128).with_threads(1))
            .with_policy(policy)
            .with_cache_budget(budget),
    );
    for spec in catalog::stock_catalog() {
        engine.admit(spec).expect("catalog models admit");
    }
    engine
}

fn trace(engine: &ServeEngine) -> Vec<oxbar_serve::InferRequest> {
    OpenLoop {
        mix: (0..4)
            .map(|m| MixEntry {
                model: ModelId(m),
                weight: 1,
            })
            .collect(),
        requests: REQUESTS,
        interarrival: 1,
        seed: 11,
        deadline_slack: None,
    }
    .trace(|m| engine.input_shape(m))
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");

    // Weight-stationary steady state: one long-lived engine, tiles hot.
    let mut warm = engine_with(BatchPolicy::new(16, 8), 4_000_000);
    let requests = trace(&warm);
    group.bench_function("batched_weight_stationary", |b| {
        b.iter(|| {
            for request in &requests {
                warm.try_submit(black_box(request.clone()))
                    .expect("valid request");
            }
            black_box(warm.drain_traced());
        });
    });

    // Single-request dispatch on the same warm caches: isolates the
    // batching machinery from the cache effect.
    let mut single = engine_with(BatchPolicy::SINGLE, 4_000_000);
    let requests = trace(&single);
    group.bench_function("single_dispatch_warm", |b| {
        b.iter(|| {
            for request in &requests {
                single
                    .try_submit(black_box(request.clone()))
                    .expect("valid request");
            }
            black_box(single.drain_traced());
        });
    });

    // Cold baseline: budget 0, every request reprograms + recompiles.
    let mut cold = engine_with(BatchPolicy::SINGLE, 0);
    let requests = trace(&cold);
    group.bench_function("single_dispatch_cold", |b| {
        b.iter(|| {
            for request in &requests {
                cold.try_submit(black_box(request.clone()))
                    .expect("valid request");
            }
            black_box(cold.drain_traced());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
