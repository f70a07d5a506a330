//! Batched multi-model serving quickstart: admit the stock catalog,
//! replay an open-loop trace, and read the weight-stationary cache
//! behavior off the engine stats.
//!
//! Run with: `cargo run --release --example serving`

use oxbar::serve::loadgen::{MixEntry, OpenLoop};
use oxbar::serve::{catalog, BatchPolicy, ServeConfig, ServeEngine};
use oxbar::sim::SimConfig;

fn main() {
    // A batched engine over the noisy device model: up to 8 requests per
    // batch, coalesced within a 4-tick arrival window, all models sharing
    // a 4M-cell weight-stationary budget.
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_policy(BatchPolicy::new(8, 4))
            .with_cache_budget(4_000_000),
    );

    // Admit LeNet-5 plus the sampled AlexNet/VGG/MobileNet layer models.
    let models: Vec<_> = catalog::stock_catalog()
        .into_iter()
        .map(|spec| {
            let name = spec.name.clone();
            (engine.admit(spec).expect("catalog admits"), name)
        })
        .collect();

    // An open-loop trace: 32 requests, one arrival per tick, equal mix.
    let load = OpenLoop {
        mix: models
            .iter()
            .map(|&(model, _)| MixEntry { model, weight: 1 })
            .collect(),
        requests: 32,
        interarrival: 1,
        seed: 7,
        deadline_slack: Some(64),
    };
    for request in load.trace(|m| engine.input_shape(m)) {
        engine
            .try_submit(request)
            .expect("trace requests are valid");
    }

    let completions = engine.drain_traced().completions;
    println!("served {} requests", completions.len());
    for (model, name) in &models {
        let count = completions.iter().filter(|c| c.model == *model).count();
        println!("  {name:<24} {count:>3} requests");
    }

    let stats = engine.stats();
    println!(
        "batches: {} (mean size {:.1}), tile-cache hit rate {:.0}%, \
         occupancy {} / {} cells, evictions {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.hit_rate() * 100.0,
        stats.occupancy_cells,
        stats.budget_cells,
        stats.evictions,
    );
}
