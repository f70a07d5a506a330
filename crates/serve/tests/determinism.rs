//! The engine's acceptance property: a concurrent, batched drain is
//! byte-identical to a serial one-request-at-a-time replay of the same
//! trace — under full noisy device physics, with and without cache
//! eviction pressure.

use oxbar_nn::synthetic;
use oxbar_serve::loadgen::{MixEntry, OpenLoop};
use oxbar_serve::{catalog, BatchPolicy, Completion, ServeConfig, ServeEngine};
use oxbar_sim::{DeviceExecutor, SimConfig};

/// Runs the shared noisy trace through an engine built with `configure`,
/// returning completions sorted by request id.
fn run_trace(configure: impl FnOnce(ServeConfig) -> ServeConfig) -> Vec<Completion> {
    let device = SimConfig::noisy(64, 64).with_seed(77).with_threads(1);
    let mut engine = ServeEngine::new(configure(ServeConfig::new(device)));
    let lenet = engine.admit(catalog::lenet5_model()).unwrap();
    let vgg = engine.admit(catalog::vgg16_conv_sample()).unwrap();
    let mobile = engine.admit(catalog::mobilenet_sample()).unwrap();
    let load = OpenLoop {
        mix: vec![
            MixEntry {
                model: lenet,
                weight: 1,
            },
            MixEntry {
                model: vgg,
                weight: 1,
            },
            MixEntry {
                model: mobile,
                weight: 2,
            },
        ],
        requests: 10,
        interarrival: 1,
        seed: 5,
        deadline_slack: Some(64),
    };
    for request in load.trace(|m| engine.input_shape(m)) {
        engine.try_submit(request).expect("valid request");
    }
    let mut done = engine.drain_traced().completions;
    done.sort_by_key(|c| c.id);
    done
}

/// Strips scheduling metadata, keeping the functional result.
fn outputs(completions: &[Completion]) -> Vec<(u64, Vec<i64>)> {
    completions
        .iter()
        .map(|c| (c.id.0, c.output.data().to_vec()))
        .collect()
}

#[test]
fn concurrent_batched_equals_serial_replay_noisy() {
    let serial = run_trace(|c| c.with_policy(BatchPolicy::SINGLE).with_workers(1));
    for (workers, max_batch, max_wait) in [(1, 16, 8), (2, 4, 2), (4, 16, 16), (0, 8, 4)] {
        let concurrent = run_trace(|c| {
            c.with_policy(BatchPolicy::new(max_batch, max_wait))
                .with_workers(workers)
        });
        assert_eq!(
            outputs(&concurrent),
            outputs(&serial),
            "workers={workers} batch={max_batch} wait={max_wait}"
        );
    }
}

#[test]
fn eviction_pressure_never_changes_results() {
    let roomy = run_trace(|c| c.with_workers(2));
    // 80k cells hold roughly one resident model of the three: every model
    // switch evicts and reprograms, results must not move — serial or
    // concurrent.
    for workers in [1, 2] {
        let tight = run_trace(|c| c.with_workers(workers).with_cache_budget(80_000));
        assert_eq!(outputs(&tight), outputs(&roomy), "workers={workers}");
    }
}

#[test]
fn engine_equals_fresh_executor_per_request() {
    // The strongest serial oracle: no engine, no shared cache — each
    // request through its own just-built executor (the model's admission
    // seed reproduces the same programmed device).
    let engine_out = run_trace(|c| c.with_workers(4));
    let device = SimConfig::noisy(64, 64).with_seed(77).with_threads(1);
    let specs = [
        catalog::lenet5_model(),
        catalog::vgg16_conv_sample(),
        catalog::mobilenet_sample(),
    ];
    for completion in &engine_out {
        let spec = &specs[completion.model.0];
        let config = device.clone().with_seed(oxbar_serve::request::request_seed(
            device.seed,
            completion.model.0 as u64,
        ));
        let input = synthetic::activations(
            spec.network.input(),
            6,
            oxbar_serve::request::request_seed(5 ^ 0x1a9d, completion.id.0),
        );
        let fresh = DeviceExecutor::new(config)
            .forward(&spec.network, &input, &spec.filters)
            .unwrap();
        assert_eq!(
            fresh.output, completion.output,
            "request {:?} diverged from the fresh-executor oracle",
            completion.id
        );
    }
}

#[test]
fn serialized_completions_are_byte_identical() {
    let a = serde_json::to_string(&run_trace(|c| c.with_workers(1))).unwrap();
    let b = serde_json::to_string(&run_trace(|c| c.with_workers(4))).unwrap();
    assert_eq!(a, b);
}
