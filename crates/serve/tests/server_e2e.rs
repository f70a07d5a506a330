//! End-to-end loopback serving: ≥ 8 concurrent connections with
//! scrambled arrival ticks, responses byte-identical to an in-process
//! engine fed the same trace, plus admission control and clean shutdown.

use oxbar_nn::reference::Tensor3;
use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::protocol::{Client, ClientFrame, ErrorCode, ServerFrame};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, FaultPlan, ModelId, ModelSpec, PlacementPolicy, ServeConfig, ServeEngine,
    Server, ServerConfig,
};
use oxbar_sim::SimConfig;
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

const CONNECTIONS: usize = 8;
const WAVES: usize = 3;

fn device() -> SimConfig {
    SimConfig::ideal(32, 16).with_threads(1)
}

fn specs() -> Vec<ModelSpec> {
    vec![
        catalog::spec_from_network(small_network(41), 0x61),
        catalog::spec_from_network(small_network(57), 0x62),
    ]
}

fn engine() -> ServeEngine {
    let mut engine = ServeEngine::new(ServeConfig::new(device()));
    for spec in specs() {
        engine.admit(spec).expect("model admits");
    }
    engine
}

/// The deterministic cross-connection trace: connection `c`, wave `w`
/// submits `(model, input, arrival)` where arrivals are deliberately
/// *decreasing* in `w`, so the server sees out-of-order ticks from every
/// session.
fn trace_entry(shapes: &[oxbar_nn::TensorShape], c: usize, w: usize) -> (usize, Tensor3, u64) {
    let model = (c + w) % shapes.len();
    let seed = request_seed(0xE2E, (c * WAVES + w) as u64);
    let input = synthetic::activations(shapes[model], 6, seed);
    let arrival = (WAVES - w) as u64;
    (model, input, arrival)
}

#[test]
fn concurrent_connections_match_the_in_process_engine() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server starts");
    let addr = server.addr();
    let shapes: Vec<oxbar_nn::TensorShape> = specs().iter().map(|s| s.network.input()).collect();

    // 8 concurrent client threads, each its own connection, each
    // pipelining WAVES requests with scrambled arrival ticks.
    let handles: Vec<std::thread::JoinHandle<Vec<Tensor3>>> = (0..CONNECTIONS)
        .map(|c| {
            let shapes = shapes.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout");
                let mut client = Client::connect(stream).expect("handshake");
                assert_eq!(client.models().len(), 2);
                for w in 0..WAVES {
                    let (model, input, arrival) = trace_entry(&shapes, c, w);
                    client
                        .send(&ClientFrame::Infer {
                            tag: w as u64,
                            model,
                            arrival,
                            deadline: None,
                            input,
                        })
                        .expect("send");
                }
                (0..WAVES)
                    .map(
                        |w| match client.wait_completion(w as u64).expect("completion") {
                            ServerFrame::Completion { tag, output, .. } => {
                                assert_eq!(tag, w as u64);
                                output
                            }
                            other => panic!("expected completion, got {other:?}"),
                        },
                    )
                    .collect()
            })
        })
        .collect();
    let mut served: Vec<Vec<Tensor3>> = Vec::new();
    for handle in handles {
        served.push(handle.join().expect("client thread"));
    }
    server.shutdown();

    // Oracle: the in-process engine fed the same trace. Outputs depend
    // only on the model's admission seed and the input — never on
    // batching or interleaving — so per-request comparison is exact
    // whatever order the network delivered them in. RequestId counts
    // submission order, so sorting completions by id maps completion
    // `c * WAVES + w` back to connection `c`, wave `w`.
    let mut oracle_engine = engine();
    for c in 0..CONNECTIONS {
        for w in 0..WAVES {
            let (model, input, arrival) = trace_entry(&shapes, c, w);
            oracle_engine
                .try_submit(oxbar_serve::InferRequest {
                    model: ModelId(model),
                    input,
                    arrival,
                    deadline: None,
                })
                .expect("oracle submits");
        }
    }
    let mut oracle_done = oracle_engine.drain_traced().completions;
    assert_eq!(oracle_done.len(), CONNECTIONS * WAVES);
    oracle_done.sort_by_key(|d| d.id);
    let by_submission: HashMap<(usize, usize), &Tensor3> = oracle_done
        .iter()
        .enumerate()
        .map(|(i, d)| ((i / WAVES, i % WAVES), &d.output))
        .collect();
    for (c, outputs) in served.iter().enumerate() {
        for (w, output) in outputs.iter().enumerate() {
            assert_eq!(
                by_submission[&(c, w)],
                output,
                "connection {c} wave {w} diverged from the in-process engine"
            );
        }
    }
}

#[test]
fn strict_admission_refuses_an_oversubscribed_model() {
    // A budget too small for the stock dense head: Admit must refuse.
    let device = device();
    let engine = ServeEngine::new(ServeConfig::new(device).with_cache_budget(1_000));
    let server = Server::start(engine, ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut client = Client::connect(stream).expect("handshake");
    assert!(client.models().is_empty(), "nothing resident at start");
    client
        .send(&ClientFrame::Admit {
            name: "alexnet_fc_sample".to_string(),
        })
        .expect("send");
    match client.recv().expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::AdmissionRefused),
        other => panic!("expected admission refusal, got {other:?}"),
    }
    // Unknown catalog names are their own error.
    client
        .send(&ClientFrame::Admit {
            name: "resnet152".to_string(),
        })
        .expect("send");
    match client.recv().expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownCatalogName),
        other => panic!("expected unknown-catalog-name, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn admit_is_idempotent_and_enables_serving() {
    let engine = ServeEngine::new(ServeConfig::new(device()));
    let server = Server::start(engine, ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut client = Client::connect(stream).expect("handshake");
    client
        .send(&ClientFrame::Admit {
            name: "lenet5".to_string(),
        })
        .expect("send");
    let first = match client.recv().expect("reply") {
        ServerFrame::Admitted { model, name } => {
            assert_eq!(name, "lenet5");
            model
        }
        other => panic!("expected admission, got {other:?}"),
    };
    // Re-admitting the same name answers with the existing id.
    client
        .send(&ClientFrame::Admit {
            name: "lenet5".to_string(),
        })
        .expect("send");
    match client.recv().expect("reply") {
        ServerFrame::Admitted { model, .. } => assert_eq!(model, first),
        other => panic!("expected idempotent admission, got {other:?}"),
    }
    // And the admitted model serves.
    let input = synthetic::activations(oxbar_nn::zoo::lenet5().input(), 6, 3);
    client
        .send(&ClientFrame::Infer {
            tag: 1,
            model: first,
            arrival: 0,
            deadline: None,
            input,
        })
        .expect("send");
    assert!(matches!(
        client.wait_completion(1).expect("reply"),
        ServerFrame::Completion { .. }
    ));
    server.shutdown();
}

#[test]
fn stats_reflect_served_requests() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut client = Client::connect(stream).expect("handshake");
    let shape = specs()[0].network.input();
    client
        .send(&ClientFrame::Infer {
            tag: 1,
            model: 0,
            arrival: 0,
            deadline: None,
            input: synthetic::activations(shape, 6, 9),
        })
        .expect("send");
    assert!(matches!(
        client.wait_completion(1).expect("reply"),
        ServerFrame::Completion { .. }
    ));
    client.send(&ClientFrame::Stats).expect("send");
    match client.recv().expect("reply") {
        ServerFrame::Stats {
            requests, queued, ..
        } => {
            assert_eq!(requests, 1);
            assert_eq!(queued, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn goodbye_during_failover_flushes_completions_before_bye() {
    // Chip 1 of a replicated pair is dead from the first dispatch, so
    // every odd-seq batch is retried onto its surviving replica. A
    // client that pipelines requests and says Goodbye must still see
    // every completion before Bye — failover never strands a request —
    // and may observe the Degraded broadcast in between.
    let mut engine = ServeEngine::new(
        ServeConfig::new(device())
            .with_policy(BatchPolicy::new(1, 0))
            .with_chips(vec![200_000, 200_000])
            .with_placement(PlacementPolicy::Replicated(2))
            .with_faults(FaultPlan::new().kill_chip(0, 1)),
    );
    for spec in specs() {
        engine.admit(spec).expect("model admits");
    }
    let server = Server::start(engine, ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut client = Client::connect(stream).expect("handshake");
    let shape = specs()[0].network.input();
    for tag in 0..3u64 {
        client
            .send(&ClientFrame::Infer {
                tag,
                model: 0,
                arrival: tag,
                deadline: None,
                input: synthetic::activations(shape, 6, tag),
            })
            .expect("send");
    }
    client.send(&ClientFrame::Goodbye).expect("send goodbye");
    let mut completions = 0u64;
    loop {
        match client.recv() {
            Ok(ServerFrame::Completion { .. }) => completions += 1,
            Ok(ServerFrame::Degraded { chip, health }) => {
                assert_eq!((chip, health.as_str()), (1, "failed"));
            }
            Ok(ServerFrame::Bye) => break,
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(e) => panic!("wire error {e}"),
        }
    }
    assert_eq!(completions, 3, "failover must not strand a request");

    // A fresh session's Stats reflect the fault: one failed chip, and
    // the odd-seq retries that failed over to the survivor.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut probe = Client::connect(stream).expect("handshake");
    probe.send(&ClientFrame::Stats).expect("send");
    match probe.recv().expect("reply") {
        ServerFrame::Stats {
            retries,
            failed_chips,
            sheds,
            ..
        } => {
            assert!(retries >= 1, "odd-seq batches retried, got {retries}");
            assert_eq!(failed_chips, 1);
            assert_eq!(sheds, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shed_requests_answer_with_a_structured_frame_and_goodbye_completes() {
    // The only chip is dead from the first dispatch: the request cannot
    // be served anywhere, so the client must get a tag-addressed Shed
    // frame (not silence), and Goodbye must still drain to Bye instead
    // of wedging on the never-coming completion.
    let mut engine = ServeEngine::new(
        ServeConfig::new(device())
            .with_chips(vec![200_000])
            .with_faults(FaultPlan::new().kill_chip(0, 0)),
    );
    for spec in specs() {
        engine.admit(spec).expect("model admits");
    }
    let server = Server::start(engine, ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut client = Client::connect(stream).expect("handshake");
    let shape = specs()[0].network.input();
    client
        .send(&ClientFrame::Infer {
            tag: 1,
            model: 0,
            arrival: 0,
            deadline: None,
            input: synthetic::activations(shape, 6, 1),
        })
        .expect("send");
    match client.wait_completion(1).expect("reply") {
        ServerFrame::Shed { tag, detail } => {
            assert_eq!(tag, 1);
            assert!(
                detail.contains("no healthy chip"),
                "shed names its cause: {detail}"
            );
        }
        other => panic!("expected a shed notice, got {other:?}"),
    }
    client.send(&ClientFrame::Goodbye).expect("send goodbye");
    loop {
        match client.recv() {
            Ok(ServerFrame::Bye) => break,
            Ok(ServerFrame::Degraded { .. }) => {}
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(e) => panic!("wire error {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn shutdown_is_clean_with_live_connections() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let client = Client::connect(stream).expect("handshake");
    // Shut down with the session idle-open; must not hang or panic.
    server.shutdown();
    drop(client);
}
