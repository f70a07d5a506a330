//! Wire-protocol behavior of autoregressive generation: per-token
//! completion streaming on one tag, Goodbye draining an in-flight
//! sequence before `Bye`, a sequence the fault handler sheds ending its
//! tag with a `Shed` frame, and malformed `Generate` requests answered
//! with structured errors that never kill the connection.

use oxbar_nn::synthetic;
use oxbar_serve::protocol::{Client, ClientFrame, ErrorCode, ServerFrame};
use oxbar_serve::{catalog, FaultPlan, ServeConfig, ServeEngine, Server, ServerConfig};
use oxbar_sim::SimConfig;
use std::net::TcpStream;
use std::time::Duration;

fn engine() -> ServeEngine {
    engine_with(FaultPlan::new())
}

fn engine_with(faults: FaultPlan) -> ServeEngine {
    let config = ServeConfig::new(SimConfig::ideal(64, 64).with_threads(1)).with_faults(faults);
    let mut engine = ServeEngine::new(config);
    engine.admit(catalog::lenet5_model()).expect("lenet admits");
    engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    engine
}

fn connect(server: &Server) -> Client<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    Client::connect(stream).expect("handshake")
}

/// The in-process token stream the wire must reproduce.
fn oracle_tokens(prompt: u32, steps: usize) -> Vec<u32> {
    let mut engine = engine();
    let llm = oxbar_serve::ModelId(1);
    let seq = engine
        .begin_sequence(llm, prompt, steps, 0, 1)
        .expect("sequence");
    engine.drain_traced();
    engine.sequence_tokens(seq).to_vec()
}

#[test]
fn generate_streams_tokens_in_order_on_one_tag() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server starts");
    let mut client = connect(&server);
    assert_eq!(client.models().len(), 2);
    let llm = client.models()[1].model;
    let lenet = client.models()[0].model;

    // A pipelined Infer on another tag, interleaved with the sequence,
    // exercises the client-side buffering: sequence frames must come
    // back in step order regardless of what else shares the wire.
    let shape = oxbar_nn::TensorShape::new(
        client.models()[0].input_h,
        client.models()[0].input_w,
        client.models()[0].input_c,
    );
    let input = synthetic::activations(shape, 6, 9);
    client
        .send(&ClientFrame::Infer {
            tag: 99,
            model: lenet,
            arrival: 0,
            deadline: None,
            input,
        })
        .expect("send infer");
    client
        .send(&ClientFrame::Generate {
            tag: 7,
            model: llm,
            prompt: 5,
            steps: 6,
            arrival: 0,
            interval: 1,
        })
        .expect("send generate");

    let frames = client.wait_sequence(7).expect("sequence stream");
    assert_eq!(frames.len(), 6, "one frame per decode step");
    let want = oracle_tokens(5, 6);
    for (i, frame) in frames.iter().enumerate() {
        let ServerFrame::Completion {
            tag,
            output,
            sequence: Some(token),
            ..
        } = frame
        else {
            panic!("expected a token completion, got {frame:?}");
        };
        assert_eq!(*tag, 7, "every step answers the Generate tag");
        assert_eq!(token.step as usize, i, "steps stream in order");
        assert_eq!(token.token, u64::from(want[i]), "wire == in-process");
        assert_eq!(token.done, i == 5, "done marks exactly the last step");
        assert_eq!(output.data().len(), 32, "logits: one lane per vocab entry");
    }

    // The interleaved Infer still answers its own tag.
    match client.wait_completion(99).expect("infer completes") {
        ServerFrame::Completion { tag, sequence, .. } => {
            assert_eq!(tag, 99);
            assert!(sequence.is_none(), "plain inference carries no token");
        }
        other => panic!("expected completion, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn goodbye_mid_sequence_drains_every_token_before_bye() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server starts");
    let mut client = connect(&server);
    let llm = client.models()[1].model;
    client
        .send(&ClientFrame::Generate {
            tag: 3,
            model: llm,
            prompt: 11,
            steps: 5,
            arrival: 0,
            interval: 1,
        })
        .expect("send generate");
    // Goodbye races the sequence: the session must hold the Bye until
    // every in-flight token has been delivered.
    client.send(&ClientFrame::Goodbye).expect("send goodbye");

    let mut steps = Vec::new();
    loop {
        match client.recv().expect("frame before close") {
            ServerFrame::Completion {
                tag,
                sequence: Some(token),
                ..
            } => {
                assert_eq!(tag, 3);
                steps.push((token.step, token.token, token.done));
            }
            ServerFrame::Bye => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(steps.len(), 5, "all five tokens arrive before Bye");
    let want = oracle_tokens(11, 5);
    for (i, (step, token, done)) in steps.iter().enumerate() {
        assert_eq!(*step as usize, i);
        assert_eq!(*token, u64::from(want[i]));
        assert_eq!(*done, i == 4);
    }
    server.shutdown();
}

#[test]
fn a_shed_sequence_ends_its_tag_with_a_shed_frame() {
    // One chip, killed before the fourth dispatched batch: steps 0-2
    // decode, step 3 has no healthy chip left, and the whole sequence
    // sheds.
    let engine = engine_with(FaultPlan::new().kill_chip(3, 0));
    let server = Server::start(engine, ServerConfig::default()).expect("server starts");
    let mut client = connect(&server);
    let llm = client.models()[1].model;
    client
        .send(&ClientFrame::Generate {
            tag: 8,
            model: llm,
            prompt: 5,
            steps: 8,
            arrival: 0,
            interval: 1,
        })
        .expect("send generate");

    let frames = client.wait_sequence(8).expect("sequence stream");
    assert_eq!(frames.len(), 4, "three tokens, then the shed: {frames:?}");
    let want = oracle_tokens(5, 8);
    for (i, frame) in frames[..3].iter().enumerate() {
        let ServerFrame::Completion {
            tag,
            sequence: Some(token),
            ..
        } = frame
        else {
            panic!("expected a token completion, got {frame:?}");
        };
        assert_eq!(*tag, 8, "every step answers the Generate tag");
        assert_eq!(token.step as usize, i, "steps stream in order");
        assert_eq!(token.token, u64::from(want[i]), "wire == in-process");
        assert!(!token.done, "the shed sequence never reaches its last step");
    }
    assert!(
        matches!(frames[3], ServerFrame::Shed { tag: 8, .. }),
        "the shed is the tag's terminal frame: {:?}",
        frames[3]
    );

    // Nothing is left in flight: Goodbye drains straight to Bye.
    client.send(&ClientFrame::Goodbye).expect("send goodbye");
    loop {
        match client.recv().expect("frame before close") {
            ServerFrame::Bye => break,
            ServerFrame::Degraded { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn malformed_generate_is_refused_without_killing_the_session() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server starts");
    let mut client = connect(&server);
    let llm = client.models()[1].model;
    let lenet = client.models()[0].model;

    let refusals = [
        // Unadmitted model id.
        (
            ClientFrame::Generate {
                tag: 1,
                model: 42,
                prompt: 0,
                steps: 4,
                arrival: 0,
                interval: 1,
            },
            ErrorCode::UnknownModel,
        ),
        // A CNN is not a language model.
        (
            ClientFrame::Generate {
                tag: 2,
                model: lenet,
                prompt: 0,
                steps: 4,
                arrival: 0,
                interval: 1,
            },
            ErrorCode::Unsupported,
        ),
        // Prompt outside the 32-token vocabulary.
        (
            ClientFrame::Generate {
                tag: 3,
                model: llm,
                prompt: 700,
                steps: 4,
                arrival: 0,
                interval: 1,
            },
            ErrorCode::BadInput,
        ),
        // Zero steps.
        (
            ClientFrame::Generate {
                tag: 4,
                model: llm,
                prompt: 0,
                steps: 0,
                arrival: 0,
                interval: 1,
            },
            ErrorCode::BadInput,
        ),
    ];
    for (frame, want) in refusals {
        let tag = match frame {
            ClientFrame::Generate { tag, .. } => tag,
            _ => unreachable!(),
        };
        client.send(&frame).expect("send");
        match client.wait_completion(tag).expect("structured refusal") {
            ServerFrame::Error { tag: t, code, .. } => {
                assert_eq!(t, Some(tag));
                assert_eq!(code, want);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    // The session survived every refusal: a valid sequence still runs.
    client
        .send(&ClientFrame::Generate {
            tag: 50,
            model: llm,
            prompt: 1,
            steps: 3,
            arrival: 0,
            interval: 1,
        })
        .expect("send");
    let frames = client.wait_sequence(50).expect("sequence stream");
    assert_eq!(frames.len(), 3);
    assert!(matches!(
        frames.last(),
        Some(ServerFrame::Completion {
            sequence: Some(token),
            ..
        }) if token.done
    ));
    server.shutdown();
}
