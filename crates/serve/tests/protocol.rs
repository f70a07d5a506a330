//! Protocol robustness: nothing a client can put on the wire may panic
//! the server or wedge a session. Truncated prefixes, oversized frames,
//! malformed payloads, unknown models, inconsistent tensors, hostile
//! activation values, and mid-request disconnects all end in a wire
//! error or a clean close — and the server keeps serving afterwards.

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::protocol::{
    self, Client, ClientError, ClientFrame, ErrorCode, FrameError, ServerFrame,
};
use oxbar_serve::{catalog, ServeConfig, ServeEngine, Server, ServerConfig};
use oxbar_sim::SimConfig;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A small, fast server: two synthetic models on an ideal device.
fn start_server(config: ServerConfig) -> Server {
    let device = SimConfig::ideal(32, 16).with_threads(1);
    let mut engine = ServeEngine::new(ServeConfig::new(device));
    engine
        .admit(catalog::spec_from_network(small_network(11), 0x51))
        .expect("model admits");
    engine
        .admit(catalog::spec_from_network(small_network(23), 0x52))
        .expect("model admits");
    Server::start(engine, config).expect("server binds loopback")
}

fn connect(server: &Server) -> Client<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("loopback connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    Client::connect(stream).expect("handshake")
}

fn infer_frame(client: &Client<TcpStream>, tag: u64, model: usize) -> ClientFrame {
    let m = &client.models()[model];
    let shape = oxbar_nn::TensorShape::new(m.input_h, m.input_w, m.input_c);
    ClientFrame::Infer {
        tag,
        model,
        arrival: 0,
        deadline: None,
        input: synthetic::activations(shape, 6, tag),
    }
}

/// Asserts the server still answers a fresh, well-formed session — the
/// "not wedged, not panicked" probe every robustness test ends with.
fn assert_still_serving(server: &Server) {
    let mut client = connect(server);
    let frame = infer_frame(&client, 7777, 0);
    client.send(&frame).expect("send");
    match client.wait_completion(7777).expect("completion") {
        ServerFrame::Completion { tag, .. } => assert_eq!(tag, 7777),
        other => panic!("expected a completion, got {other:?}"),
    }
}

#[test]
fn truncated_length_prefix_closes_cleanly() {
    let server = start_server(ServerConfig::default());
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Two bytes of a four-byte prefix, then a hard close.
        stream.write_all(&[0u8, 0]).expect("partial prefix");
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn truncated_payload_closes_cleanly() {
    let server = start_server(ServerConfig::default());
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // A prefix promising 100 bytes, followed by only 3.
        stream
            .write_all(&u32::to_be_bytes(100))
            .expect("full prefix");
        stream.write_all(b"abc").expect("short payload");
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn oversized_frame_is_refused_and_session_closed() {
    let server = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // Drain the greeting first so the next frame we read is the error.
    let hello: ServerFrame = protocol::read_message(&mut stream).expect("hello");
    assert!(matches!(hello, ServerFrame::Hello { .. }));
    // A length prefix far past MAX_FRAME_BYTES; no payload needed.
    stream
        .write_all(&u32::to_be_bytes(u32::MAX))
        .expect("hostile prefix");
    match protocol::read_message::<ServerFrame>(&mut stream).expect("error frame") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected a framing error, got {other:?}"),
    }
    // After framing damage the server closes the session.
    assert_eq!(
        protocol::read_message::<ServerFrame>(&mut stream),
        Err(FrameError::Closed)
    );
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn malformed_json_draws_an_error_and_the_session_continues() {
    let server = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let hello: ServerFrame = protocol::read_message(&mut stream).expect("hello");
    let ServerFrame::Hello { models, .. } = hello else {
        panic!("expected Hello");
    };
    // A perfectly delimited frame of garbage.
    protocol::write_frame(&mut stream, b"{{{ not json").expect("garbage frame");
    match protocol::read_message::<ServerFrame>(&mut stream).expect("error frame") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected a malformed-frame error, got {other:?}"),
    }
    // The frame boundary was intact, so the same session keeps working.
    let shape = oxbar_nn::TensorShape::new(models[0].input_h, models[0].input_w, models[0].input_c);
    let frame = ClientFrame::Infer {
        tag: 1,
        model: 0,
        arrival: 0,
        deadline: None,
        input: synthetic::activations(shape, 6, 1),
    };
    protocol::write_message(&mut stream, &frame).expect("valid infer");
    match protocol::read_message::<ServerFrame>(&mut stream).expect("completion") {
        ServerFrame::Completion { tag, .. } => assert_eq!(tag, 1),
        other => panic!("expected a completion, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn deeply_nested_json_draws_an_error_and_the_session_continues() {
    // 10,000 nested arrays: a 10 KB frame, far under the frame cap, that
    // would overflow a session thread's stack in an unbounded
    // recursive-descent parser and abort the whole server.
    let server = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let hello: ServerFrame = protocol::read_message(&mut stream).expect("hello");
    let ServerFrame::Hello { models, .. } = hello else {
        panic!("expected Hello");
    };
    let nested = "[".repeat(10_000) + &"]".repeat(10_000);
    protocol::write_frame(&mut stream, nested.as_bytes()).expect("nested frame");
    match protocol::read_message::<ServerFrame>(&mut stream).expect("error frame") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected a malformed-frame error, got {other:?}"),
    }
    // The same session keeps serving.
    let shape = oxbar_nn::TensorShape::new(models[0].input_h, models[0].input_w, models[0].input_c);
    let frame = ClientFrame::Infer {
        tag: 2,
        model: 0,
        arrival: 0,
        deadline: None,
        input: synthetic::activations(shape, 6, 2),
    };
    protocol::write_message(&mut stream, &frame).expect("valid infer");
    match protocol::read_message::<ServerFrame>(&mut stream).expect("completion") {
        ServerFrame::Completion { tag, .. } => assert_eq!(tag, 2),
        other => panic!("expected a completion, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_model_and_bad_tensors_are_wire_errors() {
    let server = start_server(ServerConfig::default());
    let mut client = connect(&server);

    // Unknown model id.
    let mut frame = infer_frame(&client, 1, 0);
    if let ClientFrame::Infer { model, .. } = &mut frame {
        *model = 99;
    }
    client.send(&frame).expect("send");
    match client.wait_completion(1).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected unknown-model, got {other:?}"),
    }

    // Wrong input shape.
    let wrong_shape = ClientFrame::Infer {
        tag: 2,
        model: 0,
        arrival: 0,
        deadline: None,
        input: synthetic::activations(oxbar_nn::TensorShape::new(1, 1, 1), 6, 2),
    };
    client.send(&wrong_shape).expect("send");
    match client.wait_completion(2).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("expected bad-input, got {other:?}"),
    }

    // Activation values outside the device range (would overflow a debug
    // build if they ever reached execution).
    let mut hostile = infer_frame(&client, 3, 0);
    if let ClientFrame::Infer { input, .. } = &mut hostile {
        let shape = input.shape();
        let mut data = input.data().to_vec();
        data[0] = i64::MAX / 2;
        *input = oxbar_nn::reference::Tensor3::new(shape, data);
    }
    client.send(&hostile).expect("send");
    match client.wait_completion(3).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("expected bad-input, got {other:?}"),
    }

    // The session still serves after every rejection.
    let ok = infer_frame(&client, 4, 0);
    client.send(&ok).expect("send");
    assert!(matches!(
        client.wait_completion(4).expect("reply"),
        ServerFrame::Completion { .. }
    ));
    server.shutdown();
}

#[test]
fn internally_inconsistent_tensor_is_a_wire_error() {
    let server = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let hello: ServerFrame = protocol::read_message(&mut stream).expect("hello");
    let ServerFrame::Hello { models, .. } = hello else {
        panic!("expected Hello");
    };
    // Hand-crafted JSON: the declared shape matches the model, but the
    // data array is one element short — impossible to build in-process
    // (Tensor3::new validates), possible on the wire (derive-based
    // deserialization bypasses the constructor).
    let m = &models[0];
    let payload = format!(
        "{{\"Infer\":{{\"tag\":5,\"model\":0,\"arrival\":0,\"deadline\":null,\
         \"input\":{{\"shape\":{{\"h\":{},\"w\":{},\"c\":{}}},\"data\":[1]}}}}}}",
        m.input_h, m.input_w, m.input_c
    );
    protocol::write_frame(&mut stream, payload.as_bytes()).expect("crafted frame");
    match protocol::read_message::<ServerFrame>(&mut stream).expect("reply") {
        ServerFrame::Error { tag, code, .. } => {
            assert_eq!(tag, Some(5));
            assert_eq!(code, ErrorCode::BadInput);
        }
        other => panic!("expected bad-input, got {other:?}"),
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_wedge_the_server() {
    let server = start_server(ServerConfig::default());
    {
        let mut client = connect(&server);
        let frame = infer_frame(&client, 1, 0);
        client.send(&frame).expect("send");
        // Drop the connection with the request in flight.
    }
    // The request still executes; its reply lands on a dead socket and
    // is dropped. New sessions are unaffected.
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn deep_queue_draws_backpressure() {
    // Capacity 1 and a long coalescing window: the second submission
    // must be refused while the first is still queued.
    let server = start_server(ServerConfig {
        coalesce: Duration::from_millis(400),
        queue_capacity: 1,
    });
    let mut client = connect(&server);
    let first = infer_frame(&client, 1, 0);
    client.send(&first).expect("send");
    let second = infer_frame(&client, 2, 0);
    client.send(&second).expect("send");
    match client.wait_completion(2).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::Backpressure),
        other => panic!("expected backpressure, got {other:?}"),
    }
    // The first request still completes once the window elapses.
    assert!(matches!(
        client.wait_completion(1).expect("reply"),
        ServerFrame::Completion { .. }
    ));
    server.shutdown();
}

#[test]
fn goodbye_flushes_and_acknowledges() {
    let server = start_server(ServerConfig::default());
    let mut client = connect(&server);
    let frame = infer_frame(&client, 1, 0);
    client.send(&frame).expect("send");
    client.send(&ClientFrame::Goodbye).expect("send goodbye");
    // The completion must arrive before (or be buffered alongside) Bye.
    let mut saw_completion = false;
    let mut saw_bye = false;
    loop {
        match client.recv() {
            Ok(ServerFrame::Completion { tag, .. }) => {
                assert_eq!(tag, 1);
                saw_completion = true;
            }
            Ok(ServerFrame::Bye) => {
                saw_bye = true;
                break;
            }
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(ClientError::Frame(FrameError::Closed)) => break,
            Err(e) => panic!("wire error {e}"),
        }
    }
    assert!(saw_completion, "Goodbye must flush in-flight completions");
    assert!(saw_bye, "Goodbye is acknowledged with Bye");
    server.shutdown();
}
