//! Connection churn: a server that has accepted and finished thousands
//! of sessions holds no more address space than one that has served a
//! few, because each finished session's thread is reaped. A test binary
//! of its own, since `VmSize` counts the whole process.

#![cfg(target_os = "linux")]

use oxbar_nn::synthetic::small_network;
use oxbar_serve::protocol::{Client, ClientFrame, ServerFrame};
use oxbar_serve::{catalog, ServeConfig, ServeEngine, Server, ServerConfig};
use oxbar_sim::SimConfig;
use std::net::TcpStream;
use std::time::Duration;

/// The process's virtual address-space size, in KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmSize line in kB")
}

/// One session: connect, read the greeting, say Goodbye, read Bye.
fn session(server: &Server) {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let deadline = Some(Duration::from_secs(30));
    let mut client = Client::connect_with_timeouts(stream, deadline, deadline).expect("handshake");
    client.send(&ClientFrame::Goodbye).expect("send goodbye");
    assert_eq!(client.recv().expect("reply"), ServerFrame::Bye);
}

#[test]
fn finished_sessions_release_their_threads() {
    let device = SimConfig::ideal(32, 16).with_threads(1);
    let mut engine = ServeEngine::new(ServeConfig::new(device));
    engine
        .admit(catalog::spec_from_network(small_network(11), 0x51))
        .expect("model admits");
    let server = Server::start(engine, ServerConfig::default()).expect("server binds loopback");
    // Warm-up: the allocator's per-thread arenas and other first-use
    // mappings land before the baseline.
    for _ in 0..50 {
        session(&server);
    }
    let before = vm_size_kib();
    for _ in 0..2_000 {
        session(&server);
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    // A leaked 2 MiB stack per session would grow it by about 4 GiB;
    // the bound leaves room for a few 64 MiB malloc arenas.
    assert!(
        grown_mib < 256,
        "2,000 sessions grew VmSize by {grown_mib} MiB"
    );
    server.shutdown();
}
