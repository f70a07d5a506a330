//! The network serving front end: a thread-per-connection TCP server
//! wrapping one [`ServeEngine`].
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──▶ accept loop ──▶ session threads (session.rs)
//!                                   │ validate, submit under the core
//!                                   │ lock, route (conn, tag)
//!                                   ▼
//!                        ┌── Core { ServeEngine, routes } ───┐
//!                        │    one mutex; submission and      │
//!                        │    drain serialize through it     │
//!                        └──────────────┬────────────────────┘
//!                                       │ dispatcher thread:
//!                                       │ coalescing window, then
//!                                       │ drain_traced()
//!                                       ▼
//!                  completions and sheds routed back per (conn, tag)
//! ```
//!
//! Every client tag has one entry in `Core::routes`: an `Infer`'s
//! request id, or a `Generate`'s sequence id for its whole token
//! stream. The dispatcher answers completions and shed notices through
//! that one table, and drops the entry with the tag's last frame.
//!
//! # Slow and vanished peers
//!
//! Every accepted socket carries a write deadline. A peer that stops
//! reading holds the dispatcher for at most one deadline: the failed
//! write shuts its socket down, so every later send to it fails at once.
//! Finished sessions' threads are reaped at each accept, so a
//! connection's thread stack is released when its session ends.
//!
//! The engine stays the pure deterministic core the rest of the
//! workspace pins: the server adds *no* scheduling of its own — it only
//! decides **when** to call `drain_traced` (after a short coalescing
//! window, so concurrent connections' requests land in one batcher
//! pass). Outputs over the wire are therefore byte-identical to an
//! in-process engine fed the same `(model, input)` pairs, which is what
//! the closed-loop benchmark asserts.
//!
//! # Admission control and backpressure
//!
//! * **Model admission** goes through [`ServeEngine::admit_strict`]: a
//!   model is admitted only if some chip can commit its full
//!   weight-stationary footprint, so a client cannot oversubscribe the
//!   cluster's cell budgets.
//! * **Request admission** is bounded by `queue_capacity`: an `Infer`
//!   arriving while the engine holds that many undrained requests draws
//!   [`ErrorCode::Backpressure`] instead of queueing, checked under the
//!   same lock as the submit so the bound is exact.
//! * **Session admission** is capped at 64 live sessions: a connection
//!   past the cap gets one `Backpressure` error frame and is closed, with
//!   no session thread.
//! * Out-of-order arrival ticks across connections are routine and
//!   handled by ordered insertion in [`ServeEngine::try_submit`] — a
//!   misbehaving client can be *refused*, never crash the server.

use crate::cluster::ChipHealth;
use crate::engine::ServeEngine;
use crate::protocol::{self, ErrorCode, ServerFrame, WireToken};
use crate::request::{RequestId, SequenceId};
use crate::session::{self, Conn};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one frame write to a peer may block. A peer that stops
/// reading stalls the dispatcher for at most this long, once: the failed
/// write closes its connection.
const WRITE_DEADLINE: Duration = Duration::from_millis(250);

/// Live sessions past which a new connection is refused.
const MAX_SESSIONS: usize = 64;

/// Tuning knobs of the network front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// How long the dispatcher waits after work appears before draining,
    /// so concurrent connections' requests coalesce into shared batches.
    pub coalesce: Duration,
    /// Submission-queue depth past which `Infer` draws `Backpressure`.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            coalesce: Duration::from_millis(2),
            queue_capacity: 256,
        }
    }
}

/// A client tag's key in the route table: one `Infer`, or one
/// `Generate` sequence's whole token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Route {
    Request(RequestId),
    Sequence(SequenceId),
}

/// Where a route's frames go.
struct Pending {
    conn: Arc<Conn>,
    tag: u64,
}

/// The engine plus the reply-routing table — everything behind the one
/// core mutex.
pub(crate) struct Core {
    pub(crate) engine: ServeEngine,
    /// One entry per in-flight client tag, removed with the tag's last
    /// frame: an `Infer`'s completion or shed, a sequence's `done` step
    /// or shed.
    routes: HashMap<Route, Pending>,
    /// Batches dispatched before the current drain: per-drain `batch_seq`
    /// restarts at 0, and this offset makes the wire-visible sequence
    /// monotone across the server's lifetime.
    batch_base: u64,
}

impl Core {
    /// Records where `route`'s frames should be delivered.
    pub(crate) fn note_route(&mut self, route: Route, conn: Arc<Conn>, tag: u64) {
        self.routes.insert(route, Pending { conn, tag });
    }

    /// Whether any in-flight tag belongs to session `conn_id`.
    pub(crate) fn has_pending_for(&self, conn_id: u64) -> bool {
        self.routes.values().any(|p| p.conn.id == conn_id)
    }
}

/// State shared by the accept loop, session threads, and the dispatcher.
pub(crate) struct Shared {
    pub(crate) core: Mutex<Core>,
    /// Signaled when work is queued (or at shutdown).
    pub(crate) work: Condvar,
    /// Signaled after each drain (Goodbye waits on it to flush).
    pub(crate) drained: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) queue_capacity: usize,
    /// Device activation ceiling (`2^bits − 1`); inputs outside `0..=v_max`
    /// are refused at the session edge.
    pub(crate) v_max: i64,
    coalesce: Duration,
}

/// A running serving front end. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop, unblocks and joins every
/// session, drains nothing further, and joins the dispatcher.
///
/// # Examples
///
/// ```no_run
/// use oxbar_serve::{catalog, Server, ServerConfig, ServeConfig, ServeEngine};
/// use oxbar_sim::SimConfig;
///
/// let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
/// engine.admit(catalog::lenet5_model()).unwrap();
/// let server = Server::start(engine, ServerConfig::default()).unwrap();
/// println!("serving on {}", server.addr());
/// server.shutdown();
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<Arc<Conn>>>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a loopback listener on an ephemeral port and starts serving
    /// `engine` behind it.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(engine: ServeEngine, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let v_max = engine.config().device.v_max();
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                engine,
                routes: HashMap::new(),
                batch_base: 0,
            }),
            work: Condvar::new(),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_capacity: config.queue_capacity,
            v_max,
            coalesce: config.coalesce,
        });
        let conns: Arc<Mutex<Vec<Arc<Conn>>>> = Arc::new(Mutex::new(Vec::new()));
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let dispatcher = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || dispatch_loop(&shared, &conns))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let sessions = Arc::clone(&sessions);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conns, &sessions))
        };
        Ok(Self {
            addr,
            shared,
            conns,
            sessions,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound loopback address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks and joins every session thread, joins
    /// the dispatcher, and returns. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Unblock every session's blocking read.
        for conn in self.conns.lock().expect("conns lock").iter() {
            conn.shutdown();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.sessions.lock().expect("sessions lock"));
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || self.dispatcher.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<Arc<Conn>>>>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        if stream.set_write_timeout(Some(WRITE_DEADLINE)).is_err() {
            continue;
        }
        let live = {
            let mut sessions = sessions.lock().expect("sessions lock");
            // Dropping a finished session's handle releases its thread stack.
            sessions.retain(|h| !h.is_finished());
            sessions.len()
        };
        if live >= MAX_SESSIONS {
            // Dropping the stream closes the refused connection.
            let refusal = ServerFrame::Error {
                tag: None,
                code: ErrorCode::Backpressure,
                detail: format!("server is at its cap of {MAX_SESSIONS} live sessions"),
            };
            let _ = protocol::write_message(&mut stream, &refusal);
            continue;
        }
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let conn = Arc::new(Conn::new(next_id, writer));
        next_id += 1;
        let id = conn.id;
        conns.lock().expect("conns lock").push(Arc::clone(&conn));
        let spawned = {
            let shared = Arc::clone(shared);
            let conns = Arc::clone(conns);
            std::thread::Builder::new().spawn(move || {
                session::run(stream, &conn, &shared);
                // Close the socket for real (the write half lives on in
                // `conns` and any pending replies) and drop the registry
                // entry, so a finished session's peer sees end-of-stream.
                conn.shutdown();
                conns
                    .lock()
                    .expect("conns lock")
                    .retain(|c| c.id != conn.id);
            })
        };
        match spawned {
            Ok(handle) => sessions.lock().expect("sessions lock").push(handle),
            // The OS refused a thread: refuse this connection and keep
            // accepting. The failed spawn dropped the session's handles on
            // the socket; dropping the registry entry closes it.
            Err(_) => conns.lock().expect("conns lock").retain(|c| c.id != id),
        }
    }
}

/// The dispatcher: waits for queued work, lets the coalescing window
/// elapse so concurrent connections share batches, drains the engine,
/// and routes completions — and shed notices — back to their sessions.
/// Chip-health transitions a drain exposes are broadcast to every live
/// session as [`ServerFrame::Degraded`].
fn dispatch_loop(shared: &Arc<Shared>, conns: &Arc<Mutex<Vec<Arc<Conn>>>>) {
    let mut last_health: Vec<ChipHealth> = Vec::new();
    loop {
        {
            let mut core = shared.core.lock().expect("core lock");
            while core.engine.queued() == 0 && !shared.shutdown.load(Ordering::SeqCst) {
                core = shared.work.wait(core).expect("core lock");
            }
            if core.engine.queued() == 0 {
                // Shutdown with an empty queue: nothing left to serve.
                return;
            }
        }
        // Coalescing window, outside the lock so sessions keep admitting.
        std::thread::sleep(shared.coalesce);
        let mut broadcasts: Vec<ServerFrame> = Vec::new();
        let replies: Vec<(Arc<Conn>, ServerFrame)> = {
            let mut core = shared.core.lock().expect("core lock");
            let trace = core.engine.drain_traced();
            let base = core.batch_base;
            core.batch_base += trace.batch_ms.len() as u64;
            let mut replies: Vec<(Arc<Conn>, ServerFrame)> = Vec::new();
            for c in trace.completions {
                // Every step of a sequence answers the sequence's tag, in
                // dispatch (= step) order; its `done` step ends the route.
                let (route, last) = match c.sequence {
                    Some(t) => (Route::Sequence(t.sequence), t.done),
                    None => (Route::Request(c.id), true),
                };
                let Some(p) = core.routes.get(&route) else {
                    continue;
                };
                let frame = ServerFrame::Completion {
                    tag: p.tag,
                    batch_seq: base + c.batch_seq as u64,
                    batch_size: c.batch_size as u64,
                    output: c.output,
                    sequence: c.sequence.map(|t| WireToken {
                        step: t.step as u64,
                        token: u64::from(t.token),
                        done: t.done,
                    }),
                };
                replies.push((Arc::clone(&p.conn), frame));
                if last {
                    core.routes.remove(&route);
                }
            }
            // A shed is the terminal answer for its tag — a request, or a
            // sequence the fault handler ended — so a client waiting on
            // the tag (or a Goodbye flush) always terminates.
            for shed in trace.sheds {
                let route = shed
                    .sequence
                    .map_or(Route::Request(shed.id), Route::Sequence);
                if let Some(p) = core.routes.remove(&route) {
                    let frame = ServerFrame::Shed {
                        tag: p.tag,
                        detail: shed.detail,
                    };
                    replies.push((p.conn, frame));
                }
            }
            let health: Vec<ChipHealth> =
                core.engine.stats().chips.iter().map(|c| c.health).collect();
            if last_health.is_empty() {
                last_health = vec![ChipHealth::Healthy; health.len()];
            }
            for (chip, (&now, &before)) in health.iter().zip(&last_health).enumerate() {
                if now != before {
                    broadcasts.push(ServerFrame::Degraded {
                        chip: chip as u64,
                        health: now.to_string(),
                    });
                }
            }
            last_health = health;
            replies
        };
        // Write outside the lock; a dead or stalled peer just drops its
        // replies (a failed send closes its socket).
        for (conn, frame) in &replies {
            let _ = conn.send(frame);
        }
        if !broadcasts.is_empty() {
            let live: Vec<Arc<Conn>> = conns.lock().expect("conns lock").clone();
            for conn in &live {
                for frame in &broadcasts {
                    let _ = conn.send(frame);
                }
            }
        }
        shared.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::engine::ServeConfig;
    use crate::protocol::{Client, ClientFrame, FrameError};
    use oxbar_nn::synthetic;
    use oxbar_sim::SimConfig;
    use std::time::Instant;

    /// A loopback connection whose reads give up after 10 s, so a wedged
    /// server fails the test instead of hanging it.
    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read deadline");
        stream
    }

    #[test]
    fn connections_past_the_session_cap_are_refused_until_a_session_ends() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let model = engine.admit(catalog::lenet5_model()).expect("lenet admits");
        let input = synthetic::activations(engine.input_shape(model), 6, 1);
        let server = Server::start(engine, ServerConfig::default()).expect("server starts");
        let mut clients: Vec<Client<TcpStream>> = (0..MAX_SESSIONS)
            .map(|_| Client::connect(connect(server.addr())).expect("under the cap: Hello"))
            .collect();

        // One past the cap: a Backpressure refusal, then end-of-stream.
        let mut refused = connect(server.addr());
        match protocol::read_message::<ServerFrame>(&mut refused) {
            Ok(ServerFrame::Error {
                tag: None,
                code: ErrorCode::Backpressure,
                ..
            }) => {}
            other => panic!("expected a Backpressure refusal, got {other:?}"),
        }
        assert!(matches!(
            protocol::read_message::<ServerFrame>(&mut refused),
            Err(FrameError::Closed)
        ));

        // An open session still serves.
        clients[0]
            .send(&ClientFrame::Infer {
                tag: 7,
                model: model.0,
                arrival: 0,
                deadline: None,
                input,
            })
            .expect("send");
        assert!(matches!(
            clients[0].wait_completion(7),
            Ok(ServerFrame::Completion { tag: 7, .. })
        ));

        // Once one session ends, a new connection is admitted.
        let mut leaving = clients.pop().expect("a live client");
        leaving.send(&ClientFrame::Goodbye).expect("goodbye");
        while !matches!(leaving.recv().expect("Bye arrives"), ServerFrame::Bye) {}
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match protocol::read_message::<ServerFrame>(&mut connect(server.addr())) {
                Ok(ServerFrame::Hello { .. }) => break,
                Ok(ServerFrame::Error {
                    code: ErrorCode::Backpressure,
                    ..
                }) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
                other => panic!("no connection admitted after a Goodbye: {other:?}"),
            }
        }
        server.shutdown();
    }
}
