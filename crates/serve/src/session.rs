//! One network session: the per-connection read loop, request
//! validation, and reply routing of the serving front end.
//!
//! # Session lifecycle
//!
//! 1. On accept the server sends [`ServerFrame::Hello`] with the resident
//!    catalog and the session's operating limits.
//! 2. The session thread then reads [`ClientFrame`]s until the peer says
//!    [`ClientFrame::Goodbye`] (answered with [`ServerFrame::Bye`] after
//!    the session's in-flight requests drain), closes the stream on a
//!    frame boundary, or damages the framing.
//! 3. Validation failures are *answers*, not disconnects: an unknown
//!    model, a bad tensor, or a full queue draws a
//!    [`ServerFrame::Error`] and the session keeps serving. Only framing
//!    damage (truncated/oversized frames, I/O errors) ends the session,
//!    because the byte stream cannot be resynchronized after it.
//! 4. A mid-request disconnect is a non-event for the engine: the
//!    request still executes, and its completion is dropped when the
//!    write to the dead peer fails. So is a peer that stops reading: a
//!    write blocked past the socket's write deadline fails, and any
//!    failed write shuts the socket down, which ends the session too.
//!
//! `Infer` and `Generate` differ only in their edge validation; both then
//! go through one submit path (backpressure, engine call, route insert,
//! refusal mapping, dispatcher wake-up).
//!
//! Completions are written by the server's dispatcher thread (not this
//! one); both serialize frames through the connection's writer lock, so
//! frames never interleave mid-bytes.

use crate::cluster::ChipHealth;
use crate::engine::{ServeEngine, SubmitError};
use crate::protocol::{
    self, ClientFrame, ErrorCode, FrameError, ServerFrame, WireModel, MAX_FRAME_BYTES,
};
use crate::request::{InferRequest, ModelId};
use crate::server::{Route, Shared};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One live connection's write half, shared between the session thread
/// (errors, acks) and the dispatcher thread (completions).
pub(crate) struct Conn {
    /// Session id (accept order) — used to find this session's in-flight
    /// requests at Goodbye time.
    pub(crate) id: u64,
    writer: Mutex<TcpStream>,
}

impl Conn {
    pub(crate) fn new(id: u64, writer: TcpStream) -> Self {
        Self {
            id,
            writer: Mutex::new(writer),
        }
    }

    /// Writes one frame; an error means the peer is gone or stopped
    /// reading, which every caller treats as "drop the reply". A failed
    /// write may have left half a frame on the wire, so it shuts the
    /// socket down: every later send fails at once.
    pub(crate) fn send(&self, frame: &ServerFrame) -> io::Result<()> {
        let mut writer = self.writer.lock().expect("writer lock");
        let sent = protocol::write_message(&mut *writer, frame);
        if sent.is_err() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        sent
    }

    /// Shuts the socket down (both halves), unblocking the session
    /// thread's blocking read. Used by server shutdown.
    pub(crate) fn shutdown(&self) {
        let writer = self.writer.lock().expect("writer lock");
        let _ = writer.shutdown(std::net::Shutdown::Both);
    }
}

/// What one handled frame means for the read loop.
enum Flow {
    Continue,
    Close,
}

/// Runs one session to completion. Never panics on peer input.
pub(crate) fn run(mut reader: TcpStream, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    if conn.send(&hello(shared)).is_err() {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = conn.send(&ServerFrame::Bye);
            return;
        }
        match protocol::read_message::<ClientFrame>(&mut reader) {
            Ok(frame) => match handle(frame, conn, shared) {
                Flow::Continue => {}
                Flow::Close => return,
            },
            // Clean close on a frame boundary: the normal end.
            Err(FrameError::Closed) => return,
            // A read deadline expired. The server never configures one
            // today, but if a deployment does (e.g. to poll the
            // shutdown flag), the stream is still synchronized — loop
            // and keep waiting.
            Err(FrameError::Timeout) => {}
            // The frame was delimited but its payload didn't decode: the
            // stream is still synchronized, so answer and keep serving.
            Err(FrameError::Malformed(detail)) => {
                if conn
                    .send(&ServerFrame::Error {
                        tag: None,
                        code: ErrorCode::MalformedFrame,
                        detail,
                    })
                    .is_err()
                {
                    return;
                }
            }
            // Framing damage: the byte stream cannot be resynchronized.
            // Best-effort error, then close.
            Err(e @ (FrameError::Truncated | FrameError::Oversized(_) | FrameError::Io(_))) => {
                let _ = conn.send(&ServerFrame::Error {
                    tag: None,
                    code: ErrorCode::MalformedFrame,
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
}

/// The greeting: resident catalog + session limits.
fn hello(shared: &Arc<Shared>) -> ServerFrame {
    let core = shared.core.lock().expect("core lock");
    let registry = core.engine.registry();
    let models = (0..registry.len())
        .map(|index| {
            let id = ModelId(index);
            let shape = registry.input_shape(id);
            WireModel {
                model: index,
                name: registry.spec(id).name.clone(),
                input_h: shape.h,
                input_w: shape.w,
                input_c: shape.c,
            }
        })
        .collect();
    ServerFrame::Hello {
        models,
        max_frame: MAX_FRAME_BYTES as u64,
        queue_capacity: shared.queue_capacity as u64,
    }
}

fn handle(frame: ClientFrame, conn: &Arc<Conn>, shared: &Arc<Shared>) -> Flow {
    match frame {
        ClientFrame::Infer {
            tag,
            model,
            arrival,
            deadline,
            input,
        } => {
            // Device range check on the untrusted activations: values a
            // debug build would overflow on must never reach execution.
            if let Some(&bad) = input.data().iter().find(|v| **v < 0 || **v > shared.v_max) {
                let detail = format!(
                    "activation {bad} outside the device range 0..={}",
                    shared.v_max
                );
                return refuse(conn, tag, ErrorCode::BadInput, detail);
            }
            let request = InferRequest {
                model: ModelId(model),
                input,
                arrival,
                deadline,
            };
            submit(conn, shared, tag, |engine| {
                engine.try_submit(request).map(Route::Request)
            })
        }
        ClientFrame::Generate {
            tag,
            model,
            prompt,
            steps,
            arrival,
            interval,
        } => {
            // Narrow the wire-width fields before they reach the engine;
            // out-of-range values are client errors, not panics.
            let (Ok(prompt), Ok(steps)) = (u32::try_from(prompt), usize::try_from(steps)) else {
                let detail = "prompt or steps exceeds the supported range".to_string();
                return refuse(conn, tag, ErrorCode::BadInput, detail);
            };
            // The sequence's first token step enters the queue on begin,
            // so the same backpressure bound as `Infer` applies.
            submit(conn, shared, tag, |engine| {
                engine
                    .begin_sequence(ModelId(model), prompt, steps, arrival, interval)
                    .map(Route::Sequence)
            })
        }
        ClientFrame::Admit { name } => {
            // Build the named model before taking the core lock: it
            // synthesizes filter banks for milliseconds, and every
            // submit and drain waits on that lock.
            let spec = crate::catalog::by_name(&name);
            let response = {
                let mut core = shared.core.lock().expect("core lock");
                // Idempotent: an already-resident name answers with its
                // existing id instead of admitting a duplicate.
                let existing = (0..core.engine.registry().len())
                    .find(|&i| core.engine.registry().spec(ModelId(i)).name == name);
                if let Some(model) = existing {
                    ServerFrame::Admitted { name, model }
                } else {
                    match spec {
                        None => ServerFrame::Error {
                            tag: None,
                            code: ErrorCode::UnknownCatalogName,
                            detail: format!("no stock catalog model named {name:?}"),
                        },
                        Some(spec) => match core.engine.admit_strict(spec) {
                            Ok(id) => ServerFrame::Admitted { name, model: id.0 },
                            Err(e) => ServerFrame::Error {
                                tag: None,
                                code: ErrorCode::AdmissionRefused,
                                detail: e.to_string(),
                            },
                        },
                    }
                }
            };
            reply(conn, &response)
        }
        ClientFrame::Stats => {
            let response = {
                let core = shared.core.lock().expect("core lock");
                let stats = core.engine.stats();
                let degraded = stats
                    .chips
                    .iter()
                    .filter(|c| c.health == ChipHealth::Degraded)
                    .count();
                let failed = stats
                    .chips
                    .iter()
                    .filter(|c| c.health == ChipHealth::Failed)
                    .count();
                ServerFrame::Stats {
                    requests: stats.requests,
                    batches: stats.batches,
                    queued: core.engine.queued() as u64,
                    occupancy_cells: stats.occupancy_cells as u64,
                    budget_cells: stats.budget_cells as u64,
                    retries: stats.retries,
                    sheds: stats.sheds,
                    recoveries: stats.recoveries,
                    degraded_chips: degraded as u64,
                    failed_chips: failed as u64,
                }
            };
            reply(conn, &response)
        }
        ClientFrame::Goodbye => {
            // Flush this session's in-flight requests before
            // acknowledging, so a well-behaved client that waits for Bye
            // has seen every completion it is owed.
            let mut core = shared.core.lock().expect("core lock");
            while core.has_pending_for(conn.id) && !shared.shutdown.load(Ordering::SeqCst) {
                shared.work.notify_one();
                let (guard, _) = shared
                    .drained
                    .wait_timeout(core, Duration::from_millis(50))
                    .expect("core lock");
                core = guard;
            }
            drop(core);
            let _ = conn.send(&ServerFrame::Bye);
            Flow::Close
        }
    }
}

/// The one submit path: under the core lock, refuse with `Backpressure`
/// once the queue holds `queue_capacity` undrained requests (so the bound
/// is exact), else run `begin` against the engine and route its frames to
/// `(conn, tag)`; a refusal answers the tag, a submit wakes the
/// dispatcher.
fn submit(
    conn: &Arc<Conn>,
    shared: &Arc<Shared>,
    tag: u64,
    begin: impl FnOnce(&mut ServeEngine) -> Result<Route, SubmitError>,
) -> Flow {
    let refusal = {
        let mut core = shared.core.lock().expect("core lock");
        if core.engine.queued() >= shared.queue_capacity {
            let detail = format!(
                "queue at capacity ({}); retry after completions drain",
                shared.queue_capacity
            );
            Some((ErrorCode::Backpressure, detail))
        } else {
            match begin(&mut core.engine) {
                Ok(route) => {
                    core.note_route(route, Arc::clone(conn), tag);
                    None
                }
                Err(e) => {
                    let code = match e {
                        SubmitError::UnknownModel(_) => ErrorCode::UnknownModel,
                        SubmitError::NotLanguageModel(_) => ErrorCode::Unsupported,
                        SubmitError::ShapeMismatch { .. }
                        | SubmitError::MalformedTensor { .. }
                        | SubmitError::BadToken { .. }
                        | SubmitError::BadSteps { .. } => ErrorCode::BadInput,
                    };
                    Some((code, e.to_string()))
                }
            }
        }
    };
    match refusal {
        None => {
            shared.work.notify_one();
            Flow::Continue
        }
        Some((code, detail)) => refuse(conn, tag, code, detail),
    }
}

/// Answers `tag` with a refusal; a dead peer closes the session.
fn refuse(conn: &Arc<Conn>, tag: u64, code: ErrorCode, detail: String) -> Flow {
    let error = ServerFrame::Error {
        tag: Some(tag),
        code,
        detail,
    };
    reply(conn, &error)
}

/// Sends a reply; a dead peer closes the session.
fn reply(conn: &Arc<Conn>, frame: &ServerFrame) -> Flow {
    if conn.send(frame).is_err() {
        Flow::Close
    } else {
        Flow::Continue
    }
}
