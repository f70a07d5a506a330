//! The wire protocol of the network serving front end: length-prefixed
//! JSON frames over a byte stream.
//!
//! # Frame format
//!
//! Every message — both directions — is one *frame*:
//!
//! ```text
//! ┌──────────────────┬──────────────────────────────┐
//! │ length: u32 (BE) │ payload: `length` JSON bytes │
//! └──────────────────┴──────────────────────────────┘
//! ```
//!
//! The payload is the JSON encoding (through the workspace serde shim) of
//! one [`ClientFrame`] or [`ServerFrame`]. A frame longer than
//! [`MAX_FRAME_BYTES`] is rejected without being read — the length prefix
//! alone is enough to refuse it, so an attacker cannot make the server
//! buffer an arbitrarily large payload. A connection that closes exactly
//! on a frame boundary is a *clean close* ([`FrameError::Closed`]);
//! anywhere else it is [`FrameError::Truncated`].
//!
//! # Robustness contract
//!
//! Nothing a peer puts on the wire may panic this side: every decode
//! failure is a structured [`FrameError`], and the server answers
//! malformed input with a [`ServerFrame::Error`] carrying an
//! [`ErrorCode`] rather than tearing the session down (except for framing
//! damage, after which the byte stream is unrecoverable and the session
//! closes). `tests/protocol.rs` pins truncated prefixes, oversized
//! frames, malformed payloads, unknown models, and mid-request
//! disconnects.

use oxbar_nn::reference::Tensor3;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard ceiling on one frame's payload, in bytes. Large enough for any
/// catalog model's input tensor with room to spare; small enough that a
/// hostile length prefix cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Why a frame could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the stream exactly on a frame boundary — the
    /// normal end of a session.
    Closed,
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The payload is not valid JSON for the expected message type.
    Malformed(String),
    /// A read or write deadline expired before the frame completed —
    /// the stream had a timeout configured and the peer went quiet
    /// (e.g. a half-open TCP connection).
    Timeout,
    /// An I/O error other than end-of-stream.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => write!(f, "stream closed on a frame boundary"),
            Self::Truncated => write!(f, "stream truncated mid-frame"),
            Self::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            Self::Malformed(detail) => write!(f, "malformed frame payload: {detail}"),
            Self::Timeout => write!(f, "read/write deadline expired mid-frame"),
            Self::Io(detail) => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an I/O error is a stream deadline expiring. Blocking sockets
/// with `set_read_timeout`/`set_write_timeout` report `WouldBlock` on
/// Unix and `TimedOut` on Windows; both mean the same wire condition.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Classifies a raw I/O failure as [`FrameError::Timeout`] or
/// [`FrameError::Io`].
fn io_frame_error(e: &io::Error) -> FrameError {
    if is_timeout(e) {
        FrameError::Timeout
    } else {
        FrameError::Io(e.to_string())
    }
}

/// Reads one raw frame payload.
///
/// # Errors
///
/// [`FrameError::Closed`] on end-of-stream at a frame boundary,
/// [`FrameError::Truncated`] on end-of-stream anywhere inside a frame,
/// [`FrameError::Oversized`] when the prefix exceeds [`MAX_FRAME_BYTES`]
/// (nothing past the prefix is read), and [`FrameError::Io`] for other
/// I/O failures.
pub fn read_frame(stream: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match stream.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_frame_error(&e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_frame_error(&e)),
        }
    }
    Ok(payload)
}

/// Writes one raw frame (length prefix + payload).
///
/// # Errors
///
/// Propagates the underlying I/O error; panics never.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — a caller bug, not a
/// wire condition (writers frame only messages they built themselves).
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "outbound frame exceeds MAX_FRAME_BYTES"
    );
    stream.write_all(&u32::to_be_bytes(payload.len() as u32))?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads and decodes one typed message.
///
/// # Errors
///
/// Everything [`read_frame`] returns, plus [`FrameError::Malformed`] when
/// the payload does not decode as `T`.
pub fn read_message<T: Deserialize>(stream: &mut impl Read) -> Result<T, FrameError> {
    let payload = read_frame(stream)?;
    let text = String::from_utf8(payload).map_err(|e| FrameError::Malformed(e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Encodes and writes one typed message.
///
/// # Errors
///
/// Propagates the underlying I/O error.
///
/// # Panics
///
/// Panics if `message` cannot be serialized (a type-level bug, not a wire
/// condition).
pub fn write_message<T: Serialize>(stream: &mut impl Write, message: &T) -> io::Result<()> {
    let text = serde_json::to_string(message).expect("wire messages serialize");
    write_frame(stream, text.as_bytes())
}

/// The sequence facts attached to a token-step
/// [`ServerFrame::Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireToken {
    /// The step's position in the sequence (0 = first token).
    pub step: u64,
    /// The token this step emitted.
    pub token: u64,
    /// Whether this was the sequence's final step — the terminal frame
    /// for the sequence's tag.
    pub done: bool,
}

/// One catalog entry as advertised in the server's greeting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireModel {
    /// The model id requests must carry.
    pub model: usize,
    /// Catalog name.
    pub name: String,
    /// Input tensor height.
    pub input_h: usize,
    /// Input tensor width.
    pub input_w: usize,
    /// Input tensor channels.
    pub input_c: usize,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Submit one inference. `tag` is an opaque client-chosen correlation
    /// value echoed on the matching [`ServerFrame::Completion`] (or
    /// [`ServerFrame::Error`]); `arrival` is the request's tick for the
    /// batcher's coalescing window — ticks need not be monotone across
    /// connections.
    Infer {
        /// Client correlation tag, echoed verbatim.
        tag: u64,
        /// Target model id (from the greeting or an `Admit` reply).
        model: usize,
        /// Arrival tick.
        arrival: u64,
        /// Optional advisory deadline tick.
        deadline: Option<u64>,
        /// The quantized input activations.
        input: Tensor3,
    },
    /// Begin an autoregressive generation sequence against a language
    /// model. The server streams one [`ServerFrame::Completion`] per
    /// decoded token on this `tag` (each carrying a
    /// [`WireToken`]), in step order; the frame whose token has
    /// `done == true` is the terminal answer.
    Generate {
        /// Client correlation tag, echoed on every token frame.
        tag: u64,
        /// Target model id; must be a language model.
        model: usize,
        /// The prompt token that seeds the sequence.
        prompt: u64,
        /// Decode steps to run (1..=`MAX_SEQUENCE_STEPS`).
        steps: u64,
        /// Arrival tick of the first step.
        arrival: u64,
        /// Tick gap between successive decode steps.
        interval: u64,
    },
    /// Admit a stock-catalog model by name, subject to strict per-chip
    /// cell-budget admission control.
    Admit {
        /// Stock catalog name (e.g. `"lenet5"`).
        name: String,
    },
    /// Ask for engine statistics.
    Stats,
    /// End the session; the server replies [`ServerFrame::Bye`] and
    /// closes after flushing any pending completions.
    Goodbye,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// Greeting, sent once on connect: the resident catalog and the
    /// session's operating limits.
    Hello {
        /// Admitted models, in admission order.
        models: Vec<WireModel>,
        /// Payload cap per frame, bytes.
        max_frame: u64,
        /// Queue depth past which `Infer` draws `Backpressure`.
        queue_capacity: u64,
    },
    /// One finished inference.
    Completion {
        /// The client's correlation tag.
        tag: u64,
        /// Global dispatch sequence of the batch that ran it (monotone
        /// across the server's lifetime).
        batch_seq: u64,
        /// Requests that shared the batch.
        batch_size: u64,
        /// The model's output tensor (a token step's logits, flat, one
        /// lane per vocabulary entry).
        output: Tensor3,
        /// Set when this completion is one decode step of a `Generate`
        /// sequence; `None` for ordinary inference.
        sequence: Option<WireToken>,
    },
    /// A model was admitted for this and future sessions.
    Admitted {
        /// Catalog name.
        name: String,
        /// The id requests should carry.
        model: usize,
    },
    /// Engine statistics snapshot.
    Stats {
        /// Requests completed since server start.
        requests: u64,
        /// Batches dispatched since server start.
        batches: u64,
        /// Requests currently queued (admitted, not yet dispatched).
        queued: u64,
        /// Resident cache occupancy, cells.
        occupancy_cells: u64,
        /// Cache budgets summed over chips, cells.
        budget_cells: u64,
        /// Fault-driven retries (batches re-routed off a failed chip).
        retries: u64,
        /// Requests shed by the fault handler.
        sheds: u64,
        /// Models recovered by moving their programmed tiles off failed
        /// chips.
        recoveries: u64,
        /// Chips currently drift-degraded (serving, deprioritized).
        degraded_chips: u64,
        /// Chips currently failed (not serving).
        failed_chips: u64,
    },
    /// The request was shed by the fault handler instead of served: its
    /// batch was re-routed off a failed chip and the request either had
    /// a deadline before its batch's latest arrival or had no healthy
    /// chip left to run on. A terminal answer for its tag — the client
    /// never hangs on a shed request.
    Shed {
        /// The client's correlation tag.
        tag: u64,
        /// Human-readable reason.
        detail: String,
    },
    /// A chip's health changed (broadcast to every live session after
    /// the drain that observed it), so clients see failover and
    /// degradation explicitly.
    Degraded {
        /// Cluster chip index.
        chip: u64,
        /// New health: `"healthy"`, `"degraded"`, or `"failed"`.
        health: String,
    },
    /// A request (or the whole frame) was refused; the session stays up
    /// unless the error is fatal (framing damage).
    Error {
        /// The `Infer` tag this refusal answers, when attributable.
        tag: Option<u64>,
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Goodbye acknowledgement; the server closes after sending it.
    Bye,
}

/// Machine-readable refusal reasons carried by [`ServerFrame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request named a model the engine has not admitted.
    UnknownModel,
    /// The input tensor was rejected (wrong shape, inconsistent data
    /// length, or activation values outside the device range).
    BadInput,
    /// The submission queue is at capacity; retry after completions
    /// drain.
    Backpressure,
    /// Strict admission control refused the model (no chip has room, or
    /// the network is unservable).
    AdmissionRefused,
    /// The catalog has no model of the requested name.
    UnknownCatalogName,
    /// The frame decoded but the message is not valid here (protocol
    /// misuse).
    Unsupported,
    /// The frame itself could not be decoded — bad JSON inside an intact
    /// frame (the session continues), or framing damage such as an
    /// oversized length prefix (the session closes, since the byte
    /// stream cannot be resynchronized).
    MalformedFrame,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Self::UnknownModel => "unknown-model",
            Self::BadInput => "bad-input",
            Self::Backpressure => "backpressure",
            Self::AdmissionRefused => "admission-refused",
            Self::UnknownCatalogName => "unknown-catalog-name",
            Self::Unsupported => "unsupported",
            Self::MalformedFrame => "malformed-frame",
        };
        write!(f, "{text}")
    }
}

/// Why a [`Client`] call failed.
///
/// Folds the wire-level [`FrameError`] taxonomy and raw send-side I/O
/// into one client-facing type, with deadline expiry pulled out as its
/// own variant so callers can distinguish "the server is slow or the
/// connection is half-open" (retryable, connection suspect) from
/// protocol damage (not retryable on this stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A configured read or write deadline expired — the peer accepted
    /// the connection but stopped participating (dead server, half-open
    /// socket, network partition). Without deadlines this condition
    /// hangs the calling thread forever; see
    /// [`Client::connect_with_timeouts`].
    Timeout,
    /// A wire-level framing or decoding failure.
    Frame(FrameError),
    /// A send-side I/O failure other than a deadline expiry.
    Io(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => write!(f, "deadline expired waiting on the server"),
            Self::Frame(e) => write!(f, "{e}"),
            Self::Io(detail) => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Timeout => Self::Timeout,
            other => Self::Frame(other),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if is_timeout(&e) {
            Self::Timeout
        } else {
            Self::Io(e.to_string())
        }
    }
}

/// A synchronous client for the serving protocol, generic over the byte
/// stream (a `TcpStream` in production, an in-memory cursor in tests).
///
/// Reads the greeting on construction; afterwards [`Client::send`] frames
/// requests and [`Client::wait_completion`] routes replies. Because the
/// server's dispatcher delivers completions in dispatch order — not
/// submission order — the client buffers frames it reads while waiting
/// for a specific tag, so callers can pipeline many `Infer`s and collect
/// the answers in any order.
///
/// Blocking calls hang forever if the server holds the connection open
/// but never answers; production callers should connect through
/// [`Client::connect_with_timeouts`] so a dead peer surfaces as
/// [`ClientError::Timeout`] instead.
pub struct Client<S: Read + Write> {
    stream: S,
    models: Vec<WireModel>,
    buffered: Vec<ServerFrame>,
}

impl<S: Read + Write> Client<S> {
    /// Performs the handshake: reads [`ServerFrame::Hello`].
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] from the greeting (as
    /// [`ClientError::Frame`]), or a malformed-frame error if the first
    /// frame is not a `Hello`.
    pub fn connect(mut stream: S) -> Result<Self, ClientError> {
        match read_message::<ServerFrame>(&mut stream)? {
            ServerFrame::Hello { models, .. } => Ok(Self {
                stream,
                models,
                buffered: Vec::new(),
            }),
            other => Err(ClientError::Frame(FrameError::Malformed(format!(
                "expected Hello, got {other:?}"
            )))),
        }
    }

    /// The catalog the server advertised at connect time.
    #[must_use]
    pub fn models(&self) -> &[WireModel] {
        &self.models
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if a configured write deadline expires,
    /// [`ClientError::Io`] for any other I/O failure.
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), ClientError> {
        write_message(&mut self.stream, frame)?;
        Ok(())
    }

    /// Returns the next server frame: a buffered one if present, else
    /// reads from the wire.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] from the wire; [`ClientError::Timeout`] if a
    /// configured read deadline expires first.
    pub fn recv(&mut self) -> Result<ServerFrame, ClientError> {
        if self.buffered.is_empty() {
            Ok(read_message(&mut self.stream)?)
        } else {
            Ok(self.buffered.remove(0))
        }
    }

    /// Reads until the completion (or attributed error) for `tag`
    /// arrives, buffering every other frame for later [`Client::recv`]
    /// calls.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] from the wire — including [`FrameError::Closed`]
    /// if the server goes away before answering — and
    /// [`ClientError::Timeout`] if a configured read deadline expires.
    pub fn wait_completion(&mut self, tag: u64) -> Result<ServerFrame, ClientError> {
        if let Some(pos) = self.buffered.iter().position(|f| frame_tag(f) == Some(tag)) {
            return Ok(self.buffered.remove(pos));
        }
        loop {
            let frame = read_message::<ServerFrame>(&mut self.stream)?;
            if frame_tag(&frame) == Some(tag) {
                return Ok(frame);
            }
            self.buffered.push(frame);
        }
    }

    /// Collects every frame of a `Generate` sequence on `tag` — in step
    /// order, as the server streams them — until a terminal frame: a
    /// token `Completion` with `done == true`, a [`ServerFrame::Shed`],
    /// or an attributed [`ServerFrame::Error`]. Frames for other tags
    /// are buffered for later [`Client::recv`]/[`Client::wait_completion`]
    /// calls, so a sequence can interleave freely with pipelined `Infer`s.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] from the wire — including
    /// [`FrameError::Closed`] if the server goes away mid-sequence —
    /// and [`ClientError::Timeout`] if a configured read deadline
    /// expires.
    pub fn wait_sequence(&mut self, tag: u64) -> Result<Vec<ServerFrame>, ClientError> {
        let mut frames = Vec::new();
        loop {
            let frame = self.wait_completion(tag)?;
            // `wait_completion` yields only tag-addressed frames: a
            // completion, a shed, or an attributed error.
            let terminal = match &frame {
                ServerFrame::Completion { sequence, .. } => sequence.is_some_and(|t| t.done),
                _ => true,
            };
            frames.push(frame);
            if terminal {
                return Ok(frames);
            }
        }
    }
}

impl Client<TcpStream> {
    /// [`Client::connect`] with read/write deadlines applied *before*
    /// the greeting is read, so even a server that accepts the TCP
    /// connection and then goes silent surfaces as
    /// [`ClientError::Timeout`] instead of hanging the handshake. `None`
    /// disables the respective deadline.
    ///
    /// # Errors
    ///
    /// Everything [`Client::connect`] returns, plus any socket-option
    /// failure from applying the deadlines.
    pub fn connect_with_timeouts(
        stream: TcpStream,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<Self, ClientError> {
        stream.set_read_timeout(read)?;
        stream.set_write_timeout(write)?;
        Self::connect(stream)
    }
}

/// The client tag a server frame answers, if any.
fn frame_tag(frame: &ServerFrame) -> Option<u64> {
    match frame {
        ServerFrame::Completion { tag, .. } | ServerFrame::Shed { tag, .. } => Some(*tag),
        ServerFrame::Error { tag, .. } => *tag,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_nn::TensorShape;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"x\":1}").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"{\"x\":1}");
        assert_eq!(read_frame(&mut cursor), Err(FrameError::Closed));
    }

    #[test]
    fn truncated_prefix_and_payload_are_detected() {
        let mut cursor = io::Cursor::new(vec![0u8, 0, 0]);
        assert_eq!(read_frame(&mut cursor), Err(FrameError::Truncated));
        let mut wire = vec![0u8, 0, 0, 10];
        wire.extend_from_slice(b"short");
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor), Err(FrameError::Truncated));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_reading() {
        let wire = u32::to_be_bytes(u32::MAX).to_vec();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn messages_round_trip_through_the_serde_shim() {
        let frame = ClientFrame::Infer {
            tag: 7,
            model: 1,
            arrival: 3,
            deadline: Some(40),
            input: Tensor3::new(TensorShape::new(1, 2, 1), vec![5, 9]),
        };
        let mut wire = Vec::new();
        write_message(&mut wire, &frame).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let back: ClientFrame = read_message(&mut cursor).unwrap();
        assert_eq!(back, frame);

        let reply = ServerFrame::Error {
            tag: Some(7),
            code: ErrorCode::Backpressure,
            detail: "queue full".to_string(),
        };
        let mut wire = Vec::new();
        write_message(&mut wire, &reply).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let back: ServerFrame = read_message(&mut cursor).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn fault_frames_round_trip_and_carry_their_tag() {
        // The two fault-surface frames a client can observe: a shed is
        // tag-addressed (so `wait_completion` terminates on it), a
        // degradation broadcast is not.
        let shed = ServerFrame::Shed {
            tag: 9,
            detail: "deadline unreachable after chip 1 failed".to_string(),
        };
        let mut wire = Vec::new();
        write_message(&mut wire, &shed).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let back: ServerFrame = read_message(&mut cursor).unwrap();
        assert_eq!(back, shed);
        assert_eq!(frame_tag(&back), Some(9));

        let degraded = ServerFrame::Degraded {
            chip: 2,
            health: "failed".to_string(),
        };
        let mut wire = Vec::new();
        write_message(&mut wire, &degraded).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let back: ServerFrame = read_message(&mut cursor).unwrap();
        assert_eq!(back, degraded);
        assert_eq!(frame_tag(&back), None, "broadcasts answer no tag");
    }

    #[test]
    fn malformed_payload_is_a_structured_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"not json at all").unwrap();
        let mut cursor = io::Cursor::new(wire);
        let result: Result<ClientFrame, FrameError> = read_message(&mut cursor);
        assert!(matches!(result, Err(FrameError::Malformed(_))));
    }

    #[test]
    fn half_open_socket_times_out_instead_of_hanging() {
        use std::net::TcpListener;
        use std::time::Instant;

        // A "server" that accepts the connection and then goes silent —
        // the half-open condition that used to hang the handshake (and
        // any later read) forever.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || {
            let (socket, _) = listener.accept().expect("accept");
            // Keep the socket alive, send nothing, until the client has
            // given up.
            std::thread::sleep(Duration::from_secs(2));
            drop(socket);
        });

        let stream = TcpStream::connect(addr).expect("connect");
        let started = Instant::now();
        let result = Client::connect_with_timeouts(
            stream,
            Some(Duration::from_millis(100)),
            Some(Duration::from_millis(100)),
        );
        let error = result.err().expect("half-open handshake must fail");
        assert_eq!(error, ClientError::Timeout);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the deadline, not the peer, ended the wait"
        );
        hold.join().expect("holder thread");
    }
}
