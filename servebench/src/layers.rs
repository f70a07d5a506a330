//! Per-layer metrics of the traced invocation, and the end-to-end metric
//! each one should move ([`PER_LAYER`], [`per_layer_table`]).
//!
//! The workloads contribute what they observed while serving (engine,
//! batch and cache counters; on the wire, the clients' own send and wait
//! spans). [`measure`] adds timed calls into each layer's public functions
//! on the workload's own frames, queue and catalog. Every call is a span.
//! Operation counts and bytes moved by the MVM kernel are computed from
//! tensor sizes, not measured.

use crate::trace::Tracer;
use crate::workload::{self, LLM, POLICY, SEQUENCE_STEPS};
use crate::{stats, Metric};
use oxbar_dataflow::tiles::{TileGeometry, WeightTile, WeightTiles};
use oxbar_dataflow::FoldPlan;
use oxbar_nn::mapping::MappedWeights;
use oxbar_nn::reference::{FilterBank, Tensor3};
use oxbar_nn::transformer::{generate_step, KvCache, LmWeights, MatmulEngine};
use oxbar_nn::{Conv2d, Layer};
use oxbar_pcm::array::Parallelism;
use oxbar_pcm::drift::DriftModel;
use oxbar_pcm::variation::DeviceVariation;
use oxbar_pcm::PcmArray;
use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
use oxbar_photonics::{BatchScratch, CompiledCrossbar};
use oxbar_serve::batcher::{form_batches, route_rounds};
use oxbar_serve::protocol::{
    read_frame, read_message, write_frame, write_message, Client, ClientFrame, ServerFrame,
};
use oxbar_serve::request::request_seed;
use oxbar_serve::{ModelId, ServeEngine};
use oxbar_sim::config::tile_seed;
use oxbar_sim::tile::{CompiledTile, TileDrive};
use oxbar_sim::{DeviceExecutor, DeviceLmEngine, ExecArena, ExecError, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// What a per-layer metric should move: an end-to-end metric, and on
/// which workload.
const WIRE: &str = "req_*, itl_* on wire_mixed; nothing offline";
const ENGINE: &str = "infer_per_s on warm_offline; req_p50_ms on wire_mixed";
const CACHE: &str = "infer_per_s on thrash_offline; setup_s";
const WARM: &str = "infer_per_s on warm_offline";
const TOKENS: &str = "itl_*, ttft_ms on wire_mixed";
const SIM: &str = "infer_per_s on warm_offline; itl_* on wire_mixed";

/// Per-layer metrics with a fixed name: name, unit, which is better, and
/// what it should move. The per-model `sim.*` entries and
/// `trace.overhead.*` are added by [`per_layer_table`].
pub const PER_LAYER: [(&str, &str, &str, &str); 30] = [
    ("protocol.encode_us", "us", "lower", WIRE),
    ("protocol.decode_us", "us", "lower", WIRE),
    ("protocol.frame_bytes", "bytes", "lower", WIRE),
    ("protocol.loopback_rtt_ms", "ms", "lower", WIRE),
    ("protocol.client_send_ms", "ms", "lower", WIRE),
    ("protocol.client_wait_ms", "ms", "lower", WIRE),
    (
        "server.batches",
        "count",
        "lower",
        "req_p50_ms on wire_mixed",
    ),
    (
        "server.mean_batch",
        "count",
        "higher",
        "req_p50_ms on wire_mixed",
    ),
    ("engine.submit_us", "us", "lower", ENGINE),
    ("engine.drain_ms", "ms", "lower", ENGINE),
    ("engine.batch_ms", "ms", "lower", ENGINE),
    ("engine.exec_share", "ratio", "higher", ENGINE),
    ("batcher.form_us", "us", "lower", ENGINE),
    ("batcher.route_us", "us", "lower", ENGINE),
    ("batcher.fill", "ratio", "higher", ENGINE),
    ("cluster.hit_rate", "ratio", "higher", CACHE),
    ("cluster.misses", "count", "lower", CACHE),
    ("cluster.evictions", "count", "lower", CACHE),
    ("cluster.migrations", "count", "lower", CACHE),
    ("cluster.prewarmed_tiles", "count", "higher", CACHE),
    ("tile.execute_us", "us", "lower", WARM),
    ("tile.compile_us", "us", "lower", CACHE),
    ("tile.unique_frac", "ratio", "lower", WARM),
    ("tile.dark_frac", "ratio", "higher", WARM),
    ("mvm.kernel_us", "us", "lower", WARM),
    ("mvm.gflops", "GFLOP/s", "higher", WARM),
    ("mvm.bytes", "bytes", "lower", WARM),
    (
        "pcm.program_us",
        "us",
        "lower",
        "infer_per_s on thrash_offline",
    ),
    ("llm.step_us", "us", "lower", TOKENS),
    ("llm.dynamic_mv_us", "us", "lower", TOKENS),
];

/// Every per-layer metric a traced invocation reports: name, unit, which
/// is better, and what it should move.
#[must_use]
pub fn per_layer_table() -> Vec<(String, &'static str, &'static str, &'static str)> {
    let mut table: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit, better, moves)| (name.to_string(), unit, better, moves))
        .collect();
    for spec in workload::catalog_specs() {
        for layer in spec.network.layers() {
            if let Some(conv) = mac(layer) {
                let name = format!("sim.{}.{}_us", spec.name, conv.name);
                table.push((name, "us", "lower", SIM));
            }
        }
        for pass in ["forward_warm_us", "forward_cold_us"] {
            table.push((format!("sim.{}.{pass}", spec.name), "us", "lower", SIM));
        }
    }
    for (name, unit) in crate::END_TO_END {
        table.push((
            format!("trace.overhead.{name}"),
            unit,
            "lower",
            "nothing: tracing cost",
        ));
    }
    table
}

/// A conv-like layer as the crossbar runs it.
fn mac(layer: &Layer) -> Option<Conv2d> {
    match layer {
        Layer::Conv2d(c) => Some(c.clone()),
        Layer::Dense(d) => Some(d.as_conv()),
        _ => None,
    }
}

/// The workload's own material for the layer measurements.
pub struct LayerInputs<'a> {
    /// An engine with the workload's configuration and catalog.
    pub engine: &'a ServeEngine,
    /// Workload seed.
    pub seed: u64,
    /// CNN requests and their completions, as wire frames.
    pub exchanges: Vec<(ClientFrame, ServerFrame)>,
    /// Streamed token frames.
    pub stream: Vec<ServerFrame>,
    /// The workload's queue: `(model, arrival)` in arrival order.
    pub queue: Vec<(ModelId, u64)>,
    /// `Client::send` and `wait_completion` times (ms) measured over the
    /// socket; `None` measures them on in-memory streams.
    pub client_ms: Option<(Vec<f64>, Vec<f64>)>,
}

/// Timed operations [`measure`] splits its budget over.
const OPERATIONS: u32 = 34;

/// Fewest timed calls per operation, whatever the budget.
const MIN_CALLS: usize = 3;

/// Most timed calls per operation, which bounds the spans kept.
const MAX_CALLS: usize = 5000;

/// Windows per batched MVM call of the kernel measurement.
const MVM_BATCH: usize = 64;

/// Measures every layer on the workload's inputs, within about `budget`.
pub fn measure(inputs: &LayerInputs<'_>, budget: Duration, t: &mut Tracer, out: &mut Vec<Metric>) {
    let per_op = budget / OPERATIONS;
    protocol(inputs, per_op, t, out);
    batcher(inputs, per_op, t, out);
    let tiles = sim_cnn(inputs, per_op, t, out);
    tile(&tiles, per_op, t, out);
    device(&tiles, inputs.seed, per_op, t, out);
    llm(inputs, per_op, t, out);
}

/// Calls `f` until `per_op` has passed and at least `min` calls ran,
/// each inside a span; returns each call's seconds.
fn repeat<R>(
    t: &mut Tracer,
    name: &'static str,
    request: u64,
    per_op: Duration,
    min: usize,
    mut f: impl FnMut(&mut Tracer) -> R,
) -> Vec<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < MAX_CALLS && (secs.len() < min || start.elapsed() < per_op) {
        let (out, s) = t.time(name, request, &mut f);
        black_box(out);
        secs.push(s);
    }
    secs
}

fn us(secs: &[f64]) -> f64 {
    stats::median(secs) * 1e6
}

/// Mean seconds per call over whole passes of `n` calls, until `per_op`.
fn per_pass(per_op: Duration, n: usize, mut pass: impl FnMut() -> f64) -> (f64, usize) {
    let start = Instant::now();
    let (mut total, mut calls) = (0.0, 0);
    while calls == 0 || start.elapsed() < per_op {
        total += pass();
        calls += n.max(1);
    }
    (total / calls as f64, calls)
}

fn encode<T: Serialize>(frames: &[&T]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            write_message(&mut bytes, *frame).expect("in-memory write");
            bytes
        })
        .collect()
}

/// Seconds spent in `write_message` over one pass of `frames`.
fn time_encode<T: Serialize>(frames: &[&T], t: &mut Tracer) -> f64 {
    let mut buf = Vec::new();
    let mut secs = 0.0;
    for (i, frame) in frames.iter().enumerate() {
        buf.clear();
        secs += t
            .time("protocol.write_message", i as u64, |_| {
                write_message(&mut buf, *frame)
            })
            .1;
    }
    secs
}

/// Seconds spent in `read_message` over one pass of encoded frames.
fn time_decode<T: Deserialize>(encoded: &[Vec<u8>], t: &mut Tracer) -> f64 {
    let mut secs = 0.0;
    for (i, bytes) in encoded.iter().enumerate() {
        let mut cursor = Cursor::new(bytes.as_slice());
        secs += t
            .time("protocol.read_message", i as u64, |_| {
                read_message::<T>(&mut cursor)
            })
            .1;
    }
    secs
}

fn protocol(inputs: &LayerInputs<'_>, per_op: Duration, t: &mut Tracer, out: &mut Vec<Metric>) {
    let client: Vec<&ClientFrame> = inputs.exchanges.iter().map(|(c, _)| c).collect();
    let server: Vec<&ServerFrame> = inputs
        .exchanges
        .iter()
        .map(|(_, s)| s)
        .chain(&inputs.stream)
        .collect();
    let (client_bytes, server_bytes) = (encode(&client), encode(&server));
    let sizes: Vec<f64> = client_bytes
        .iter()
        .chain(&server_bytes)
        .map(|b| b.len() as f64)
        .collect();
    let frames = sizes.len();
    let (encode_s, encoded) = per_pass(per_op, frames, || {
        time_encode(&client, t) + time_encode(&server, t)
    });
    let (decode_s, decoded) = per_pass(per_op, frames, || {
        time_decode::<ClientFrame>(&client_bytes, t) + time_decode::<ServerFrame>(&server_bytes, t)
    });
    out.push(
        Metric::new("protocol.encode_us", "us", encode_s * 1e6, encoded)
            .note("mean write_message per frame"),
    );
    out.push(
        Metric::new("protocol.decode_us", "us", decode_s * 1e6, decoded)
            .note("mean read_message per frame"),
    );
    let mean_bytes = stats::mean(&sizes);
    out.push(Metric::new("protocol.frame_bytes", "bytes", mean_bytes, frames).note("mean"));

    // A frame of about the mean size, echoed over a loopback socket pair.
    let payload = client_bytes
        .iter()
        .chain(&server_bytes)
        .min_by_key(|b| (b.len() as f64 - mean_bytes).abs() as u64)
        .map_or_else(Vec::new, |b| b[4..].to_vec());
    let rtt = loopback_rtt(&payload, per_op, t);
    out.push(Metric::new(
        "protocol.loopback_rtt_ms",
        "ms",
        stats::median(&rtt) * 1e3,
        rtt.len(),
    ));

    let (send_ms, wait_ms) = match &inputs.client_ms {
        Some(measured) => measured.clone(),
        None => in_memory_client(&inputs.exchanges, per_op, t),
    };
    out.push(Metric::new(
        "protocol.client_send_ms",
        "ms",
        stats::median(&send_ms),
        send_ms.len(),
    ));
    out.push(Metric::new(
        "protocol.client_wait_ms",
        "ms",
        stats::median(&wait_ms),
        wait_ms.len(),
    ));
}

/// `write_frame` then `read_frame` of `payload` against an echo thread.
fn loopback_rtt(payload: &[u8], per_op: Duration, t: &mut Tracer) -> Vec<f64> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback bind");
    let addr = listener.local_addr().expect("loopback address");
    let echo = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("loopback accept");
        while let Ok(frame) = read_frame(&mut socket) {
            if write_frame(&mut socket, &frame).is_err() {
                break;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).expect("loopback connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let secs = repeat(t, "protocol.loopback_rtt", 0, per_op, 5, |t| {
        t.time("protocol.write_frame", 0, |_| {
            write_frame(&mut stream, payload)
        })
        .0
        .expect("loopback write");
        t.time("protocol.read_frame", 0, |_| read_frame(&mut stream))
            .0
            .expect("loopback echo")
    });
    drop(stream);
    echo.join().expect("echo thread");
    secs
}

/// A byte stream that reads prepared server frames and swallows writes.
struct MemoryStream {
    incoming: Cursor<Vec<u8>>,
    outgoing: Vec<u8>,
}

impl Read for MemoryStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.incoming.read(buf)
    }
}

impl Write for MemoryStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.outgoing.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `Client::send` and `wait_completion` on the workload's exchanges over
/// in-memory streams (no socket); returns their ms.
fn in_memory_client(
    exchanges: &[(ClientFrame, ServerFrame)],
    per_op: Duration,
    t: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let mut incoming = Vec::new();
    let hello = ServerFrame::Hello {
        models: Vec::new(),
        max_frame: oxbar_serve::protocol::MAX_FRAME_BYTES as u64,
        queue_capacity: 256,
    };
    write_message(&mut incoming, &hello).expect("in-memory write");
    for (_, reply) in exchanges {
        write_message(&mut incoming, reply).expect("in-memory write");
    }
    let (mut send_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while send_ms.is_empty() || start.elapsed() < 2 * per_op {
        let stream = MemoryStream {
            incoming: Cursor::new(incoming.clone()),
            outgoing: Vec::with_capacity(1 << 20),
        };
        let mut client = Client::connect(stream).expect("in-memory handshake");
        for (k, (request, _)) in exchanges.iter().enumerate() {
            let tag = match request {
                ClientFrame::Infer { tag, .. } => *tag,
                _ => k as u64,
            };
            let (sent, s) = t.time("protocol.client_send", tag, |_| client.send(request));
            sent.expect("in-memory send");
            send_ms.push(s * 1e3);
            let (reply, w) = t.time("protocol.client_wait", tag, |_| client.wait_completion(tag));
            reply.expect("in-memory completion");
            wait_ms.push(w * 1e3);
        }
        if exchanges.is_empty() {
            break;
        }
    }
    (send_ms, wait_ms)
}

fn batcher(inputs: &LayerInputs<'_>, per_op: Duration, t: &mut Tracer, out: &mut Vec<Metric>) {
    let form = repeat(t, "batcher.form_batches", 0, per_op, MIN_CALLS, |_| {
        form_batches(&inputs.queue, POLICY)
    });
    let batches = form_batches(&inputs.queue, POLICY);
    let workers = inputs.engine.config().workers.max(1);
    let cluster = inputs.engine.registry();
    let route = repeat(t, "batcher.route_rounds", 0, per_op, MIN_CALLS, |_| {
        route_rounds(&batches, workers, |b| cluster.chip_of(b.model).0)
    });
    out.push(Metric::new("batcher.form_us", "us", us(&form), form.len()));
    out.push(Metric::new(
        "batcher.route_us",
        "us",
        us(&route),
        route.len(),
    ));
}

/// One crossbar tile of a catalog layer with the drive a real input builds.
struct TileJob {
    config: SimConfig,
    weights: WeightTile,
    drive: TileDrive,
    seed: u64,
}

/// Warm and cold forwards and each mac layer's `conv_pixels_flat`, for
/// every CNN of the catalog; returns the layers' tiles and drives.
fn sim_cnn(
    inputs: &LayerInputs<'_>,
    per_op: Duration,
    t: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Vec<TileJob> {
    let cluster = inputs.engine.registry();
    let mut jobs = Vec::new();
    for m in 0..workload::MIX.len() {
        let id = ModelId(m);
        let spec = cluster.spec(id);
        let config = cluster.executor(id).config().clone();
        let exec = DeviceExecutor::new(config.clone());
        let input = oxbar_nn::synthetic::activations(
            spec.network.input(),
            6,
            request_seed(inputs.seed ^ 0x51a, m as u64),
        );
        let forward = exec
            .forward(&spec.network, &input, &spec.filters)
            .expect("catalog models are sequential");
        let mut current = &input;
        let mut bank = 0;
        for (index, (layer, done)) in spec
            .network
            .layers()
            .iter()
            .zip(&forward.layers)
            .enumerate()
        {
            if let Some(conv) = mac(layer) {
                let conv_input = if current.shape() == conv.input {
                    current.clone()
                } else {
                    Tensor3::new(conv.input, current.data().to_vec())
                };
                let out_shape = conv.output_shape();
                let pixels: Vec<usize> = (0..out_shape.h * out_shape.w).collect();
                let filters = &spec.filters[bank];
                let secs = repeat(
                    t,
                    "executor.conv_pixels_flat",
                    m as u64,
                    per_op,
                    MIN_CALLS,
                    |_| exec.conv_pixels_flat(&conv, &conv_input, filters, index, &pixels),
                );
                out.push(Metric::new(
                    format!("sim.{}.{}_us", spec.name, conv.name),
                    "us",
                    us(&secs),
                    secs.len(),
                ));
                jobs.extend(layer_tiles(&config, &conv, &conv_input, filters, index));
                bank += 1;
            }
            current = &done.output;
        }
        let warm = repeat(t, "executor.forward", m as u64, per_op, MIN_CALLS, |_| {
            exec.forward(&spec.network, &input, &spec.filters)
        });
        let mut cold = Vec::new();
        let start = Instant::now();
        while cold.len() < MIN_CALLS || start.elapsed() < per_op {
            exec.clear_cache();
            let (_, s) = t.time("executor.forward", m as u64, |_| {
                exec.forward(&spec.network, &input, &spec.filters)
            });
            cold.push(s);
        }
        out.push(Metric::new(
            format!("sim.{}.forward_warm_us", spec.name),
            "us",
            us(&warm),
            warm.len(),
        ));
        out.push(Metric::new(
            format!("sim.{}.forward_cold_us", spec.name),
            "us",
            us(&cold),
            cold.len(),
        ));
    }
    jobs
}

/// The tiles of one layer with the im2col drives its input builds — the
/// same gather the executor performs.
fn layer_tiles(
    config: &SimConfig,
    conv: &Conv2d,
    input: &Tensor3,
    bank: &FilterBank,
    layer_index: usize,
) -> Vec<TileJob> {
    let plan = FoldPlan::plan(
        conv,
        config.array_rows,
        config.array_cols,
        config.mapping.columns_per_output(),
    );
    let tiles = WeightTiles::new(conv, &bank.weights, &plan);
    let has_negative = input.data().iter().any(|&v| v < 0);
    tiles
        .geometries()
        .enumerate()
        .map(|(index, geom)| TileJob {
            config: config.clone(),
            weights: tiles.tile(index),
            drive: im2col(&geom, conv, input, has_negative),
            seed: tile_seed(config.seed, layer_index, index),
        })
        .collect()
}

fn im2col(geom: &TileGeometry, conv: &Conv2d, input: &Tensor3, has_negative: bool) -> TileDrive {
    let out = conv.output_shape();
    let in_per_group = conv.in_c_per_group();
    let window_w = conv.k_w * in_per_group;
    let (mut positive, mut negative) = (Vec::new(), Vec::new());
    for pixel in 0..out.h * out.w {
        let (oy, ox) = (pixel / out.w, pixel % out.w);
        for r in 0..geom.rows {
            let w = geom.row_offset + r;
            let (ky, kx) = (w / window_w, (w % window_w) / in_per_group);
            let c = geom.group * in_per_group + w % in_per_group;
            let iy = (oy * conv.stride + ky) as isize - conv.padding as isize;
            let ix = (ox * conv.stride + kx) as isize - conv.padding as isize;
            let v = input.at_padded(iy, ix, c);
            positive.push(v.max(0) as u8);
            negative.push((-v).max(0) as u8);
        }
    }
    TileDrive::new(geom.rows, positive, has_negative.then_some(negative))
}

fn tile(jobs: &[TileJob], per_op: Duration, t: &mut Tracer, out: &mut Vec<Metric>) {
    let (mut windows, mut unique, mut dark) = (0usize, 0usize, 0usize);
    for job in jobs {
        let d = &job.drive;
        let all: Vec<&[u8]> = (0..d.pixels())
            .map(|p| d.positive(p))
            .chain((0..d.pixels()).filter_map(|p| d.negative(p)))
            .collect();
        let distinct: HashSet<&[u8]> = all.iter().copied().collect();
        windows += all.len();
        unique += distinct.len();
        dark += distinct
            .iter()
            .filter(|w| w.iter().all(|&v| v == 0))
            .count();
    }
    let mut compiled: Vec<CompiledTile> = Vec::new();
    let (compile_s, compiles) = per_pass(per_op, jobs.len(), || {
        let mut secs = 0.0;
        let mut fresh = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let (tile, s) = t.time("tile.compile", i as u64, |_| {
                CompiledTile::compile(&job.weights, &job.config, job.seed)
            });
            secs += s;
            fresh.push(tile);
        }
        compiled = fresh;
        secs
    });
    let mut arena = ExecArena::default();
    for (tile, job) in compiled.iter().zip(jobs) {
        tile.execute_into(&job.drive, &job.config, true, &mut arena);
    }
    let (execute_s, executes) = per_pass(per_op, jobs.len(), || {
        let mut secs = 0.0;
        for (i, (tile, job)) in compiled.iter().zip(jobs).enumerate() {
            secs += t
                .time("tile.execute_into", i as u64, |_| {
                    tile.execute_into(&job.drive, &job.config, true, &mut arena);
                })
                .1;
        }
        secs
    });
    out.push(
        Metric::new("tile.execute_us", "us", execute_s * 1e6, executes)
            .note("mean per tile of the catalog CNNs, warm arena"),
    );
    out.push(Metric::new("tile.compile_us", "us", compile_s * 1e6, compiles).note("mean per tile"));
    out.push(
        Metric::new(
            "tile.unique_frac",
            "ratio",
            unique as f64 / windows.max(1) as f64,
            windows,
        )
        .note("distinct drive windows / windows"),
    );
    out.push(
        Metric::new(
            "tile.dark_frac",
            "ratio",
            dark as f64 / unique.max(1) as f64,
            unique,
        )
        .note("all-zero distinct windows / distinct windows"),
    );
}

/// PCM programming of a full-height catalog tile, then the batched MVM
/// kernel on the transfer matrix of what it programmed.
fn device(jobs: &[TileJob], seed: u64, per_op: Duration, t: &mut Tracer, out: &mut Vec<Metric>) {
    let job = jobs
        .iter()
        .max_by_key(|j| j.weights.rows() * j.weights.cols())
        .expect("the catalog has tiles");
    let config = &job.config;
    let noise = config.noise;
    let mapped = MappedWeights::map(&job.weights.values, config.mapping, config.q());
    let (rows, cols) = (job.weights.rows(), mapped.physical_cols());
    let variation = DeviceVariation::new(noise.pcm_sigma, 0.0);
    let drift = DriftModel::new(noise.drift_nu);
    let mut transmissions = Vec::new();
    let program = repeat(t, "pcm.noisy_readout", 0, per_op, MIN_CALLS, |_| {
        let mut rng = StdRng::seed_from_u64(job.seed);
        transmissions = PcmArray::noisy_readout(
            rows,
            cols,
            config.device(),
            config.weight_bits,
            mapped.unipolar(),
            Parallelism::FullArray,
            Some((&variation, &mut rng)),
            Some((&drift, noise.drift_elapsed)),
        )
        .0;
    });
    out.push(
        Metric::new("pcm.program_us", "us", us(&program), program.len())
            .note(format!("noisy_readout of a {rows}x{cols} tile")),
    );

    let mut xbar = CrossbarConfig::new(rows, cols)
        .with_phase_error_sigma(noise.phase_sigma_rad)
        .with_phase_error_seed(job.seed)
        .with_trim_resolution(noise.trim_resolution_rad);
    if noise.with_losses {
        xbar = xbar.with_losses(true).with_path_loss_compensation(true);
    }
    let compiled = CompiledCrossbar::new(&CrossbarSimulator::new(xbar), &transmissions);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3f3);
    let drives: Vec<f64> = (0..MVM_BATCH * rows)
        .map(|_| f64::from(rng.random_range(0..=63u8)) / 63.0)
        .collect();
    let mut ys = vec![0.0; MVM_BATCH * cols];
    let mut scratch = BatchScratch::default();
    let kernel = repeat(
        t,
        "transfer.run_normalized_batch_with",
        0,
        per_op,
        MIN_CALLS,
        |_| {
            compiled.run_normalized_batch_with(&drives, &mut ys, &mut scratch);
        },
    );
    let planes = if compiled.is_real() { 1.0 } else { 2.0 };
    let (r, c, b) = (rows as f64, cols as f64, MVM_BATCH as f64);
    let flops = 2.0 * planes * r * c * b;
    let bytes = 8.0 * (planes * r * c + b * r + b * c);
    let kernel_s = stats::median(&kernel);
    let shape = format!("{rows}x{cols}, batch {MVM_BATCH}, computed from tensor sizes");
    out.push(
        Metric::new("mvm.kernel_us", "us", kernel_s * 1e6, kernel.len()).note(format!(
            "run_normalized_batch_with {rows}x{cols}, batch {MVM_BATCH}"
        )),
    );
    out.push(
        Metric::new(
            "mvm.gflops",
            "GFLOP/s",
            flops / kernel_s / 1e9,
            kernel.len(),
        )
        .note(&shape),
    );
    out.push(Metric::new("mvm.bytes", "bytes", bytes, 1).note(&shape));
}

/// Times the transformer's static projections per layer and its dynamic
/// attention MVMs while [`generate_step`] runs on the device.
struct Recorder<'e, 'r> {
    exec: &'e DeviceExecutor,
    inner: DeviceLmEngine<'e>,
    t: &'r mut Tracer,
    request: u64,
    layer_s: &'r mut [Vec<f64>],
    dynamic_s: &'r mut Vec<f64>,
}

impl MatmulEngine for Recorder<'_, '_> {
    type Error = ExecError;

    fn static_mv(&mut self, layer_index: usize, drive: &[i64]) -> Result<Vec<i64>, ExecError> {
        let inner = &mut self.inner;
        let (out, s) = self.t.time("llm.static_mv", self.request, |_| {
            inner.static_mv(layer_index, drive)
        });
        self.layer_s[layer_index].push(s);
        out
    }

    fn dynamic_mv(
        &mut self,
        stage: usize,
        rows: &[Vec<i8>],
        drive: &[i64],
    ) -> Result<Vec<i64>, ExecError> {
        let exec = self.exec;
        let (out, s) = self.t.time("executor.dynamic_mv", self.request, |_| {
            exec.dynamic_mv(stage, rows, drive)
        });
        self.dynamic_s.push(s);
        Ok(out)
    }
}

/// Seconds of each step of one generated sequence.
#[allow(clippy::too_many_arguments)]
fn sequence(
    exec: &DeviceExecutor,
    network: &oxbar_nn::Network,
    filters: &[FilterBank],
    weights: &LmWeights,
    prompt: u32,
    steps: usize,
    request: u64,
    t: &mut Tracer,
    layer_s: &mut [Vec<f64>],
    dynamic_s: &mut Vec<f64>,
) -> Vec<f64> {
    let mut cache = KvCache::new(&weights.config);
    let mut token = prompt;
    (0..steps)
        .map(|pos| {
            let (outcome, s) = t.time("llm.step", request, |t| {
                let mut engine = Recorder {
                    exec,
                    inner: DeviceLmEngine::new(exec, network, filters),
                    t,
                    request,
                    layer_s: &mut *layer_s,
                    dynamic_s: &mut *dynamic_s,
                };
                generate_step(weights, &mut engine, &cache, token, pos)
            });
            let outcome = outcome.expect("healthy device");
            cache.apply(&outcome);
            token = outcome.next_token;
            s
        })
        .collect()
}

fn llm(inputs: &LayerInputs<'_>, per_op: Duration, t: &mut Tracer, out: &mut Vec<Metric>) {
    let cluster = inputs.engine.registry();
    let spec = cluster.spec(LLM);
    let weights = spec.lm.as_ref().expect("llm_tiny is a language model");
    let exec = DeviceExecutor::new(cluster.executor(LLM).config().clone());
    let layers = spec.network.layers().len();
    let vocab = weights.config.vocab;
    let (net, filters) = (&spec.network, spec.filters.as_slice());

    let mut scratch_layers = vec![Vec::new(); layers];
    let mut scratch_dynamic = Vec::new();
    let mut off = Tracer::new(false, Instant::now());
    sequence(
        &exec,
        net,
        filters,
        weights,
        0,
        SEQUENCE_STEPS,
        0,
        &mut off,
        &mut scratch_layers,
        &mut scratch_dynamic,
    );

    let mut layer_s = vec![Vec::new(); layers];
    let (mut dynamic_s, mut steps, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut j = 0u64;
    while j < 2 || start.elapsed() < 2 * per_op {
        let prompt = workload::prompt(inputs.seed ^ 0x11a, j, vocab);
        let secs = sequence(
            &exec,
            net,
            filters,
            weights,
            prompt,
            SEQUENCE_STEPS,
            j,
            t,
            &mut layer_s,
            &mut dynamic_s,
        );
        first.push(secs[0]);
        steps.extend(secs);
        j += 1;
    }
    let mut cold = Vec::new();
    let start = Instant::now();
    while cold.len() < MIN_CALLS || start.elapsed() < per_op {
        exec.clear_cache();
        let prompt = workload::prompt(inputs.seed ^ 0x11a, cold.len() as u64, vocab);
        cold.extend(sequence(
            &exec,
            net,
            filters,
            weights,
            prompt,
            1,
            0,
            t,
            &mut scratch_layers,
            &mut scratch_dynamic,
        ));
    }
    for (layer, secs) in net.layers().iter().zip(&layer_s) {
        let name = mac(layer).map_or_else(String::new, |c| c.name);
        out.push(Metric::new(
            format!("sim.{}.{name}_us", spec.name),
            "us",
            us(secs),
            secs.len(),
        ));
    }
    out.push(
        Metric::new(
            format!("sim.{}.forward_warm_us", spec.name),
            "us",
            us(&first),
            first.len(),
        )
        .note("one decode step at position 0"),
    );
    out.push(
        Metric::new(
            format!("sim.{}.forward_cold_us", spec.name),
            "us",
            us(&cold),
            cold.len(),
        )
        .note("one decode step at position 0 on an empty tile cache"),
    );
    out.push(
        Metric::new("llm.step_us", "us", us(&steps), steps.len())
            .note(format!("decode step, positions 0..{SEQUENCE_STEPS}")),
    );
    out.push(Metric::new(
        "llm.dynamic_mv_us",
        "us",
        us(&dynamic_s),
        dynamic_s.len(),
    ));
}
