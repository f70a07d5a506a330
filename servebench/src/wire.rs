//! `wire_mixed`: a loopback [`Server`] and two protocol clients in closed
//! loop, both driven from this process.
//!
//! Connection 0 sends one CNN `Infer` at a time over the catalog mix and
//! waits for its `Completion`; connection 1 sends one `Generate` of
//! [`SEQUENCE_STEPS`] tokens at a time on `llm_tiny` and reads its token
//! frames. Latency runs from just before `Client::send` to the frame's
//! arrival. Clients use default socket options, like any protocol user.

use crate::layers::{self, LayerInputs};
use crate::offline::{cluster_metrics, dispatch_metrics, engine_metrics};
use crate::trace::Tracer;
use crate::workload::{self, LLM, SEQUENCE_STEPS, WARM_UP_STEPS};
use crate::{stats, Finish, Samples, Workload};
use oxbar_nn::reference::Tensor3;
use oxbar_nn::TensorShape;
use oxbar_serve::protocol::{Client, ClientError, ClientFrame, ServerFrame, WireToken};
use oxbar_serve::{InferRequest, ModelId, Server, ServerConfig};
use std::net::TcpStream;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Read and write deadline on both client sockets.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Sequences whose token gaps form one ITL group. Gaps are microseconds
/// of frame decoding, so the tail of a whole phase (its 11th-largest gap)
/// is whichever scheduler hiccup came eleventh; the tail of a block of 20
/// × 15 gaps is its p96.7, and the mean over blocks stays steady.
const ITL_GROUP_SEQUENCES: usize = 20;

/// Tag of the set-up warm-up requests (never reused by measured ones).
const WARM_UP_TAG: u64 = u64::MAX;

/// The workload.
#[derive(Debug, Clone, Copy)]
pub struct WireMixed {
    /// Workload seed.
    pub seed: u64,
}

type WireClient = Client<TcpStream>;

/// One CNN request as the client saw it.
#[derive(Debug)]
struct CnnRecord {
    index: u64,
    /// `None` when answered by anything but a `Completion`.
    output: Option<Tensor3>,
}

/// One generated sequence as the client saw it.
#[derive(Debug)]
struct SeqRecord {
    index: u64,
    prompt: u32,
    /// Token frames in arrival order: wire token and logits.
    steps: Vec<(WireToken, Tensor3)>,
    /// Ended on its `done` frame.
    complete: bool,
}

/// Which records and spans the traced phase produced.
#[derive(Debug)]
struct TracedPhase {
    spans: Range<usize>,
    cnn: Range<usize>,
    seqs: Range<usize>,
    /// Server `(requests, batches)` before and after.
    stats: ((u64, u64), (u64, u64)),
}

/// A running server with both clients connected.
pub struct System {
    server: Server,
    cnn: WireClient,
    llm: WireClient,
    shapes: Vec<TensorShape>,
    vocab: usize,
    cnn_records: Vec<CnnRecord>,
    seq_records: Vec<SeqRecord>,
    traced: Option<TracedPhase>,
}

impl Workload for WireMixed {
    type System = System;

    fn setup(&self, t: &mut Tracer) -> System {
        let mut engine = workload::build_engine(workload::resident_config(), t);
        workload::prewarm_and_warm_up(&mut engine, self.seed, t);
        let shapes = workload::input_shapes(&engine);
        let vocab = workload::vocab(&engine);
        let (server, _) = t.time("server.start", 0, |_| {
            Server::start(engine, ServerConfig::default())
        });
        let server = server.expect("server binds loopback");
        let mut connect = |c: u64| {
            let stream = TcpStream::connect(server.addr()).expect("loopback connect");
            t.time("protocol.client_connect", c, |_| {
                Client::connect_with_timeouts(stream, Some(CLIENT_TIMEOUT), Some(CLIENT_TIMEOUT))
            })
            .0
            .expect("handshake")
        };
        let (mut cnn, mut llm) = (connect(0), connect(1));
        // One round trip per connection before anything is timed.
        for (m, &shape) in shapes.iter().enumerate().take(workload::MIX.len()) {
            cnn.send(&ClientFrame::Infer {
                tag: WARM_UP_TAG,
                model: m,
                arrival: 0,
                deadline: None,
                input: workload::warm_up_input(self.seed, m, shape),
            })
            .expect("warm-up send");
            cnn.wait_completion(WARM_UP_TAG)
                .expect("warm-up completion");
        }
        llm.send(&ClientFrame::Generate {
            tag: WARM_UP_TAG,
            model: LLM.0,
            prompt: 0,
            steps: WARM_UP_STEPS as u64,
            arrival: 0,
            interval: 1,
        })
        .expect("warm-up generate");
        llm.wait_sequence(WARM_UP_TAG).expect("warm-up tokens");
        System {
            server,
            cnn,
            llm,
            shapes,
            vocab,
            cnn_records: Vec::new(),
            seq_records: Vec::new(),
            traced: None,
        }
    }

    fn teardown(&self, system: System) {
        let System {
            server,
            mut cnn,
            mut llm,
            ..
        } = system;
        goodbye(&mut cnn);
        goodbye(&mut llm);
        server.shutdown();
    }

    fn phase(&self, sys: &mut System, seconds: f64, t: &mut Tracer) -> Samples {
        let span_from = t.spans().len();
        let stats_before = t.is_on().then(|| server_stats(&mut sys.cnn, t));
        let (cnn_from, seq_from) = (sys.cnn_records.len(), sys.seq_records.len());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let seed = self.seed;
        let mut llm_t = t.fork();
        let System {
            cnn,
            llm,
            shapes,
            vocab,
            cnn_records,
            seq_records,
            ..
        } = sys;
        let (cnn_run, (seq_run, llm_t)) = std::thread::scope(|s| {
            let vocab = *vocab;
            let handle = s.spawn(move || {
                let run = sequence_loop(llm, seed, vocab, deadline, seq_records, &mut llm_t);
                (run, llm_t)
            });
            let run = request_loop(cnn, seed, shapes, deadline, cnn_records, t);
            (run, handle.join().expect("generate client thread"))
        });
        t.absorb(llm_t);
        if let Some(before) = stats_before {
            let after = server_stats(&mut sys.cnn, t);
            sys.traced = Some(TracedPhase {
                spans: span_from..t.spans().len(),
                cnn: cnn_from..sys.cnn_records.len(),
                seqs: seq_from..sys.seq_records.len(),
                stats: (before, after),
            });
        }
        Samples {
            completed: cnn_run.latency_ms.len() as u64,
            serving_s: cnn_run.wall_s,
            req_ms: vec![cnn_run.latency_ms],
            ttft_ms: vec![seq_run.ttft_ms],
            itl_ms: itl_groups(seq_run.itl_ms),
            attempted: cnn_run.attempted + seq_run.attempted,
            failed: cnn_run.failed + seq_run.failed,
            ..Samples::default()
        }
    }

    fn finish(&self, sys: System, t: &mut Tracer, layer_budget: Option<Duration>) -> Finish {
        let System {
            server,
            mut cnn,
            mut llm,
            cnn_records,
            seq_records,
            traced,
            ..
        } = sys;
        goodbye(&mut cnn);
        goodbye(&mut llm);
        t.time("server.shutdown", 0, |_| server.shutdown());

        // The in-process reference: the same engine configuration, fed the
        // same requests, one drain per request as the closed loop offers
        // them.
        let mut engine = workload::build_engine(workload::resident_config(), t);
        workload::prewarm_and_warm_up(&mut engine, self.seed, t);
        let shapes = workload::input_shapes(&engine);
        let span_from = t.spans().len();
        let before = engine.stats();
        let mut finish = Finish::default();
        let (mut drain_ms, mut batch_ms, mut cnn_batch_ms, mut round_ms) =
            (Vec::new(), Vec::new(), Vec::new(), 0.0);
        let mut note_drain = |trace: &oxbar_serve::DrainTrace, wall: f64, cnn: bool| {
            drain_ms.push(wall * 1e3);
            round_ms += trace
                .rounds
                .iter()
                .map(|r| r.iter().map(|&b| trace.batch_ms[b]).fold(0.0, f64::max))
                .sum::<f64>();
            batch_ms.extend(&trace.batch_ms);
            if cnn {
                cnn_batch_ms.extend(&trace.batch_ms);
            }
        };
        for record in &cnn_records {
            let (model, input) = workload::cnn_request(self.seed, record.index, &shapes);
            let request = InferRequest {
                model,
                input,
                arrival: record.index,
                deadline: None,
            };
            t.time("engine.try_submit", record.index, |_| {
                engine.try_submit(request)
            })
            .0
            .expect("reference admits the request");
            let (trace, wall) = t.time("engine.drain_traced", record.index, |_| {
                engine.drain_traced()
            });
            note_drain(&trace, wall, true);
            if let Some(output) = &record.output {
                finish.checked += 1;
                let same = trace.completions.len() == 1 && trace.completions[0].output == *output;
                finish.mismatches += u64::from(!same);
            }
        }
        for record in &seq_records {
            t.time("engine.begin_sequence", record.index, |_| {
                engine.begin_sequence(LLM, record.prompt, SEQUENCE_STEPS, record.index, 1)
            })
            .0
            .expect("reference begins the sequence");
            let (trace, wall) = t.time("engine.drain_traced", record.index, |_| {
                engine.drain_traced()
            });
            note_drain(&trace, wall, false);
            if record.complete {
                finish.checked += 1;
                let expected: Vec<(WireToken, &Tensor3)> = trace
                    .completions
                    .iter()
                    .filter_map(|c| {
                        c.sequence.map(|tc| {
                            let token = WireToken {
                                step: tc.step as u64,
                                token: u64::from(tc.token),
                                done: tc.done,
                            };
                            (token, &c.output)
                        })
                    })
                    .collect();
                let got: Vec<(WireToken, &Tensor3)> =
                    record.steps.iter().map(|(w, o)| (*w, o)).collect();
                finish.mismatches += u64::from(expected != got);
            }
        }
        finish.report.push(format!(
            "{} CNN requests and {} sequences over the wire, each checked against an \
             in-process engine",
            cnn_records.len(),
            seq_records.len()
        ));
        let (Some(budget), Some(traced)) = (layer_budget, traced) else {
            return finish;
        };

        let ms = |name: &str| -> Vec<f64> {
            t.durations(name, traced.spans.clone())
                .iter()
                .map(|s| s * 1e3)
                .collect()
        };
        let (request_ms, send_ms, wait_ms) = (
            ms("bench.request"),
            ms("protocol.client_send"),
            ms("protocol.client_wait"),
        );
        let wire_p50 = stats::median(&request_ms);
        let (wait_p50, batch_p50) = (stats::median(&wait_ms), stats::median(&cnn_batch_ms));
        finish.report.push(format!(
            "traced wire p50 {wire_p50:.3} ms: protocol.client_wait p50 {wait_p50:.3} ms ({:.1}%), \
             engine CNN batch p50 {batch_p50:.3} ms ({:.1}%)",
            100.0 * wait_p50 / wire_p50.max(f64::MIN_POSITIVE),
            100.0 * batch_p50 / wire_p50.max(f64::MIN_POSITIVE),
        ));

        let submit_us: Vec<f64> = t
            .durations("engine.try_submit", span_from..t.spans().len())
            .iter()
            .map(|s| s * 1e6)
            .collect();
        let mut metrics = engine_metrics(&submit_us, &drain_ms, &batch_ms, round_ms);
        let ((r0, b0), (r1, b1)) = traced.stats;
        metrics.extend(dispatch_metrics(r1 - r0, b1 - b0));
        metrics.extend(cluster_metrics(&before, &engine.stats()));

        let cnn_traced = &cnn_records[traced.cnn.clone()];
        let seq_traced = &seq_records[traced.seqs.clone()];
        let exchanges = cnn_traced
            .iter()
            .filter_map(|r| {
                let output = r.output.clone()?;
                let (model, input) = workload::cnn_request(self.seed, r.index, &shapes);
                Some((
                    ClientFrame::Infer {
                        tag: r.index,
                        model: model.0,
                        arrival: r.index,
                        deadline: None,
                        input,
                    },
                    ServerFrame::Completion {
                        tag: r.index,
                        batch_seq: r.index,
                        batch_size: 1,
                        output,
                        sequence: None,
                    },
                ))
            })
            .collect();
        let stream = seq_traced
            .iter()
            .flat_map(|r| {
                r.steps
                    .iter()
                    .map(|(token, output)| ServerFrame::Completion {
                        tag: r.index,
                        batch_seq: token.step,
                        batch_size: 1,
                        output: output.clone(),
                        sequence: Some(*token),
                    })
            })
            .collect();
        let mut queue: Vec<(ModelId, u64)> = cnn_traced
            .iter()
            .map(|r| {
                (
                    workload::cnn_request(self.seed, r.index, &shapes).0,
                    r.index,
                )
            })
            .collect();
        queue.extend(seq_traced.iter().map(|r| (LLM, r.index)));
        queue.sort_by_key(|&(_, arrival)| arrival);
        let inputs = LayerInputs {
            engine: &engine,
            seed: self.seed,
            exchanges,
            stream,
            queue,
            client_ms: Some((send_ms, wait_ms)),
        };
        layers::measure(&inputs, budget, t, &mut metrics);
        finish.per_layer = metrics;
        finish
    }
}

/// What one client loop measured.
#[derive(Debug, Default)]
struct Run {
    latency_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
}

/// Connection 0: one `Infer` at a time until `deadline`.
fn request_loop(
    client: &mut WireClient,
    seed: u64,
    shapes: &[TensorShape],
    deadline: Instant,
    records: &mut Vec<CnnRecord>,
    t: &mut Tracer,
) -> Run {
    let start = Instant::now();
    let mut run = Run::default();
    let mut index = records.last().map_or(0, |r| r.index + 1);
    while Instant::now() < deadline {
        let (model, input) = workload::cnn_request(seed, index, shapes);
        let frame = ClientFrame::Infer {
            tag: index,
            model: model.0,
            arrival: index,
            deadline: None,
            input,
        };
        run.attempted += 1;
        let (reply, secs) = t.time("bench.request", index, |t| {
            t.time("protocol.client_send", index, |_| client.send(&frame))
                .0?;
            t.time("protocol.client_wait", index, |_| {
                client.wait_completion(index)
            })
            .0
        });
        let output = match reply {
            Ok(ServerFrame::Completion { output, .. }) => {
                run.latency_ms.push(secs * 1e3);
                Some(output)
            }
            Ok(_) => None,
            Err(_) => {
                run.failed += 1;
                records.push(CnnRecord {
                    index,
                    output: None,
                });
                break;
            }
        };
        run.failed += u64::from(output.is_none());
        records.push(CnnRecord { index, output });
        index += 1;
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// Connection 1: one `Generate` at a time until `deadline`.
fn sequence_loop(
    client: &mut WireClient,
    seed: u64,
    vocab: usize,
    deadline: Instant,
    records: &mut Vec<SeqRecord>,
    t: &mut Tracer,
) -> Run {
    let mut run = Run::default();
    let mut index = records.last().map_or(0, |r| r.index + 1);
    while Instant::now() < deadline {
        let prompt = workload::prompt(seed, index, vocab);
        let frame = ClientFrame::Generate {
            tag: index,
            model: LLM.0,
            prompt: u64::from(prompt),
            steps: SEQUENCE_STEPS as u64,
            arrival: index,
            interval: 1,
        };
        run.attempted += 1;
        let mut record = SeqRecord {
            index,
            prompt,
            steps: Vec::with_capacity(SEQUENCE_STEPS),
            complete: false,
        };
        let mut arrivals = Vec::with_capacity(SEQUENCE_STEPS);
        let (alive, _) = t.time("bench.sequence", index, |t| {
            let start = Instant::now();
            t.time("protocol.client_send", index, |_| client.send(&frame))
                .0?;
            loop {
                let (reply, _) = t.time("protocol.client_recv", index, |_| client.recv());
                match reply? {
                    ServerFrame::Completion {
                        tag,
                        output,
                        sequence: Some(token),
                        ..
                    } if tag == index => {
                        arrivals.push(start.elapsed().as_secs_f64() * 1e3);
                        record.steps.push((token, output));
                        if token.done {
                            record.complete = record.steps.len() == SEQUENCE_STEPS;
                            return Ok::<(), ClientError>(());
                        }
                    }
                    ServerFrame::Degraded { .. } => {}
                    _ => return Ok(()),
                }
            }
        });
        if record.complete {
            run.ttft_ms.push(arrivals[0]);
            run.itl_ms.extend(arrivals.windows(2).map(|w| w[1] - w[0]));
        } else {
            run.failed += 1;
        }
        records.push(record);
        index += 1;
        if alive.is_err() {
            break;
        }
    }
    run
}

/// Token gaps in blocks of [`ITL_GROUP_SEQUENCES`] consecutive sequences,
/// dropping a last, partial block; all of them as one group when no block
/// fills.
fn itl_groups(itl_ms: Vec<f64>) -> Vec<Vec<f64>> {
    let size = ITL_GROUP_SEQUENCES * (SEQUENCE_STEPS - 1);
    if itl_ms.len() < size {
        return vec![itl_ms];
    }
    itl_ms.chunks_exact(size).map(<[f64]>::to_vec).collect()
}

/// The server's `(requests, batches)` from a `Stats` frame.
fn server_stats(client: &mut WireClient, t: &mut Tracer) -> (u64, u64) {
    t.time("server.stats", 0, |_| {
        client.send(&ClientFrame::Stats).expect("stats request");
        loop {
            if let ServerFrame::Stats {
                requests, batches, ..
            } = client.recv().expect("stats reply")
            {
                return (requests, batches);
            }
        }
    })
    .0
}

/// Ends a session: `Goodbye`, then read until `Bye` or the stream ends.
fn goodbye(client: &mut WireClient) {
    if client.send(&ClientFrame::Goodbye).is_ok() {
        while let Ok(frame) = client.recv() {
            if frame == ServerFrame::Bye {
                break;
            }
        }
    }
}
