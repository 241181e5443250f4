//! The wire-fed serving workloads.
//!
//! Frames are encoded with the binary wire protocol and decoded by
//! `FramedTransport` into `IngestEngine` over the default `FleetConfig`
//! (one shard, batching on, no worker threads), all on the calling thread
//! and without sockets. Each run has three phases on one engine:
//!
//! 1. **set-up** — engine construction until every stream is admitted,
//!    warmed up, fitted and served through a batched cohort (repeated, the
//!    median is `setup_s`);
//! 2. **saturated** — a closed loop: each frame is offered as soon as the
//!    engine returns (`steps_per_s`);
//! 3. **paced** — an open loop at the workload's fixed offered rate;
//!    latency runs from each frame's due time to the emission of its score
//!    (`lat_p50_ms`, `lat_p99_ms`).
//!
//! Both timed phases have a fixed frame budget (nominal rate × a share of
//! `--seconds`), so a run does the same work on any machine and its
//! counters repeat exactly for a seed.

use std::collections::VecDeque;
use std::io::Cursor;
use std::time::{Duration, Instant};

use sad_core::{
    paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ModelKind, ScoreKind, StepOutput,
    Task1, Task2,
};
use sad_data::{smd_like, CorpusParams};
use sad_ingest::{
    encode_frame_into, DetectorTemplate, EngineConfig, EngineSink, FleetConfig, Frame,
    FramedTransport, IngestEngine, IngestStats, Transport,
};
use sad_models::{build_detector, BuildParams};

use crate::probe::{run_probe, InferPath, ProbeCosts, ProbePlan};
use crate::trace::{self as span, Tracer, NO_PARENT};
use crate::util::{clock_overhead_ns, median, median_of_windows, quantile_sorted, SplitMix};
use crate::{Outcome, Report};

/// One serving workload.
pub struct ServeWorkload {
    pub name: &'static str,
    /// Serve through f32 weight snapshots (`FleetConfig::f32_infer`).
    pub f32_infer: bool,
    /// 64 distinct drifting SMD-like series instead of identical
    /// window-periodic replicas.
    pub drift: bool,
    /// Frames per second that size the saturated phase's fixed budget.
    pub budget_rate: f64,
    /// Share of `--seconds` the saturated phase is sized for; the paced
    /// phase gets the rest.
    pub saturated_share: f64,
    /// Offered rate of the paced phase, frames per second. Set once near
    /// half the parent commit's saturated `steps_per_s` on the reference
    /// host and never recomputed per run, so a faster engine shows as lower
    /// latency at the same load.
    pub paced_rate: f64,
}

/// Sizes that differ between a measured run and the smoke run.
struct Scale {
    streams: usize,
    warmup: usize,
    initial_epochs: usize,
    capacity: usize,
    setup_reps: usize,
    /// Post-warm-up steps the replica probe runs at full cohort width.
    probe_steps: usize,
    /// Streams the drift probe samples.
    probe_streams: usize,
    /// Rounds encoded ahead per saturated chunk (encoding is client work
    /// and stays outside the timed loop).
    chunk_rounds: usize,
}

const CHANNELS: usize = 38;
const WINDOW: usize = 10;
/// The f32 agreement tolerance of `crates/fleet/tests/f32_infer.rs`.
const F32_ABS_TOL: f64 = 5e-3;
/// Frames per throughput window and per latency window: the reported
/// figures are medians over the windows of a phase.
const THROUGHPUT_WINDOW_FRAMES: usize = 65_536;
const LATENCY_WINDOW_FRAMES: usize = 16_384;
/// One saturated chunk in this many is traced (two spans per frame).
const TRACE_EVERY: usize = 4;
/// Span budget of the stage probe and the component replay.
const PROBE_SPANS: usize = 1 << 17;
/// Streams compared against a standalone `Detector::run` by the gate.
const GATE_STREAMS: usize = 2;

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            streams: 4,
            warmup: 30,
            initial_epochs: 1,
            capacity: 20,
            setup_reps: 2,
            probe_steps: 20,
            probe_streams: 2,
            chunk_rounds: 2,
        }
    } else {
        // Capacity 30 is three signal periods: the replica training set's
        // statistics are then constant and μ/σ-Change never fires.
        Scale {
            streams: 64,
            warmup: 200,
            initial_epochs: 4,
            capacity: 30,
            setup_reps: 3,
            probe_steps: 300,
            probe_streams: 4,
            chunk_rounds: 16,
        }
    }
}

fn spec() -> AlgorithmSpec {
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    assert!(
        paper_algorithms().contains(&spec),
        "AE / SW / μσ is a Table I algorithm"
    );
    spec
}

fn params(sc: &Scale) -> BuildParams {
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: sc.warmup,
        initial_epochs: sc.initial_epochs,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config)
        .with_capacity(sc.capacity)
        .with_score(ScoreKind::Raw)
        .with_seed(42)
}

/// The generated traffic: per-stream series plus wire ids. The engine sees
/// only the encoded frames.
struct Traffic {
    /// Replica: one window-periodic period shared by every stream.
    period: Vec<Vec<f64>>,
    /// Drift: one SMD-like series per stream.
    series: Vec<Vec<Vec<f64>>>,
    /// Wire id per stream; the low 16 bits are the stream index.
    wire: Vec<u64>,
}

impl Traffic {
    fn new(drift: bool, streams: usize, rounds: usize, rng: &mut SplitMix) -> Self {
        let wire = (0..streams)
            .map(|i| (rng.next_u64() << 16) | i as u64)
            .collect();
        if drift {
            let cp = CorpusParams {
                length: rounds,
                n_series: streams,
                anomalies_per_series: 4,
                with_drift: true,
            };
            let corpus = smd_like(rng.next_u64(), cp);
            let series = corpus.series.into_iter().map(|s| s.data).collect();
            return Self {
                period: Vec::new(),
                series,
                wire,
            };
        }
        // A seeded window-periodic signal: per-channel phase, amplitude and
        // offset, period exactly `WINDOW`, identical on every stream.
        let chan: Vec<(f64, f64, f64)> = (0..CHANNELS)
            .map(|_| {
                (
                    rng.unit() * std::f64::consts::TAU,
                    0.5 + 1.5 * rng.unit(),
                    40.0 * rng.unit(),
                )
            })
            .collect();
        let period = (0..WINDOW)
            .map(|t| {
                let phase = std::f64::consts::TAU * t as f64 / WINDOW as f64;
                chan.iter()
                    .map(|&(p, a, o)| (phase + p).sin() * a + o)
                    .collect()
            })
            .collect();
        Self {
            period,
            series: Vec::new(),
            wire,
        }
    }

    fn row(&self, stream: usize, t: usize) -> &[f64] {
        if self.series.is_empty() {
            &self.period[t % WINDOW]
        } else {
            &self.series[stream][t]
        }
    }

    /// Stream `i`'s first `len` vectors, for the gate and the probe.
    fn stream(&self, i: usize, len: usize) -> Vec<Vec<f64>> {
        (0..len).map(|t| self.row(i, t).to_vec()).collect()
    }

    /// Appends rounds `r0..r1` (each: one frame per stream, in stream order).
    fn encode(&self, r0: usize, r1: usize, out: &mut Vec<u8>) {
        out.clear();
        for t in r0..r1 {
            for (i, &id) in self.wire.iter().enumerate() {
                encode_frame_into(id, self.row(i, t), out);
            }
        }
    }
}

/// Engine output sink: counts scores, keeps the gate streams' traces, and
/// lists the streams scored in the current round for the latency clock.
struct Sink {
    scored: usize,
    /// Whether `round_ids` is collected (the paced phase only).
    track_rounds: bool,
    round_ids: Vec<u64>,
    gate_ids: Vec<u64>,
    gate: Vec<Vec<StepOutput>>,
}

impl EngineSink for Sink {
    fn output(&mut self, stream: u64, out: &StepOutput) {
        self.scored += 1;
        if self.track_rounds {
            self.round_ids.push(stream);
        }
        if let Some(g) = self.gate_ids.iter().position(|&id| id == stream) {
            self.gate[g].push(*out);
        }
    }
}

fn new_engine(sc: &Scale, f32_infer: bool) -> IngestEngine {
    let fleet = FleetConfig {
        f32_infer,
        ..FleetConfig::default()
    };
    IngestEngine::new(
        DetectorTemplate::new(spec(), params(sc)),
        fleet,
        EngineConfig::default(),
    )
}

fn pump(engine: &mut IngestEngine, wire: &[u8], frame: &mut Frame, sink: &mut Sink) -> u64 {
    let mut transport = FramedTransport::new(Cursor::new(wire));
    while transport.next(frame).expect("well-formed wire") {
        engine.ingest(frame, sink);
    }
    transport.bytes_read()
}

/// Detector-level counters summed over the fleet.
fn detector_counts(engine: &IngestEngine) -> (usize, usize) {
    let fleet = engine.fleet();
    (0..fleet.len())
        .filter(|&id| fleet.is_live(id))
        .map(|id| fleet.detector(id))
        .fold((0, 0), |(ft, dr), d| {
            (ft + d.fine_tune_count(), dr + d.drift_times().len())
        })
}

/// Set-up: admission, warm-up, initial fit and the first batched round.
/// Returns the engine and its wall time.
fn setup(
    w: &ServeWorkload,
    sc: &Scale,
    traffic: &Traffic,
    sink: &mut Sink,
) -> Result<(IngestEngine, f64), String> {
    let mut wire = Vec::new();
    traffic.encode(0, sc.warmup + 1, &mut wire);
    let mut frame = Frame::default();
    let started = Instant::now();
    let mut engine = new_engine(sc, w.f32_infer);
    pump(&mut engine, &wire, &mut frame, sink);
    // Streams admitted mid-round lag the first one by a round; the flush
    // serves every stream's first post-warm-up step and aligns later
    // rounds with the round-robin traffic.
    engine.finish(sink);
    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    if stats.fleet.admitted != sc.streams || stats.fleet.batched_rows != sc.streams {
        return Err(format!(
            "set-up left streams outside a cohort: admitted {}, batched rows {} of {}",
            stats.fleet.admitted, stats.fleet.batched_rows, sc.streams
        ));
    }
    Ok((engine, elapsed))
}

/// Per-traced-chunk accumulation for the explained-time ratio.
#[derive(Default)]
struct TracedCounts {
    frames: usize,
    seconds: f64,
    /// Time inside `ingest` calls that ran a drain round.
    round_ns: f64,
    steps: usize,
    batched_rows: usize,
    fine_tunes: usize,
    f32_resyncs: usize,
}

/// Saturated closed loop over rounds `r0..r1`. In trace mode every
/// `TRACE_EVERY`-th chunk is traced and the rest are not, so the tracing
/// overhead is measured on the same engine and stretch of traffic.
#[derive(Default)]
struct Saturated {
    bytes: u64,
    /// `(frames, seconds)` of each untraced chunk, in order.
    untraced: Vec<(usize, f64)>,
    traced: TracedCounts,
}

fn saturated(
    engine: &mut IngestEngine,
    traffic: &Traffic,
    chunk_rounds: usize,
    r0: usize,
    r1: usize,
    sink: &mut Sink,
    mut tr: Option<&mut Tracer>,
) -> Saturated {
    let mut wire = Vec::new();
    let mut frame = Frame::default();
    let mut out = Saturated::default();
    let mut frame_id = (r0 * traffic.wire.len()) as u64;
    for (chunk, c0) in (r0..r1).step_by(chunk_rounds).enumerate() {
        let c1 = (c0 + chunk_rounds).min(r1);
        traffic.encode(c0, c1, &mut wire);
        let frames = (c1 - c0) * traffic.wire.len();
        match tr
            .as_deref_mut()
            .filter(|_| chunk % TRACE_EVERY == TRACE_EVERY - 1)
        {
            None => {
                let started = Instant::now();
                out.bytes += pump(engine, &wire, &mut frame, sink);
                out.untraced.push((frames, started.elapsed().as_secs_f64()));
            }
            Some(tr) => {
                let before = (engine.stats().fleet, detector_counts(engine).0);
                let started = tr.now();
                let parent = tr.record(span::SATURATED, c0 as u64, started, started, NO_PARENT);
                let mut transport = FramedTransport::new(Cursor::new(&wire[..]));
                let mut round_ns = 0u64;
                let mut t_prev = started;
                for id in frame_id..frame_id + frames as u64 {
                    assert!(
                        transport.next(&mut frame).expect("well-formed wire"),
                        "chunk holds {frames} frames"
                    );
                    let t_dec = tr.now();
                    tr.record(span::DECODE, id, t_prev, t_dec, parent);
                    let rounds = engine.rounds();
                    engine.ingest(&frame, sink);
                    let t_ing = tr.now();
                    let round = engine.rounds() != rounds;
                    tr.record(
                        if round { span::ROUND } else { span::OFFER },
                        id,
                        t_dec,
                        t_ing,
                        parent,
                    );
                    if round {
                        round_ns += t_ing - t_dec;
                    }
                    t_prev = t_ing;
                }
                tr.set_end(parent, t_prev);
                out.bytes += transport.bytes_read();
                let after = (engine.stats().fleet, detector_counts(engine).0);
                let t = &mut out.traced;
                t.frames += frames;
                t.seconds += (t_prev - started) as f64 / 1e9;
                t.round_ns += round_ns as f64;
                t.steps += after.0.steps - before.0.steps;
                t.batched_rows += after.0.batched_rows - before.0.batched_rows;
                t.f32_resyncs += after.0.f32_resyncs - before.0.f32_resyncs;
                t.fine_tunes += after.1 - before.1;
            }
        }
        frame_id += frames as u64;
    }
    out
}

/// Paced open loop over rounds `r0..r1` at `rate` frames/s, frames
/// round-robin across streams. Returns per-frame latency (ms, `INFINITY`
/// when unscored) and per-frame generator lateness (ms).
fn paced(
    engine: &mut IngestEngine,
    traffic: &Traffic,
    r0: usize,
    r1: usize,
    rate: f64,
    sink: &mut Sink,
) -> (Vec<f64>, Vec<f64>) {
    let streams = traffic.wire.len();
    let n = (r1 - r0) * streams;
    let mut latency = vec![f64::INFINITY; n];
    let mut late = vec![0.0; n];
    let mut due_ns = vec![0u64; n];
    let mut pending: Vec<VecDeque<usize>> =
        (0..streams).map(|_| VecDeque::with_capacity(256)).collect();
    let mut wire = Vec::with_capacity(streams * (12 + 8 * CHANNELS));
    let mut frame = Frame::default();
    sink.round_ids.clear();
    sink.track_rounds = true;
    let period_ns = 1e9 / rate;
    let start = Instant::now() + Duration::from_millis(1);
    let mut k = 0usize;
    for t in r0..r1 {
        traffic.encode(t, t + 1, &mut wire);
        let mut transport = FramedTransport::new(Cursor::new(&wire[..]));
        for _ in 0..streams {
            let due = (k as f64 * period_ns) as u64;
            let due_at = start + Duration::from_nanos(due);
            let mut now = Instant::now();
            while now < due_at {
                std::hint::spin_loop();
                now = Instant::now();
            }
            due_ns[k] = due;
            late[k] = now.duration_since(due_at).as_secs_f64() * 1e3;
            assert!(
                transport.next(&mut frame).expect("well-formed wire"),
                "one frame per stream per round"
            );
            pending[(frame.stream & 0xffff) as usize].push_back(k);
            engine.ingest(&frame, sink);
            if !sink.round_ids.is_empty() {
                let emitted = Instant::now().saturating_duration_since(start).as_nanos() as u64;
                for &id in &sink.round_ids {
                    if let Some(j) = pending[(id & 0xffff) as usize].pop_front() {
                        latency[j] = emitted.saturating_sub(due_ns[j]) as f64 / 1e6;
                    }
                }
                sink.round_ids.clear();
            }
            k += 1;
        }
    }
    sink.track_rounds = false;
    (latency, late)
}

/// Compares the engine's trace of one stream against a standalone
/// `Detector::run` over the same series: bitwise for f64; for f32 the
/// drift and fine-tune flags must be identical and scores within the f32
/// tolerance.
fn gate_stream(
    series: &[Vec<f64>],
    served: &[StepOutput],
    f32_infer: bool,
    sc: &Scale,
) -> Result<(), String> {
    let mut det: Detector = build_detector(spec(), &params(sc));
    let want = det.run(series);
    if want.len() != served.len() {
        return Err(format!(
            "served {} scores, standalone run {}",
            served.len(),
            want.len()
        ));
    }
    for (a, b) in served.iter().zip(&want) {
        let same = if f32_infer {
            let tol = |x: f64| F32_ABS_TOL * x.abs().max(1.0);
            a.t == b.t
                && a.drift == b.drift
                && a.fine_tuned == b.fine_tuned
                && (a.nonconformity - b.nonconformity).abs() <= tol(b.nonconformity)
                && (a.anomaly_score - b.anomaly_score).abs() <= tol(b.anomaly_score)
        } else {
            a.t == b.t
                && a.drift == b.drift
                && a.fine_tuned == b.fine_tuned
                && a.nonconformity.to_bits() == b.nonconformity.to_bits()
                && a.anomaly_score.to_bits() == b.anomaly_score.to_bits()
        };
        if !same {
            return Err(format!(
                "served output diverges from the standalone run at t={}: {a:?} vs {b:?}",
                b.t
            ));
        }
    }
    Ok(())
}

pub fn run(
    w: &ServeWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let sc = scale(smoke);
    let round_budget = |rate: f64, share: f64| {
        ((rate * share * seconds as f64 / sc.streams as f64).ceil() as usize).max(2)
    };
    let (sat_rounds, paced_rounds) = if smoke {
        (8, 4)
    } else {
        (
            round_budget(w.budget_rate, w.saturated_share),
            round_budget(w.paced_rate, 1.0 - w.saturated_share),
        )
    };
    let sat0 = sc.warmup + 1;
    let paced0 = sat0 + sat_rounds;
    let total_rounds = paced0 + paced_rounds;

    let mut rng = SplitMix::new(seed);
    let traffic = Traffic::new(w.drift, sc.streams, total_rounds, &mut rng);
    let gate_idx = rng.sample(sc.streams, GATE_STREAMS);
    let mut sink = Sink {
        scored: 0,
        track_rounds: false,
        round_ids: Vec::with_capacity(sc.streams * 2),
        gate_ids: gate_idx.iter().map(|&i| traffic.wire[i]).collect(),
        gate: Vec::new(),
    };

    let mut tracer = trace
        .then(|| Tracer::new(2 * sat_rounds * sc.streams / TRACE_EVERY + sat_rounds + PROBE_SPANS));
    let reps = if trace { 1 } else { sc.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut engine = None;
    for _ in 0..reps {
        sink.scored = 0;
        sink.gate = vec![Vec::new(); GATE_STREAMS];
        let started = tracer.as_ref().map(|t| t.now());
        // One engine alive at a time, so `peak_rss_mb` is one engine's.
        drop(engine.take());
        let (e, s) = setup(w, &sc, &traffic, &mut sink)?;
        if let (Some(tr), Some(t0)) = (tracer.as_mut(), started) {
            let now = tr.now();
            tr.record(span::SETUP, 0, t0, now, NO_PARENT);
        }
        setup_s.push(s);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    let settled = engine.stats().fleet;
    let settled_det = detector_counts(&engine);

    let sat = saturated(
        &mut engine,
        &traffic,
        sc.chunk_rounds,
        sat0,
        paced0,
        &mut sink,
        tracer.as_mut(),
    );
    let (latency, mut late) = paced(
        &mut engine,
        &traffic,
        paced0,
        total_rounds,
        w.paced_rate,
        &mut sink,
    );
    engine.finish(&mut sink);

    // ---- Correctness gate (untimed).
    let stats = engine.stats();
    let mut problems: Vec<String> = Vec::new();
    let frames = sc.streams * total_rounds;
    let dropped = stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest;
    if stats.frames != frames || stats.fleet.steps + dropped != stats.frames {
        problems.push(format!(
            "steps {} + dropped {dropped} != frames {} (sent {frames})",
            stats.fleet.steps, stats.frames
        ));
    }
    let expected_scores = sc.streams * (total_rounds - sc.warmup);
    let failed = expected_scores - sink.scored.min(expected_scores)
        + stats.rejected
        + stats.channel_mismatches;
    if failed > 0 {
        problems.push(format!("{failed} frames got no score"));
    }
    let (fine_tunes, drifts) = detector_counts(&engine);
    if !w.drift && (fine_tunes > 0 || stats.fleet.cohort_rebuilds != settled.cohort_rebuilds) {
        problems.push(format!("replica traffic fine-tuned {fine_tunes} times"));
    }
    for (g, &i) in gate_idx.iter().enumerate() {
        if let Err(e) = gate_stream(
            &traffic.stream(i, total_rounds),
            &sink.gate[g],
            w.f32_infer,
            &sc,
        ) {
            problems.push(format!("stream {i}: {e}"));
        }
    }

    late.sort_by(f64::total_cmp);
    let timed_frames = (total_rounds - sat0) * sc.streams;
    let mut report = Report::default();
    report.samples.push(("setup_reps", setup_s.len()));
    report
        .samples
        .push(("saturated_frames", (paced0 - sat0) * sc.streams));
    report.samples.push(("paced_frames", latency.len()));
    report.samples.push(("streams", sc.streams));

    if !trace {
        report.metric("setup_s", median(&setup_s));
        // Medians over windows of each phase, so a host stall that hits
        // one window does not set the run's figure.
        let rate = |w: &[(usize, f64)]| {
            w.iter().map(|c| c.0).sum::<usize>() as f64 / w.iter().map(|c| c.1).sum::<f64>()
        };
        let sat_windows =
            (sat.untraced.len() * sc.chunk_rounds * sc.streams / THROUGHPUT_WINDOW_FRAMES).max(1);
        report.metric(
            "steps_per_s",
            median_of_windows(&sat.untraced, sat_windows, rate),
        );
        let lat_windows = (latency.len() / LATENCY_WINDOW_FRAMES).max(1);
        let finite = |v: f64| if v.is_finite() { v } else { f64::MAX };
        let pct = |q: f64| {
            move |w: &[f64]| {
                let mut w = w.to_vec();
                w.sort_by(f64::total_cmp);
                quantile_sorted(&w, q)
            }
        };
        report.metric(
            "lat_p50_ms",
            finite(median_of_windows(&latency, lat_windows, pct(0.5))),
        );
        report.metric(
            "lat_p99_ms",
            finite(median_of_windows(&latency, lat_windows, pct(0.99))),
        );
        report.samples.push(("throughput_windows", sat_windows));
        report.samples.push(("latency_windows", lat_windows));
        report.metric("peak_rss_mb", crate::util::peak_rss_mb());
    } else {
        let tr = tracer.as_mut().expect("trace mode has a tracer");
        let clock = clock_overhead_ns();
        let probe = probe(w, &sc, &traffic, total_rounds, &mut rng, tr, clock);
        let probe = match probe {
            Ok(p) => p,
            Err(e) => {
                problems.push(format!("stage probe: {e}"));
                ProbeCosts::default()
            }
        };
        let export_us = export_cost(&engine);
        let high_water = engine
            .export_metrics()
            .gauge_by_name("sad_fleet_queue_high_water")
            .unwrap_or(f64::NAN);
        serve_layers(
            &mut report,
            tr,
            &stats,
            &settled,
            settled_det,
            (fine_tunes, drifts),
            &sat,
            &probe,
            export_us,
            high_water,
        );
        report.metric("gen.late_ms_p99", quantile_sorted(&late, 0.99));
        report.metric("failed_frac", failed as f64 / frames as f64);
        report.metric(
            "ingest.bytes_per_frame",
            sat.bytes as f64 / ((paced0 - sat0) * sc.streams) as f64,
        );
        report
            .samples
            .push(("round_spans", tr.durations(span::ROUND).len()));
        report.samples.push(("probe_steps", probe.steps));
        report.samples.push(("replay_steps", probe.replay_steps));
        report
            .samples
            .push(("span_overflow", tr.overflow() as usize));
        report.zero_grid_layers();
    }
    report.samples.push(("timed_frames", timed_frames));
    Ok(Outcome {
        report,
        problems,
        attempted: frames,
        failed,
        tracer,
    })
}

/// Engine telemetry export: `export_metrics()` plus the Prometheus text.
fn export_cost(engine: &IngestEngine) -> f64 {
    let mut text = String::new();
    let mut us = Vec::with_capacity(11);
    for _ in 0..11 {
        let started = Instant::now();
        let reg = engine.export_metrics();
        text.clear();
        reg.render_prometheus(&mut text);
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Stage probe on a seed-chosen sample of the workload's own streams, at
/// the workload's cohort width: 64 identical rows for replicas, one row
/// per distinct drifting stream.
fn probe(
    w: &ServeWorkload,
    sc: &Scale,
    traffic: &Traffic,
    total_rounds: usize,
    rng: &mut SplitMix,
    tr: &mut Tracer,
    clock: f64,
) -> Result<ProbeCosts, String> {
    let path = if w.f32_infer {
        InferPath::F32Batch
    } else {
        InferPath::F64Batch
    };
    let picked = rng.sample(sc.streams, if w.drift { sc.probe_streams } else { 1 });
    let len = if w.drift {
        total_rounds
    } else {
        sc.warmup + sc.probe_steps
    };
    let series: Vec<Vec<Vec<f64>>> = picked.iter().map(|&i| traffic.stream(i, len)).collect();
    let plan = ProbePlan {
        spec: spec(),
        params: params(sc),
        path,
        series: series.iter().map(Vec::as_slice).collect(),
        width: if w.drift { 1 } else { sc.streams },
    };
    run_probe(&plan, tr, clock)
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    report: &mut Report,
    tr: &Tracer,
    stats: &IngestStats,
    settled: &sad_fleet::FleetStats,
    settled_det: (usize, usize),
    end_det: (usize, usize),
    sat: &Saturated,
    p: &ProbeCosts,
    export_us: f64,
    high_water: f64,
) {
    let self_times = tr.self_times();
    let per_call = |name: u16| {
        let (n, _, own) = self_times[name as usize];
        if n == 0 {
            0.0
        } else {
            own as f64 / n as f64
        }
    };
    let mut rounds: Vec<f64> = tr
        .durations(span::ROUND)
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    rounds.sort_by(f64::total_cmp);
    let f = &stats.fleet;
    let steps = f.steps - settled.steps;
    let batched = f.batched_rows - settled.batched_rows;
    let batches = f.batches - settled.batches;
    let fine_tunes = end_det.0 - settled_det.0;
    let resyncs = f.f32_resyncs - settled.f32_resyncs;

    report.metric("ingest.decode_ns", per_call(span::DECODE));
    report.metric("ingest.offer_ns", per_call(span::OFFER));
    report.metric("ingest.bp_blocked", f.bp_blocked as f64);
    report.metric(
        "ingest.dropped",
        (f.bp_dropped_newest + f.bp_dropped_oldest) as f64,
    );
    report.metric("ingest.rejected", stats.rejected as f64);
    report.metric("fleet.round_us_p50", quantile_sorted(&rounds, 0.5));
    report.metric("fleet.round_us_p99", quantile_sorted(&rounds, 0.99));
    report.metric(
        "fleet.rows_per_batch",
        if batches == 0 {
            0.0
        } else {
            batched as f64 / batches as f64
        },
    );
    report.metric(
        "fleet.batched_frac",
        if steps == 0 {
            0.0
        } else {
            batched as f64 / steps as f64
        },
    );
    report.metric("fleet.queue_high_water", high_water);
    report.metric(
        "fleet.cohort_rebuilds",
        (f.cohort_rebuilds - settled.cohort_rebuilds) as f64,
    );
    report.metric("fleet.f32_resyncs", resyncs as f64);
    report.metric(
        "fleet.resyncs_per_fine_tune",
        if fine_tunes == 0 {
            0.0
        } else {
            resyncs as f64 / fine_tunes as f64
        },
    );
    report.metric("detector.fine_tunes", fine_tunes as f64);
    report.metric(
        "detector.drift_per_kstep",
        if steps == 0 {
            0.0
        } else {
            (end_det.1 - settled_det.1) as f64 * 1e3 / steps as f64
        },
    );
    report.probe_layers(p);
    report.metric("obs.export_us", export_us);
    let (frames, secs) = sat
        .untraced
        .iter()
        .fold((0, 0.0), |(f, s), c| (f + c.0, s + c.1));
    let untraced = secs / frames.max(1) as f64;
    let traced = sat.traced.seconds / sat.traced.frames.max(1) as f64;
    report.metric(
        "trace.overhead_pct",
        if untraced > 0.0 {
            (traced / untraced - 1.0) * 100.0
        } else {
            0.0
        },
    );

    // Probe costs × what the fleet actually ran in the traced chunks,
    // against the measured round time (less the offer part of each round
    // call).
    let t = &sat.traced;
    let n_rounds = rounds.len() as f64;
    let measured = t.round_ns - n_rounds * per_call(span::OFFER);
    let predicted = t.steps as f64 * p.begin_ns
        + (t.steps - t.fine_tunes) as f64 * p.finish_ns
        + t.fine_tunes as f64 * p.finetune_ms * 1e6
        + t.batched_rows as f64 * p.forward_ns_per_row
        + t.f32_resyncs as f64 * p.refresh_us * 1e3;
    report.metric(
        "trace.explained_frac",
        if measured > 0.0 {
            predicted / measured
        } else {
            0.0
        },
    );
}
