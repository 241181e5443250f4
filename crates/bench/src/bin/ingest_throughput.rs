//! Ingestion overhead: the framed wire path vs direct in-process enqueue
//! (§E15 of EXPERIMENTS.md).
//!
//! Scenario: the 64-stream AE replica fleet of `fleet_throughput`, served
//! three ways over the same window-periodic (drift-free) 38-channel
//! stream —
//!
//! * `direct`   — `DetectorFleet` enqueue + drain rounds in-process (the
//!   §E11 batched baseline);
//! * `framed`   — the same samples length-prefix-encoded once, then
//!   decoded from an in-memory wire through `FramedTransport` into
//!   `IngestEngine` (decode + route + offer + scheduled drains). This is
//!   the leg under test: the in-bin assertion requires it to sustain
//!   **≥ 90%** of direct steps/s — the protocol must cost less than a
//!   tenth of the serving budget;
//! * `framed_tcp` — the same wire pushed through a real localhost socket
//!   by a writer thread (reported, not asserted: kernel socket buffers
//!   add machine-dependent variance);
//! * `csv`      — the text fallback from memory (reported: ~3× the bytes
//!   and float parsing, expected to trail binary).
//!
//! Direct and framed run as 5 interleaved pairs ([`sad_bench::gate`]);
//! the gate reads the median per-pair framed/direct ratio, and its min
//! and max are reported next to it. Writes
//! `bench_output/ingest_throughput.json`.
//!
//! ```sh
//! cargo run --release --bin ingest_throughput            # quick (default)
//! cargo run --release --bin ingest_throughput -- --full  # more rounds
//! ```

use std::io::Cursor;
use std::net::TcpListener;
use std::time::Instant;

use sad_bench::{interleaved_pairs, Spread, GATE_PAIRS};
use sad_core::{paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ModelKind, ScoreKind};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_ingest::{
    CsvTransport, DetectorTemplate, EngineConfig, Frame, FrameWriter, FramedTransport, Framing,
    IngestEngine, Transport,
};
use sad_models::{build_detector, BuildParams};

const CHANNELS: usize = 38;
const WINDOW: usize = 10;
const WARMUP: usize = 200;
const SEED: u64 = 42;
const STREAMS: usize = 64;
const SETTLE_ROUNDS: usize = WARMUP + 32;

/// Window-periodic stream: constant training-set statistics, so
/// μ/σ-Change never fires and the timed region never fine-tunes.
fn stream_vector(t: usize, buf: &mut [f64]) {
    let phase = std::f64::consts::TAU * (t % WINDOW) as f64 / WINDOW as f64;
    for (c, v) in buf.iter_mut().enumerate() {
        let scale = 1.0 + c as f64 * 0.1;
        *v = (phase + c as f64 * 0.37).sin() * scale + c as f64;
    }
}

fn ae_spec() -> AlgorithmSpec {
    paper_algorithms()
        .into_iter()
        .find(|s| {
            s.model == ModelKind::TwoLayerAe
                && s.label().contains("SW")
                && s.label().contains("μ")
        })
        .expect("AE / SW / μσ is in Table I")
}

fn build_params() -> BuildParams {
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: WARMUP,
        initial_epochs: 4,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config).with_capacity(32).with_score(ScoreKind::Raw).with_seed(SEED)
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        batching: true,
        queue_capacity: 4,
        f32_infer: false,
        telemetry: true,
    }
}

/// The §E11 baseline: in-process enqueue + drain, timed steps/s.
fn serve_direct(rounds: usize) -> f64 {
    let detectors: Vec<Detector> =
        (0..STREAMS).map(|_| build_detector(ae_spec(), &build_params())).collect();
    let mut fleet = DetectorFleet::new(detectors, fleet_config());
    let mut buf = vec![0.0; CHANNELS];
    let mut out = Vec::new();
    let mut t = 0usize;
    for _ in 0..SETTLE_ROUNDS {
        stream_vector(t, &mut buf);
        for i in 0..STREAMS {
            assert!(fleet.enqueue(i, &buf));
        }
        fleet.drain_round(&mut out);
        t += 1;
    }
    let settled = fleet.stats();

    let timed = Instant::now();
    for _ in 0..rounds {
        stream_vector(t, &mut buf);
        for i in 0..STREAMS {
            assert!(fleet.enqueue(i, &buf));
        }
        fleet.drain_round(&mut out);
        t += 1;
    }
    let wall = timed.elapsed().as_secs_f64();

    let stats = fleet.stats();
    assert_eq!(stats.cohort_rebuilds, settled.cohort_rebuilds, "timed region must not fine-tune");
    let steps = stats.steps - settled.steps;
    assert_eq!(steps, rounds * STREAMS);
    steps as f64 / wall.max(1e-12)
}

/// Interleaved wire bytes for rounds `t0 .. t0 + rounds`, encoded once
/// and replayed by every rep.
fn wire_bytes(framing: Framing, t0: usize, rounds: usize) -> Vec<u8> {
    let mut writer = FrameWriter::new(Vec::new(), framing);
    let mut buf = vec![0.0; CHANNELS];
    for t in t0..t0 + rounds {
        stream_vector(t, &mut buf);
        for i in 0..STREAMS {
            writer.send(i as u64, &buf).expect("in-memory encode");
        }
    }
    writer.into_inner()
}

fn engine() -> IngestEngine {
    IngestEngine::new(
        DetectorTemplate::new(ae_spec(), build_params()),
        fleet_config(),
        EngineConfig::default(),
    )
}

fn pump(transport: &mut dyn Transport, engine: &mut IngestEngine, frames: usize) {
    let mut frame = Frame::default();
    let mut outputs = 0usize;
    let mut sink = |_: u64, _: &sad_core::StepOutput| outputs += 1;
    for _ in 0..frames {
        assert!(transport.next(&mut frame).expect("well-formed wire"), "wire ended early");
        engine.ingest(&frame, &mut sink);
    }
}

/// The wire path from memory: settle untimed, then timed decode + route +
/// offer + drain over the pre-encoded frames. Returns (steps/s, MB/s).
fn serve_wire(framing: Framing, settle: &[u8], timed_wire: &[u8], rounds: usize) -> (f64, f64) {
    let mut engine = engine();
    let mut settle_t: Box<dyn Transport>;
    let mut timed_t: Box<dyn Transport>;
    match framing {
        Framing::Binary => {
            settle_t = Box::new(FramedTransport::new(Cursor::new(settle)));
            timed_t = Box::new(FramedTransport::new(Cursor::new(timed_wire)));
        }
        Framing::Csv => {
            settle_t = Box::new(CsvTransport::new(Cursor::new(settle)));
            timed_t = Box::new(CsvTransport::new(Cursor::new(timed_wire)));
        }
    }
    pump(settle_t.as_mut(), &mut engine, SETTLE_ROUNDS * STREAMS);
    let settled = engine.stats();
    assert_eq!(settled.fleet.admitted, STREAMS, "every replica admitted during settle");
    assert!(settled.fleet.batched_rows > 0, "cohort must form during settle");

    let timed = Instant::now();
    pump(timed_t.as_mut(), &mut engine, rounds * STREAMS);
    let wall = timed.elapsed().as_secs_f64();

    let stats = engine.stats();
    assert_eq!(stats.fleet.cohort_rebuilds, settled.fleet.cohort_rebuilds, "no timed fine-tunes");
    let steps = stats.fleet.steps - settled.fleet.steps;
    assert_eq!(steps, rounds * STREAMS, "every frame served, nothing dropped");
    (steps as f64 / wall.max(1e-12), timed_t.bytes_read() as f64 / wall.max(1e-12) / 1e6)
}

/// The same framed wire through a real localhost socket: a writer thread
/// pushes pre-encoded bytes as fast as the kernel accepts them, so the
/// reading engine stays the bottleneck.
fn serve_tcp(settle: &[u8], timed_wire: &[u8], rounds: usize) -> (f64, f64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().unwrap();
    let (settle_bytes, timed_bytes) = (settle.to_vec(), timed_wire.to_vec());
    let writer = std::thread::spawn(move || {
        use std::io::Write as _;
        let mut socket = std::net::TcpStream::connect(addr).expect("loopback connect");
        socket.write_all(&settle_bytes).expect("settle bytes");
        socket.write_all(&timed_bytes).expect("timed bytes");
    });
    let (socket, _) = listener.accept().expect("accept");
    let mut engine = engine();
    let mut transport = FramedTransport::new(socket);
    pump(&mut transport, &mut engine, SETTLE_ROUNDS * STREAMS);
    let before = (engine.stats(), transport.bytes_read());

    let timed = Instant::now();
    pump(&mut transport, &mut engine, rounds * STREAMS);
    let wall = timed.elapsed().as_secs_f64();
    writer.join().expect("writer thread");

    let steps = engine.stats().fleet.steps - before.0.fleet.steps;
    assert_eq!(steps, rounds * STREAMS);
    let bytes = transport.bytes_read() - before.1;
    (steps as f64 / wall.max(1e-12), bytes as f64 / wall.max(1e-12) / 1e6)
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let rounds = if full { 1200 } else { 400 };
    println!(
        "ingest throughput: AE w={WINDOW} x {CHANNELS}ch replica fleet, {STREAMS} streams, \
         {rounds} timed rounds, single-threaded",
    );

    let settle = wire_bytes(Framing::Binary, 0, SETTLE_ROUNDS);
    let timed = wire_bytes(Framing::Binary, SETTLE_ROUNDS, rounds);
    let settle_csv = wire_bytes(Framing::Csv, 0, SETTLE_ROUNDS);
    let timed_csv = wire_bytes(Framing::Csv, SETTLE_ROUNDS, rounds);
    let frame_bytes = 4 + 8 + 8 * CHANNELS;
    assert_eq!(timed.len(), rounds * STREAMS * frame_bytes, "fixed-width binary frames");

    // The leg under test against the baseline, in a fixed number of
    // interleaved pairs, gated on the median per-pair ratio.
    let pairs = interleaved_pairs(
        GATE_PAIRS,
        || serve_direct(rounds),
        || serve_wire(Framing::Binary, &settle, &timed, rounds),
    );
    let direct = Spread::of(pairs.iter().map(|&(d, _)| d));
    let framed = Spread::of(pairs.iter().map(|&(_, (f, _))| f));
    let framed_mbs = Spread::of(pairs.iter().map(|&(_, (_, mbs))| mbs)).median;
    let ratio = Spread::of(pairs.iter().map(|&(d, (f, _))| f / d.max(1e-12)));
    println!(
        "  direct  {:>9.0} steps/s\n  framed  {:>9.0} steps/s \
         ({:.1}% of direct, min {:.1}%, max {:.1}%, {framed_mbs:.0} MB/s decoded; \
         medians of {} pairs)",
        direct.median,
        framed.median,
        ratio.median * 100.0,
        ratio.min * 100.0,
        ratio.max * 100.0,
        ratio.k,
    );

    let (tcp_sps, tcp_mbs) = serve_tcp(&settle, &timed, rounds);
    println!("  tcp     {tcp_sps:>9.0} steps/s ({tcp_mbs:.0} MB/s over loopback)");
    let (csv_sps, csv_mbs) = serve_wire(Framing::Csv, &settle_csv, &timed_csv, rounds);
    println!("  csv     {csv_sps:>9.0} steps/s ({csv_mbs:.0} MB/s parsed)");

    let json = format!(
        "{{\n  \"harness\": \"ingest_throughput\",\n  \"profile\": \"{}\",\n  \
         \"model\": \"2-layer AE / SW / μ/σ\",\n  \"streams\": {STREAMS},\n  \
         \"window\": {WINDOW},\n  \"channels\": {CHANNELS},\n  \"warmup\": {WARMUP},\n  \
         \"rounds\": {rounds},\n  \"pairs\": {},\n  \"frame_bytes\": {frame_bytes},\n  \
         \"direct_steps_per_sec\": {:.1},\n  \
         \"framed_steps_per_sec\": {:.1},\n  \
         \"framed_ratio\": {:.4},\n  \"framed_ratio_min\": {:.4},\n  \
         \"framed_ratio_max\": {:.4},\n  \"framed_mb_per_sec\": {framed_mbs:.1},\n  \
         \"tcp_steps_per_sec\": {tcp_sps:.1},\n  \"tcp_mb_per_sec\": {tcp_mbs:.1},\n  \
         \"csv_steps_per_sec\": {csv_sps:.1},\n  \"csv_mb_per_sec\": {csv_mbs:.1},\n  \
         \"budget_ratio\": 0.90\n}}\n",
        if full { "full" } else { "quick" },
        ratio.k,
        direct.median,
        framed.median,
        ratio.median,
        ratio.min,
        ratio.max,
    );
    match std::fs::create_dir_all("bench_output")
        .and_then(|()| std::fs::write("bench_output/ingest_throughput.json", &json))
    {
        Ok(()) => println!("-> bench_output/ingest_throughput.json"),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }

    assert!(
        ratio.median >= 0.90,
        "framed ingest sustains only {:.1}% of direct enqueue ({:.0} vs {:.0} steps/s, \
         median of {} pairs) — the wire protocol must cost under 10%",
        ratio.median * 100.0,
        framed.median,
        direct.median,
        ratio.k,
    );
}
