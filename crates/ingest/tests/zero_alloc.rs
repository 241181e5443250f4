//! Allocation-count guard for the steady-state ingest path.
//!
//! Extends the counting-allocator pattern of `sad-fleet/tests/zero_alloc.rs`
//! one layer up: once every stream has been admitted and every reusable
//! buffer (transport body/line buffer, `Frame::values`, ring queues,
//! batch workspaces, output slots) has reached steady-state capacity, a
//! full wire step — `Transport::next` decode, route lookup, `offer`,
//! and the scheduled `drain_round` with its idle sweep — must not
//! allocate at all. Admission and retirement are the only allocating
//! paths, and both are per-entity-lifetime events.
//!
//! Both framings are pinned: the binary decoder reads into a reused body
//! buffer, and the CSV decoder parses floats out of a reused line buffer.
//! Each runs at one and at two shards, set explicitly, whatever the host's
//! default. A two-shard fleet drains on its worker pool when the host has
//! a second core, so the counter is process-wide: it sees the workers'
//! allocations, and a thread spawned in a round (which allocates) fails
//! the guard. That is also why this file runs without the libtest
//! harness (`harness = false`): the harness's own threads allocate while a
//! test runs, and no thread but the guard's and the pool's may allocate
//! inside an armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
        if ARMED.load(Ordering::SeqCst) {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by any thread of the process while `f` runs.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

use std::io::Cursor;
use sad_core::{AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind, Task1, Task2};
use sad_fleet::FleetConfig;
use sad_ingest::{
    CsvTransport, DetectorTemplate, EngineConfig, Frame, FrameWriter, FramedTransport, Framing,
    IngestEngine, Transport,
};
use sad_models::BuildParams;

const CHANNELS: usize = 2;
const STREAMS_PER_SHARD: usize = 2;
const SETTLE_ROUNDS: usize = 192;
const ARMED_ROUNDS: usize = 256;

/// Stationary stream, periodic with the detector's window length (8):
/// constant training-set statistics, so μ/σ-Change never fires and the
/// armed window is pure steady-state serving (training allocates, and is
/// exactly what this guard must not see).
fn stream_vector(t: usize) -> [f64; CHANNELS] {
    let phase = std::f64::consts::TAU * (t % 8) as f64 / 8.0;
    [phase.sin(), phase.cos() * 0.5]
}

fn engine(shards: usize) -> IngestEngine {
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config = DetectorConfig {
        window: 8,
        channels: CHANNELS,
        warmup: 64,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(11);
    // An armed idle sweep runs every round (nothing qualifies — both
    // streams send every round), proving the sweep itself is alloc-free.
    let cfg = EngineConfig { idle_rounds: Some(10_000), ..EngineConfig::default() };
    let fleet = FleetConfig { shards, ..FleetConfig::default() };
    IngestEngine::new(DetectorTemplate::new(spec, params), fleet, cfg)
}

/// Interleaved wire bytes for `rounds` rounds starting at step `t0`.
fn wire_bytes(framing: Framing, streams: usize, t0: usize, rounds: usize) -> Vec<u8> {
    let mut writer = FrameWriter::new(Vec::new(), framing);
    for t in t0..t0 + rounds {
        let s = stream_vector(t);
        for i in 0..streams {
            writer.send(i as u64, &s).expect("in-memory write");
        }
    }
    writer.into_inner()
}

/// Pumps exactly `frames` frames from the transport into the engine,
/// reusing the caller's decode buffer.
fn pump(
    transport: &mut dyn Transport,
    frame: &mut Frame,
    engine: &mut IngestEngine,
    outputs: &Cell<usize>,
    frames: usize,
) {
    let mut sink = |_: u64, _: &sad_core::StepOutput| outputs.set(outputs.get() + 1);
    for _ in 0..frames {
        assert!(transport.next(frame).expect("well-formed wire"), "wire ended early");
        engine.ingest(frame, &mut sink);
    }
}

fn steady_state_is_allocation_free(framing: Framing, shards: usize) {
    let streams = STREAMS_PER_SHARD * shards;
    let mut engine = engine(shards);
    let outputs = Cell::new(0usize);
    let mut frame = Frame::default();

    // One continuous wire: the same transport (and decode buffers) carry
    // both phases, exactly like a long-lived connection.
    let wire = wire_bytes(framing, streams, 0, SETTLE_ROUNDS + ARMED_ROUNDS);
    let mut binary;
    let mut csv;
    let transport: &mut dyn Transport = match framing {
        Framing::Binary => {
            binary = FramedTransport::new(Cursor::new(wire));
            &mut binary
        }
        Framing::Csv => {
            csv = CsvTransport::new(Cursor::new(wire));
            &mut csv
        }
    };

    // Settle: admission, warm-up (64), cohort formation, and every
    // reusable buffer stretched to steady-state capacity.
    pump(transport, &mut frame, &mut engine, &outputs, SETTLE_ROUNDS * streams);
    let settled = engine.stats();
    assert_eq!(settled.fleet.admitted, streams, "every stream admitted during settle");
    assert!(settled.fleet.batched_rows > 0, "cohort must have formed during settle: {settled:?}");

    // Armed: the full wire step — decode, route, offer, drain — on
    // already-live streams.
    let n = count_allocs(|| {
        pump(transport, &mut frame, &mut engine, &outputs, ARMED_ROUNDS * streams);
    });
    assert_eq!(n, 0, "steady-state {framing:?} ingest, shards={shards}: saw {n} allocations");

    // And the armed window really served every frame through the engine.
    let stats = engine.stats();
    assert_eq!(stats.frames - settled.frames, ARMED_ROUNDS * streams);
    assert_eq!(stats.fleet.steps - settled.fleet.steps, ARMED_ROUNDS * streams);
    assert_eq!(stats.fleet.admitted, streams, "no re-admission while armed");
    assert_eq!(stats.idle_retired, 0, "nothing idles while every stream sends");
    assert!(outputs.get() > 0, "post-warm-up outputs flowed through the sink");
}

/// Both framings at one shard and at two. At two shards on a multi-core
/// host every round runs on the caller and a pool worker together, and
/// must neither allocate nor spawn. A failed case panics, which fails the
/// test binary.
fn main() {
    for shards in [1, 2] {
        for framing in [Framing::Binary, Framing::Csv] {
            steady_state_is_allocation_free(framing, shards);
            println!("steady-state {framing:?} ingest, shards={shards}: 0 allocations");
        }
    }
}
