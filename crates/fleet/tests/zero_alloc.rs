//! Allocation-count guard for the fleet's steady-state shard loop.
//!
//! Extends the counting-allocator pattern of `sad-core/tests/zero_alloc.rs`
//! to the serving layer: once a cohort has formed and every reusable
//! buffer has reached its steady-state capacity, a full serving round —
//! per-stream `enqueue` into the ring queues, batch packing through the
//! scaler, the shared batched forward pass, `emit_into` scatter into the
//! reused output buffers, and `finish_step` — must not allocate at all on
//! a drift-free stream.
//!
//! Unlike the core guard (which pins the framework under a heap-free
//! stand-in model), this one runs a real 2-layer AE: the batched
//! inference path is exactly what makes the NN predict step heap-free —
//! the scalar `predict` builds its scaled/inverse vectors per call, while
//! `InferBatch` owns them once per arch group.
//!
//! The guard runs at one and at two shards, set explicitly, whatever the
//! host's default. A two-shard fleet drains on its worker pool when the
//! host has a second core, so the counter is process-wide: it sees the
//! workers' allocations, and a thread spawned in a round (which
//! allocates) fails the guard. That is also why this file runs without
//! the libtest harness (`harness = false`): the harness's own threads
//! allocate while a test runs, and no thread but the guard's and the
//! pool's may allocate inside an armed window.

use std::alloc::{GlobalAlloc, Layout, System};
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

use sad_core::{Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

const CHANNELS: usize = 2;
const STREAMS_PER_SHARD: usize = 2;

/// Stationary stream, periodic with the detector's window length (8):
/// every window holds the same multiset of values per channel, so the
/// training-set statistics are constant and μ/σ-Change never fires — the
/// armed rounds below are pure steady-state serving.
fn stream_vector(t: usize) -> [f64; CHANNELS] {
    let phase = std::f64::consts::TAU * (t % 8) as f64 / 8.0;
    [phase.sin(), phase.cos() * 0.5]
}

fn ae_detector() -> Detector {
    let config = DetectorConfig {
        window: 8,
        channels: CHANNELS,
        warmup: 64,
        initial_epochs: 1,
        fine_tune_epochs: 1,
    };
    let spec = sad_core::paper_algorithms()
        .iter()
        .copied()
        .find(|s| s.label().contains("AE") && s.label().contains("SW") && s.label().contains("μ"))
        .expect("AE / SW / μσ combination exists");
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(11);
    build_detector(spec, &params)
}

/// Every stream identically seeded on an identical stationary stream:
/// each shard's streams form (and keep) one cohort, so the armed window
/// measures the batched shard loop, not the scalar fallback.
fn steady_state_round_is_allocation_free(shards: usize, f32_infer: bool) {
    let streams = STREAMS_PER_SHARD * shards;
    let dets: Vec<Detector> = (0..streams).map(|_| ae_detector()).collect();
    let config = FleetConfig { shards, f32_infer, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(dets, config);
    let mut out: Vec<Option<StepOutput>> = Vec::new();
    let mut t = 0usize;
    let label = format!("shards={shards} f32_infer={f32_infer}");

    // Settle: warm-up (64) plus well past every ring's fill point and the
    // first batched emit (which right-sizes the per-slot output buffers).
    for _ in 0..192 {
        let s = stream_vector(t);
        for i in 0..streams {
            assert!(fleet.enqueue(i, &s));
        }
        fleet.drain_round(&mut out);
        t += 1;
    }
    for i in 0..streams {
        assert!(
            fleet.detector(i).drift_times().is_empty(),
            "{label}: stream must be drift-free for this guard",
        );
    }
    let settled = fleet.stats();
    assert!(settled.batched_rows > 0, "{label}: no cohort formed during settle: {settled:?}");

    let n = count_allocs(|| {
        for _ in 0..256 {
            let s = stream_vector(t);
            for i in 0..streams {
                assert!(fleet.enqueue(i, &s));
            }
            let consumed = fleet.drain_round(&mut out);
            assert_eq!(consumed, streams);
            for o in &out {
                let o = o.expect("past warm-up");
                assert!(!o.drift, "stream must stay drift-free");
            }
            t += 1;
        }
    });
    assert_eq!(n, 0, "{label}: steady-state fleet round must not allocate, saw {n}");

    // And the window really went through the batched path, one pass per
    // shard and round.
    let stats = fleet.stats();
    assert_eq!(
        stats.batched_rows - settled.batched_rows,
        256 * streams,
        "{label}: armed window must be fully batched: {stats:?}",
    );
    assert_eq!(stats.batches - settled.batches, 256 * shards, "{label}: {stats:?}");
    if f32_infer {
        assert_eq!(stats.f32_rows - settled.f32_rows, 256 * streams, "{label}: {stats:?}");
    }
    assert_eq!(
        stats.cohort_rebuilds, settled.cohort_rebuilds,
        "{label}: no training events while armed",
    );
}

/// One shard and two, f64 and f32 serving. The f32 snapshot path
/// (`FleetConfig::f32_infer`) keeps each cohort's converted weights in its
/// `InferSnapshot<f32>` and every buffer in the arch group's
/// `InferBatch<f32>`, so its round — f32 pack, snapshot forward, widening
/// emit — must not allocate either. At two shards on a multi-core host the
/// round runs on the caller and a pool worker together, and must neither
/// allocate nor spawn. A failed case panics, which fails the test binary.
fn main() {
    for shards in [1, 2] {
        for f32_infer in [false, true] {
            steady_state_round_is_allocation_free(shards, f32_infer);
            println!("steady-state fleet round, shards={shards} f32={f32_infer}: 0 allocations");
        }
    }
}
