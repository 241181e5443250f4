//! Stage probe and component replay.
//!
//! The probe drives standalone detectors, built exactly as the workload
//! builds them, through the public split-step API
//! (`begin_step` → batched or scalar inference → `finish_step`, plus an
//! f32 snapshot `refresh` after each fine-tune) and times every stage from
//! outside. It deliberately does not re-implement the fleet's cohort
//! policy: a group of `width` identical detectors stands for one cohort of
//! that width, and the fleet's own counters say how often each stage ran.
//!
//! The component replay feeds each probed stream's feature vectors and
//! model outputs, in order, through freshly built Task-1, Task-2 and
//! scorer components plus `sad_core::nonconformity`, and checks that it
//! reproduces the detector's `(a_t, f_t, drift)` bitwise — so the per-
//! component times measure exactly the computation inside `finish_step`.

use std::time::Instant;

use sad_core::{
    nonconformity, AlgorithmSpec, AnomalyScorer, Detector, DriftDetector, FeatureVector,
    ModelOutput, SetUpdate, StepOutput, TrainingSetStrategy,
};
use sad_models::{
    build_detector, build_scorer, build_task1, build_task2, BuildParams, InferBatch, InferBatchF32,
};

use crate::trace::{self as span, Tracer, NO_PARENT};
use crate::util::median;

/// How the probe computes model outputs: the fleet's two batched paths.
/// (A one-row f64 batch is bitwise the scalar `predict`, which the
/// split-step API gives no outside access to.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferPath {
    F64Batch,
    F32Batch,
}

/// Mean per-call costs measured by the probe and the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCosts {
    pub begin_ns: f64,
    pub forward_ns_per_row: f64,
    pub finish_ns: f64,
    pub finetune_ms: f64,
    pub refresh_us: f64,
    pub nonconformity_ns: f64,
    pub scorer_ns: f64,
    pub task1_ns: f64,
    pub drift_observe_ns: f64,
    pub export_us: f64,
    /// Post-warm-up detector steps the probe ran.
    pub steps: usize,
    pub fine_tunes: usize,
    pub drifts: usize,
    pub replay_steps: usize,
}

/// Task-1/Task-2/scorer components rebuilt from the spec, fed the probed
/// detector's inputs in order.
struct Replay {
    strategy: Box<dyn TrainingSetStrategy>,
    drift: Box<dyn DriftDetector>,
    scorer: Box<dyn AnomalyScorer>,
    window: usize,
    warmup: usize,
    k: usize,
    trace: u64,
    steps: usize,
    ns: [f64; 4],
}

impl Replay {
    fn new(spec: AlgorithmSpec, params: &BuildParams, trace: u64) -> Self {
        Self {
            strategy: build_task1(spec.task1, params),
            drift: build_task2(spec.task2, params),
            scorer: build_scorer(params.score, params),
            window: params.config.window,
            warmup: params.config.warmup,
            k: 0,
            trace,
            steps: 0,
            ns: [0.0; 4],
        }
    }

    /// Mirrors one warm-up `begin_step`: the set and the drift statistics
    /// see every full window with `f_t = 0`, and the drift reference is
    /// anchored when warm-up ends.
    fn warmup_step(&mut self, x: &FeatureVector) {
        self.k += 1;
        if self.k >= self.window {
            let update = self.strategy.update(x, 0.0);
            let _ = self.drift.observe(x, &update, self.strategy.training_set());
            if let SetUpdate::Replaced { removed } = update {
                self.strategy.recycle(removed);
            }
        }
        if self.k >= self.warmup {
            self.drift.on_fine_tune(self.strategy.training_set());
        }
    }

    /// Replays one post-warm-up step and reports whether it reproduced the
    /// detector's output bitwise.
    fn step(
        &mut self,
        x: &FeatureVector,
        output: &ModelOutput,
        want: &StepOutput,
        tr: &mut Tracer,
        clock: f64,
    ) -> bool {
        self.k += 1;
        self.steps += 1;
        let trace = self.trace << 32 | self.k as u64;
        let t0 = Instant::now();
        let a_t = std::hint::black_box(nonconformity(x, output));
        let t1 = Instant::now();
        let f_t = std::hint::black_box(self.scorer.update(a_t));
        let t2 = Instant::now();
        let update = self.strategy.update(x, f_t);
        let t3 = Instant::now();
        let drift = self.drift.observe(x, &update, self.strategy.training_set());
        let t4 = Instant::now();
        if let SetUpdate::Replaced { removed } = update {
            self.strategy.recycle(removed);
        }
        if drift {
            self.drift.on_fine_tune(self.strategy.training_set());
        }
        let stamps = [t0, t1, t2, t3, t4];
        for (i, name) in [
            span::CORE_NONCONFORMITY,
            span::CORE_SCORER,
            span::CORE_TASK1,
            span::CORE_DRIFT,
        ]
        .into_iter()
        .enumerate()
        {
            let d = stamps[i + 1].duration_since(stamps[i]).as_nanos() as f64;
            self.ns[i] += (d - clock).max(0.0);
            tr.record(
                name,
                trace,
                tr.ns_of(stamps[i]),
                tr.ns_of(stamps[i + 1]),
                NO_PARENT,
            );
        }
        a_t.to_bits() == want.nonconformity.to_bits()
            && f_t.to_bits() == want.anomaly_score.to_bits()
            && drift == want.drift
    }
}

enum Infer {
    F64(InferBatch),
    F32(InferBatchF32),
}

/// One probed cohort: `width` detectors on the same series.
struct Group<'a> {
    series: &'a [Vec<f64>],
    dets: Vec<Detector>,
    outs: Vec<ModelOutput>,
    infer: Option<Infer>,
    replay: Replay,
}

/// What to probe: `series.len()` cohorts, each `width` detectors wide,
/// every detector built from `spec`/`params`.
pub struct ProbePlan<'a> {
    pub spec: AlgorithmSpec,
    pub params: BuildParams,
    pub path: InferPath,
    pub series: Vec<&'a [Vec<f64>]>,
    pub width: usize,
}

/// Runs the probe and the replay. Errors describe a broken expectation
/// (replay mismatch, a fine-tune in a multi-row cohort) and fail the
/// correctness gate.
pub fn run_probe(plan: &ProbePlan<'_>, tr: &mut Tracer, clock: f64) -> Result<ProbeCosts, String> {
    assert!(plan.width >= 1, "a cohort has at least one row");
    let mut groups: Vec<Group<'_>> = plan
        .series
        .iter()
        .enumerate()
        .map(|(g, &series)| Group {
            series,
            dets: vec![build_detector(plan.spec, &plan.params)],
            outs: vec![ModelOutput::Score(0.0); plan.width],
            infer: None,
            replay: Replay::new(plan.spec, &plan.params, g as u64),
        })
        .collect();

    let (mut begin_ns, mut forward_ns, mut finish_ns, mut finetune_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut finish_n, mut steps, mut fine_tunes, mut drifts) = (0usize, 0usize, 0usize, 0usize);
    let mut refresh_us: Vec<f64> = Vec::new();
    let mut mismatch: Option<String> = None;

    for (g, group) in groups.iter_mut().enumerate() {
        for (t, s) in group.series.iter().enumerate() {
            let trace = (g as u64) << 32 | t as u64;
            if group.infer.is_none() {
                // Warm-up: one detector, replay mirrors its set updates.
                let leader = &mut group.dets[0];
                let ready = leader.begin_step(s);
                assert!(!ready, "warm-up steps produce no feature");
                group.replay.warmup_step(leader.feature());
                if leader.is_warmed_up() {
                    let leader = group.dets[0].clone();
                    group.dets.resize_with(plan.width, || leader.clone());
                    group.infer = Some(match plan.path {
                        InferPath::F64Batch => Infer::F64(
                            InferBatch::new(leader.model(), plan.width)
                                .ok_or("model is not batchable")?,
                        ),
                        InferPath::F32Batch => Infer::F32(
                            InferBatchF32::new(leader.model(), plan.width)
                                .ok_or("model is not batchable")?,
                        ),
                    });
                }
                continue;
            }
            let rows = group.dets.len();
            let t0 = Instant::now();
            for det in group.dets.iter_mut() {
                let ready = det.begin_step(s);
                debug_assert!(ready);
            }
            let t1 = Instant::now();
            match group.infer.as_mut().expect("set at warm-up end") {
                Infer::F64(batch) => {
                    let leader = group.dets[0].model();
                    batch.begin(rows);
                    for (r, det) in group.dets.iter().enumerate() {
                        batch.pack(leader, r, det.feature());
                    }
                    batch.forward(leader);
                    for (r, out) in group.outs.iter_mut().enumerate() {
                        batch.emit_into(leader, r, out);
                    }
                }
                Infer::F32(batch) => {
                    batch.begin(rows);
                    for (r, det) in group.dets.iter().enumerate() {
                        batch.pack(r, det.feature());
                    }
                    batch.forward();
                    for (r, out) in group.outs.iter_mut().enumerate() {
                        batch.emit_into(r, out);
                    }
                }
            }
            let t2 = Instant::now();
            let finish_span = tr.record(
                span::PROBE_FINISH,
                trace,
                tr.ns_of(t2),
                tr.ns_of(t2),
                NO_PARENT,
            );
            let mut first: Option<StepOutput> = None;
            let mut tuned = false;
            for (det, out) in group.dets.iter_mut().zip(&group.outs) {
                let a = Instant::now();
                let o = det.finish_step(out);
                let b = Instant::now();
                let d = b.duration_since(a).as_nanos() as f64;
                if o.fine_tuned {
                    finetune_ns += d;
                    fine_tunes += 1;
                    tuned = true;
                    tr.record(
                        span::PROBE_FINETUNE,
                        trace,
                        tr.ns_of(a),
                        tr.ns_of(b),
                        finish_span,
                    );
                } else {
                    finish_ns += (d - clock).max(0.0);
                    finish_n += 1;
                }
                first.get_or_insert(o);
            }
            let t3 = Instant::now();
            tr.set_end(finish_span, tr.ns_of(t3));
            tr.record(
                span::PROBE_BEGIN,
                trace,
                tr.ns_of(t0),
                tr.ns_of(t1),
                NO_PARENT,
            );
            tr.record(
                span::PROBE_FORWARD,
                trace,
                tr.ns_of(t1),
                tr.ns_of(t2),
                NO_PARENT,
            );
            begin_ns += t1.duration_since(t0).as_nanos() as f64;
            forward_ns += t2.duration_since(t1).as_nanos() as f64;
            steps += rows;

            let want = first.expect("a cohort has a row");
            drifts += want.drift as usize * rows;
            if !group
                .replay
                .step(group.dets[0].feature(), &group.outs[0], &want, tr, clock)
                && mismatch.is_none()
            {
                mismatch = Some(format!(
                    "component replay diverged from the detector at t={}",
                    want.t
                ));
            }
            if tuned {
                // A fine-tune splits a multi-row cohort, which the probe
                // does not model (the replica gate forbids fine-tunes).
                if rows > 1 {
                    return Err(format!(
                        "a fine-tune at t={} split a multi-row probe cohort",
                        want.t
                    ));
                }
                if let Some(Infer::F32(batch)) = group.infer.as_mut() {
                    let a = Instant::now();
                    batch.refresh(group.dets[0].model());
                    let b = Instant::now();
                    refresh_us.push(b.duration_since(a).as_nanos() as f64 / 1e3);
                    tr.record(
                        span::PROBE_REFRESH,
                        trace,
                        tr.ns_of(a),
                        tr.ns_of(b),
                        NO_PARENT,
                    );
                }
            }
        }
    }
    if let Some(m) = mismatch {
        return Err(m);
    }
    let Some(group) = groups.iter().find(|g| g.infer.is_some()) else {
        return Err("no probed stream finished warm-up".into());
    };

    // The f32 snapshot re-sync is a per-call cost the fleet pays once per
    // cohort rebuild; time it on the fitted model even where the run did
    // not fine-tune, so every workload reports it.
    let leader = group.dets[0].model();
    if let Some(mut snap) = InferBatchF32::new(leader, plan.width) {
        for _ in 0..15 {
            let a = Instant::now();
            snap.refresh(leader);
            refresh_us.push(a.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    // Telemetry export: the detector's lifecycle registry rendered as the
    // Prometheus exposition.
    let mut export = Vec::with_capacity(15);
    let mut text = String::new();
    for _ in 0..15 {
        let a = Instant::now();
        let reg = group.dets[0].export_metrics();
        text.clear();
        reg.render_prometheus(&mut text);
        export.push(a.elapsed().as_nanos() as f64 / 1e3);
    }

    let replay_steps: usize = groups.iter().map(|g| g.replay.steps).sum();
    let mut core = [0.0f64; 4];
    for g in &groups {
        for (c, ns) in core.iter_mut().zip(g.replay.ns) {
            *c += ns;
        }
    }
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    Ok(ProbeCosts {
        begin_ns: per(begin_ns, steps),
        forward_ns_per_row: per(forward_ns, steps),
        finish_ns: per(finish_ns, finish_n),
        finetune_ms: per(finetune_ns, fine_tunes) / 1e6,
        refresh_us: median(&refresh_us),
        nonconformity_ns: per(core[0], replay_steps),
        scorer_ns: per(core[1], replay_steps),
        task1_ns: per(core[2], replay_steps),
        drift_observe_ns: per(core[3], replay_steps),
        export_us: median(&export),
        steps,
        fine_tunes,
        drifts,
        replay_steps,
    })
}
