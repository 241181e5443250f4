//! Cross-stream batched inference for the NN-backed models (fleet serving).
//!
//! The fleet's headline optimisation packs the per-step feature windows of
//! many streams into one row-major matrix and pushes them through a single
//! batched forward pass per sub-network, amortizing inference the way
//! `MlpWorkspace` already amortizes training. This module provides the
//! model-side machinery:
//!
//! * [`ArchKey`] / [`batch_arch_key`] — which streams are *eligible* to
//!   share a batch (same model family, identical layer dimensions);
//! * [`infer_state_equal`] — which eligible streams may *actually* share
//!   one forward pass (bitwise-identical inference parameters: only then
//!   is running every row through one member's network exactly the
//!   per-stream computation);
//! * [`InferBatch`] — the reusable batched workspaces plus the
//!   `begin`/`pack`/`forward`/`emit_into` loop that reproduces each
//!   model's `predict` row by row, at either precision;
//! * [`InferSource`] — where that loop reads parameters from: a leader
//!   model's live f64 parameters (zero-copy, bitwise `predict`) or an
//!   owned [`InferSnapshot`] of converted copies (f32 serving).
//!
//! Bitwise parity of the live f64 path rests on three already-proven
//! facts: the batched layer loop computes each output row independently
//! and identically to `Mlp::infer` (`sad-nn` batch parity tests), both
//! scalers are the affine map `z = (x − sub)/div`, `x = z·div + sub`
//! that the pack and emit steps below evaluate in the same operation
//! order, and matrix-row copies are exact. The tests below close the loop
//! per model against `predict`, three ways: live, f64 snapshot, f32
//! snapshot.

use crate::ae::TwoLayerAe;
use crate::nbeats::{Block, NBeats};
use crate::usad::Usad;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Dense, ForwardWorkspace, InferPlan, Mlp};
use sad_tensor::{Matrix, Scalar};

/// Model family of an [`ArchKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// `TwoLayerAe` reconstruction.
    Ae,
    /// `Usad` — only the inference half `AE₁ = D₁ ∘ E`.
    Usad,
    /// `NBeats` residual forecast stack.
    NBeats,
}

/// Batching eligibility key: streams share a batch group iff their models
/// have the same kind and identical layer dimensions (the issue's rule:
/// same arch ⇒ same batch). Parameter values are deliberately *not* part
/// of the key — they are compared separately by [`infer_state_equal`] to
/// form weight-identical cohorts within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchKey {
    kind: ArchKind,
    /// Flattened layer dimensions of every network `predict` touches
    /// (sentinel-separated per network so distinct topologies cannot
    /// collide).
    dims: Vec<usize>,
}

impl ArchKey {
    /// Model family.
    pub fn kind(&self) -> ArchKind {
        self.kind
    }
}

/// The networks a fitted NN model's `predict` reads.
enum LiveNets<'a> {
    Ae(&'a Mlp),
    Usad { encoder: &'a Mlp, dec1: &'a Mlp },
    NBeats(&'a [Block]),
}

/// Borrowed inference state of a fitted NN model: its networks in pinned
/// order and its scaler's `(sub, div)`.
struct Live<'a> {
    nets: LiveNets<'a>,
    affine: Option<(&'a [f64], &'a [f64])>,
}

impl<'a> Live<'a> {
    fn kind(&self) -> ArchKind {
        match self.nets {
            LiveNets::Ae(_) => ArchKind::Ae,
            LiveNets::Usad { .. } => ArchKind::Usad,
            LiveNets::NBeats(_) => ArchKind::NBeats,
        }
    }

    /// Number of networks.
    fn len(&self) -> usize {
        match self.nets {
            LiveNets::Ae(_) => 1,
            LiveNets::Usad { .. } => 2,
            LiveNets::NBeats(blocks) => 3 * blocks.len(),
        }
    }

    /// Network `i` in pinned order: AE `[net]`; USAD `[encoder, dec₁]`;
    /// N-BEATS `[trunk, backcast head, forecast head]` per block.
    fn net(&self, i: usize) -> &'a Mlp {
        match self.nets {
            LiveNets::Ae(net) => [net][i],
            LiveNets::Usad { encoder, dec1 } => [encoder, dec1][i],
            LiveNets::NBeats(blocks) => {
                let b = &blocks[i / 3];
                [&b.trunk, &b.backcast_head, &b.forecast_head][i % 3]
            }
        }
    }
}

/// The live inference state of `model`, or `None` when the model is not
/// an NN-backed type or its networks have not materialized yet (e.g.
/// before the warm-up fit).
fn live(model: &dyn StreamModel) -> Option<Live<'_>> {
    let any = model.as_any()?;
    if let Some(ae) = any.downcast_ref::<TwoLayerAe>() {
        let (net, scaler) = ae.inference_parts()?;
        return Some(Live { nets: LiveNets::Ae(net), affine: scaler.map(|s| s.affine()) });
    }
    if let Some(usad) = any.downcast_ref::<Usad>() {
        let (encoder, dec1, scaler) = usad.inference_parts()?;
        let affine = scaler.map(|s| s.affine());
        return Some(Live { nets: LiveNets::Usad { encoder, dec1 }, affine });
    }
    if let Some(nb) = any.downcast_ref::<NBeats>() {
        let (blocks, scaler) = nb.inference_parts()?;
        return Some(Live { nets: LiveNets::NBeats(blocks), affine: scaler.map(|s| s.affine()) });
    }
    None
}

/// The batching eligibility key of a model, or `None` when the model is
/// not an NN-backed type or its networks have not materialized yet (e.g.
/// before the warm-up fit). Non-eligible streams stay on the scalar
/// per-stream path.
pub fn batch_arch_key(model: &dyn StreamModel) -> Option<ArchKey> {
    let live = live(model)?;
    let mut dims = Vec::new();
    for i in 0..live.len() {
        // `in_dim, out₁, out₂, …, SENTINEL` per network.
        let net = live.net(i);
        dims.push(net.in_dim());
        dims.extend(net.layers().iter().map(Dense::out_dim));
        dims.push(usize::MAX);
    }
    Some(ArchKey { kind: live.kind(), dims })
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two models' *inference* computations are bitwise identical —
/// the cohort test: only streams passing this may share one forward pass.
/// Exact (`f64::to_bits`) comparison of every parameter `predict` reads,
/// plus the fitted scaler statistics. Models of different kinds or shapes
/// are never equal; training-only state (optimizers, `dec2`, gradient
/// buffers) is irrelevant to `predict` and ignored.
pub fn infer_state_equal(a: &dyn StreamModel, b: &dyn StreamModel) -> bool {
    let (Some(a), Some(b)) = (live(a), live(b)) else { return false };
    let affine_equal = match (a.affine, b.affine) {
        (None, None) => true,
        (Some((sa, da)), Some((sb, db))) => bits_equal(sa, sb) && bits_equal(da, db),
        _ => false,
    };
    a.kind() == b.kind()
        && a.len() == b.len()
        && (0..a.len()).all(|i| a.net(i).params_equal(b.net(i)))
        && affine_equal
}

/// Where an [`InferBatch`] reads a cohort's parameters from: every
/// network `predict` runs, in pinned order, and the input scaler's
/// `(sub, div)`. Statically dispatched; implemented by a leader model's
/// live f64 parameters (`dyn StreamModel`, zero-copy) and by an owned
/// [`InferSnapshot`].
pub trait InferSource<T: Scalar> {
    /// Network `i`'s layers: AE `[net]`; USAD `[encoder, dec₁]`; N-BEATS
    /// `[trunk, backcast head, forecast head]` per block.
    fn net(&self, i: usize) -> &[Dense<T>];
    /// The scaler's `(sub, div)`, or `None` for an unscaled model.
    fn affine(&self) -> Option<(&[T], &[T])>;
}

impl InferSource<f64> for dyn StreamModel + '_ {
    fn net(&self, i: usize) -> &[Dense] {
        live(self).expect("batchable leader").net(i).layers()
    }

    fn affine(&self) -> Option<(&[f64], &[f64])> {
        live(self).expect("batchable leader").affine
    }
}

/// An owned inference snapshot of one model: every network `predict`
/// reads, converted to `T`, plus the scaler's `(sub, div)`.
///
/// Unlike the live source, a snapshot does not follow training: re-sync
/// it with [`Self::refresh`] (allocation-free) on the same
/// dirty-on-training-event hook that rebuilds cohort membership. An f64
/// snapshot is exact, so serving through it is bitwise `predict`.
#[derive(Debug, Clone)]
pub struct InferSnapshot<T: Scalar = f32> {
    kind: ArchKind,
    nets: Vec<InferPlan<T>>,
    affine: Option<(Vec<T>, Vec<T>)>,
}

fn convert<T: Scalar>(src: &[f64]) -> Vec<T> {
    src.iter().map(|&v| T::from_f64(v)).collect()
}

fn convert_into<T: Scalar>(dst: &mut [T], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "scaler snapshot dimension mismatch");
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = T::from_f64(v);
    }
}

impl<T: Scalar> InferSnapshot<T> {
    /// Snapshots `leader`'s inference state, or `None` when the model is
    /// not batchable (same eligibility as [`batch_arch_key`]).
    pub fn new(leader: &dyn StreamModel) -> Option<Self> {
        let live = live(leader)?;
        Some(Self {
            kind: live.kind(),
            nets: (0..live.len()).map(|i| InferPlan::new(live.net(i))).collect(),
            affine: live.affine.map(|(sub, div)| (convert(sub), convert(div))),
        })
    }

    /// Re-converts every parameter from `leader` in place — the
    /// training-event hook. Allocation-free.
    ///
    /// # Panics
    /// Panics if `leader` is a different model kind/shape than the
    /// snapshot, or its scaler appeared/disappeared.
    pub fn refresh(&mut self, leader: &dyn StreamModel) {
        let live = live(leader).expect("fitted batchable leader");
        assert_eq!(self.kind, live.kind(), "snapshot refreshed from a different model kind");
        assert_eq!(self.nets.len(), live.len(), "snapshot network count mismatch");
        for (i, plan) in self.nets.iter_mut().enumerate() {
            plan.refresh(live.net(i));
        }
        match (&mut self.affine, live.affine) {
            (None, None) => {}
            (Some((sub, div)), Some((s, d))) => {
                convert_into(sub, s);
                convert_into(div, d);
            }
            _ => panic!("scaler presence changed across refresh"),
        }
    }
}

impl<T: Scalar> InferSource<T> for InferSnapshot<T> {
    fn net(&self, i: usize) -> &[Dense<T>] {
        self.nets[i].layers()
    }

    fn affine(&self) -> Option<(&[T], &[T])> {
        self.affine.as_ref().map(|(sub, div)| (&sub[..], &div[..]))
    }
}

/// Reusable batched-inference buffers for one architecture, at precision
/// `T` (f64 unless stated otherwise).
///
/// The per-step loop is `begin(rows)` → `pack(src, row, x)` per stream →
/// `forward(src)` → `emit_into(src, row, out)` per stream, where `src` is
/// the cohort's [`InferSource`]: any cohort member's model for the live
/// f64 path (they are interchangeable by the cohort invariant), or the
/// cohort's [`InferSnapshot`]. The batch owns only workspaces, so one
/// serves every cohort of an architecture. All buffers are sized once for
/// `capacity` rows; steady-state rounds perform zero heap allocations.
pub struct InferBatch<T: Scalar = f64> {
    kind: ArchKind,
    /// One forward workspace per network, in the source's pinned order.
    ws: Vec<ForwardWorkspace<T>>,
    /// N-BEATS: `B×n` running forecast sum `Σ_l ŷ_l` (no columns for the
    /// reconstruction models).
    forecast: Matrix<T>,
    /// N-BEATS: `w·N` scratch for the scaled full window before the
    /// history/target split (empty otherwise).
    scratch: Vec<T>,
    capacity: usize,
    rows: usize,
}

impl<T: Scalar> InferBatch<T> {
    /// Builds batch buffers for `leader`'s architecture, or `None` when
    /// the model is not batchable (see [`batch_arch_key`]).
    pub fn new(leader: &dyn StreamModel, capacity: usize) -> Option<Self> {
        assert!(capacity > 0, "batch capacity must be positive");
        let live = live(leader)?;
        let ws = (0..live.len())
            .map(|i| ForwardWorkspace::new(live.net(i).layers(), capacity))
            .collect();
        let (forecast, scratch) = match live.nets {
            LiveNets::NBeats(blocks) => {
                let (input, output) = (blocks[0].trunk.in_dim(), blocks[0].forecast_head.out_dim());
                (Matrix::zeros(capacity, output), vec![T::ZERO; input + output])
            }
            _ => (Matrix::zeros(capacity, 0), Vec::new()),
        };
        Some(Self { kind: live.kind(), ws, forecast, scratch, capacity, rows: 0 })
    }

    /// Maximum rows per forward pass.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Starts a round of `rows ≤ capacity` streams.
    pub fn begin(&mut self, rows: usize) {
        assert!(rows > 0 && rows <= self.capacity, "rows {rows} out of 1..={}", self.capacity);
        self.rows = rows;
        for ws in &mut self.ws {
            ws.set_batch(rows);
        }
        self.forecast.resize_rows(rows);
    }

    /// Loads stream `row`'s feature window, applying the source's input
    /// scaling as the model's `predict` does (bitwise at f64).
    pub fn pack<S: InferSource<T> + ?Sized>(&mut self, src: &S, row: usize, x: &FeatureVector) {
        assert!(row < self.rows, "row {row} out of batch of {}", self.rows);
        let affine = src.affine();
        if self.kind == ArchKind::NBeats {
            assert!(x.w() >= 2, "N-BEATS needs at least two steps of history");
            scale_into(affine, x.as_slice(), &mut self.scratch);
            let split = self.scratch.len() - x.n();
            self.ws[0].input_row_mut(row).copy_from_slice(&self.scratch[..split]);
        } else {
            scale_into(affine, x.as_slice(), self.ws[0].input_row_mut(row));
        }
    }

    /// Runs the shared forward pass(es) for the whole batch.
    pub fn forward<S: InferSource<T> + ?Sized>(&mut self, src: &S) {
        match self.kind {
            ArchKind::Ae => self.ws[0].forward(src.net(0)),
            ArchKind::Usad => {
                let [encoder, dec1] = &mut self.ws[..] else { unreachable!("USAD has two nets") };
                encoder.forward(src.net(0));
                dec1.input_mut().copy_from(encoder.output());
                dec1.forward(src.net(1));
            }
            ArchKind::NBeats => {
                for l in 0..self.ws.len() / 3 {
                    let (cur, rest) = self.ws.split_at_mut(3 * l + 3);
                    let [trunk, back, fore] = &mut cur[3 * l..] else { unreachable!() };
                    trunk.forward(src.net(3 * l));
                    back.input_mut().copy_from(trunk.output());
                    back.forward(src.net(3 * l + 1));
                    fore.input_mut().copy_from(trunk.output());
                    fore.forward(src.net(3 * l + 2));
                    // ŷ = Σ_l ŷ_l: copy the first block's forecast, add
                    // the rest (copy-then-accumulate matches the scalar
                    // path's `None => Some(f)` initialization bitwise —
                    // `0.0 + f` is not the identity for `f = −0.0`).
                    if l == 0 {
                        self.forecast.copy_from(fore.output());
                    } else {
                        let sum = self.forecast.as_mut_slice().iter_mut();
                        for (acc, &fv) in sum.zip(fore.output().as_slice()) {
                            *acc += fv;
                        }
                    }
                    // x_{l+1} = x_l − x̂_l, written straight into the next
                    // block's trunk input.
                    if let Some(next) = rest.first_mut() {
                        let residual =
                            trunk.input().as_slice().iter().zip(back.output().as_slice());
                        let out = next.input_mut().as_mut_slice();
                        for (o, (&r, &bv)) in out.iter_mut().zip(residual) {
                            *o = r - bv;
                        }
                    }
                }
            }
        }
    }

    /// Writes stream `row`'s model output into `out` in raw f64 units,
    /// reusing its existing buffer when the variant and length already
    /// match (the fleet keeps one `ModelOutput` per stream, so
    /// steady-state rounds do not allocate).
    pub fn emit_into<S: InferSource<T> + ?Sized>(
        &self,
        src: &S,
        row: usize,
        out: &mut ModelOutput,
    ) {
        assert!(row < self.rows, "row {row} out of batch of {}", self.rows);
        let affine = src.affine();
        if self.kind == ArchKind::NBeats {
            let z = self.forecast.row(row);
            unscale_into(affine, z, forecast_buf(out, z.len()));
        } else {
            let z = self.ws.last().expect("a model has a network").output_row(row);
            unscale_into(affine, z, reconstruction_buf(out, z.len()));
        }
    }
}

/// `out = (x − sub) / div` in `T` — the scalers' `transform`, bitwise at
/// f64. Unscaled models only convert.
fn scale_into<T: Scalar>(affine: Option<(&[T], &[T])>, x: &[f64], out: &mut [T]) {
    assert_eq!(out.len(), x.len(), "scaled row length mismatch");
    match affine {
        Some((sub, div)) => {
            assert_eq!(x.len(), sub.len(), "scaler dimension mismatch");
            for (o, ((&v, &m), &d)) in out.iter_mut().zip(x.iter().zip(sub).zip(div)) {
                *o = (T::from_f64(v) - m) / d;
            }
        }
        None => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = T::from_f64(v);
            }
        }
    }
}

/// `out = z · div + sub` over the scaler's last `z.len()` dimensions
/// (all of them for a reconstruction, the target step for a forecast),
/// widened to f64 — the scalers' `inverse`/`inverse_tail`, bitwise at
/// f64. Unscaled models only widen.
fn unscale_into<T: Scalar>(affine: Option<(&[T], &[T])>, z: &[T], out: &mut [f64]) {
    match affine {
        Some((sub, div)) => {
            let offset = sub.len() - z.len();
            let stats = sub[offset..].iter().zip(&div[offset..]);
            for (o, (&v, (&m, &d))) in out.iter_mut().zip(z.iter().zip(stats)) {
                *o = (v * d + m).to_f64();
            }
        }
        None => {
            for (o, &v) in out.iter_mut().zip(z) {
                *o = v.to_f64();
            }
        }
    }
}

fn reconstruction_buf(out: &mut ModelOutput, len: usize) -> &mut [f64] {
    if !matches!(out, ModelOutput::Reconstruction(v) if v.len() == len) {
        *out = ModelOutput::Reconstruction(vec![0.0; len]);
    }
    match out {
        ModelOutput::Reconstruction(v) => v,
        _ => unreachable!(),
    }
}

fn forecast_buf(out: &mut ModelOutput, len: usize) -> &mut [f64] {
    if !matches!(out, ModelOutput::Forecast(v) if v.len() == len) {
        *out = ModelOutput::Forecast(vec![0.0; len]);
    }
    match out {
        ModelOutput::Forecast(v) => v,
        _ => unreachable!(),
    }
}

/// An f32 snapshot paired with its own batch buffers: the single-cohort
/// form of f32 serving. Every call delegates to [`InferBatch<f32>`] over
/// the [`InferSnapshot<f32>`].
pub struct InferBatchF32 {
    batch: InferBatch<f32>,
    snapshot: InferSnapshot<f32>,
}

impl InferBatchF32 {
    /// Snapshots `leader`, or `None` when the model is not batchable.
    pub fn new(leader: &dyn StreamModel, capacity: usize) -> Option<Self> {
        let batch = InferBatch::new(leader, capacity)?;
        Some(Self { batch, snapshot: InferSnapshot::new(leader)? })
    }

    /// Re-syncs the snapshot from `leader` ([`InferSnapshot::refresh`]).
    pub fn refresh(&mut self, leader: &dyn StreamModel) {
        self.snapshot.refresh(leader);
    }

    /// [`InferBatch::begin`].
    pub fn begin(&mut self, rows: usize) {
        self.batch.begin(rows);
    }

    /// [`InferBatch::pack`] through the snapshot.
    pub fn pack(&mut self, row: usize, x: &FeatureVector) {
        self.batch.pack(&self.snapshot, row, x);
    }

    /// [`InferBatch::forward`] through the snapshot.
    pub fn forward(&mut self) {
        self.batch.forward(&self.snapshot);
    }

    /// [`InferBatch::emit_into`] through the snapshot.
    pub fn emit_into(&self, row: usize, out: &mut ModelOutput) {
        self.batch.emit_into(&self.snapshot, row, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_windows(count: usize, w: usize, phase: f64) -> Vec<FeatureVector> {
        (0..count)
            .map(|s| {
                let data: Vec<f64> = (0..w)
                    .flat_map(|i| {
                        let t = (s + i) as f64 * 0.3 + phase;
                        vec![t.sin(), (t * 0.5).cos() * 2.0]
                    })
                    .collect();
                FeatureVector::new(data, w, 2)
            })
            .collect()
    }

    fn output_values(o: &ModelOutput) -> &[f64] {
        match o {
            ModelOutput::Reconstruction(v) | ModelOutput::Forecast(v) => v,
            other => panic!("not a batched output: {other:?}"),
        }
    }

    fn assert_outputs_bitwise(got: &[ModelOutput], want: &[ModelOutput], ctx: &str) {
        for (row, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(std::mem::discriminant(g), std::mem::discriminant(w), "{ctx} row {row}");
            let bits = |o| output_values(o).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{ctx} row {row}");
        }
    }

    const REL_TOL: f64 = 1e-4;

    fn assert_outputs_close(got: &[ModelOutput], want: &[ModelOutput], ctx: &str) {
        for (row, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(std::mem::discriminant(g), std::mem::discriminant(w), "{ctx} row {row}");
            for (i, (p, q)) in output_values(g).iter().zip(output_values(w)).enumerate() {
                let err = (p - q).abs();
                let bound = REL_TOL * q.abs().max(1.0);
                assert!(err <= bound, "{ctx} row {row}[{i}]: {p} vs f64 {q} (err {err:.3e})");
            }
        }
    }

    /// One `begin`/`pack`/`forward`/`emit_into` round over `probes`.
    fn serve<T: Scalar, S: InferSource<T> + ?Sized>(
        batch: &mut InferBatch<T>,
        src: &S,
        probes: &[FeatureVector],
    ) -> Vec<ModelOutput> {
        batch.begin(probes.len());
        for (row, x) in probes.iter().enumerate() {
            batch.pack(src, row, x);
        }
        batch.forward(src);
        let mut outs = vec![ModelOutput::Score(0.0); probes.len()];
        for (row, out) in outs.iter_mut().enumerate() {
            batch.emit_into(src, row, out);
        }
        outs
    }

    /// Drives `probes` through the batch three ways — the live f64
    /// leader, an f64 snapshot and an f32 snapshot — for a full batch and
    /// a 1-row partial batch, against the model's own `predict`. The f64
    /// ways are bitwise; the f32 way is within f32 tolerance.
    fn check_three_ways(model: &mut dyn StreamModel, probes: &[FeatureVector]) {
        let cap = probes.len();
        let mut live = InferBatch::<f64>::new(model, cap).expect("batchable model");
        let mut batch64 = InferBatch::<f64>::new(model, cap).unwrap();
        let snap64 = InferSnapshot::<f64>::new(model).unwrap();
        let mut f32 = InferBatchF32::new(model, cap).unwrap();
        for take in [cap, 1] {
            let probes = &probes[..take];
            let want: Vec<ModelOutput> = probes.iter().map(|x| model.predict(x)).collect();
            let ctx = format!("take {take}");
            let got = serve(&mut live, &*model, probes);
            assert_outputs_bitwise(&got, &want, &format!("live {ctx}"));
            let got = serve(&mut batch64, &snap64, probes);
            assert_outputs_bitwise(&got, &want, &format!("f64 snapshot {ctx}"));
            f32.begin(take);
            for (row, x) in probes.iter().enumerate() {
                f32.pack(row, x);
            }
            f32.forward();
            let mut got = vec![ModelOutput::Score(0.0); take];
            for (row, out) in got.iter_mut().enumerate() {
                f32.emit_into(row, out);
            }
            assert_outputs_close(&got, &want, &format!("f32 snapshot {ctx}"));
        }
    }

    #[test]
    fn ae_batch_matches_predict() {
        let train = sine_windows(40, 8, 0.0);
        let mut ae = TwoLayerAe::new(8, 5e-3, 7);
        ae.fit_initial(&train, 20);
        check_three_ways(&mut ae, &train[10..16]);
    }

    #[test]
    fn usad_batch_matches_predict() {
        let train = sine_windows(30, 6, 0.0);
        let mut usad = Usad::new(3, 2e-3, 5);
        usad.fit_initial(&train, 15);
        check_three_ways(&mut usad, &train[5..10]);
    }

    #[test]
    fn nbeats_batch_matches_predict() {
        let train = sine_windows(40, 8, 0.0);
        let mut nb = NBeats::new(2, 16, 6, 2e-3, 11);
        nb.fit_initial(&train, 15);
        check_three_ways(&mut nb, &train[20..25]);
        // The interpretable (fixed-basis) configuration too.
        let mut nbi = NBeats::interpretable(12, 3, 2, 2e-3, 7);
        nbi.fit_initial(&train, 10);
        check_three_ways(&mut nbi, &train[12..17]);
    }

    /// Unscaled models (predict before any fit creates the nets lazily,
    /// no scaler) must also match.
    #[test]
    fn unscaled_ae_batch_matches_predict() {
        let mut ae = TwoLayerAe::new(4, 1e-3, 1);
        let x = FeatureVector::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let _ = ae.predict(&x); // materializes the net, no scaler
        check_three_ways(&mut ae, std::slice::from_ref(&x));
    }

    /// A refreshed snapshot serves the fine-tuned weights: bitwise at
    /// f64, so `refresh` equals a from-scratch snapshot.
    #[test]
    fn snapshot_refresh_tracks_fine_tuning() {
        let train = sine_windows(40, 8, 0.0);
        let mut ae = TwoLayerAe::new(8, 5e-3, 7);
        ae.fit_initial(&train, 10);
        let mut snap = InferSnapshot::<f64>::new(&ae).unwrap();
        let mut batch = InferBatch::<f64>::new(&ae, 4).unwrap();
        ae.fine_tune(&train);
        ae.fine_tune(&train[5..]);
        let probes = &train[3..7];
        let want: Vec<ModelOutput> = probes.iter().map(|x| ae.predict(x)).collect();
        let stale = serve(&mut batch, &snap, probes);
        let moved = output_values(&stale[0]) != output_values(&want[0]);
        assert!(moved, "fine-tuning moved the weights");
        snap.refresh(&ae);
        assert_outputs_bitwise(&serve(&mut batch, &snap, probes), &want, "refreshed");
    }

    #[test]
    fn arch_key_groups_same_shape_only() {
        let train = sine_windows(30, 8, 0.0);
        let mut a = TwoLayerAe::new(8, 5e-3, 1);
        let mut b = TwoLayerAe::new(8, 1e-2, 99); // same shape, different params
        let mut c = TwoLayerAe::new(12, 5e-3, 1); // different hidden width
        a.fit_initial(&train, 2);
        b.fit_initial(&train, 2);
        c.fit_initial(&train, 2);
        let ka = batch_arch_key(&a).unwrap();
        assert_eq!(ka.kind(), ArchKind::Ae);
        assert_eq!(ka, batch_arch_key(&b).unwrap());
        assert_ne!(ka, batch_arch_key(&c).unwrap());

        let mut u = Usad::new(3, 2e-3, 5);
        u.fit_initial(&train, 1);
        assert_ne!(ka, batch_arch_key(&u).unwrap());
    }

    #[test]
    fn unfitted_or_non_nn_models_are_not_batchable() {
        let ae = TwoLayerAe::new(8, 5e-3, 1); // no net yet
        let knn = crate::KnnDistanceModel::new(3);
        for model in [&ae as &dyn StreamModel, &knn] {
            assert!(batch_arch_key(model).is_none());
            assert!(InferBatch::<f64>::new(model, 4).is_none());
            assert!(InferSnapshot::<f32>::new(model).is_none());
            assert!(InferBatchF32::new(model, 4).is_none());
        }
    }

    #[test]
    fn infer_state_equal_tracks_training_divergence() {
        let train = sine_windows(30, 8, 0.0);
        let mut a = TwoLayerAe::new(8, 5e-3, 7);
        a.fit_initial(&train, 5);
        let b = a.clone();
        assert!(infer_state_equal(&a, &b), "clones share inference state");
        let mut c = b.clone();
        c.fine_tune(&train);
        assert!(!infer_state_equal(&a, &c), "fine-tuning breaks the cohort");
        // Same shape, different seed → different parameters.
        let mut d = TwoLayerAe::new(8, 5e-3, 8);
        d.fit_initial(&train, 5);
        assert!(!infer_state_equal(&a, &d));
        // Cross-kind comparison is never equal.
        let mut u = Usad::new(3, 2e-3, 5);
        u.fit_initial(&train, 1);
        assert!(!infer_state_equal(&a, &u));
    }

    #[test]
    fn usad_dec2_divergence_keeps_cohort() {
        // dec2 never participates in predict: two USADs equal on
        // (encoder, dec1, scaler) stay in one cohort regardless of dec2.
        let train = sine_windows(30, 6, 0.0);
        let mut a = Usad::new(3, 2e-3, 5);
        a.fit_initial(&train, 10);
        let b = a.clone();
        assert!(infer_state_equal(&a, &b));
    }
}
