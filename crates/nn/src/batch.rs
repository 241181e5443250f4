//! Batched, workspace-backed training path.
//!
//! The streaming fine-tune loop is the Table III grid's tail: USAD, N-BEATS
//! and the 2-layer AE under the sliding-window strategy retrain on every
//! drift signal, and the per-sample path walks `O(P)` heap allocations per
//! step (activation vectors, caches, flattened parameter copies). This
//! module packs a minibatch into row-major [`Matrix`] activations and
//! drives the cache-blocked `sad-tensor` kernels instead:
//!
//! * **forward**: one [`Matrix::matmul_transpose_b_into`] per layer
//!   (`X · Wᵀ`, every output element a contiguous `dot4`),
//! * **backward**: one [`Matrix::matmul_transpose_a_acc`] per layer for
//!   the weight gradient (`δᵀ · X` — one GEMM instead of `B` rank-1
//!   sweeps) and one [`Matrix::matmul_into`] for the input gradient
//!   (`δ · W`),
//! * **buffers**: a reusable [`MlpWorkspace`] holds every activation,
//!   delta and gradient matrix, sized once — the steady-state inner loop
//!   performs **zero heap allocations** (guarded by the
//!   `alloc_free_training` integration test).
//!
//! ## Pinned summation order (bitwise parity)
//!
//! The batched path is **bitwise identical** to the per-sample path at
//! batch size 1, and its batch-of-`B` gradient is bitwise identical to
//! accumulating `B` per-sample gradients in ascending sample order:
//!
//! * forward: `matmul_transpose_b_into` computes `dot4(x_b, w_o)`; the
//!   per-sample [`Matrix::matvec`] computes `dot4(w_o, x_b)` — IEEE-754
//!   multiplication commutes and the four-accumulator reduction order is
//!   identical, so the results agree bitwise.
//! * weight gradients: `matmul_transpose_a_acc` accumulates one rank-1
//!   row sweep per sample, ascending — the exact loop order of
//!   [`crate::Dense::backward`].
//! * input gradients: the i-k-j `matmul_into` with its `a == 0.0` skip is
//!   the row-batched form of [`Matrix::matvec_t`] with its `vi == 0.0`
//!   skip.
//! * optimizer: [`Optimizer::step_segment`] over slices that tile the
//!   parameter buffer in order is bitwise identical to one flat
//!   [`Optimizer::step`].
//!
//! The parity tests in `tests/batch_parity.rs` assert these equalities
//! exactly (`f64::to_bits`), with no tolerances.

use crate::layer::Dense;
use crate::mlp::{Mlp, MlpGrads};
use sad_tensor::{Matrix, Optimizer, Scalar};

/// Input and activation buffers for batched forward passes over one layer
/// stack, at any precision.
///
/// This is the one batched layer loop of the crate: [`Self::forward`] runs
/// the training forward of [`Mlp::forward_batch`], live f64 inference, and
/// f32 snapshot inference ([`crate::InferPlan`]). All matrices are
/// allocated once for `max_batch` rows; smaller batches shrink the logical
/// row count via [`Matrix::resize_rows`], which stays within the original
/// capacity and never reallocates.
#[derive(Debug, Clone)]
pub struct ForwardWorkspace<T: Scalar = f64> {
    /// Layer widths `[in, h₁, …, out]` this workspace was shaped for.
    dims: Vec<usize>,
    max_batch: usize,
    batch: usize,
    /// `B × in_dim` network input.
    input: Matrix<T>,
    /// Per layer: `B × out_dim(l)` post-activation output.
    acts: Vec<Matrix<T>>,
}

impl<T: Scalar> ForwardWorkspace<T> {
    /// Creates a workspace for `layers` (of any precision — only their
    /// shapes are read) with room for `max_batch` rows.
    pub fn new<U: Scalar>(layers: &[Dense<U>], max_batch: usize) -> Self {
        assert!(max_batch > 0, "workspace needs at least one batch row");
        let mut dims = Vec::with_capacity(layers.len() + 1);
        dims.push(layers[0].in_dim());
        dims.extend(layers.iter().map(Dense::out_dim));
        Self {
            input: Matrix::zeros(max_batch, dims[0]),
            acts: dims[1..].iter().map(|&d| Matrix::zeros(max_batch, d)).collect(),
            max_batch,
            batch: max_batch,
            dims,
        }
    }

    /// Maximum number of rows the workspace was allocated for.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Current logical batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Sets the logical batch size for the next forward pass.
    ///
    /// # Panics
    /// Panics if `batch` is zero or exceeds [`Self::max_batch`] (growing
    /// past the allocated capacity would reallocate).
    pub fn set_batch(&mut self, batch: usize) {
        assert!(batch > 0, "batch size must be positive");
        assert!(
            batch <= self.max_batch,
            "batch {batch} exceeds workspace capacity {}",
            self.max_batch
        );
        self.batch = batch;
        self.input.resize_rows(batch);
        for m in &mut self.acts {
            m.resize_rows(batch);
        }
    }

    /// The input matrix (`batch × in_dim`).
    pub fn input(&self) -> &Matrix<T> {
        &self.input
    }

    /// Mutable input matrix, for chaining another network's output in.
    pub fn input_mut(&mut self) -> &mut Matrix<T> {
        &mut self.input
    }

    /// Mutable input row `b`, for the caller to fill.
    pub fn input_row_mut(&mut self, b: usize) -> &mut [T] {
        self.input.row_mut(b)
    }

    /// The network output of the last forward pass (`batch × out_dim`).
    pub fn output(&self) -> &Matrix<T> {
        self.acts.last().expect("non-empty")
    }

    /// Output row `b` of the last forward pass.
    pub fn output_row(&self, b: usize) -> &[T] {
        self.output().row(b)
    }

    /// Batched forward pass of `layers` over the `batch()` input rows.
    ///
    /// Each layer is one `X · Wᵀ` GEMM ([`Matrix::matmul_transpose_b_into`])
    /// followed by an in-place bias add and activation per row. Performs no
    /// heap allocation.
    ///
    /// # Panics
    /// Panics if `layers` do not have the geometry this workspace was
    /// shaped for.
    pub fn forward(&mut self, layers: &[Dense<T>]) {
        self.check_geometry(layers);
        let batch = self.batch;
        for (l, layer) in layers.iter().enumerate() {
            let (done, todo) = self.acts.split_at_mut(l);
            let x = if l == 0 { &self.input } else { &done[l - 1] };
            let act = &mut todo[0];
            x.matmul_transpose_b_into(&layer.weights, act);
            for b in 0..batch {
                let row = act.row_mut(b);
                for (o, &bias) in row.iter_mut().zip(&layer.bias) {
                    *o += bias;
                }
                layer.activation.apply_slice(row);
            }
        }
    }

    fn check_geometry(&self, layers: &[Dense<T>]) {
        assert_eq!(self.dims.len(), layers.len() + 1, "workspace/layer count mismatch");
        assert_eq!(self.dims[0], layers[0].in_dim(), "workspace input width mismatch");
        for (d, layer) in self.dims[1..].iter().zip(layers) {
            assert_eq!(*d, layer.out_dim(), "workspace layer width mismatch");
        }
    }
}

/// Reusable buffers for one network's batched forward/backward pass: the
/// forward buffers plus the gradient buffers of the backward pass, all
/// sized once. A workspace is tied to the layer geometry of the [`Mlp`]
/// it was created from.
#[derive(Debug, Clone)]
pub struct MlpWorkspace {
    fwd: ForwardWorkspace,
    /// Per layer: `B × out_dim(l)` gradient buffer. During
    /// [`Mlp::backward_batch`], `deltas[l]` first holds `∂L/∂act_l` and is
    /// then turned into the pre-activation delta in place. The caller seeds
    /// `deltas[last]` (via [`Self::grad_out_mut`]) with `∂L/∂ŷ`.
    deltas: Vec<Matrix>,
    /// `B × in_dim` input gradient (filled on request).
    grad_in: Matrix,
}

impl MlpWorkspace {
    /// Creates a workspace for `mlp` with room for `max_batch` rows.
    pub fn new(mlp: &Mlp, max_batch: usize) -> Self {
        let fwd = ForwardWorkspace::new(&mlp.layers, max_batch);
        let deltas = fwd.dims[1..].iter().map(|&d| Matrix::zeros(max_batch, d)).collect();
        Self { grad_in: Matrix::zeros(max_batch, fwd.dims[0]), deltas, fwd }
    }

    /// Maximum number of rows the workspace was allocated for.
    pub fn max_batch(&self) -> usize {
        self.fwd.max_batch
    }

    /// Current logical batch size.
    pub fn batch(&self) -> usize {
        self.fwd.batch
    }

    /// Sets the logical batch size for the next forward/backward pass.
    ///
    /// # Panics
    /// Panics if `batch` is zero or exceeds [`Self::max_batch`] (growing
    /// past the allocated capacity would reallocate).
    pub fn set_batch(&mut self, batch: usize) {
        self.fwd.set_batch(batch);
        self.grad_in.resize_rows(batch);
        for m in &mut self.deltas {
            m.resize_rows(batch);
        }
    }

    /// The input matrix (`batch × in_dim`).
    pub fn input(&self) -> &Matrix {
        self.fwd.input()
    }

    /// Mutable input matrix, for chaining another network's output in.
    pub fn input_mut(&mut self) -> &mut Matrix {
        self.fwd.input_mut()
    }

    /// Mutable input row `b`, for the caller to fill.
    pub fn input_row_mut(&mut self, b: usize) -> &mut [f64] {
        self.fwd.input_row_mut(b)
    }

    /// The network output of the last forward pass (`batch × out_dim`).
    pub fn output(&self) -> &Matrix {
        self.fwd.output()
    }

    /// Output row `b` of the last forward pass.
    pub fn output_row(&self, b: usize) -> &[f64] {
        self.fwd.output_row(b)
    }

    /// The output-gradient buffer the caller seeds with `∂L/∂ŷ` before
    /// [`Mlp::backward_batch`].
    pub fn grad_out_mut(&mut self) -> &mut Matrix {
        self.deltas.last_mut().expect("non-empty")
    }

    /// Input, output and output-gradient buffers together (disjoint
    /// borrows), for loss gradients computed from workspace state — e.g.
    /// the autoencoder's `∂MSE(ŷ, x)/∂ŷ`.
    pub fn io_split(&mut self) -> (&Matrix, &Matrix, &mut Matrix) {
        let output = self.fwd.acts.last().expect("non-empty");
        (&self.fwd.input, output, self.deltas.last_mut().expect("non-empty"))
    }

    /// The input gradient `∂L/∂X` of the last backward pass (only valid if
    /// it was requested).
    pub fn grad_in(&self) -> &Matrix {
        &self.grad_in
    }
}

impl Mlp {
    /// Creates a workspace shaped for this network with `max_batch` rows.
    pub fn workspace(&self, max_batch: usize) -> MlpWorkspace {
        MlpWorkspace::new(self, max_batch)
    }

    /// Batched forward pass over the `ws.batch()` rows of `ws.input()`
    /// ([`ForwardWorkspace::forward`] over this network's layers). Performs
    /// no heap allocation.
    pub fn forward_batch(&self, ws: &mut MlpWorkspace) {
        ws.fwd.forward(&self.layers);
    }

    /// Batched backward pass.
    ///
    /// Expects the caller to have run [`Self::forward_batch`] on `ws` and
    /// written `∂L/∂ŷ` into [`MlpWorkspace::grad_out_mut`]. Accumulates
    /// parameter gradients into `grads` (summed over the batch in ascending
    /// sample order — see the module docs for why this order is pinned) and,
    /// if `want_grad_in`, writes `∂L/∂X` into the workspace's
    /// [`MlpWorkspace::grad_in`] buffer for cross-network chaining.
    /// Performs no heap allocation.
    pub fn backward_batch(&self, ws: &mut MlpWorkspace, grads: &mut MlpGrads, want_grad_in: bool) {
        ws.fwd.check_geometry(&self.layers);
        assert_eq!(grads.layers.len(), self.layers.len(), "grad shape mismatch");
        let batch = ws.fwd.batch;
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            // δ_l = ∂L/∂act_l ⊙ act'(y_l), in place.
            {
                let delta = &mut ws.deltas[l];
                let act = &ws.fwd.acts[l];
                for b in 0..batch {
                    for (d, &y) in delta.row_mut(b).iter_mut().zip(act.row(b)) {
                        *d *= layer.activation.derivative_from_output(y);
                    }
                }
            }
            // ∂L/∂W += δᵀ · X — one GEMM accumulating rank-1 terms in
            // ascending sample order.
            let x = if l == 0 { &ws.fwd.input } else { &ws.fwd.acts[l - 1] };
            ws.deltas[l].matmul_transpose_a_acc(x, &mut grads.layers[l].weights);
            // ∂L/∂b += Σ_b δ_b, ascending.
            for b in 0..batch {
                for (gb, &d) in grads.layers[l].bias.iter_mut().zip(ws.deltas[l].row(b)) {
                    *gb += d;
                }
            }
            // ∂L/∂act_{l−1} = δ_l · W_l, into the next delta buffer down.
            if l > 0 {
                let (below, here) = ws.deltas.split_at_mut(l);
                here[0].matmul_into(&layer.weights, &mut below[l - 1]);
            } else if want_grad_in {
                ws.deltas[0].matmul_into(&layer.weights, &mut ws.grad_in);
            }
        }
    }

    /// One batched MSE *autoencoder* training step: target ≡ input.
    ///
    /// The caller fills `ws.input_row_mut(b)` for `b < ws.batch()`. For
    /// batches larger than one the summed gradient is scaled by `1/B`
    /// (minibatch mean, as in USAD's reference formulation); at `B = 1` the
    /// step is bitwise identical to [`Mlp::train_step_mse`] with
    /// `target == x`. Returns the mean per-sample MSE before the update.
    /// Performs no steady-state heap allocation.
    pub fn train_batch_mse_identity(
        &mut self,
        ws: &mut MlpWorkspace,
        grads: &mut MlpGrads,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        self.forward_batch(ws);
        let batch = ws.fwd.batch;
        let mut loss_sum = 0.0;
        {
            let (input, output, grad_out) = ws.io_split();
            let d = self.out_dim();
            let scale = 2.0 / d.max(1) as f64;
            for b in 0..batch {
                let x = input.row(b);
                let y = output.row(b);
                let g = grad_out.row_mut(b);
                let mut sq = 0.0;
                for ((gi, &yi), &xi) in g.iter_mut().zip(y).zip(x) {
                    sq += (yi - xi) * (yi - xi);
                    *gi = scale * (yi - xi);
                }
                loss_sum += sq / d.max(1) as f64;
            }
        }
        grads.zero();
        self.backward_batch(ws, grads, false);
        if batch > 1 {
            grads.scale(1.0 / batch as f64);
        }
        self.apply_grads(grads, opt);
        loss_sum / batch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::mse_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sad_tensor::Adam;

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[3, 5, 3], &[Activation::Tanh, Activation::Identity], &mut rng)
    }

    fn sample(k: usize) -> Vec<f64> {
        (0..3).map(|j| ((k * 3 + j) as f64 * 0.37).sin()).collect()
    }

    #[test]
    fn forward_batch_rows_match_per_sample_infer_bitwise() {
        let mlp = tiny_mlp(1);
        let mut ws = mlp.workspace(4);
        ws.set_batch(4);
        for b in 0..4 {
            ws.input_row_mut(b).copy_from_slice(&sample(b));
        }
        mlp.forward_batch(&mut ws);
        for b in 0..4 {
            let per_sample = mlp.infer(&sample(b));
            let batched: Vec<u64> = ws.output_row(b).iter().map(|v| v.to_bits()).collect();
            let reference: Vec<u64> = per_sample.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batched, reference, "row {b}");
        }
    }

    #[test]
    fn backward_batch_equals_accumulated_per_sample_grads_bitwise() {
        let mlp = tiny_mlp(2);
        let target = [0.2, -0.1, 0.4];

        // Reference: per-sample backward, accumulated in ascending order.
        let mut ref_grads = mlp.zero_grads();
        for b in 0..3 {
            let x = sample(b);
            let cache = mlp.forward(&x);
            let g = mse_grad(cache.output(), &target);
            mlp.backward(&cache, &g, &mut ref_grads);
        }

        // Batched: one backward over the 3-row workspace.
        let mut ws = mlp.workspace(3);
        ws.set_batch(3);
        for b in 0..3 {
            ws.input_row_mut(b).copy_from_slice(&sample(b));
        }
        mlp.forward_batch(&mut ws);
        for b in 0..3 {
            let g = mse_grad(ws.output().row(b), &target);
            ws.grad_out_mut().row_mut(b).copy_from_slice(&g);
        }
        let mut grads = mlp.zero_grads();
        mlp.backward_batch(&mut ws, &mut grads, false);

        let a: Vec<u64> = grads.flatten().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = ref_grads.flatten().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn grad_in_matches_per_sample_chain_bitwise() {
        let mlp = tiny_mlp(3);
        let grad_out = [0.3, -0.7, 0.05];
        let mut ws = mlp.workspace(2);
        ws.set_batch(2);
        for b in 0..2 {
            ws.input_row_mut(b).copy_from_slice(&sample(b + 5));
        }
        mlp.forward_batch(&mut ws);
        for b in 0..2 {
            ws.grad_out_mut().row_mut(b).copy_from_slice(&grad_out);
        }
        let mut grads = mlp.zero_grads();
        mlp.backward_batch(&mut ws, &mut grads, true);

        for b in 0..2 {
            let x = sample(b + 5);
            let cache = mlp.forward(&x);
            let mut ref_grads = mlp.zero_grads();
            let gi = mlp.backward(&cache, &grad_out, &mut ref_grads);
            let batched: Vec<u64> = ws.grad_in().row(b).iter().map(|v| v.to_bits()).collect();
            let reference: Vec<u64> = gi.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batched, reference, "row {b}");
        }
    }

    #[test]
    fn batch_of_one_training_is_bitwise_per_sample_training() {
        let mut a = tiny_mlp(7);
        let mut b = a.clone();
        let mut opt_a = Adam::new(5e-3);
        let mut opt_b = Adam::new(5e-3);
        let mut ws = b.workspace(1);
        let mut grads = b.zero_grads();
        for k in 0..20 {
            let x = sample(k);
            a.train_step_mse(&x, &x, &mut opt_a);
            ws.set_batch(1);
            ws.input_row_mut(0).copy_from_slice(&x);
            b.train_batch_mse_identity(&mut ws, &mut grads, &mut opt_b);
        }
        let pa: Vec<u64> = a.params_flat().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = b.params_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn larger_batches_still_learn() {
        let mut mlp = tiny_mlp(9);
        let mut opt = Adam::new(1e-2);
        let mut ws = mlp.workspace(4);
        let mut grads = mlp.zero_grads();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            ws.set_batch(4);
            for b in 0..4 {
                ws.input_row_mut(b).copy_from_slice(&sample(b));
            }
            last = mlp.train_batch_mse_identity(&mut ws, &mut grads, &mut opt);
            first.get_or_insert(last);
        }
        let first = first.unwrap();
        assert!(last < first * 0.2, "batched training must descend: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "exceeds workspace capacity")]
    fn growing_past_capacity_panics() {
        let mlp = tiny_mlp(1);
        let mut ws = mlp.workspace(2);
        ws.set_batch(3);
    }

    #[test]
    #[should_panic(expected = "workspace input width mismatch")]
    fn foreign_workspace_is_rejected() {
        let mlp = tiny_mlp(1);
        let mut rng = StdRng::seed_from_u64(0);
        let other =
            Mlp::new(&[4, 5, 3], &[Activation::Identity, Activation::Identity], &mut rng);
        let mut ws = other.workspace(1);
        mlp.forward_batch(&mut ws);
    }
}
