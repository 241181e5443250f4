//! Inference plans: converted, inference-only snapshots of an [`Mlp`].
//!
//! Fleet serving spends its steady state in batched forward passes — a
//! pure read of the trained f64 weights. At serving batch sizes the kernel
//! is memory-bound, so streaming the weights at half the bytes per element
//! is worth ~2× bandwidth; but training must stay f64 **bit-for-bit**
//! (every parity proof in the workspace depends on it). The resolution is
//! a separation of state:
//!
//! * the [`Mlp`] keeps sole ownership of the authoritative f64 parameters
//!   and every training/fine-tune path — untouched by this module;
//! * an [`InferPlan`] holds a *converted copy* of its layers as
//!   [`Dense<T>`]. It is re-synced (`refresh`, allocation-free) only when
//!   the owner observes a training event — the same
//!   dirty-on-training-event hook that maintains fleet cohort membership —
//!   and serves every inference round in between.
//!
//! A plan runs through the same batched layer loop as the network itself
//! ([`ForwardWorkspace::forward`]), so an f64 plan is bitwise the
//! network's own forward pass (asserted below) and an f32 plan differs
//! only by the precision of its arithmetic. f32 plan outputs agree with
//! the f64 forward pass to f32 relative accuracy (asserted below and, per
//! model, by `sad-models`' batched-inference tests); they are **never**
//! fed back into training.

use crate::batch::ForwardWorkspace;
use crate::layer::Dense;
use crate::mlp::Mlp;
use sad_tensor::Scalar;

/// Converted weights of one [`Mlp`], for inference only (f32 unless
/// stated otherwise).
///
/// Create with [`InferPlan::new`] (or [`Mlp::infer_plan`] for f32),
/// re-sync after a training event with [`InferPlan::refresh`]
/// (allocation-free), and run batched forwards through a reusable
/// [`ForwardWorkspace`].
#[derive(Debug, Clone)]
pub struct InferPlan<T: Scalar = f32> {
    layers: Vec<Dense<T>>,
}

impl<T: Scalar> InferPlan<T> {
    /// Builds a plan by converting every parameter of `mlp` to `T`.
    pub fn new(mlp: &Mlp) -> Self {
        Self { layers: mlp.layers().iter().map(Dense::<T>::converted).collect() }
    }

    /// Re-converts every parameter from `mlp` in place — the
    /// training-event hook. Performs **no heap allocation**.
    ///
    /// # Panics
    /// Panics if `mlp`'s architecture differs from the one the plan was
    /// built from (a fleet cohort never changes architecture, only values).
    pub fn refresh(&mut self, mlp: &Mlp) {
        assert_eq!(self.layers.len(), mlp.layers().len(), "infer plan layer count mismatch");
        for (plan, layer) in self.layers.iter_mut().zip(mlp.layers()) {
            plan.convert_from(layer);
        }
    }

    /// The converted layers, in order.
    pub fn layers(&self) -> &[Dense<T>] {
        &self.layers
    }

    /// Creates a workspace shaped for this plan with `max_batch` rows.
    pub fn workspace(&self, max_batch: usize) -> ForwardWorkspace<T> {
        ForwardWorkspace::new(&self.layers, max_batch)
    }

    /// Batched forward pass over the `ws.batch()` rows of `ws.input()`.
    /// Performs no heap allocation.
    pub fn forward_batch(&self, ws: &mut ForwardWorkspace<T>) {
        ws.forward(&self.layers);
    }
}

impl Mlp {
    /// Compiles an f32 inference plan from the current parameters (see
    /// [`InferPlan`]).
    pub fn infer_plan(&self) -> InferPlan {
        InferPlan::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sad_tensor::Sgd;

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[6, 4, 6], &[Activation::Sigmoid, Activation::Identity], &mut rng)
    }

    fn sample(k: usize) -> Vec<f64> {
        (0..6).map(|j| ((k * 6 + j) as f64 * 0.31).sin()).collect()
    }

    fn assert_close_to_f64(plan_out: &[f32], mlp_out: &[f64], tol: f64, ctx: &str) {
        assert_eq!(plan_out.len(), mlp_out.len());
        for (j, (&p, &m)) in plan_out.iter().zip(mlp_out).enumerate() {
            let err = (p as f64 - m).abs();
            let bound = tol * m.abs().max(1.0);
            assert!(err <= bound, "{ctx}[{j}]: f32 {p} vs f64 {m} (err {err:.3e})");
        }
    }

    #[test]
    fn plan_forward_matches_f64_infer_within_tolerance() {
        let mlp = tiny_mlp(3);
        let plan = mlp.infer_plan();
        let mut ws = plan.workspace(4);
        ws.set_batch(4);
        for b in 0..4 {
            for (o, &v) in ws.input_row_mut(b).iter_mut().zip(&sample(b)) {
                *o = v as f32;
            }
        }
        plan.forward_batch(&mut ws);
        for b in 0..4 {
            let reference = mlp.infer(&sample(b));
            assert_close_to_f64(ws.output_row(b), &reference, 1e-5, "row");
        }
    }

    #[test]
    fn refresh_tracks_training_without_allocating_new_shapes() {
        let mut mlp = tiny_mlp(5);
        let mut plan = mlp.infer_plan();
        let mut opt = Sgd::new(0.05);
        let x = sample(1);
        for _ in 0..50 {
            mlp.train_step_mse(&x, &x, &mut opt);
        }
        // Stale plan: built from the pre-training parameters.
        let mut ws = plan.workspace(1);
        ws.set_batch(1);
        for (o, &v) in ws.input_row_mut(0).iter_mut().zip(&x) {
            *o = v as f32;
        }
        plan.forward_batch(&mut ws);
        let stale: Vec<f32> = ws.output_row(0).to_vec();

        plan.refresh(&mlp);
        plan.forward_batch(&mut ws);
        let fresh = ws.output_row(0);
        let reference = mlp.infer(&x);
        assert_close_to_f64(fresh, &reference, 1e-5, "refreshed");
        // Training moved the weights, so the stale outputs must differ.
        assert!(
            stale.iter().zip(fresh).any(|(a, b)| a != b),
            "refresh must pick up the trained parameters",
        );
    }

    /// The shared layer loop over an f64 plan is bitwise `Mlp::infer`,
    /// across batch resizes: the conversion is exact and the loop is the
    /// network's own.
    #[test]
    fn f64_plan_forward_equals_mlp_infer_bitwise() {
        let mlp = tiny_mlp(5);
        let plan = InferPlan::<f64>::new(&mlp);
        let mut ws = plan.workspace(4);
        for &batch in &[4usize, 1, 3, 2] {
            ws.set_batch(batch);
            for b in 0..batch {
                ws.input_row_mut(b).copy_from_slice(&sample(b + batch));
            }
            plan.forward_batch(&mut ws);
            for b in 0..batch {
                let got: Vec<u64> = ws.output_row(b).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    mlp.infer(&sample(b + batch)).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "batch {batch}, row {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn refresh_rejects_foreign_architecture() {
        let mlp = tiny_mlp(7);
        let mut rng = StdRng::seed_from_u64(0);
        let other = Mlp::new(
            &[6, 3, 3, 6],
            &[Activation::Tanh, Activation::Tanh, Activation::Identity],
            &mut rng,
        );
        let mut plan = mlp.infer_plan();
        plan.refresh(&other);
    }

    #[test]
    fn workspace_resize_stays_within_capacity() {
        let mlp = tiny_mlp(9);
        let plan = mlp.infer_plan();
        let mut ws = plan.workspace(8);
        for &b in &[8usize, 1, 5, 8] {
            ws.set_batch(b);
            assert_eq!(ws.batch(), b);
            assert_eq!(ws.output().rows(), b);
        }
        assert_eq!(ws.max_batch(), 8);
    }
}
