//! The cosine-similarity kernel behind the framework's nonconformity
//! measure (`1 - cos(x, x̂)`, paper §IV-D), generic over element precision.
//!
//! Unlike the [`Matrix`](crate::Matrix) GEMM kernels, its reductions stay
//! deliberately *naive*: each one adds its terms into one accumulator in
//! ascending index order. Every f64 cosine nonconformity in the committed
//! evaluation artifacts was produced by this exact operation order, so a
//! laned rewrite here would silently change every anomaly score.
//! [`cosine_similarity`] fuses its three reductions (`‖a‖²`, `‖b‖²`, `a·b`)
//! into one loop with three independent accumulators, each still added in
//! that pinned order, so the three dependency chains overlap without
//! changing a bit. The f32 instantiation inherits the same order.

use crate::scalar::Scalar;

/// Cosine similarity between two vectors.
///
/// Returns `0.0` when either vector has (near-)zero norm: a zero vector
/// carries no directional information, and treating it as orthogonal gives
/// the conservative nonconformity `a_t = 1 - 0 = 1` ("maximally strange")
/// rather than a NaN that would poison downstream anomaly scores. Constant
/// all-zero channels do occur in server-metrics corpora, so this branch is
/// exercised in practice.
///
/// One pass: `‖a‖²`, `‖b‖²` and `a·b` each accumulate in ascending index
/// order from zero, so the result is bitwise that of three separate
/// sequential reductions.
pub fn cosine_similarity<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let (mut aa, mut bb, mut ab) = (T::ZERO, T::ZERO, T::ZERO);
    for (&x, &y) in a.iter().zip(b) {
        aa += x * x;
        bb += y * y;
        ab += x * y;
    }
    let na = aa.sqrt();
    let nb = bb.sqrt();
    if na <= T::EPSILON || nb <= T::EPSILON {
        return T::ZERO;
    }
    (ab / (na * nb)).clampv(-T::ONE, T::ONE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_vectors_is_one() {
        let v = [0.3, -1.2, 2.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_opposite_vectors_is_minus_one() {
        let v = [1.0, 2.0];
        let w = [-2.0, -4.0];
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_f32_matches_f64_within_tolerance() {
        let a = [1.0f64, 3.0, -2.0, 0.25];
        let b = [0.5f64, -1.0, 2.0, 4.0];
        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let wide = cosine_similarity(&a, &b);
        let narrow = cosine_similarity(&af, &bf) as f64;
        assert!((wide - narrow).abs() < 1e-6);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = [1.0, 3.0, -2.0];
        let b = [0.5, -1.0, 2.0];
        let scaled: Vec<f64> = a.iter().map(|v| v * 17.0).collect();
        assert!((cosine_similarity(&a, &b) - cosine_similarity(&scaled, &b)).abs() < 1e-12);
    }
}
