//! Free functions on `&[f64]` slices treated as dense vectors.
//!
//! All functions panic on dimension mismatch: a mismatch is always a logic
//! error in this workspace, never a recoverable condition.
//!
//! These are the workspace's **specification kernels**: every vectorized
//! variant in [`crate::simd`] (and every batch scan built on it) is
//! required to reproduce these functions bit-for-bit on f64 inputs. The
//! reductions (`dot`, `dist`, `dist_sq`, `lp_dist`) deliberately stay
//! sequential left-to-right folds — f64 addition is not associative, so
//! the fold order *is* the spec; SIMD speedups come from batching across
//! points (see `simd::dist_sq_cols`), never from reassociating within
//! one pair of vectors.

/// Dot product `x · y`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Euclidean distance `‖x − y‖₂`.
#[inline]
pub fn dist(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist: dimension mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Squared Euclidean distance, avoiding the square root for comparisons.
#[inline]
pub fn dist_sq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist_sq: dimension mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Minkowski (`L_p`) distance for any `p > 0`, including the fractional
/// metrics (`0 < p < 1`) whose benefits in high dimension are discussed in
/// the paper's related work (Aggarwal/Hinneburg/Keim, ICDT 2001). For
/// `0 < p < 1` the result is a pre-metric (no triangle inequality), which is
/// fine for ranking by distance.
///
/// NaN propagates uniformly at **every** `p`, including `p = ∞`: a NaN
/// coordinate delta poisons the distance. (The `L∞` branch used to fold
/// with `f64::max`, which silently *drops* NaN operands — a poisoned
/// point could then out-rank real neighbors, violating the workspace's
/// poison-never-ranks contract.)
///
/// # Panics
/// Panics if `p <= 0` or on dimension mismatch.
pub fn lp_dist(x: &[f64], y: &[f64], p: f64) -> f64 {
    assert!(p > 0.0, "lp_dist: p must be positive, got {p}");
    assert_eq!(x.len(), y.len(), "lp_dist: dimension mismatch");
    if p == 2.0 {
        return dist(x, y);
    }
    if p == 1.0 {
        return x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum();
    }
    if p.is_infinite() {
        // Sticky-NaN max: `f64::max` returns its non-NaN operand, so the
        // plain fold would launder a poisoned coordinate into a finite
        // distance. Bail to NaN the moment one appears instead.
        let mut acc = 0.0f64;
        for (a, b) in x.iter().zip(y) {
            let d = (a - b).abs();
            if d.is_nan() {
                return f64::NAN;
            }
            acc = acc.max(d);
        }
        return acc;
    }
    let s: f64 = x.iter().zip(y).map(|(a, b)| (a - b).abs().powf(p)).sum();
    s.powf(1.0 / p)
}

/// `x − y` as a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// `x + y` as a new vector.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// `c · x` as a new vector.
pub fn scale(x: &[f64], c: f64) -> Vec<f64> {
    x.iter().map(|a| a * c).collect()
}

/// In-place `y ← y + c·x` (the BLAS `axpy` primitive). Elementwise, so it
/// dispatches to the active [`crate::simd`] backend — bit-identical to
/// the scalar loop at any vector width.
pub fn axpy(c: f64, x: &[f64], y: &mut [f64]) {
    crate::simd::axpy_inplace(c, x, y);
}

/// `Some(i)` iff `x` is bit for bit the standard unit vector `e_i`:
/// `x[i]` is `1.0` and every other entry is `+0.0`.
///
/// For such an `x`, [`dot`]`(y, x)` is `y[i]` bit for bit whenever `y[i]`
/// is non-zero and every entry of `y` is finite: the other products are
/// `±0.0`, and adding a signed zero to a non-zero value leaves it
/// unchanged. A zero `y[i]` is excluded because the sign of the sum then
/// depends on the signs of the other entries, and a non-finite entry
/// because `∞ · 0 = NaN`. Projections use this to gather a coordinate
/// instead of taking the product. Requiring `+0.0` (not `-0.0`) makes
/// `dot(y, x)` a function of `y` and `i` alone, so coordinates along one
/// axis can be shared between subspaces.
pub fn unit_axis(x: &[f64]) -> Option<usize> {
    let i = x.iter().position(|&v| v.to_bits() != 0)?;
    (x[i] == 1.0 && x[i + 1..].iter().all(|&v| v.to_bits() == 0)).then_some(i)
}

/// Normalize `x` to unit Euclidean length, returning `None` for (near-)zero
/// vectors which have no direction.
pub fn normalized(x: &[f64]) -> Option<Vec<f64>> {
    let n = norm(x);
    if n <= 1e-12 {
        None
    } else {
        Some(scale(x, 1.0 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances_agree() {
        let x = [1.0, 2.0, -3.0];
        let y = [0.5, -1.0, 4.0];
        assert!((dist(&x, &y).powi(2) - dist_sq(&x, &y)).abs() < 1e-12);
        assert!((lp_dist(&x, &y, 2.0) - dist(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn lp_special_cases() {
        let x = [0.0, 0.0];
        let y = [3.0, 4.0];
        assert!((lp_dist(&x, &y, 1.0) - 7.0).abs() < 1e-12);
        assert!((lp_dist(&x, &y, 2.0) - 5.0).abs() < 1e-12);
        assert!((lp_dist(&x, &y, f64::INFINITY) - 4.0).abs() < 1e-12);
        // Fractional metric: (3^0.5 + 4^0.5)^2
        let expect = (3f64.sqrt() + 2.0).powi(2);
        assert!((lp_dist(&x, &y, 0.5) - expect).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "p must be positive")]
    fn lp_zero_p_panics() {
        lp_dist(&[1.0], &[2.0], 0.0);
    }

    #[test]
    fn lp_dist_propagates_nan_at_every_p() {
        // Regression: the L∞ fold used `f64::max`, which drops NaN — a
        // poisoned point ranked as if its NaN axis did not exist. Every
        // branch must poison the distance instead.
        let x = [1.0, f64::NAN, 3.0];
        let y = [0.0, 0.0, 0.0];
        for p in [0.5, 1.0, 2.0, 3.0, f64::INFINITY] {
            assert!(
                lp_dist(&x, &y, p).is_nan(),
                "p={p}: NaN coordinate must poison the distance"
            );
        }
        // NaN introduced by the query side behaves the same.
        assert!(lp_dist(&y, &x, f64::INFINITY).is_nan());
        // And a clean pair stays clean.
        assert_eq!(lp_dist(&[0.0, 0.0], &[3.0, 4.0], f64::INFINITY), 4.0);
    }

    #[test]
    fn arithmetic_helpers() {
        let x = [1.0, 2.0];
        let y = [3.0, 5.0];
        assert_eq!(sub(&y, &x), vec![2.0, 3.0]);
        assert_eq!(add(&y, &x), vec![4.0, 7.0]);
        assert_eq!(scale(&x, 2.0), vec![2.0, 4.0]);
        let mut z = vec![1.0, 1.0];
        axpy(2.0, &x, &mut z);
        assert_eq!(z, vec![3.0, 5.0]);
    }

    #[test]
    fn normalized_unit_and_zero() {
        let u = normalized(&[3.0, 4.0]).unwrap();
        assert!((norm(&u) - 1.0).abs() < 1e-12);
        assert!(normalized(&[0.0, 0.0]).is_none());
        assert!(normalized(&[1e-15, 0.0]).is_none());
    }
}
