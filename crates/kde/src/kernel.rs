//! Gaussian kernels and bandwidth selection.
//!
//! §2.2 of the paper uses a Gaussian kernel
//! `K_h(x − xᵢ) = (1 / (√(2π) h)) · exp(−(x − xᵢ)² / 2h²)` and quotes
//! Silverman's normal-reference rule `h = 1.06 · σ · N^(−1/5)` for the
//! bandwidth. In two dimensions we use a product kernel with per-axis
//! bandwidths. `exp` is [`hinn_linalg::simd::exp`], the same function the
//! grid estimators vectorize, so a pointwise kernel value and a grid cell
//! agree bit for bit.

use std::f64::consts::PI;

/// 1-D Gaussian kernel value `K_h(u)` with bandwidth `h`.
///
/// # Panics
/// Panics if `h <= 0`.
#[inline]
pub fn gaussian_kernel(u: f64, h: f64) -> f64 {
    assert!(h > 0.0, "gaussian_kernel: bandwidth must be positive");
    let z = u / h;
    hinn_linalg::simd::exp(-0.5 * z * z) / ((2.0 * PI).sqrt() * h)
}

/// Silverman's rule-of-thumb bandwidth `h = 1.06 · σ · N^(−1/5)` (§2.2).
///
/// Degenerate samples (σ ≈ 0 or tiny N) fall back to a small positive
/// bandwidth scaled to the data range so the estimator stays well-defined.
pub fn silverman_bandwidth(sample: &[f64]) -> f64 {
    silverman_bandwidth_checked(sample).0
}

/// [`silverman_bandwidth`] with an explicit degradation flag: the second
/// element is `true` iff the rule-of-thumb value was unusable (σ ≈ 0,
/// empty sample) and the epsilon-floored fallback was substituted. The
/// bandwidth value is bit-identical to [`silverman_bandwidth`].
pub fn silverman_bandwidth_checked(sample: &[f64]) -> (f64, bool) {
    let n = sample.len();
    if n == 0 {
        return (1.0, true);
    }
    let sigma = hinn_linalg::stats::std_dev(sample);
    let h = 1.06 * sigma * (n as f64).powf(-0.2);
    if h > 1e-12 {
        (h, false)
    } else {
        (floor_bandwidth(sample), true)
    }
}

/// The epsilon-floored fallback bandwidth for a (near-)degenerate sample:
/// a small fraction of the data span, or an absolute floor when even the
/// span has collapsed. Always positive and finite.
fn floor_bandwidth(sample: &[f64]) -> f64 {
    // All-equal sample: any positive bandwidth yields a single spike.
    let range = sample
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (range.1 - range.0).abs();
    if span.is_finite() && span > 1e-12 {
        0.05 * span
    } else {
        1e-3
    }
}

/// Per-axis bandwidths for the 2-D product kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bandwidth2D {
    /// Bandwidth along the first projected coordinate.
    pub hx: f64,
    /// Bandwidth along the second projected coordinate.
    pub hy: f64,
}

impl Bandwidth2D {
    /// Silverman bandwidths computed independently per axis from 2-D points.
    ///
    /// # Panics
    /// Panics if any point is not 2-D.
    pub fn silverman(points: &[[f64; 2]]) -> Self {
        let xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
        let ys: Vec<f64> = points.iter().map(|p| p[1]).collect();
        Self {
            hx: silverman_bandwidth(&xs),
            hy: silverman_bandwidth(&ys),
        }
    }

    /// [`Bandwidth2D::silverman`] with an explicit degradation flag: the
    /// second element is `true` iff either axis fell back to the
    /// epsilon-floored bandwidth (zero spread along that axis). The
    /// `kde.bandwidth` fault point (see `hinn-fault`) forces the floored
    /// arm on both axes so callers can exercise their degradation path.
    /// Unfaulted, the bandwidths are bit-identical to
    /// [`Bandwidth2D::silverman`].
    pub fn silverman_checked(points: &[[f64; 2]]) -> (Self, bool) {
        let xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
        let ys: Vec<f64> = points.iter().map(|p| p[1]).collect();
        if hinn_fault::point("kde.bandwidth") {
            return (
                Self {
                    hx: floor_bandwidth(&xs),
                    hy: floor_bandwidth(&ys),
                },
                true,
            );
        }
        let (hx, fx) = silverman_bandwidth_checked(&xs);
        let (hy, fy) = silverman_bandwidth_checked(&ys);
        (Self { hx, hy }, fx || fy)
    }

    /// Scale both bandwidths by `factor` (over/under-smoothing knob exposed
    /// in `SearchConfig`).
    pub fn scaled(self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth scale factor must be positive");
        Self {
            hx: self.hx * factor,
            hy: self.hy * factor,
        }
    }
}

/// 2-D product-Gaussian kernel value at offset `(ux, uy)`.
#[inline]
pub fn gaussian_kernel_2d(ux: f64, uy: f64, bw: Bandwidth2D) -> f64 {
    gaussian_kernel(ux, bw.hx) * gaussian_kernel(uy, bw.hy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_peaks_at_zero_and_is_symmetric() {
        let h = 0.7;
        assert!(gaussian_kernel(0.0, h) > gaussian_kernel(0.5, h));
        assert!((gaussian_kernel(0.3, h) - gaussian_kernel(-0.3, h)).abs() < 1e-15);
    }

    #[test]
    fn kernel_integrates_to_one() {
        // Trapezoid rule over [-8h, 8h].
        let h = 0.5;
        let steps = 4000;
        let lo = -8.0 * h;
        let hi = 8.0 * h;
        let dx = (hi - lo) / steps as f64;
        let mut s = 0.0;
        for i in 0..=steps {
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            s += w * gaussian_kernel(lo + i as f64 * dx, h);
        }
        assert!((s * dx - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kernel_normalization_depends_on_h() {
        assert!((gaussian_kernel(0.0, 1.0) - 1.0 / (2.0 * PI).sqrt()).abs() < 1e-12);
        assert!((gaussian_kernel(0.0, 0.5) - 2.0 / (2.0 * PI).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn silverman_matches_formula() {
        // Sample with known σ = 2 (population): [2,4,4,4,5,5,7,9].
        let sample = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let expect = 1.06 * 2.0 * 8f64.powf(-0.2);
        assert!((silverman_bandwidth(&sample) - expect).abs() < 1e-12);
    }

    #[test]
    fn silverman_degenerate_sample_positive() {
        assert!(silverman_bandwidth(&[3.0, 3.0, 3.0]) > 0.0);
        assert!(silverman_bandwidth(&[]) > 0.0);
        assert!(silverman_bandwidth(&[1.0]) > 0.0);
    }

    #[test]
    fn checked_bandwidth_flags_the_floor_arm() {
        let healthy = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let (h, floored) = silverman_bandwidth_checked(&healthy);
        assert_eq!(h, silverman_bandwidth(&healthy), "values must agree");
        assert!(!floored);

        let (h, floored) = silverman_bandwidth_checked(&[3.0, 3.0, 3.0]);
        assert!(h > 0.0);
        assert!(floored, "zero-spread sample must flag the floor");
        let (h, floored) = silverman_bandwidth_checked(&[]);
        assert!(h > 0.0 && floored);
    }

    #[test]
    fn forced_bandwidth_fault_floors_both_axes() {
        let pts: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, i as f64 * 2.0]).collect();
        let (clean, floored) = Bandwidth2D::silverman_checked(&pts);
        assert!(!floored);
        assert_eq!(clean, Bandwidth2D::silverman(&pts));

        let plan = std::sync::Arc::new(
            hinn_fault::FaultPlan::new().with("kde.bandwidth", hinn_fault::FaultMode::Always),
        );
        let (forced, floored) = {
            let _g = hinn_fault::install_local(plan.clone());
            Bandwidth2D::silverman_checked(&pts)
        };
        assert_eq!(plan.fired("kde.bandwidth"), 1);
        assert!(floored, "fault must force the floored arm");
        assert!(forced.hx > 0.0 && forced.hy > 0.0);
        assert_ne!(forced, clean);
    }

    #[test]
    fn bandwidth2d_per_axis() {
        let pts: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, (i % 2) as f64 * 0.01]).collect();
        let bw = Bandwidth2D::silverman(&pts);
        assert!(bw.hx > bw.hy, "wider axis should get larger bandwidth");
        let scaled = bw.scaled(2.0);
        assert!((scaled.hx - 2.0 * bw.hx).abs() < 1e-12);
    }

    #[test]
    fn product_kernel_separates() {
        let bw = Bandwidth2D { hx: 1.0, hy: 2.0 };
        let v = gaussian_kernel_2d(0.5, -1.0, bw);
        assert!((v - gaussian_kernel(0.5, 1.0) * gaussian_kernel(-1.0, 2.0)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        gaussian_kernel(0.0, 0.0);
    }
}
