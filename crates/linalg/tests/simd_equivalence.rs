//! Property-based bit-identity of the SIMD kernels against the scalar
//! specification, over adversarial shapes and values.
//!
//! The contract under test (see `hinn_linalg::simd`): every f64 kernel
//! must reproduce the scalar spec functions **bit-for-bit** on every
//! backend this machine can run — not approximately, bitwise. Lengths
//! straddle the vector widths (0, 1, lane−1, lane, lane+1, and well past
//! them) so both the full-width lanes and every tail path are exercised;
//! values include subnormals, ±0.0, and mixed magnitudes, where a
//! reassociated or contracted (FMA) implementation would diverge first.

use hinn_linalg::simd::{
    axpy8_backend, axpy_inplace_backend, dist_cols, dist_sq_cols_backend, div_inplace_backend,
    exp_inplace_backend, gaussian_prep_backend, sqrt_inplace_backend, Backend,
};
use hinn_linalg::vector;
use proptest::prelude::*;

/// Lengths that straddle the 4-wide (AVX2) and 8-wide (AVX-512) lanes.
const ADVERSARIAL_LENS: [usize; 10] = [0, 1, 3, 4, 5, 7, 8, 9, 31, 100];

/// One adversarial f64: normal values of mixed magnitude, subnormals,
/// and both zeros — everything but NaN/∞ (those poison whole vectors
/// and are covered by the dedicated NaN test below).
fn adversarial_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3..1e3f64,
        -1e-8..1e-8f64,
        Just(0.0f64),
        Just(-0.0f64),
        Just(5e-324f64), // smallest positive subnormal
        Just(-5e-324f64),
        Just(1e-310f64),  // mid-range subnormal
        Just(4.9e300f64), // large: squares to ∞, overflow must agree too
    ]
}

fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(adversarial_value(), len..=len)
}

/// An adversarial length.
fn adversarial_len() -> impl Strategy<Value = usize> {
    (0..ADVERSARIAL_LENS.len()).prop_map(|i| ADVERSARIAL_LENS[i])
}

/// A columnar point block of adversarial shape: `d` columns of `n`
/// values, plus the `d`-dimensional query.
fn col_block() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    ((0..4usize), adversarial_len()).prop_flat_map(|(di, n)| {
        let d = [1, 2, 5, 16][di];
        (proptest::collection::vec(values(n), d..=d), values(d))
    })
}

/// A vector of adversarial length, plus a same-length second operand.
fn vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    adversarial_len().prop_flat_map(|n| (values(n), values(n)))
}

fn backends() -> Vec<Backend> {
    Backend::available()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dist_sq_cols_is_bit_identical_on_every_backend((cols, q) in col_block()) {
        let d = cols.len();
        let n = cols.first().map_or(0, |c| c.len());
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for b in backends() {
            let mut out = vec![0.0; n];
            dist_sq_cols_backend(b, &col_refs, &q, &mut out);
            for i in 0..n {
                let row: Vec<f64> = (0..d).map(|j| cols[j][i]).collect();
                let want = vector::dist_sq(&row, &q);
                prop_assert_eq!(
                    out[i].to_bits(), want.to_bits(),
                    "{:?} d={} n={} point {}: {} vs {}", b, d, n, i, out[i], want
                );
            }
        }
    }

    #[test]
    fn dist_cols_is_bit_identical_to_rowwise_dist((cols, q) in col_block()) {
        let d = cols.len();
        let n = cols.first().map_or(0, |c| c.len());
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut out = vec![0.0; n];
        dist_cols(&col_refs, &q, &mut out);
        for i in 0..n {
            let row: Vec<f64> = (0..d).map(|j| cols[j][i]).collect();
            prop_assert_eq!(out[i].to_bits(), vector::dist(&row, &q).to_bits());
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_identical_on_every_backend(
        (x, y0) in vec_pair(),
        c in adversarial_value(),
    ) {
        let n = x.len();
        for b in backends() {
            // axpy: y += c·x against the scalar loop.
            let mut y = y0.clone();
            axpy_inplace_backend(b, c, &x, &mut y);
            for i in 0..n {
                let want = y0[i] + x[i] * c;
                prop_assert_eq!(y[i].to_bits(), want.to_bits(), "axpy {:?} i={}", b, i);
            }
            // div by a non-zero constant (the call sites divide by a
            // bandwidth normalizer that is asserted positive).
            let divisor = if c == 0.0 { 3.0 } else { c };
            let mut z = y0.clone();
            div_inplace_backend(b, &mut z, divisor);
            for i in 0..n {
                prop_assert_eq!(z[i].to_bits(), (y0[i] / divisor).to_bits(), "div {:?} i={}", b, i);
            }
            // sqrt (exactly rounded; negatives yield NaN on every path).
            let mut s = y0.clone();
            sqrt_inplace_backend(b, &mut s);
            for i in 0..n {
                prop_assert_eq!(s[i].to_bits(), y0[i].sqrt().to_bits(), "sqrt {:?} i={}", b, i);
            }
        }
    }

    #[test]
    fn axpy8_equals_eight_sequential_axpys_on_every_backend(
        (xs_flat, y0) in adversarial_len()
            .prop_flat_map(|n| (values(8 * n), values(n))),
        cs_vec in values(8),
    ) {
        let n = y0.len();
        let cs: [f64; 8] = cs_vec.try_into().unwrap();
        let xs: [&[f64]; 8] = std::array::from_fn(|b| &xs_flat[b * n..(b + 1) * n]);
        // Spec: eight scalar axpys applied in slot order.
        let mut want = y0.clone();
        for b in 0..8 {
            for i in 0..n {
                want[i] += xs[b][i] * cs[b];
            }
        }
        for b in backends() {
            let mut y = y0.clone();
            axpy8_backend(b, &cs, &xs, &mut y);
            for i in 0..n {
                prop_assert_eq!(y[i].to_bits(), want[i].to_bits(), "{:?} i={}", b, i);
            }
        }
    }

    #[test]
    fn gaussian_prep_is_bit_identical_on_every_backend(
        n in adversarial_len(),
        i0 in 0..512usize,
        origin in -100.0..100.0f64,
        step in 1e-6..10.0f64,
        center in -100.0..100.0f64,
        h in 1e-6..10.0f64,
    ) {
        for b in backends() {
            let mut out = vec![0.0; n];
            gaussian_prep_backend(b, &mut out, i0, origin, step, center, h);
            for (k, &v) in out.iter().enumerate() {
                let g = origin + (i0 + k) as f64 * step;
                let z = (g - center) / h;
                let want = -0.5 * z * z;
                prop_assert_eq!(v.to_bits(), want.to_bits(), "{:?} k={}", b, k);
            }
        }
    }

    #[test]
    fn lp_dist_poisons_on_any_nan_coordinate(
        (x0, y0) in (1..8usize).prop_flat_map(|d| (values(d), values(d))),
        nan_at in 0..8usize,
        nan_side in 0..2usize,
        pi in 0..5usize,
    ) {
        let p = [0.5, 1.0, 2.0, 3.0, f64::INFINITY][pi];
        // Clean pair first: finite inputs must give a non-NaN distance.
        let clean = vector::lp_dist(&x0, &y0, p);
        prop_assert!(!clean.is_nan(), "finite inputs p={} gave NaN", p);
        // Inject one NaN on a random side/coordinate: must poison.
        let (mut x, mut y) = (x0, y0);
        let at = nan_at % x.len();
        if nan_side == 0 { x[at] = f64::NAN } else { y[at] = f64::NAN }
        let poisoned = vector::lp_dist(&x, &y, p);
        prop_assert!(
            poisoned.is_nan(),
            "p={}: NaN at {} (side {}) must poison, got {}", p, at, nan_side, poisoned
        );
    }
}

/// Inputs where a table-driven `exp` is most likely to slip: both zeros,
/// subnormals, the infinities and NaN, the edges of the table window
/// (`2⁻⁵⁴`, `512`) and the values just inside them, the overflow and
/// underflow thresholds, and the KDE's own range `[−18, 0]`.
fn exp_specials() -> Vec<f64> {
    let tiny = 2f64.powi(-54);
    let below = |x: f64| f64::from_bits(x.to_bits() - 1);
    let mut v = vec![
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        -1e-310,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        tiny,
        -tiny,
        below(tiny),
        -below(tiny),
        512.0,
        -512.0,
        below(512.0),
        -below(512.0),
        709.78,
        709.79,
        -745.14,
        -745.2,
        -708.4,
        1.0,
        -1.0,
        -18.0,
        -1e-9,
        f64::MAX,
        f64::MIN,
    ];
    v.extend((0..=36).map(|i| -0.5 * i as f64));
    v
}

fn exp_value() -> impl Strategy<Value = f64> {
    let specials = exp_specials();
    prop_oneof![
        -18.5..0.0f64,
        -745.5..710.0f64,
        -1e-12..1e-12f64,
        (0..specials.len()).prop_map(move |i| specials[i]),
    ]
}

/// Every backend's `exp` against the scalar spec, on lengths `0..=17` so
/// each lane count and every masked tail of the 4- and 8-wide bodies runs.
fn check_exp_backends(xs: &[f64]) -> Result<(), String> {
    for len in 0..=17.min(xs.len()) {
        let mut want = xs[..len].to_vec();
        exp_inplace_backend(Backend::Scalar, &mut want);
        for b in backends() {
            let mut got = xs[..len].to_vec();
            exp_inplace_backend(b, &mut got);
            for i in 0..len {
                if got[i].to_bits() != want[i].to_bits() {
                    return Err(format!(
                        "{b:?} len={len} lane {i}: exp({:e}) = {:e}, spec {:e}",
                        xs[i], got[i], want[i]
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exp_is_bit_identical_on_every_backend(xs in proptest::collection::vec(exp_value(), 17..=17)) {
        let checked = check_exp_backends(&xs);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

#[test]
fn exp_specials_are_bit_identical_in_every_lane_position() {
    // Rotate the specials through every lane of every tail length.
    let specials = exp_specials();
    for start in 0..specials.len() {
        let xs: Vec<f64> = specials
            .iter()
            .cycle()
            .skip(start)
            .take(17)
            .copied()
            .collect();
        check_exp_backends(&xs).unwrap();
    }
}

/// `n_per_family` seeded inputs in each of three families: the KDE's
/// range, the whole finite range `exp` can return, and raw bit patterns.
fn exp_inputs(seed: u64, n_per_family: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    let mut xs = Vec::with_capacity(3 * n_per_family);
    xs.extend((0..n_per_family).map(|_| -18.5 * unit(next())));
    xs.extend((0..n_per_family).map(|_| -745.5 + 1455.5 * unit(next())));
    xs.extend((0..n_per_family).map(|_| f64::from_bits(next())));
    xs
}

/// Whether this host's `f64::exp` is glibc's table-driven `exp` in its FMA
/// build — the function the spec ports — or why not.
fn host_exp_is_the_ported_glibc() -> Result<(), String> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn gnu_get_libc_version() -> *const std::ffi::c_char;
        }
        // SAFETY: glibc returns a static NUL-terminated string.
        let version = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
        let version = version.to_string_lossy();
        let mut parts = version.split('.').map(|p| p.parse::<u32>().unwrap_or(0));
        let (major, minor) = (parts.next().unwrap_or(0), parts.next().unwrap_or(0));
        if (major, minor) < (2, 28) {
            return Err(format!(
                "glibc {version} predates the table-driven exp (2.28)"
            ));
        }
        if !std::arch::is_x86_feature_detected!("fma") {
            return Err("glibc runs its non-FMA exp on a CPU without FMA".into());
        }
        Ok(())
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        Err("the host libm is not x86_64 glibc".into())
    }
}

#[test]
fn exp_agrees_with_the_spec_on_every_backend_and_with_the_host_libm() {
    // 1.2·10⁷ inputs, in batches. Unfusing one step of the polynomial
    // changes about one result in 10⁶, so the short cases above can miss
    // it and this many cannot.
    let host = host_exp_is_the_ported_glibc();
    if let Err(why) = &host {
        eprintln!("skipping the exp host-libm comparison: {why}");
    }
    for seed in 1..41 {
        let xs = exp_inputs(seed, 100_000);
        let mut spec = xs.clone();
        exp_inplace_backend(Backend::Scalar, &mut spec);
        if host.is_ok() {
            for (x, s) in xs.iter().zip(&spec) {
                assert_eq!(
                    s.to_bits(),
                    x.exp().to_bits(),
                    "exp({x:e}): spec {s:e}, libm {:e}",
                    x.exp()
                );
            }
        }
        for b in backends() {
            let mut got = xs.clone();
            exp_inplace_backend(b, &mut got);
            for ((x, g), s) in xs.iter().zip(&got).zip(&spec) {
                assert_eq!(
                    g.to_bits(),
                    s.to_bits(),
                    "{b:?}: exp({x:e}) = {g:e}, spec {s:e}"
                );
            }
        }
    }
}
