//! The axis gather behind `Subspace::project` and the invariant it rests
//! on.
//!
//! A basis row that is bit for bit a standard unit vector `e_i` is
//! projected by reading `y[i]` instead of taking `dot(y, e_i)`. The
//! projection must stay bit-identical to the dot product on every input,
//! including the ones where the two could differ (signed zeros,
//! subnormals, infinities, NaN, huge magnitudes). And the gather only pays
//! off if axis-parallel searches keep their rows *exactly* axis-aligned
//! through `full`, `sub_subspace` and `complement_within` — an ulp of
//! drift would silently send every projection back to the dot product.

use hinn_linalg::vector::{dot, unit_axis};
use hinn_linalg::Subspace;
use proptest::prelude::*;

const D: usize = 6;

/// Coordinates chosen to break a naive gather: both zeros, subnormals,
/// infinities, NaN, magnitudes whose products overflow, and ordinary
/// values.
fn adversarial() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(-1.5e-310),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_0000_0000_beef)),
        Just(1.7e308),
        Just(-9.9e307),
        -1e3..1e3f64,
        -1e3..1e3f64,
        -1.0..1.0f64,
    ]
}

/// `e_i` in `R^d`, built the way the search builds unit directions.
fn e(d: usize, i: usize) -> Vec<f64> {
    let mut v = vec![0.0; d];
    v[i] = 1.0;
    v
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every row is an axis row, bit for bit `e_i` for the axis recorded.
fn assert_axis_aligned(s: &Subspace) {
    assert_eq!(s.axes().len(), s.dim());
    for (row, axis) in s.basis().iter().zip(s.axes()) {
        let i = axis.unwrap_or_else(|| panic!("row {row:?} lost its axis"));
        assert!(
            same_bits(row, &e(s.ambient_dim(), i)),
            "row {row:?} ≠ e_{i}"
        );
    }
}

/// The axes of `s`, in basis order.
fn axes_of(s: &Subspace) -> Vec<usize> {
    s.axes().iter().map(|a| a.expect("axis row")).collect()
}

/// Indices `0..n` ordered by `keys` (a random permutation when the keys
/// are random).
fn order_by(keys: &[u32], n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (keys[i % keys.len()], i));
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gathered_projection_matches_dense_dot_bit_for_bit(
        y in proptest::collection::vec(adversarial(), D),
        mask in proptest::collection::vec(proptest::bool::ANY, D),
        oblique in proptest::collection::vec(-1.0..1.0f64, D),
        with_oblique in proptest::bool::ANY,
    ) {
        // Axis rows for the masked axes, plus (sometimes) one oblique row:
        // one subspace exercises both per-row kernels.
        let mut s = Subspace::empty(D);
        for (i, &on) in mask.iter().enumerate() {
            if on {
                s.try_extend(&e(D, i));
            }
        }
        if with_oblique {
            s.try_extend(&oblique);
        }
        let dense: Vec<f64> = s.basis().iter().map(|row| dot(&y, row)).collect();
        let gathered = s.project(&y);
        prop_assert!(same_bits(&gathered, &dense), "project {:?} ≠ dot {:?}", gathered, dense);
        let mut out = vec![1.0; s.dim()];
        s.project_into(&y, &mut out);
        prop_assert!(same_bits(&out, &dense));
        let all = s.project_all(std::slice::from_ref(&y));
        prop_assert!(same_bits(&all[0], &dense));
    }

    #[test]
    fn axis_splits_stay_exactly_axis_aligned(
        keys in proptest::collection::vec(0u32..1000, 2 * D),
        picks in proptest::collection::vec(0usize..100, D),
    ) {
        // The search's own chain: pick a 2-D projection out of the current
        // subspace by unit directions in its coordinates, continue in the
        // complement, until fewer than two dimensions remain.
        let mut current = Subspace::full(D);
        let mut step = 0;
        while current.dim() >= 2 {
            let m = current.dim();
            let order = order_by(&keys[step..], m);
            let take = 2 + picks[step] % (m - 1);
            let dirs: Vec<Vec<f64>> = order[..take].iter().map(|&k| e(m, k)).collect();
            let picked = current.sub_subspace(&dirs);
            assert_axis_aligned(&picked);
            let expect: Vec<usize> = order[..take].iter().map(|&k| axes_of(&current)[k]).collect();
            prop_assert_eq!(axes_of(&picked), expect);
            let rest = current.complement_within(&picked);
            assert_axis_aligned(&rest);
            prop_assert_eq!(rest.dim() + picked.dim(), m);
            current = rest;
            step += 1;
        }
    }
}

#[test]
fn unit_axis_accepts_only_the_exact_standard_basis() {
    assert_eq!(unit_axis(&[0.0, 1.0, 0.0]), Some(1));
    assert_eq!(unit_axis(&[1.0]), Some(0));
    assert_eq!(unit_axis(&[0.0, -1.0, 0.0]), None);
    assert_eq!(unit_axis(&[-0.0, 1.0, 0.0]), None, "signed zero");
    assert_eq!(unit_axis(&[0.0, 1.0, 5e-324]), None, "subnormal");
    assert_eq!(unit_axis(&[0.0, 1.0 + f64::EPSILON, 0.0]), None);
    assert_eq!(unit_axis(&[1.0, 1.0]), None);
    assert_eq!(unit_axis(&[f64::NAN, 1.0]), None);
    assert_eq!(unit_axis(&[0.0, 0.0]), None);
    assert_eq!(unit_axis(&[]), None);
}

#[test]
fn full_space_rows_are_the_standard_basis() {
    let full = Subspace::full(D);
    assert_axis_aligned(&full);
    assert_eq!(axes_of(&full), (0..D).collect::<Vec<_>>());
}

#[test]
fn complement_of_axes_is_the_remaining_axes_in_order() {
    let full = Subspace::full(D);
    let picked = full.sub_subspace(&[e(D, 4), e(D, 1)]);
    assert_eq!(axes_of(&picked), vec![4, 1]);
    let rest = full.complement_within(&picked);
    assert_axis_aligned(&rest);
    assert_eq!(axes_of(&rest), vec![0, 2, 3, 5]);
}

#[test]
fn restored_rows_keep_their_axes() {
    let s = Subspace::full(D).sub_subspace(&[e(D, 3), e(D, 0)]);
    let restored = Subspace::try_from_orthonormal_rows(D, s.basis().to_vec()).expect("orthonormal");
    assert_eq!(restored.axes(), s.axes());
}

#[test]
fn oblique_rows_are_not_axes() {
    let s = Subspace::from_vectors(3, &[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 2.0]]);
    assert_eq!(s.axes(), &[None, Some(2)]);
}
