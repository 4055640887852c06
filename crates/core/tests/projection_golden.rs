//! Bit-for-bit pin of the Fig. 3 projection finder.
//!
//! Hashes everything [`try_find_query_centered_projection_with`] returns
//! — the projection and remainder basis bits, the variance ratios and the
//! degradation events — over every view of one major iteration on a fixed
//! Case-1 fixture, for both projection modes and thread budgets 1 and 4.
//! The constants were computed before the projection pipeline moved to
//! column-block coordinates and axis gathers; any change to the finder's
//! arithmetic, however small, changes them. This pins the finder directly,
//! below the session goldens (`tests/golden/`), which see only what a
//! session renders from it.

use hinn_cache::Fnv128;
use hinn_core::projection::try_find_query_centered_projection_with;
use hinn_core::{Parallelism, ProjectionMode};
use hinn_data::projected::{generate_projected_clusters, ProjectedClusterSpec};
use hinn_fault::{FaultMode, FaultPlan};
use hinn_linalg::Subspace;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Case 1 of §4.1 (N = 5000, d = 20, 6-d axis-parallel clusters): five
/// fixed-size chunks, so budget 4 really runs on four threads.
fn fixture() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_0012);
    generate_projected_clusters(&ProjectedClusterSpec::case1(), &mut rng).points
}

fn absorb_subspace(h: &mut Fnv128, s: &Subspace) {
    h.write_usize(s.dim());
    for row in s.basis() {
        h.write_f64s(row);
    }
}

/// Hash of one major iteration's worth of projection searches: start in
/// the full space and keep searching the remainder until it is < 2-D.
fn major_iteration_digest(
    points: &[Vec<f64>],
    query: &[f64],
    mode: ProjectionMode,
    par: Parallelism,
) -> u128 {
    let mut h = Fnv128::new();
    let mut current = Subspace::full(query.len());
    while current.dim() >= 2 {
        let (res, events) =
            try_find_query_centered_projection_with(par, points, query, &current, 25, mode)
                .expect("healthy fixture");
        absorb_subspace(&mut h, &res.projection);
        absorb_subspace(&mut h, &res.remainder);
        h.write_usize(res.variance_ratios.len());
        h.write_f64s(&res.variance_ratios);
        h.write_usize(events.len());
        for e in &events {
            h.write_str(&e.to_string());
        }
        current = res.remainder;
    }
    h.finish().0
}

/// Digest over two queries (a cluster member and a point from the other
/// end of the data set).
fn digest(points: &[Vec<f64>], mode: ProjectionMode, par: Parallelism) -> u128 {
    let mut h = Fnv128::new();
    for &qi in &[3usize, 4321] {
        h.write_u64(major_iteration_digest(points, &points[qi], mode, par) as u64);
    }
    h.finish().0
}

fn check(mode: ProjectionMode, expected: u128) {
    let points = fixture();
    for threads in [1usize, 4] {
        let got = digest(&points, mode, Parallelism::fixed(threads));
        assert_eq!(
            got, expected,
            "{mode:?}, threads={threads}: projection finder digest {got:#034x}"
        );
    }
}

#[test]
fn axis_parallel_finder_is_pinned() {
    check(
        ProjectionMode::AxisParallel,
        0xf1d6e1a09e12bf0b8b1fb21d4f33b731,
    );
}

#[test]
fn arbitrary_finder_is_pinned() {
    check(
        ProjectionMode::Arbitrary,
        0xb2c2a63d96ca91a1c02723e3ea1082c7,
    );
}

#[test]
fn eigen_fallback_finder_is_pinned() {
    // Every PCA half fails to converge: the Arbitrary pool walks the
    // EigenFallback rung on every round, so the digest covers non-empty
    // degradation events too.
    let plan = Arc::new(FaultPlan::new().with("eigen.converge", FaultMode::Always));
    let _guard = hinn_fault::install_local(plan.clone());
    check(
        ProjectionMode::Arbitrary,
        0x7cd53b16b3444ae2b950fa726bd4c81d,
    );
    assert!(plan.fired("eigen.converge") > 0);
}
