//! Workload inputs, generated from the run seed alone.
//!
//! The program under test receives only what these functions produce; the
//! same seed always yields the same datasets, queries, open mix and
//! ingest schedule, and different seeds yield different ones.

use hinn::data::projected::{generate_projected_clusters, ProjectedClusterSpec};
use hinn::data::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: derives independent sub-seeds (one per dataset,
/// client thread or set-up repetition) from the run seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices.
pub struct Choice(u64);

impl Choice {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        sub_seed(self.0, 0x5EED)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Seed of the workloads' datasets. The dataset stays fixed, like the
/// single Case-1 instance of the paper's Table 1, while the run seed draws
/// the queries, the open mix and the ingest schedule: a new seed then
/// changes what the analysts do, not what corpus they search, which keeps
/// run-to-run spread small enough to gate on.
pub const DATA_SEED: u64 = 2002;

/// The paper's Case-1 projected clusters (Table 1: d = 20, five clusters
/// in 6-dimensional axis-parallel subspaces, 5% outliers) with `n` rows.
pub fn case1(n: usize, seed: u64) -> Dataset {
    let spec = ProjectedClusterSpec {
        n_points: n,
        ..ProjectedClusterSpec::case1()
    };
    generate_projected_clusters(&spec, &mut StdRng::seed_from_u64(seed))
}

/// Clustered (non-outlier) row ids of `data` as a stream of distinct
/// cluster-member queries, stratified by cluster: the clusters take turns
/// (while they have members left), each contributing its members in a
/// seeded random order. Stratifying keeps every run's query mix, and so
/// its per-session cost and quality, close to the corpus average.
pub fn member_queries(data: &Dataset, seed: u64) -> Vec<usize> {
    let mut choice = Choice::new(seed);
    let mut by_cluster: Vec<Vec<usize>> = Vec::new();
    for i in choice.permutation(data.len()) {
        if let Some(c) = data.labels[i] {
            if by_cluster.len() <= c {
                by_cluster.resize_with(c + 1, Vec::new);
            }
            by_cluster[c].push(i);
        }
    }
    let longest = by_cluster.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| {
            by_cluster
                .iter()
                .filter_map(move |members| members.get(k).copied())
        })
        .collect()
}

/// The open mix of the wire client, as query row ids: in every block of
/// eight opens, one seeded position takes the next fresh query and the
/// other seven draw uniformly from the hot set. Fixing the share per block
/// (rather than drawing it per open) keeps the fresh share of any window
/// at one in eight, so percentiles near the boundary between hot and
/// fresh opens do not flip between runs.
pub fn wire_opens(hot: &[usize], fresh: &[usize], n_opens: usize, seed: u64) -> Vec<usize> {
    let mut choice = Choice::new(seed);
    let mut fresh = fresh.iter().cycle();
    let mut fresh_at = 0;
    (0..n_opens)
        .map(|i| {
            if i % 8 == 0 {
                fresh_at = i + choice.below(8);
            }
            if i == fresh_at {
                *fresh.next().expect("fresh query pool is non-empty")
            } else {
                hot[choice.below(hot.len())]
            }
        })
        .collect()
}

/// One ingest round of the streaming workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// Global ids of the appended batch (its rows are `rows[ids]`).
    pub append: std::ops::Range<usize>,
    /// Global ids to tombstone after the append.
    pub delete: Vec<usize>,
    /// Global ids of the session queries run after the delete (alive,
    /// clustered rows).
    pub queries: Vec<usize>,
}

/// The whole streaming schedule: the initial rows, every later batch, the
/// deletes and the queries, fixed in advance so each run does the same
/// work whatever its speed.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamPlan {
    /// All rows in global-id order; `rows[..initial]` open the handle.
    pub rows: Vec<Vec<f64>>,
    /// Planted cluster of each global id (`None` for outliers).
    pub labels: Vec<Option<usize>>,
    /// Rows in the opening epoch.
    pub initial: usize,
    pub rounds: Vec<Round>,
}

/// Sizes of the streaming schedule.
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    pub initial: usize,
    pub rounds: usize,
    pub batch: usize,
    pub deletes: usize,
    pub sessions_per_round: usize,
}

impl StreamPlan {
    pub fn generate(shape: StreamShape, seed: u64) -> Self {
        let total = shape.initial + shape.rounds * shape.batch;
        // Generated as one dataset, then shuffled: the generator emits
        // clusters in order, and every batch should carry each cluster.
        let data = case1(total, DATA_SEED);
        let clusters = data.n_classes();
        let mut choice = Choice::new(sub_seed(seed, 2));
        let order = choice.permutation(total);
        let rows: Vec<Vec<f64>> = order.iter().map(|&i| data.points[i].clone()).collect();
        let labels: Vec<Option<usize>> = order.iter().map(|&i| data.labels[i]).collect();
        let mut alive: Vec<usize> = (0..shape.initial).collect();
        let mut rounds = Vec::with_capacity(shape.rounds);
        for r in 0..shape.rounds {
            let append = shape.initial + r * shape.batch..shape.initial + (r + 1) * shape.batch;
            alive.extend(append.clone());
            let mut delete = Vec::with_capacity(shape.deletes);
            for _ in 0..shape.deletes {
                delete.push(alive.swap_remove(choice.below(alive.len())));
            }
            delete.sort_unstable();
            // Queries stratified like `member_queries`: sessions take the
            // clusters in turn, each a random alive member.
            let mut queries = Vec::with_capacity(shape.sessions_per_round);
            while queries.len() < shape.sessions_per_round {
                let want = (r * shape.sessions_per_round + queries.len()) % clusters;
                let id = alive[choice.below(alive.len())];
                if labels[id] == Some(want) && !queries.contains(&id) {
                    queries.push(id);
                }
            }
            rounds.push(Round {
                append,
                delete,
                queries,
            });
        }
        Self {
            rows,
            labels,
            initial: shape.initial,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: StreamShape = StreamShape {
        initial: 400,
        rounds: 5,
        batch: 50,
        deletes: 12,
        sessions_per_round: 4,
    };

    #[test]
    fn datasets_repeat_per_seed_and_differ_across_seeds() {
        let a = case1(300, 11);
        let b = case1(300, 11);
        let c = case1(300, 12);
        assert_eq!(a.points, b.points);
        assert_eq!(a.labels, b.labels);
        assert_ne!(a.points, c.points);
    }

    #[test]
    fn member_queries_are_distinct_cluster_members() {
        let data = case1(500, 3);
        let q = member_queries(&data, 9);
        assert_eq!(q, member_queries(&data, 9));
        assert_ne!(q, member_queries(&data, 10));
        let mut sorted = q.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), q.len());
        assert!(q.iter().all(|&i| data.labels[i].is_some()));
        assert_eq!(q.len(), data.len() - data.outliers().len());
        // Stratified: the first queries cover every cluster once.
        let clusters = data.n_classes();
        let mut first: Vec<usize> = q[..clusters]
            .iter()
            .map(|&i| data.labels[i].unwrap())
            .collect();
        first.sort_unstable();
        assert_eq!(first, (0..clusters).collect::<Vec<_>>());
    }

    #[test]
    fn wire_mix_is_mostly_hot_and_seeded() {
        let hot: Vec<usize> = (0..8).collect();
        let fresh: Vec<usize> = (100..1000).collect();
        let a = wire_opens(&hot, &fresh, 4000, 5);
        assert_eq!(a, wire_opens(&hot, &fresh, 4000, 5));
        assert_ne!(a, wire_opens(&hot, &fresh, 4000, 6));
        for block in a.chunks(8) {
            assert_eq!(block.iter().filter(|&&i| i >= 100).count(), 1);
        }
    }

    #[test]
    fn stream_plan_repeats_per_seed_and_differs_across_seeds() {
        let a = StreamPlan::generate(SHAPE, 21);
        assert_eq!(a, StreamPlan::generate(SHAPE, 21));
        let b = StreamPlan::generate(SHAPE, 22);
        assert_ne!(a.rows, b.rows);
        assert_ne!(a.rounds, b.rounds);
    }

    #[test]
    fn stream_plan_deletes_and_queries_only_alive_rows() {
        let plan = StreamPlan::generate(SHAPE, 4);
        assert_eq!(plan.rows.len(), SHAPE.initial + SHAPE.rounds * SHAPE.batch);
        let mut dead = std::collections::HashSet::new();
        for r in &plan.rounds {
            assert_eq!(r.delete.len(), SHAPE.deletes);
            for &id in &r.delete {
                assert!(id < r.append.end, "deleted a row not yet appended");
                assert!(dead.insert(id), "deleted a row twice");
            }
            for &q in &r.queries {
                assert!(q < r.append.end && !dead.contains(&q));
                assert!(plan.labels[q].is_some());
            }
        }
    }
}
