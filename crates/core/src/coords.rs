//! Whole-data coordinates inside a search subspace, stored as column
//! blocks.
//!
//! The Fig. 3 halving pipeline reads the projected data three ways: the
//! batch distance scan wants columns, the variance `γ` along a candidate
//! direction wants one pass per direction, and the tentative cluster wants
//! a few rows. [`CoordBlocks`] stores the coordinates column-major per
//! fixed [`hinn_par::CHUNK`] of points — the chunking every parallel scan
//! over the data already uses — so the scan hands a block's columns to
//! `dist_sq_cols` as they are, and `γ` along a unit direction reads one
//! column.
//!
//! The halving rounds only ever shrink an axis-parallel subspace to some
//! of its own axes, so a round's coordinates along an axis are a copy of
//! the previous round's column for that axis: [`CoordBlocks::project`]
//! copies columns from a parent instead of reading the points again.
//!
//! Every value read back is the bit pattern the row-major computation
//! (`Subspace::project` per point, `vector::dot` per direction) produces.

use hinn_cache::PooledF64;
use hinn_linalg::vector::{dot, unit_axis};
use hinn_linalg::Subspace;
use hinn_par::{chunk_count, chunk_range, map_reduce_chunks, Parallelism, CHUNK};

/// Projected coordinates of `len` points in a `dim`-dimensional subspace.
/// Block `b` holds points `chunk_range(len, b)` as `dim` consecutive
/// columns of that chunk's length.
#[derive(Debug)]
pub(crate) struct CoordBlocks {
    dim: usize,
    len: usize,
    /// `Subspace::axes` of the subspace the coordinates are in (all
    /// `None` for coordinates built from rows).
    axes: Vec<Option<usize>>,
    blocks: Vec<Block>,
}

#[derive(Debug)]
struct Block {
    values: Vec<f64>,
    /// Every coordinate in the block is finite, so a unit direction may
    /// gather its column (see [`hinn_linalg::vector::unit_axis`]).
    finite: bool,
}

impl Block {
    fn new(values: Vec<f64>) -> Self {
        let finite = values.iter().all(|v| v.is_finite());
        Self { values, finite }
    }

    /// A block of `len` points whose rows `fill(off, row)` writes.
    fn build(dim: usize, len: usize, fill: impl Fn(usize, &mut [f64])) -> Self {
        let mut values = vec![0.0; dim * len];
        let mut row = vec![0.0; dim];
        for off in 0..len {
            fill(off, &mut row);
            for (j, &v) in row.iter().enumerate() {
                values[j * len + off] = v;
            }
        }
        Self::new(values)
    }
}

impl CoordBlocks {
    /// `subspace.project(p)` for every point, one block per chunk.
    ///
    /// `parent` holds coordinates of the same points in another subspace.
    /// When every row of `subspace` is an axis that is also a row of the
    /// parent's subspace, the columns are copied from the parent: an axis
    /// row is bit for bit the standard unit vector, so its coordinates
    /// depend on the axis alone (see [`hinn_linalg::vector::unit_axis`]).
    pub(crate) fn project(
        par: Parallelism,
        subspace: &Subspace,
        points: &[Vec<f64>],
        parent: Option<&CoordBlocks>,
    ) -> Self {
        let dim = subspace.dim();
        let from_parent: Option<(&CoordBlocks, Vec<usize>)> = parent.and_then(|p| {
            assert_eq!(p.len, points.len(), "coordinates: parent of other points");
            let cols = subspace
                .axes()
                .iter()
                .map(|axis| axis.and_then(|i| p.axes.iter().position(|&a| a == Some(i))))
                .collect::<Option<Vec<usize>>>()?;
            Some((p, cols))
        });
        let blocks = map_reduce_chunks(
            par,
            points.len(),
            |r| match &from_parent {
                Some((p, cols)) => {
                    let len = r.len();
                    let src = &p.blocks[r.start / CHUNK].values;
                    let mut values = Vec::with_capacity(dim * len);
                    for &c in cols {
                        values.extend_from_slice(&src[c * len..(c + 1) * len]);
                    }
                    Block::new(values)
                }
                None => Block::build(dim, r.len(), |off, row| {
                    subspace.project_into(&points[r.start + off], row)
                }),
            },
            Vec::with_capacity(chunk_count(points.len())),
            push,
        );
        Self {
            dim,
            len: points.len(),
            axes: subspace.axes().to_vec(),
            blocks,
        }
    }

    /// Column blocks of row-major coordinates.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let blocks = (0..chunk_count(rows.len()))
            .map(|b| {
                let r = chunk_range(rows.len(), b);
                Block::build(dim, r.len(), |off, row| {
                    row.copy_from_slice(&rows[r.start + off])
                })
            })
            .collect();
        Self {
            dim,
            len: rows.len(),
            axes: vec![None; dim],
            blocks,
        }
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The columns of the block holding points `start .. start + CHUNK`
    /// (`start` a chunk boundary).
    pub(crate) fn columns(&self, start: usize) -> Vec<&[f64]> {
        let len = chunk_range(self.len, start / CHUNK).len();
        self.blocks[start / CHUNK]
            .values
            .chunks_exact(len)
            .collect()
    }

    /// The coordinates of point `i` as a row.
    pub(crate) fn row(&self, i: usize) -> Vec<f64> {
        let b = &self.blocks[i / CHUNK];
        let len = chunk_range(self.len, i / CHUNK).len();
        let off = i % CHUNK;
        (0..self.dim).map(|j| b.values[j * len + off]).collect()
    }

    /// `dot(row, direction)` for every point of the chunk `r`, in point
    /// order, bit for bit. A unit direction gathers its column where that
    /// is exact; any other direction folds the columns in `dot`'s order
    /// (one lane per point).
    fn dots_into(&self, r: std::ops::Range<usize>, direction: &[f64], out: &mut [f64]) {
        let b = &self.blocks[r.start / CHUNK];
        let len = r.len();
        let cols = b.values.chunks_exact(len);
        match unit_axis(direction) {
            Some(i) if b.finite => {
                let col = &b.values[i * len..(i + 1) * len];
                for (off, (o, &v)) in out.iter_mut().zip(col).enumerate() {
                    *o = if v != 0.0 {
                        v
                    } else {
                        dot(&self.row(r.start + off), direction)
                    };
                }
            }
            _ => {
                // `dot` is `sum()` over the products: a left fold from
                // `f64`'s additive identity, coordinate by coordinate.
                out.fill(std::iter::empty::<f64>().sum());
                for (col, &w) in cols.zip(direction) {
                    for (o, &v) in out.iter_mut().zip(col) {
                        *o += v * w;
                    }
                }
            }
        }
    }

    /// The data variance along `direction` (in subspace coordinates),
    /// bit-identical to `hinn_linalg::stats::variance_along_with` over the
    /// rows: the same two chunked passes, the same per-point terms, the
    /// same ordered folds.
    ///
    /// # Panics
    /// Panics if there are no points or `direction.len() != dim`.
    pub(crate) fn variance_along(&self, par: Parallelism, direction: &[f64]) -> f64 {
        assert!(self.len > 0, "variance_along: empty point set");
        assert_eq!(direction.len(), self.dim, "dot: dimension mismatch");
        let n = self.len as f64;
        let mean = self.sum_along(par, direction, |x| x) / n;
        let ss = self.sum_along(par, direction, |x| {
            let c = x - mean;
            c * c
        });
        ss / n
    }

    /// `Σ term(dot(row, direction))` over all points: per-chunk sums in
    /// point order, folded in chunk order.
    fn sum_along(
        &self,
        par: Parallelism,
        direction: &[f64],
        term: impl Fn(f64) -> f64 + Sync,
    ) -> f64 {
        map_reduce_chunks(
            par,
            self.len,
            |r| {
                let mut dots = PooledF64::take_zeroed(r.len());
                self.dots_into(r, direction, &mut dots);
                dots.iter().map(|&x| term(x)).sum::<f64>()
            },
            0.0f64,
            |a, p| a + p,
        )
    }
}

fn push(mut blocks: Vec<Block>, b: Block) -> Vec<Block> {
    blocks.push(b);
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinn_linalg::stats::variance_along_with;

    /// Rows spanning two chunks, with zeros, signed zeros and a
    /// non-finite row in the second chunk.
    fn rows() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..CHUNK + 37)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.37).sin() * 10.0, (x * 0.11).cos(), x % 7.0 - 3.0]
            })
            .collect();
        rows[5][0] = -0.0;
        rows[6] = vec![0.0, -0.0, 0.0];
        rows[CHUNK + 3][1] = f64::INFINITY;
        rows
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn rows_round_trip() {
        let rows = rows();
        let c = CoordBlocks::from_rows(&rows);
        assert_eq!(c.len(), rows.len());
        for (i, r) in rows.iter().enumerate() {
            assert!(same_bits(r, &c.row(i)));
        }
    }

    #[test]
    fn projected_blocks_match_row_projection() {
        let rows = rows();
        let sub = Subspace::from_vectors(3, &[vec![0.0, 0.0, 1.0], vec![1.0, 1.0, 0.0]]);
        let serial = CoordBlocks::project(Parallelism::serial(), &sub, &rows, None);
        let threaded = CoordBlocks::project(Parallelism::fixed(3), &sub, &rows, None);
        for (i, p) in rows.iter().enumerate() {
            let want = sub.project(p);
            assert!(same_bits(&want, &serial.row(i)));
            assert!(same_bits(&want, &threaded.row(i)));
        }
    }

    #[test]
    fn axis_columns_copy_from_a_parent_bit_for_bit() {
        let rows = rows();
        let full = Subspace::full(3);
        let parent = CoordBlocks::project(Parallelism::serial(), &full, &rows, None);
        let axes = full.sub_subspace(&[vec![0.0, 0.0, 1.0], vec![1.0, 0.0, 0.0]]);
        assert_eq!(axes.axes(), &[Some(2), Some(0)]);
        let oblique = Subspace::from_vectors(3, &[vec![0.0, 1.0, 1.0], vec![1.0, 0.0, 0.0]]);
        for sub in [axes, oblique] {
            let c = CoordBlocks::project(Parallelism::serial(), &sub, &rows, Some(&parent));
            for (i, p) in rows.iter().enumerate() {
                assert!(same_bits(&sub.project(p), &c.row(i)));
            }
        }
    }

    #[test]
    fn per_point_dots_match_dot_bit_for_bit() {
        let rows = rows();
        let c = CoordBlocks::from_rows(&rows);
        for dir in [
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 1.0, -0.0],
            vec![0.6, -0.8, 0.0],
        ] {
            for b in 0..chunk_count(rows.len()) {
                let r = chunk_range(rows.len(), b);
                let mut got = vec![0.0; r.len()];
                c.dots_into(r.clone(), &dir, &mut got);
                let want: Vec<f64> = rows[r].iter().map(|p| dot(p, &dir)).collect();
                assert!(same_bits(&got, &want), "dir {dir:?}, block {b}");
            }
        }
    }

    #[test]
    fn variance_matches_row_variance_bit_for_bit() {
        let mut rows = rows();
        let finite: Vec<Vec<f64>> = rows.drain(..CHUNK).collect();
        for set in [finite, rows] {
            let c = CoordBlocks::from_rows(&set);
            for dir in [
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 1.0, -0.0],
                vec![0.0, 0.0, 1.0],
                vec![0.6, -0.8, 0.0],
                vec![0.0, 0.0, -1.0],
            ] {
                for par in [Parallelism::serial(), Parallelism::fixed(2)] {
                    let want = variance_along_with(par, &set, &dir);
                    let got = c.variance_along(par, &dir);
                    assert_eq!(got.to_bits(), want.to_bits(), "dir {dir:?}");
                }
            }
        }
    }
}
