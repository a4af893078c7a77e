//! Object-space partitioning: recursive longest-axis bisection over cell
//! centroids.
//!
//! Every distributed-data path in the workspace — per-rank rendering, the
//! rebalancing controller, the migration accounting — consumes a
//! [`Partition`] built here. The assignment vector is deliberately private
//! and the one escape hatch (`Partition::from_assignments`) exists only in
//! this module's tests, so a per-rank cell assignment can only come from the
//! deterministic bisection below: single source of truth.
//!
//! The bisection is *weighted*: cells carry a cost (uniform by default,
//! measured per-cell seconds when the rebalancer recomputes split planes),
//! and each recursive split places the plane at the weighted median along
//! the longest axis of the current cell set's centroid bounds. Rank counts
//! need not be powers of two — an uneven split hands `⌊p/2⌋` ranks to the
//! left side and sizes its weight share proportionally. The resulting
//! per-rank regions are axis-aligned boxes of *centroids*, but the cells
//! themselves may straddle box faces, so partitions are non-convex in
//! general — compositing correctness never depends on convexity (the DFB
//! suffix fold is order-fixed by rank, not by depth sorting of domains).

use crate::unstructured::{HexMesh, TriMesh};
use std::collections::BTreeMap;
use vecmath::Vec3;

/// A per-rank assignment of cells, produced by recursive longest-axis
/// bisection. Construction is confined to this module (see the module docs);
/// consumers read assignments, never write them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignments[cell] = rank`. Private: the bisection owns this.
    assignments: Vec<u32>,
    ranks: usize,
}

/// Cells that change rank between two partitions over the same cell set,
/// aggregated per directed link — the unit the event clock charges migration
/// traffic in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Migration {
    /// `(from_rank, to_rank) -> cells moved`. BTreeMap: link iteration order
    /// must be deterministic for the clock replay.
    pub per_link: BTreeMap<(u32, u32), usize>,
}

impl Migration {
    /// Total cells that changed rank.
    pub fn moved_cells(&self) -> usize {
        self.per_link.values().sum()
    }

    /// Total payload at `bytes_per_cell` per moved cell.
    pub fn bytes(&self, bytes_per_cell: u64) -> u64 {
        self.moved_cells() as u64 * bytes_per_cell
    }
}

impl Partition {
    /// Unweighted recursive longest-axis bisection: every cell costs 1.
    pub fn bisect(centroids: &[Vec3], ranks: usize) -> Partition {
        Partition::weighted_bisect(centroids, &vec![1.0; centroids.len()], ranks)
    }

    /// Weighted recursive longest-axis bisection. `weights[cell]` is the
    /// cell's cost (non-finite or negative weights count as 0); each split
    /// plane sits at the weighted median along the longest centroid-bounds
    /// axis, with ties broken by cell index so the result is a pure function
    /// of `(centroids, weights, ranks)`.
    ///
    /// Every cell is assigned to exactly one rank. When `cells >= ranks`
    /// every rank receives at least one cell; with fewer cells than ranks
    /// the trailing ranks own empty (but still valid) domains.
    pub fn weighted_bisect(centroids: &[Vec3], weights: &[f64], ranks: usize) -> Partition {
        let ranks = ranks.max(1);
        assert_eq!(centroids.len(), weights.len(), "one weight per cell");
        let mut assignments = vec![0u32; centroids.len()];
        let mut cells: Vec<u32> = (0..centroids.len() as u32).collect();
        bisect_rec(centroids, weights, &mut cells, 0, ranks, &mut assignments);
        Partition { assignments, ranks }
    }

    pub fn ranks(&self) -> usize {
        self.ranks
    }

    pub fn num_cells(&self) -> usize {
        self.assignments.len()
    }

    /// Owning rank of `cell`.
    pub fn rank_of(&self, cell: usize) -> usize {
        self.assignments[cell] as usize
    }

    /// Read-only view of the full assignment vector.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Cells per rank.
    pub fn counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.ranks];
        for &r in &self.assignments {
            c[r as usize] += 1;
        }
        c
    }

    /// Cell indices owned by `rank`, ascending.
    pub fn cells_of(&self, rank: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r as usize == rank)
            .map(|(i, _)| i)
            .collect()
    }

    /// The migration that turns `self` into `to`: every cell whose rank
    /// differs, aggregated per `(from, to)` link. Both partitions must cover
    /// the same cell set.
    pub fn migration(&self, to: &Partition) -> Migration {
        assert_eq!(self.num_cells(), to.num_cells(), "partitions cover different cell sets");
        let mut per_link = BTreeMap::new();
        for (a, b) in self.assignments.iter().zip(to.assignments.iter()) {
            if a != b {
                *per_link.entry((*a, *b)).or_insert(0usize) += 1;
            }
        }
        Migration { per_link }
    }
}

fn sane_weight(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

/// Assign `cells` (indices into `centroids`) to ranks `[rank_base,
/// rank_base + ranks)` by recursive bisection.
fn bisect_rec(
    centroids: &[Vec3],
    weights: &[f64],
    cells: &mut [u32],
    rank_base: usize,
    ranks: usize,
    assignments: &mut [u32],
) {
    if ranks == 1 || cells.len() <= 1 {
        // One rank left (or nothing to split): everything lands on the
        // lowest rank of the range; surplus ranks own empty domains.
        for &c in cells.iter() {
            assignments[c as usize] = rank_base as u32;
        }
        return;
    }
    // Longest axis of the centroid bounds of *this* cell subset.
    let mut lo = Vec3::splat(f32::INFINITY);
    let mut hi = Vec3::splat(f32::NEG_INFINITY);
    for &c in cells.iter() {
        let p = centroids[c as usize];
        lo = lo.min(p);
        hi = hi.max(p);
    }
    let ext = hi - lo;
    let axis = if ext.x >= ext.y && ext.x >= ext.z {
        0
    } else if ext.y >= ext.z {
        1
    } else {
        2
    };
    let coord = |c: u32| -> f32 {
        let p = centroids[c as usize];
        match axis {
            0 => p.x,
            1 => p.y,
            _ => p.z,
        }
    };
    // Deterministic total order: coordinate bits, then cell index.
    cells.sort_unstable_by(|&a, &b| coord(a).total_cmp(&coord(b)).then(a.cmp(&b)));

    let left_ranks = ranks / 2;
    let right_ranks = ranks - left_ranks;
    let total: f64 = cells.iter().map(|&c| sane_weight(weights[c as usize])).sum();
    let target = total * left_ranks as f64 / ranks as f64;
    // Weighted median: smallest prefix reaching the left share.
    let mut acc = 0.0f64;
    let mut split = cells.len();
    for (i, &c) in cells.iter().enumerate() {
        acc += sane_weight(weights[c as usize]);
        if acc >= target {
            split = i + 1;
            break;
        }
    }
    // Keep both sides non-empty, and when there are enough cells guarantee
    // each side at least as many cells as ranks (so no rank starves merely
    // because the weights are skewed).
    let min_left = left_ranks.min(cells.len().saturating_sub(right_ranks)).max(1);
    let max_left =
        cells.len().saturating_sub(right_ranks.min(cells.len() - min_left)).max(min_left);
    let split = split.clamp(min_left, max_left);

    let (l, r) = cells.split_at_mut(split);
    bisect_rec(centroids, weights, l, rank_base, left_ranks, assignments);
    bisect_rec(centroids, weights, r, rank_base + left_ranks, right_ranks, assignments);
}

/// Per-triangle centroids of a triangle mesh.
pub fn tri_centroids(mesh: &TriMesh) -> Vec<Vec3> {
    (0..mesh.num_tris())
        .map(|t| {
            let [a, b, c] = mesh.tri_points(t);
            (a + b + c) / 3.0
        })
        .collect()
}

/// Per-hex centroids (mean of the 8 corners).
pub fn hex_centroids(mesh: &HexMesh) -> Vec<Vec3> {
    mesh.hexes
        .iter()
        .map(|h| {
            let mut s = Vec3::ZERO;
            for &v in h {
                s += mesh.points[v as usize];
            }
            s / 8.0
        })
        .collect()
}

/// Extract the sub-mesh of `cells` (triangle indices, any order; output
/// follows the given order). Points are compacted first-use; geometry and
/// scalars are copied bit-exactly, so a partitioned render sees the same
/// floats the whole-mesh render does.
pub fn extract_tris(mesh: &TriMesh, cells: &[usize]) -> TriMesh {
    let mut remap: Vec<u32> = vec![u32::MAX; mesh.points.len()];
    let mut out = TriMesh::default();
    for &t in cells {
        let tri = mesh.tris[t];
        let mut new_tri = [0u32; 3];
        for (slot, &v) in new_tri.iter_mut().zip(tri.iter()) {
            let v = v as usize;
            if remap[v] == u32::MAX {
                remap[v] = out.points.len() as u32;
                out.points.push(mesh.points[v]);
                if !mesh.scalars.is_empty() {
                    out.scalars.push(mesh.scalars[v]);
                }
            }
            *slot = remap[v];
        }
        out.tris.push(new_tri);
    }
    out
}

/// Split a triangle mesh into one sub-mesh per rank of `part`.
pub fn partitioned_tris(mesh: &TriMesh, part: &Partition) -> Vec<TriMesh> {
    assert_eq!(mesh.num_tris(), part.num_cells());
    (0..part.ranks()).map(|r| extract_tris(mesh, &part.cells_of(r))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{field_grid, FieldKind};
    use crate::isosurface::isosurface;

    impl Partition {
        /// Synthetic assignments for the tests below. Outside this module
        /// every `Partition` comes from the bisection.
        fn from_assignments(assignments: Vec<u32>, ranks: usize) -> Partition {
            let ranks = ranks.max(1);
            assert!(
                assignments.iter().all(|&r| (r as usize) < ranks),
                "assignment out of range for {ranks} ranks"
            );
            Partition { assignments, ranks }
        }
    }

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        // Deterministic xorshift point cloud.
        let mut s = seed | 1;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f32 / (1u64 << 53) as f32 * 8192.0
        };
        (0..n).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect()
    }

    #[test]
    fn every_cell_assigned_exactly_once() {
        for ranks in [1usize, 2, 3, 5, 8, 64] {
            let c = cloud(500, 42);
            let p = Partition::bisect(&c, ranks);
            assert_eq!(p.num_cells(), 500);
            assert_eq!(p.counts().iter().sum::<usize>(), 500);
            assert!(p.counts().iter().all(|&n| n > 0), "{ranks}: {:?}", p.counts());
            // Near-balanced for uniform weights.
            let max = *p.counts().iter().max().unwrap();
            let min = *p.counts().iter().min().unwrap();
            assert!(max - min <= ranks, "{ranks}: spread {min}..{max}");
        }
    }

    #[test]
    fn bisection_is_deterministic() {
        let c = cloud(300, 7);
        let a = Partition::bisect(&c, 6);
        let b = Partition::bisect(&c, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_bisection_balances_weight_not_count() {
        // Weight doubles along x: the weighted split must put fewer cells in
        // the heavy half.
        let n = 400;
        let c: Vec<Vec3> = (0..n).map(|i| Vec3::new(i as f32, 0.0, 0.0)).collect();
        let w: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { 3.0 }).collect();
        let p = Partition::weighted_bisect(&c, &w, 2);
        let mut rw = [0.0f64; 2];
        for (i, wi) in w.iter().enumerate() {
            rw[p.rank_of(i)] += wi;
        }
        let total: f64 = rw.iter().sum();
        assert!((rw[0] / total - 0.5).abs() < 0.02, "{rw:?}");
        let counts = p.counts();
        assert!(counts[0] > counts[1], "{counts:?}");
    }

    #[test]
    fn fewer_cells_than_ranks_leaves_empty_tails() {
        let c = cloud(3, 9);
        let p = Partition::bisect(&c, 8);
        assert_eq!(p.counts().iter().sum::<usize>(), 3);
        assert_eq!(p.counts().iter().filter(|&&n| n > 0).count(), 3);
    }

    #[test]
    fn degenerate_weights_are_ignored() {
        let c = cloud(64, 3);
        let mut w = vec![1.0; 64];
        w[0] = f64::NAN;
        w[1] = -5.0;
        w[2] = f64::INFINITY;
        let p = Partition::weighted_bisect(&c, &w, 4);
        assert_eq!(p.counts().iter().sum::<usize>(), 64);
    }

    #[test]
    fn migration_counts_changed_cells_per_link() {
        let a = Partition::from_assignments(vec![0, 0, 1, 1], 2);
        let b = Partition::from_assignments(vec![0, 1, 1, 0], 2);
        let m = a.migration(&b);
        assert_eq!(m.moved_cells(), 2);
        assert_eq!(m.per_link.get(&(0, 1)), Some(&1));
        assert_eq!(m.per_link.get(&(1, 0)), Some(&1));
        assert_eq!(m.bytes(100), 200);
        assert_eq!(a.migration(&a).moved_cells(), 0);
    }

    #[test]
    fn extraction_preserves_geometry_bits_and_fields() {
        let grid = field_grid(FieldKind::Tangle, [10, 10, 10]);
        let mesh = isosurface(&grid, "scalar", 0.0, Some("elevation"));
        let part = Partition::bisect(&tri_centroids(&mesh), 3);
        let subs = partitioned_tris(&mesh, &part);
        assert_eq!(subs.iter().map(|m| m.num_tris()).sum::<usize>(), mesh.num_tris());
        // Every triangle's points and scalars survive bit-exactly.
        for (r, sub) in subs.iter().enumerate() {
            for (local, &global) in part.cells_of(r).iter().enumerate() {
                let a = sub.tri_points(local);
                let b = mesh.tri_points(global);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.x.to_bits(), y.x.to_bits());
                    assert_eq!(x.y.to_bits(), y.y.to_bits());
                    assert_eq!(x.z.to_bits(), y.z.to_bits());
                }
            }
        }
    }
}
