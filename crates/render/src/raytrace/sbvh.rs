//! Split BVH construction (Stich et al.'s SBVH, simplified).
//!
//! Chapter II's EAVL tracer used "a split BVH, adapted from Aila and Laine's
//! publicly available implementation ... split alpha of 1e-6 and a maximum
//! leaf size of eight triangles". A split BVH considers, at every node, both
//! a classic SAH *object* split and a *spatial* split that divides primitive
//! references at a plane, duplicating references that straddle it — which
//! tightens boxes dramatically for long thin triangles.
//!
//! Simplification vs the original: straddling references keep their AABB
//! clipped to the bin slab (box clipping, not exact triangle clipping), a
//! looser but conservative bound. The build makes a binary tree, which
//! `Bvh::from_binary` collapses into the four-wide nodes the LBVH's walk
//! takes, so both trees are walked by the same code; the only structural
//! difference is that `prim_order` may reference a triangle more than once,
//! so the build records each position's first position (`first_positions`)
//! for the walk's tie rule.

use super::bvh::{first_positions, BinaryBvh, Bvh, BvhNode, MAX_LEAF_SIZE};
use super::geometry::TriGeometry;
use vecmath::Aabb;

const BINS: usize = 16;

/// A primitive reference: triangle id + (possibly clipped) bounds.
#[derive(Debug, Clone, Copy)]
struct PrimRef {
    prim: u32,
    aabb: Aabb,
}

/// Build a split BVH. `split_alpha` gates how freely spatial splits are
/// attempted: a spatial split is only considered when the overlap area of
/// the object split's children exceeds `split_alpha * root_area` (the
/// paper's 1e-6 makes them nearly always considered).
pub fn build_split_bvh(geom: &TriGeometry, split_alpha: f32) -> Bvh {
    Bvh::from_binary(build_split_binary(geom, split_alpha))
}

/// The split BVH's binary tree, before the collapse.
fn build_split_binary(geom: &TriGeometry, split_alpha: f32) -> BinaryBvh {
    let n = geom.num_tris();
    if n == 0 {
        return BinaryBvh { nodes: Vec::new(), prim_order: Vec::new(), first_pos: Vec::new() };
    }
    let refs: Vec<PrimRef> =
        (0..n).map(|t| PrimRef { prim: t as u32, aabb: geom.tri_aabb(t) }).collect();
    let mut root_bounds = Aabb::empty();
    for r in &refs {
        root_bounds = root_bounds.union(&r.aabb);
    }
    let mut nodes = Vec::with_capacity(2 * n);
    let mut order = Vec::with_capacity(n * 2);
    let threshold = split_alpha * root_bounds.surface_area();
    // Reference-duplication budget: SBVH quality saturates quickly; capping
    // extra references at ~50% of the primitive count also prevents the
    // pathological exponential blowup of scenes where every reference
    // straddles every plane.
    let mut budget = (n / 2).max(8) as isize;
    build(&mut nodes, &mut order, refs, threshold, 0, &mut budget);
    let first_pos = first_positions(&order, n);
    BinaryBvh { nodes, prim_order: order, first_pos }
}

fn refs_bounds(refs: &[PrimRef]) -> Aabb {
    let mut b = Aabb::empty();
    for r in refs {
        b = b.union(&r.aabb);
    }
    b
}

/// Recursive build over a reference list; returns the node index.
#[allow(
    clippy::too_many_arguments,
    reason = "the recursion threads its build state through arguments"
)]
fn build(
    nodes: &mut Vec<BvhNode>,
    order: &mut Vec<u32>,
    refs: Vec<PrimRef>,
    overlap_threshold: f32,
    depth: u32,
    budget: &mut isize,
) -> usize {
    let my = nodes.len();
    let bounds = refs_bounds(&refs);
    if refs.len() <= MAX_LEAF_SIZE || depth > 48 {
        let start = order.len() as u32;
        for r in &refs {
            order.push(r.prim);
        }
        nodes.push(BvhNode { aabb: bounds, right: 0, start, count: refs.len() as u32 });
        return my;
    }

    // --- Candidate 1: binned SAH object split on centroids. ---
    let object = object_split(&refs);

    // --- Candidate 2: spatial split, considered when the object split's
    //     children overlap too much (or the object split failed), and only
    //     while the duplication budget lasts. ---
    let spatial = match &object {
        Some(o) if o.overlap_area <= overlap_threshold => None,
        _ if *budget <= 0 => None,
        _ => spatial_split(&refs, &bounds).filter(|s| {
            let dup = (s.partition.0.len() + s.partition.1.len()) as isize - refs.len() as isize;
            dup <= *budget
        }),
    };

    let (left, right) = match (object, spatial) {
        (Some(o), Some(s)) if s.cost < o.cost => {
            *budget -= (s.partition.0.len() + s.partition.1.len()) as isize - refs.len() as isize;
            s.partition
        }
        (Some(o), _) => o.partition,
        (None, Some(s)) => {
            *budget -= (s.partition.0.len() + s.partition.1.len()) as isize - refs.len() as isize;
            s.partition
        }
        (None, None) => {
            // No usable split: median by the longest axis (any order works;
            // a median always yields two non-empty sides for len > 1).
            let axis = bounds.longest_axis();
            let mut sorted = refs;
            sorted.sort_by(|a, b| {
                a.aabb.center()[axis]
                    .partial_cmp(&b.aabb.center()[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mid = sorted.len() / 2;
            let r = sorted.split_off(mid);
            (sorted, r)
        }
    };

    debug_assert!(!left.is_empty() && !right.is_empty());
    nodes.push(BvhNode { aabb: bounds, right: 0, start: 0, count: 0 });
    let l = build(nodes, order, left, overlap_threshold, depth + 1, budget);
    debug_assert_eq!(l, my + 1);
    let r = build(nodes, order, right, overlap_threshold, depth + 1, budget);
    nodes[my].right = r as u32;
    my
}

struct SplitCandidate {
    cost: f32,
    overlap_area: f32,
    partition: (Vec<PrimRef>, Vec<PrimRef>),
}

/// Binned SAH object split (references move whole).
fn object_split(refs: &[PrimRef]) -> Option<SplitCandidate> {
    let mut cbounds = Aabb::empty();
    for r in refs {
        cbounds.expand(r.aabb.center());
    }
    let axis = cbounds.longest_axis();
    let lo = cbounds.min[axis];
    let extent = cbounds.max[axis] - lo;
    if extent <= 1e-12 {
        return None;
    }
    let bin_of = |r: &PrimRef| -> usize {
        (((r.aabb.center()[axis] - lo) / extent * BINS as f32) as usize).min(BINS - 1)
    };
    let mut counts = [0usize; BINS];
    let mut bb = [Aabb::empty(); BINS];
    for r in refs {
        let b = bin_of(r);
        counts[b] += 1;
        bb[b] = bb[b].union(&r.aabb);
    }
    let best = best_bin_split(&counts, &bb)?;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for r in refs {
        if bin_of(r) < best.split {
            left.push(*r);
        } else {
            right.push(*r);
        }
    }
    if left.is_empty() || right.is_empty() {
        return None;
    }
    // Overlap of the child boxes (the spatial-split trigger).
    let lb = refs_bounds(&left);
    let rb = refs_bounds(&right);
    let overlap = Aabb { min: lb.min.max(rb.min), max: lb.max.min(rb.max) };
    Some(SplitCandidate {
        cost: best.cost,
        overlap_area: overlap.surface_area(),
        partition: (left, right),
    })
}

/// Spatial split: chop references at a bin plane, duplicating straddlers
/// with clipped AABBs.
fn spatial_split(refs: &[PrimRef], bounds: &Aabb) -> Option<SplitCandidate> {
    let axis = bounds.longest_axis();
    let lo = bounds.min[axis];
    let extent = bounds.max[axis] - lo;
    if extent <= 1e-12 {
        return None;
    }
    // Bin reference *extents* (a reference lands in every bin it spans).
    let bin_lo = |v: f32| (((v - lo) / extent * BINS as f32) as usize).min(BINS - 1);
    let mut entry = [0usize; BINS]; // refs whose span starts in the bin
    let mut exit = [0usize; BINS];
    let mut bb = [Aabb::empty(); BINS];
    for r in refs {
        let b0 = bin_lo(r.aabb.min[axis]);
        let b1 = bin_lo(r.aabb.max[axis]);
        entry[b0] += 1;
        exit[b1] += 1;
        for (b, slot) in bb.iter_mut().enumerate().take(b1 + 1).skip(b0) {
            *slot = slot.union(&clip_axis(
                &r.aabb,
                axis,
                bin_plane(lo, extent, b),
                bin_plane(lo, extent, b + 1),
            ));
        }
    }
    // Prefix counts: left gets everything entering before the split, right
    // everything exiting at/after it.
    let mut best: Option<(usize, f32)> = None;
    for split in 1..BINS {
        let n_left: usize = entry[..split].iter().sum();
        let n_right: usize = exit[split..].iter().sum();
        if n_left == 0 || n_right == 0 {
            continue;
        }
        let mut lb = Aabb::empty();
        for b in bb.iter().take(split) {
            lb = lb.union(b);
        }
        let mut rb = Aabb::empty();
        for b in bb.iter().skip(split) {
            rb = rb.union(b);
        }
        let cost = lb.surface_area() * n_left as f32 + rb.surface_area() * n_right as f32;
        if best.is_none_or(|(_, c)| cost < c) {
            best = Some((split, cost));
        }
    }
    let (split, cost) = best?;
    let plane = bin_plane(lo, extent, split);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for r in refs {
        if r.aabb.max[axis] <= plane {
            left.push(*r);
        } else if r.aabb.min[axis] >= plane {
            right.push(*r);
        } else {
            // Straddler: duplicate with clipped boxes.
            left.push(PrimRef {
                prim: r.prim,
                aabb: clip_axis(&r.aabb, axis, f32::NEG_INFINITY, plane),
            });
            right.push(PrimRef {
                prim: r.prim,
                aabb: clip_axis(&r.aabb, axis, plane, f32::INFINITY),
            });
        }
    }
    if left.is_empty() || right.is_empty() {
        return None;
    }
    Some(SplitCandidate { cost, overlap_area: 0.0, partition: (left, right) })
}

#[inline]
fn bin_plane(lo: f32, extent: f32, bin: usize) -> f32 {
    lo + extent * bin as f32 / BINS as f32
}

/// Clip a box to a slab along one axis.
fn clip_axis(b: &Aabb, axis: usize, lo: f32, hi: f32) -> Aabb {
    let mut min = b.min;
    let mut max = b.max;
    match axis {
        0 => {
            min.x = min.x.max(lo);
            max.x = max.x.min(hi);
        }
        1 => {
            min.y = min.y.max(lo);
            max.y = max.y.min(hi);
        }
        _ => {
            min.z = min.z.max(lo);
            max.z = max.z.min(hi);
        }
    }
    Aabb { min, max }
}

struct BinSplit {
    split: usize,
    cost: f32,
}

fn best_bin_split(counts: &[usize; BINS], bb: &[Aabb; BINS]) -> Option<BinSplit> {
    let mut best: Option<BinSplit> = None;
    for split in 1..BINS {
        let n_left: usize = counts[..split].iter().sum();
        let n_right: usize = counts[split..].iter().sum();
        if n_left == 0 || n_right == 0 {
            continue;
        }
        let mut lb = Aabb::empty();
        for b in bb.iter().take(split) {
            lb = lb.union(b);
        }
        let mut rb = Aabb::empty();
        for b in bb.iter().skip(split) {
            rb = rb.union(b);
        }
        let cost = lb.surface_area() * n_left as f32 + rb.surface_area() * n_right as f32;
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(BinSplit { split, cost });
        }
    }
    best
}

/// Structural check for split BVHs: every triangle referenced at least
/// once, children contained in parents, leaf sizes bounded, leaves in
/// preorder, a stack for the depth. (Duplicates are legal — that is the
/// point of the split.)
pub fn validate_split(bvh: &Bvh, geom: &TriGeometry) -> Result<(), String> {
    bvh.validate_tree(geom, |_, _, _| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::super::bvh::{intersect_triangle, Hit};
    use super::*;
    use dpp::Device;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;
    use vecmath::Vec3;
    use vecmath::{Camera, Ray};

    fn scene() -> TriGeometry {
        let g = field_grid(FieldKind::ShockShell, [16, 16, 16]);
        TriGeometry::from_mesh(&isosurface(&g, "scalar", 0.5, None))
    }

    #[test]
    fn split_bvh_is_structurally_valid() {
        let geom = scene();
        let bvh = build_split_bvh(&geom, 1e-6);
        validate_split(&bvh, &geom).unwrap();
        // The split build may duplicate references but must keep them bounded.
        assert!(bvh.prim_order.len() >= geom.num_tris());
        assert!(bvh.prim_order.len() <= geom.num_tris() * 3);
    }

    /// The split BVH's wide walk returns its binary tree's ordered walk's
    /// `Hit` bit for bit, and the LBVH's nearest `t`.
    #[test]
    fn split_bvh_traversal_matches_lbvh() {
        let geom = scene();
        let lbvh = super::super::bvh::Bvh::build(&Device::Serial, &geom);
        let binary = build_split_binary(&geom, 1e-6);
        let sbvh = Bvh::from_binary(binary.clone());
        let cam = Camera::close_view(&geom.bounds);
        let mut hits = 0;
        for py in (0..64).step_by(3) {
            for px in (0..64).step_by(3) {
                let ray = cam.primary_ray(px, py, 64, 64, 0.5, 0.5);
                let a = lbvh.closest_hit(&geom, &ray);
                let b = sbvh.closest_hit(&geom, &ray);
                let c = binary.ordered_walk(&geom, &ray, f32::INFINITY, false);
                assert_eq!(a.t.to_bits(), b.t.to_bits(), "({px},{py})");
                assert_eq!(
                    (b.prim, b.t.to_bits(), b.u.to_bits(), b.v.to_bits()),
                    (c.prim, c.t.to_bits(), c.u.to_bits(), c.v.to_bits()),
                    "({px},{py})"
                );
                hits += a.is_hit() as u32;
            }
        }
        assert!(hits > 50);
    }

    /// Where two triangles tie at the closest `t`, a copy of the earlier
    /// one may sit in a leaf the walk skips: here triangle 6 is at positions
    /// 1 and 9, and the box of the copy at 1 is clipped to its side of a
    /// split plane, away from the point where the ray meets both triangle 6
    /// and triangle 3 (position 6). The walk meets triangle 3 and the copy
    /// at 9 instead; ranked by its first position, 1, the copy wins the tie,
    /// so the walk returns the brute force over `prim_order`, which tests
    /// the whole triangle at position 1. (Ranked by position, triangle 3
    /// would win, in the binary walk as in the wide one.)
    #[test]
    fn a_tie_goes_to_the_first_position_of_a_duplicated_triangle() {
        let tri =
            |a: [f32; 3], b: [f32; 3], c: [f32; 3]| [a, b, c].map(|[x, y, z]| Vec3::new(x, y, z));
        let tris = [
            tri([-0.375, 0.0, -0.625], [-0.375, 0.875, 0.875], [-0.375, 0.0, 0.875]),
            tri([0.75, -0.625, -0.75], [0.75, -0.625, 0.0], [-0.375, -0.625, 0.0]),
            tri([0.0, 1.0, 0.625], [0.875, 1.0, 0.625], [0.875, -0.25, 0.625]),
            tri([0.0, 1.0, 0.625], [0.875, -0.25, 0.625], [0.0, -0.25, 0.625]),
            tri([0.875, -0.125, 0.25], [0.875, -0.125, -0.5], [0.125, -0.125, -0.5]),
            tri([0.875, -0.125, 0.25], [0.125, -0.125, -0.5], [0.125, -0.125, 0.25]),
            tri([-0.5, 1.0, 0.625], [0.125, 1.0, 0.625], [0.125, -0.75, 0.625]),
            tri([-0.75, -0.375, 0.0], [-0.75, -0.75, 0.0], [-0.75, -0.75, -0.625]),
            tri([-0.75, -0.375, 0.0], [-0.75, -0.75, -0.625], [-0.75, -0.375, -0.625]),
        ];
        let mut m = mesh::TriMesh::default();
        for (i, t) in tris.iter().enumerate() {
            m.points.extend(t);
            m.scalars.extend([0.0; 3]);
            m.tris.push([0, 1, 2].map(|k| 3 * i as u32 + k));
        }
        let geom = TriGeometry::from_mesh(&m);
        let binary = build_split_binary(&geom, 1e-6);
        let sbvh = Bvh::from_binary(binary.clone());
        assert_eq!(sbvh.prim_order, [1, 6, 7, 8, 0, 2, 3, 4, 5, 6]);
        let ray = Ray::new(Vec3::new(0.0, -0.25, -3.0), Vec3::Z);
        let bits = |h: Hit| (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits());
        let wide = sbvh.closest_hit(&geom, &ray);
        let ordered = binary.ordered_walk(&geom, &ray, f32::INFINITY, false);
        assert_eq!(bits(wide), bits(ordered));
        let mut brute = Hit::MISS;
        for &prim in &sbvh.prim_order {
            let p = prim as usize;
            if let Some((t, u, v)) = intersect_triangle(&ray, geom.v0[p], geom.e1[p], geom.e2[p]) {
                if t < brute.t {
                    brute = Hit { t, prim, u, v };
                }
            }
        }
        assert_eq!(bits(wide), bits(brute));
        assert_eq!((wide.prim, wide.t), (6, 3.625));
        // Triangle 3 ties with it.
        let (v0, e1, e2) = (geom.v0[3], geom.e1[3], geom.e2[3]);
        assert_eq!(intersect_triangle(&ray, v0, e1, e2).map(|(t, _, _)| t), Some(3.625));
    }

    #[test]
    fn spatial_splits_engage_on_long_thin_triangles() {
        // A star of long slivers through the origin: every centroid
        // coincides, so object splits cannot separate them and the spatial
        // split must engage (with bounded duplication).
        let mut m = mesh::TriMesh::default();
        for i in 0..64 {
            let theta = i as f32 * 0.0982;
            let dir = Vec3::new(theta.cos(), theta.sin(), (i as f32 * 0.37).sin() * 0.5);
            let i0 = m.points.len() as u32;
            m.points.push(dir * -2.0);
            m.points.push(dir * 2.0 + Vec3::new(0.0, 0.01, 0.0));
            m.points.push(dir * 2.0 + Vec3::new(0.0, 0.0, 0.01));
            m.scalars.extend_from_slice(&[0.0; 3]);
            m.tris.push([i0, i0 + 1, i0 + 2]);
        }
        let geom = TriGeometry::from_mesh(&m);
        let bvh = build_split_bvh(&geom, 1e-6);
        validate_split(&bvh, &geom).unwrap();
        assert!(
            bvh.prim_order.len() > geom.num_tris(),
            "expected duplicated references, got {} for {} tris",
            bvh.prim_order.len(),
            geom.num_tris()
        );
        // And traversal still agrees with brute force.
        let ray = Ray::new(Vec3::new(0.0, 0.5, -1.0), Vec3::Z);
        let hit = bvh.closest_hit(&geom, &ray);
        let mut brute = f32::INFINITY;
        for p in 0..geom.num_tris() {
            if let Some((t, _, _)) =
                super::super::bvh::intersect_triangle(&ray, geom.v0[p], geom.e1[p], geom.e2[p])
            {
                brute = brute.min(t);
            }
        }
        assert_eq!(hit.t.to_bits(), brute.to_bits());
    }

    #[test]
    fn empty_scene() {
        let geom = TriGeometry::from_mesh(&mesh::TriMesh::default());
        let bvh = build_split_bvh(&geom, 1e-6);
        assert_eq!(bvh.num_nodes(), 0);
        validate_split(&bvh, &geom).unwrap();
    }
}
