//! Linear BVH construction and traversal.
//!
//! The build is the LBVH variant the SC16 ray-tracing model assumes
//! (`c0 * O` build complexity): Morton codes over primitive centroids (map),
//! radix sort (the `dpp` sort primitive), then a top-down radix split on the
//! sorted codes.
//!
//! Traversal is one ray per data-parallel lane with a short stack, ordered
//! as in Aila & Laine's kernels and the tuned CPU tracers Chapter II compares
//! against: an interior node tests both children's boxes and enters the
//! nearer first, carrying the farther one's entry distance on the stack so
//! it is dropped on pop once a closer hit is known. Ties in `t` go to the
//! triangle earlier in `prim_order`; the builders lay leaves out in preorder
//! ([`Bvh::validate`] and `validate_split` check it), so this is the hit a
//! left-first preorder walk keeps. The tests hold the walk to that preorder
//! walk and to a brute force over `prim_order`, `Hit` for `Hit`, bit for bit.

use super::geometry::TriGeometry;
use dpp::sort::sort_pairs_u64;
use dpp::{map, Device};
use vecmath::{morton3, Aabb, Ray, Vec3};

/// Maximum primitives per leaf (the study's EAVL tracer used 8).
pub const MAX_LEAF_SIZE: usize = 8;

/// Flat BVH node. `count > 0` marks a leaf over `prim_order[start..start+count]`;
/// otherwise the left child is `self + 1` and the right child is `right`.
#[derive(Debug, Clone, Copy)]
pub struct BvhNode {
    pub aabb: Aabb,
    pub right: u32,
    pub start: u32,
    pub count: u32,
}

/// A bounding volume hierarchy over a [`TriGeometry`].
#[derive(Debug, Clone)]
pub struct Bvh {
    pub nodes: Vec<BvhNode>,
    /// Primitive indices in tree order; leaves reference ranges of this.
    pub prim_order: Vec<u32>,
}

/// A ray-triangle hit record. `prim == u32::MAX` marks a miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub t: f32,
    pub prim: u32,
    pub u: f32,
    pub v: f32,
}

impl Hit {
    pub const MISS: Hit = Hit { t: f32::INFINITY, prim: u32::MAX, u: 0.0, v: 0.0 };

    #[inline]
    pub fn is_hit(&self) -> bool {
        self.prim != u32::MAX
    }
}

/// Möller-Trumbore ray/triangle intersection. Returns `(t, u, v)`.
#[inline]
pub fn intersect_triangle(ray: &Ray, v0: Vec3, e1: Vec3, e2: Vec3) -> Option<(f32, f32, f32)> {
    let p = ray.dir.cross(e2);
    let det = e1.dot(p);
    if det.abs() < 1e-12 {
        return None;
    }
    let inv_det = 1.0 / det;
    let tv = ray.origin - v0;
    let u = tv.dot(p) * inv_det;
    if !(-1e-6..=1.0 + 1e-6).contains(&u) {
        return None;
    }
    let q = tv.cross(e1);
    let v = ray.dir.dot(q) * inv_det;
    if v < -1e-6 || u + v > 1.0 + 1e-6 {
        return None;
    }
    let t = e2.dot(q) * inv_det;
    if t > 1e-6 {
        Some((t, u.clamp(0.0, 1.0), v.clamp(0.0, 1.0)))
    } else {
        None
    }
}

impl Bvh {
    /// Build over all triangles of `geom` using the given device for the
    /// data-parallel stages (Morton map + radix sort).
    pub fn build(device: &Device, geom: &TriGeometry) -> Bvh {
        let n = geom.num_tris();
        if n == 0 {
            return Bvh { nodes: Vec::new(), prim_order: Vec::new() };
        }
        // Centroid bounds for Morton normalization.
        let centroids: Vec<Vec3> = map(device, n, |i| geom.tri_centroid(i));
        let cb = dpp::reduce(
            device,
            &map(device, n, |i| (centroids[i], centroids[i])),
            (Vec3::splat(f32::INFINITY), Vec3::splat(f32::NEG_INFINITY)),
            |a, b| (a.0.min(b.0), a.1.max(b.1)),
        );
        let cbounds = Aabb { min: cb.0, max: cb.1 };

        // Morton codes (map) + radix sort (dpp primitive).
        let mut codes: Vec<u64> = map(device, n, |i| {
            let q = cbounds.normalize_point(centroids[i]);
            morton3(q.x, q.y, q.z) as u64
        });
        let mut order: Vec<u32> = (0..n as u32).collect();
        sort_pairs_u64(device, &mut codes, &mut order);

        // Per-primitive AABBs in sorted order.
        let prim_aabbs: Vec<Aabb> = map(device, n, |i| geom.tri_aabb(order[i] as usize));

        let mut nodes: Vec<BvhNode> = Vec::with_capacity(2 * n);
        build_range(&mut nodes, &codes, &prim_aabbs, 0, n, 29);

        Bvh { nodes, prim_order: order }
    }

    /// Closest-hit traversal.
    #[inline]
    pub fn closest_hit(&self, geom: &TriGeometry, ray: &Ray) -> Hit {
        self.traverse(geom, ray, f32::INFINITY, false)
    }

    /// Any-hit traversal with a maximum distance (shadow/occlusion rays).
    #[inline]
    pub fn any_hit(&self, geom: &TriGeometry, ray: &Ray, max_t: f32) -> bool {
        self.traverse(geom, ray, max_t, true).is_hit()
    }

    /// Ordered walk: both children are tested at their parent and the nearer
    /// is entered first, so `closest` shrinks early and culls more. A popped
    /// node is skipped when its entry distance is past `closest` — exactly
    /// what re-testing its box against `closest` would decide. Equal `t`
    /// goes to the triangle earlier in `prim_order`, which is the hit the
    /// left-first preorder walk finds first (leaves lie in preorder).
    fn traverse(&self, geom: &TriGeometry, ray: &Ray, max_t: f32, any: bool) -> Hit {
        let Some(root) = self.nodes.first() else { return Hit::MISS };
        let Some((root_near, _)) = root.aabb.intersect_ray(ray, 0.0, max_t) else {
            return Hit::MISS;
        };
        let mut best = Hit::MISS;
        // `prim_order` position of `best`; 0 while it is a miss, so a tie
        // with `max_t` is never a hit.
        let mut best_pos = 0usize;
        let mut closest = max_t;
        // (node, the distance at which the ray enters its box)
        let mut stack = [(0u32, 0.0f32); 64];
        stack[0] = (0, root_near);
        let mut sp = 1usize;
        while sp > 0 {
            sp -= 1;
            let (ni, near) = stack[sp];
            if near > closest {
                continue;
            }
            let node = &self.nodes[ni as usize];
            if node.count > 0 {
                let start = node.start as usize;
                for pos in start..start + node.count as usize {
                    let prim = self.prim_order[pos];
                    let p = prim as usize;
                    if let Some((t, u, v)) =
                        intersect_triangle(ray, geom.v0[p], geom.e1[p], geom.e2[p])
                    {
                        if t < closest || (t == closest && pos < best_pos) {
                            closest = t;
                            best_pos = pos;
                            best = Hit { t, prim, u, v };
                            if any {
                                return best;
                            }
                        }
                    }
                }
            } else {
                debug_assert!(sp + 2 <= stack.len(), "BVH stack overflow");
                let (l, r) = (ni + 1, node.right);
                let enter_l = self.nodes[l as usize].aabb.intersect_ray(ray, 0.0, closest);
                let enter_r = self.nodes[r as usize].aabb.intersect_ray(ray, 0.0, closest);
                // The farther child goes below the nearer one; on a tie the
                // left child (earlier in preorder) is popped first.
                match (enter_l, enter_r) {
                    (Some((nl, _)), Some((nr, _))) => {
                        let (below, above) =
                            if nr < nl { ((l, nl), (r, nr)) } else { ((r, nr), (l, nl)) };
                        stack[sp] = below;
                        stack[sp + 1] = above;
                        sp += 2;
                    }
                    (Some((nl, _)), None) => {
                        stack[sp] = (l, nl);
                        sp += 1;
                    }
                    (None, Some((nr, _))) => {
                        stack[sp] = (r, nr);
                        sp += 1;
                    }
                    (None, None) => {}
                }
            }
        }
        best
    }

    /// Validate structural invariants: those of `validate_tree` (children
    /// inside parents, bounded leaves in preorder), plus every primitive
    /// referenced exactly once and contained in its leaf's AABB.
    /// Used by tests and debug assertions.
    pub fn validate(&self, geom: &TriGeometry) -> Result<(), String> {
        let mut seen = vec![false; geom.num_tris()];
        self.validate_tree(geom, |ix, node| {
            for i in node.start..node.start + node.count {
                let p = self.prim_order[i as usize] as usize;
                if std::mem::replace(&mut seen[p], true) {
                    return Err(format!("prim {p} referenced twice"));
                }
                if !node.aabb.contains_box(&geom.tri_aabb(p)) {
                    return Err(format!("prim {p} escapes leaf {ix} AABB"));
                }
            }
            Ok(())
        })
    }

    /// The invariants of every builder's tree, duplicate references allowed:
    /// every child AABB inside its parent, leaves of at most
    /// [`MAX_LEAF_SIZE`] references, every primitive referenced, and leaves
    /// that, visited in preorder (left child before right), take increasing,
    /// non-overlapping ranges of `prim_order` — the ordered walk's tie rule
    /// depends on that. `leaf` sees each leaf, in that order.
    pub(crate) fn validate_tree(
        &self,
        geom: &TriGeometry,
        mut leaf: impl FnMut(u32, &BvhNode) -> Result<(), String>,
    ) -> Result<(), String> {
        if geom.num_tris() == 0 {
            return Ok(());
        }
        let mut seen = vec![false; geom.num_tris()];
        let mut next_start = 0;
        let mut stack = vec![0u32];
        while let Some(ix) = stack.pop() {
            let node = &self.nodes[ix as usize];
            if node.count > 0 {
                if node.count as usize > MAX_LEAF_SIZE {
                    return Err(format!("leaf {ix} has {} refs", node.count));
                }
                if node.start < next_start {
                    return Err(format!(
                        "leaf {ix} starts at {} of prim_order, before the end ({next_start}) \
                         of the leaf preceding it in preorder",
                        node.start
                    ));
                }
                next_start = node.start + node.count;
                for i in node.start..next_start {
                    seen[self.prim_order[i as usize] as usize] = true;
                }
                leaf(ix, node)?;
            } else {
                for child in [ix + 1, node.right] {
                    let c = &self.nodes[child as usize];
                    if !node.aabb.contains_box(&c.aabb) {
                        return Err(format!("child {child} escapes parent {ix}"));
                    }
                }
                // Right below left: the left child is visited next.
                stack.push(node.right);
                stack.push(ix + 1);
            }
        }
        if let Some(p) = seen.iter().position(|s| !s) {
            return Err(format!("prim {p} unreferenced"));
        }
        Ok(())
    }
}

/// Recursive radix-split build over the Morton-sorted range `[start, end)`.
/// Returns the index of the created node.
fn build_range(
    nodes: &mut Vec<BvhNode>,
    codes: &[u64],
    prim_aabbs: &[Aabb],
    start: usize,
    end: usize,
    bit: i32,
) -> usize {
    let my_index = nodes.len();
    let count = end - start;
    if count <= MAX_LEAF_SIZE {
        let mut aabb = Aabb::empty();
        for bb in &prim_aabbs[start..end] {
            aabb = aabb.union(bb);
        }
        nodes.push(BvhNode { aabb, right: 0, start: start as u32, count: count as u32 });
        return my_index;
    }
    // Find the split point: first index whose code has `bit` set. When the
    // Morton bits are exhausted (duplicate codes), fall back to a median
    // split so leaves stay bounded.
    let split = if bit < 0 {
        start + count / 2
    } else {
        let mask = 1u64 << bit;
        if codes[start] & mask == codes[end - 1] & mask {
            // All codes share this bit — descend to the next bit without
            // creating a node.
            return build_range(nodes, codes, prim_aabbs, start, end, bit - 1);
        }
        start + partition_point(&codes[start..end], |c| c & mask == 0)
    };
    // Reserve our slot, then build children (left is adjacent in preorder).
    nodes.push(BvhNode { aabb: Aabb::empty(), right: 0, start: 0, count: 0 });
    let left = build_range(nodes, codes, prim_aabbs, start, split, bit - 1);
    debug_assert_eq!(left, my_index + 1);
    let right = build_range(nodes, codes, prim_aabbs, split, end, bit - 1);
    let aabb = nodes[left].aabb.union(&nodes[right].aabb);
    nodes[my_index].aabb = aabb;
    nodes[my_index].right = right as u32;
    my_index
}

/// `slice.partition_point` for sorted-by-predicate slices (stable here to
/// avoid relying on total ordering of the raw codes).
fn partition_point(codes: &[u64], pred: impl Fn(u64) -> bool) -> usize {
    let mut lo = 0;
    let mut hi = codes.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(codes[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::external_faces::external_faces_hex;
    use mesh::isosurface::isosurface;

    fn test_geom() -> TriGeometry {
        let g = field_grid(FieldKind::ShockShell, [16, 16, 16]);
        let m = isosurface(&g, "scalar", 0.5, None);
        assert!(m.num_tris() > 100);
        TriGeometry::from_mesh(&m)
    }

    #[test]
    fn build_is_valid_on_both_devices() {
        let geom = test_geom();
        for d in [Device::Serial, Device::parallel()] {
            let bvh = Bvh::build(&d, &geom);
            bvh.validate(&geom).unwrap();
        }
    }

    #[test]
    fn traversal_matches_brute_force() {
        let geom = test_geom();
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = vecmath::Camera::close_view(&geom.bounds);
        let mut hits = 0;
        for py in (0..64).step_by(7) {
            for px in (0..64).step_by(7) {
                let ray = cam.primary_ray(px, py, 64, 64, 0.5, 0.5);
                let h = bvh.closest_hit(&geom, &ray);
                assert_eq!(hit_bits(h), hit_bits(brute_force(&bvh, &geom, &ray)), "({px},{py})");
                hits += h.is_hit() as u32;
            }
        }
        assert!(hits > 10, "camera should see the shell ({hits} hits)");
    }

    /// The nearest hit over `prim_order` in position order, first one kept.
    fn brute_force(bvh: &Bvh, geom: &TriGeometry, ray: &Ray) -> Hit {
        let mut best = Hit::MISS;
        for &prim in &bvh.prim_order {
            let p = prim as usize;
            if let Some((t, u, v)) = intersect_triangle(ray, geom.v0[p], geom.e1[p], geom.e2[p]) {
                if t < best.t {
                    best = Hit { t, prim, u, v };
                }
            }
        }
        best
    }

    #[test]
    fn leaves_out_of_preorder_are_refused() {
        let geom = TriGeometry::from_mesh(&mesh::TriMesh {
            points: vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z],
            tris: vec![[0, 1, 2], [0, 1, 3]],
            scalars: vec![0.0; 4],
        });
        let leaf = |start: u32, prim: usize| BvhNode {
            aabb: geom.tri_aabb(prim),
            right: 0,
            start,
            count: 1,
        };
        let root = BvhNode { aabb: geom.bounds, right: 2, start: 0, count: 0 };
        // The left leaf holds the second entry of `prim_order`.
        let swapped = Bvh { nodes: vec![root, leaf(1, 1), leaf(0, 0)], prim_order: vec![0, 1] };
        let err = swapped.validate(&geom).unwrap_err();
        assert!(err.contains("preorder"), "{err}");
        let in_order = Bvh { nodes: vec![root, leaf(0, 0), leaf(1, 1)], prim_order: vec![0, 1] };
        in_order.validate(&geom).unwrap();
    }

    /// The walk the ordered traversal replaced: right child pushed first so
    /// the left is popped next, each node's box re-tested against `closest`
    /// on pop, the first hit at a given `t` kept. The oracle for
    /// [`Bvh::closest_hit`].
    fn preorder_closest_hit(bvh: &Bvh, geom: &TriGeometry, ray: &Ray) -> Hit {
        let mut best = Hit::MISS;
        let mut closest = f32::INFINITY;
        let mut stack = if bvh.nodes.is_empty() { vec![] } else { vec![0u32] };
        while let Some(ni) = stack.pop() {
            let node = &bvh.nodes[ni as usize];
            if node.aabb.intersect_ray(ray, 0.0, closest).is_none() {
                continue;
            }
            if node.count > 0 {
                let start = node.start as usize;
                for &prim in &bvh.prim_order[start..start + node.count as usize] {
                    let p = prim as usize;
                    if let Some((t, u, v)) =
                        intersect_triangle(ray, geom.v0[p], geom.e1[p], geom.e2[p])
                    {
                        if t < closest {
                            closest = t;
                            best = Hit { t, prim, u, v };
                        }
                    }
                }
            } else {
                stack.push(node.right);
                stack.push(ni + 1);
            }
        }
        best
    }

    fn hit_bits(h: Hit) -> (u32, u32, u32, u32) {
        (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits())
    }

    /// The ordered walk returns the preorder walk's `Hit`, bit for bit, on
    /// every pixel of both 288² views of every LULESH step the
    /// `insitu_surface` benchmark can render (up to 15 pre-steps, then a
    /// 32-cycle period: steps 0–47). Debug builds check every eighth step
    /// and every fifth row and column.
    #[test]
    fn ordered_walk_is_the_preorder_walk_on_the_surface_workload() {
        let (step_stride, px_stride) = if cfg!(debug_assertions) { (8, 5) } else { (1, 1) };
        let side = 288;
        let mut sim = sims::Lulesh::new(24);
        let mut hits = 0u64;
        for step in 0..48 {
            if step > 0 {
                sims::ProxySim::step(&mut sim);
            }
            if step % step_stride != 0 && step != 47 {
                continue;
            }
            let hexes = sim.hex_mesh();
            let geom = TriGeometry::from_mesh(&external_faces_hex(&hexes, Some("e_p")));
            let bvh = Bvh::build(&Device::Serial, &geom);
            bvh.validate(&geom).unwrap();
            let bounds = hexes.bounds();
            for cam in [vecmath::Camera::close_view(&bounds), vecmath::Camera::far_view(&bounds)] {
                let rays = cam.pixel_rays(side, side);
                for py in (0..side).step_by(px_stride) {
                    for px in (0..side).step_by(px_stride) {
                        let ray = rays.ray(px, py, 0.5, 0.5);
                        let ordered = bvh.closest_hit(&geom, &ray);
                        let preorder = preorder_closest_hit(&bvh, &geom, &ray);
                        assert_eq!(
                            hit_bits(ordered),
                            hit_bits(preorder),
                            "step {step}, pixel ({px}, {py}): {ordered:?} vs {preorder:?}"
                        );
                        hits += ordered.is_hit() as u64;
                    }
                }
            }
        }
        assert!(hits > 1000, "the views should see the mesh ({hits} hits)");
    }

    #[test]
    fn any_hit_respects_max_distance() {
        let geom = test_geom();
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = vecmath::Camera::close_view(&geom.bounds);
        let ray = cam.primary_ray(32, 32, 64, 64, 0.5, 0.5);
        let h = bvh.closest_hit(&geom, &ray);
        assert!(h.is_hit());
        assert!(bvh.any_hit(&geom, &ray, f32::INFINITY));
        assert!(!bvh.any_hit(&geom, &ray, h.t * 0.5));
    }

    #[test]
    fn empty_geometry() {
        let empty = TriGeometry::from_mesh(&mesh::TriMesh::default());
        let bvh = Bvh::build(&Device::Serial, &empty);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        assert!(!bvh.closest_hit(&empty, &ray).is_hit());
        bvh.validate(&empty).unwrap();
    }

    #[test]
    fn moller_trumbore_edges() {
        let v0 = Vec3::ZERO;
        let e1 = Vec3::X;
        let e2 = Vec3::Y;
        // Center hit.
        let r = Ray::new(Vec3::new(0.25, 0.25, 1.0), -Vec3::Z);
        let (t, u, v) = intersect_triangle(&r, v0, e1, e2).unwrap();
        assert!((t - 1.0).abs() < 1e-6);
        assert!((u - 0.25).abs() < 1e-5 && (v - 0.25).abs() < 1e-5);
        // Miss outside.
        let r = Ray::new(Vec3::new(0.9, 0.9, 1.0), -Vec3::Z);
        assert!(intersect_triangle(&r, v0, e1, e2).is_none());
        // Parallel ray.
        let r = Ray::new(Vec3::new(0.2, 0.2, 1.0), Vec3::X);
        assert!(intersect_triangle(&r, v0, e1, e2).is_none());
        // Behind origin.
        let r = Ray::new(Vec3::new(0.25, 0.25, -1.0), -Vec3::Z);
        assert!(intersect_triangle(&r, v0, e1, e2).is_none());
    }

    use dpp::Device;
    use vecmath::Ray;
}
