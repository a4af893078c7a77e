//! Hand-tuned ray tracer (the Embree / OptiX Prime comparator).
//!
//! Differences from the DPP tracer that buy its throughput edge:
//! * **SAH binned build** — slower to construct, but the resulting tree
//!   cuts traversal work substantially versus the LBVH.
//! * **Fused kernel** — generation, traversal, and hit resolution in one
//!   loop per ray; no intermediate hit arrays or primitive dispatch.
//! * **Packet scheduling** — scanline tiles per worker (`embree` profile);
//!   Morton ray order (`optix` profile) for memory coherence.

use mesh::TriMesh;
use rayon::prelude::*;
use render::raytrace::bvh::intersect_triangle;
use render::raytrace::{Hit, TriGeometry};
use vecmath::{morton2, Aabb, Camera, Ray, Vec3};

/// Which vendor profile to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CPU-tuned: SAH tree, scanline packet scheduling.
    Embree,
    /// Throughput-tuned: SAH tree, Morton-ordered rays, bigger leaves.
    Optix,
}

const SAH_BINS: usize = 16;

/// Flat SAH BVH node (same layout idea as the DPP tracer's, separate type to
/// keep the implementations honest).
#[derive(Debug, Clone, Copy)]
struct Node {
    aabb: Aabb,
    right: u32,
    start: u32,
    count: u32,
}

/// The tuned tracer: geometry + SAH BVH.
pub struct TunedTracer {
    pub geom: TriGeometry,
    nodes: Vec<Node>,
    order: Vec<u32>,
    pub profile: Profile,
    pub build_seconds: f64,
}

impl TunedTracer {
    pub fn new(mesh: &TriMesh, profile: Profile) -> TunedTracer {
        let geom = TriGeometry::from_mesh(mesh);
        Self::from_geometry(geom, profile)
    }

    pub fn from_geometry(geom: TriGeometry, profile: Profile) -> TunedTracer {
        let ((nodes, order), build_seconds) = dpp::timed(|| {
            let n = geom.num_tris();
            let mut order: Vec<u32> = (0..n as u32).collect();
            let centroids: Vec<Vec3> = (0..n).map(|t| geom.tri_centroid(t)).collect();
            let aabbs: Vec<Aabb> = (0..n).map(|t| geom.tri_aabb(t)).collect();
            let mut nodes = Vec::with_capacity(2 * n.max(1));
            let leaf_size = match profile {
                Profile::Embree => 4,
                Profile::Optix => 8,
            };
            if n > 0 {
                build_sah(&mut nodes, &mut order, &centroids, &aabbs, 0, n, leaf_size);
            }
            (nodes, order)
        });
        TunedTracer { geom, nodes, order, profile, build_seconds }
    }

    /// Closest hit with the fused while-loop kernel.
    #[inline]
    pub fn closest_hit(&self, ray: &Ray) -> Hit {
        if self.nodes.is_empty() {
            return Hit::MISS;
        }
        let mut best = Hit::MISS;
        let mut closest = f32::INFINITY;
        let mut stack = [0u32; 64];
        let mut sp = 1usize;
        stack[0] = 0;
        while sp > 0 {
            sp -= 1;
            let ni = stack[sp] as usize;
            let node = &self.nodes[ni];
            if node.aabb.intersect_ray(ray, 0.0, closest).is_none() {
                continue;
            }
            if node.count > 0 {
                for s in node.start..node.start + node.count {
                    let p = self.order[s as usize] as usize;
                    if let Some((t, u, v)) =
                        intersect_triangle(ray, self.geom.v0[p], self.geom.e1[p], self.geom.e2[p])
                    {
                        if t < closest {
                            closest = t;
                            best = Hit { t, prim: self.order[s as usize], u, v };
                        }
                    }
                }
            } else {
                // Ordered descent: visit the nearer child first.
                let l = ni + 1;
                let r = node.right as usize;
                let dl = self.nodes[l].aabb.intersect_ray(ray, 0.0, closest);
                let dr = self.nodes[r].aabb.intersect_ray(ray, 0.0, closest);
                match (dl, dr) {
                    (Some((tl, _)), Some((tr, _))) => {
                        let (near, far) = if tl <= tr { (l, r) } else { (r, l) };
                        stack[sp] = far as u32;
                        sp += 1;
                        stack[sp] = near as u32;
                        sp += 1;
                    }
                    (Some(_), None) => {
                        stack[sp] = l as u32;
                        sp += 1;
                    }
                    (None, Some(_)) => {
                        stack[sp] = r as u32;
                        sp += 1;
                    }
                    (None, None) => {}
                }
            }
        }
        best
    }

    /// WORKLOAD1: intersect every primary ray of a `w x h` image; returns
    /// (hit count, elapsed seconds). The benchmark the paper's Tables 3-5
    /// report as rays/second.
    pub fn intersect_image(&self, camera: &Camera, width: u32, height: u32) -> (usize, f64) {
        dpp::timed(|| {
            let n = (width * height) as usize;
            match self.profile {
                Profile::Embree => {
                    // Scanline packets: one row per task.
                    (0..height)
                        .into_par_iter()
                        .map(|py| {
                            let mut h = 0usize;
                            for px in 0..width {
                                let ray = camera.primary_ray(px, py, width, height, 0.5, 0.5);
                                h += self.closest_hit(&ray).is_hit() as usize;
                            }
                            h
                        })
                        .sum()
                }
                Profile::Optix => {
                    // Morton-ordered rays in fixed-size warps.
                    let mut codes: Vec<(u64, u32)> =
                        (0..n as u32).map(|i| (morton2(i % width, i / width), i)).collect();
                    codes.sort_unstable_by_key(|c| c.0);
                    codes
                        .par_chunks(256)
                        .map(|warp| {
                            let mut h = 0usize;
                            for &(_, i) in warp {
                                let ray = camera.primary_ray(
                                    i % width,
                                    i / width,
                                    width,
                                    height,
                                    0.5,
                                    0.5,
                                );
                                h += self.closest_hit(&ray).is_hit() as usize;
                            }
                            h
                        })
                        .sum()
                }
            }
        })
    }
}

/// Recursive SAH binned build; returns the node index.
#[allow(
    clippy::too_many_arguments,
    reason = "the recursion threads its build state through arguments"
)]
fn build_sah(
    nodes: &mut Vec<Node>,
    order: &mut [u32],
    centroids: &[Vec3],
    aabbs: &[Aabb],
    start: usize,
    end: usize,
    leaf_size: usize,
) -> usize {
    let my = nodes.len();
    let mut bounds = Aabb::empty();
    let mut cbounds = Aabb::empty();
    for &p in &order[start..end] {
        bounds = bounds.union(&aabbs[p as usize]);
        cbounds.expand(centroids[p as usize]);
    }
    let count = end - start;
    if count <= leaf_size {
        nodes.push(Node { aabb: bounds, right: 0, start: start as u32, count: count as u32 });
        return my;
    }

    // Binned SAH over the longest centroid axis.
    let axis = cbounds.longest_axis();
    let lo = cbounds.min[axis];
    let extent = cbounds.max[axis] - lo;
    if extent <= 1e-12 {
        // Degenerate spread: median split.
        let mid = start + count / 2;
        nodes.push(Node { aabb: bounds, right: 0, start: 0, count: 0 });
        let l = build_sah(nodes, order, centroids, aabbs, start, mid, leaf_size);
        debug_assert_eq!(l, my + 1);
        let r = build_sah(nodes, order, centroids, aabbs, mid, end, leaf_size);
        nodes[my].right = r as u32;
        return my;
    }
    let bin_of = |p: u32| -> usize {
        let t = (centroids[p as usize][axis] - lo) / extent;
        ((t * SAH_BINS as f32) as usize).min(SAH_BINS - 1)
    };
    let mut bin_counts = [0usize; SAH_BINS];
    let mut bin_bounds = [Aabb::empty(); SAH_BINS];
    for &p in &order[start..end] {
        let b = bin_of(p);
        bin_counts[b] += 1;
        bin_bounds[b] = bin_bounds[b].union(&aabbs[p as usize]);
    }
    // Sweep for the cheapest split.
    let mut left_area = [0.0f32; SAH_BINS];
    let mut left_count = [0usize; SAH_BINS];
    let mut acc_b = Aabb::empty();
    let mut acc_n = 0usize;
    for i in 0..SAH_BINS {
        acc_b = acc_b.union(&bin_bounds[i]);
        acc_n += bin_counts[i];
        left_area[i] = acc_b.surface_area();
        left_count[i] = acc_n;
    }
    let mut best_cost = f32::INFINITY;
    let mut best_split = SAH_BINS / 2;
    let mut acc_b = Aabb::empty();
    let mut acc_n = 0usize;
    for i in (1..SAH_BINS).rev() {
        acc_b = acc_b.union(&bin_bounds[i]);
        acc_n += bin_counts[i];
        let cost =
            left_area[i - 1] * left_count[i - 1] as f32 + acc_b.surface_area() * acc_n as f32;
        if cost < best_cost && left_count[i - 1] > 0 && acc_n > 0 {
            best_cost = cost;
            best_split = i;
        }
    }
    // Partition in place.
    let slice = &mut order[start..end];
    let mut i = 0usize;
    let mut j = slice.len();
    while i < j {
        if bin_of(slice[i]) < best_split {
            i += 1;
        } else {
            j -= 1;
            slice.swap(i, j);
        }
    }
    let mut mid = start + i;
    if mid == start || mid == end {
        mid = start + count / 2; // SAH failed to separate; fall back
    }

    nodes.push(Node { aabb: bounds, right: 0, start: 0, count: 0 });
    let l = build_sah(nodes, order, centroids, aabbs, start, mid, leaf_size);
    debug_assert_eq!(l, my + 1);
    let r = build_sah(nodes, order, centroids, aabbs, mid, end, leaf_size);
    nodes[my].right = r as u32;
    my
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Device;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;
    use render::raytrace::{Bvh, RayTracer};

    fn scene() -> TriMesh {
        let g = field_grid(FieldKind::ShockShell, [18, 18, 18]);
        isosurface(&g, "scalar", 0.5, None)
    }

    #[test]
    fn agrees_with_dpp_tracer_hits() {
        let m = scene();
        let tuned = TunedTracer::new(&m, Profile::Embree);
        let geom = TriGeometry::from_mesh(&m);
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = Camera::close_view(&geom.bounds);
        let mut checked = 0;
        for py in (0..64).step_by(5) {
            for px in (0..64).step_by(5) {
                let ray = cam.primary_ray(px, py, 64, 64, 0.5, 0.5);
                let a = tuned.closest_hit(&ray);
                let b = bvh.closest_hit(&geom, &ray);
                assert_eq!(a.is_hit(), b.is_hit(), "({px},{py})");
                if a.is_hit() {
                    assert!((a.t - b.t).abs() < 1e-3, "t {} vs {}", a.t, b.t);
                    checked += 1;
                }
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn both_profiles_count_the_same_hits() {
        let m = scene();
        let cam = {
            let g = TriGeometry::from_mesh(&m);
            Camera::close_view(&g.bounds)
        };
        let e = TunedTracer::new(&m, Profile::Embree);
        let o = TunedTracer::new(&m, Profile::Optix);
        let (he, _) = e.intersect_image(&cam, 48, 48);
        let (ho, _) = o.intersect_image(&cam, 48, 48);
        assert_eq!(he, ho);
        assert!(he > 200);
    }

    #[test]
    fn matches_dpp_tracer_workload1_count() {
        let m = scene();
        let tuned = TunedTracer::new(&m, Profile::Embree);
        let geom = TriGeometry::from_mesh(&m);
        let cam = Camera::close_view(&geom.bounds);
        let (hits, _) = tuned.intersect_image(&cam, 40, 40);
        let rt = RayTracer::new(Device::Serial, geom);
        let out = rt.render(&cam, 40, 40, &render::raytrace::RtConfig::workload1());
        assert_eq!(hits as f64, out.stats.active_pixels);
    }

    #[test]
    fn empty_scene() {
        let tuned = TunedTracer::new(&TriMesh::default(), Profile::Embree);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        assert!(!tuned.closest_hit(&ray).is_hit());
    }

    #[test]
    fn sah_tree_visits_fewer_tests_than_lbvh_on_average() {
        // Indirect check: SAH leaves are smaller (leaf_size 4) and the tree
        // is deeper but tighter; verify structure sanity.
        let m = scene();
        let t = TunedTracer::new(&m, Profile::Embree);
        let leaves = t.nodes.iter().filter(|n| n.count > 0).count();
        assert!(leaves >= m.num_tris() / 8);
        // Every primitive referenced exactly once.
        let mut seen = vec![false; m.num_tris()];
        for n in &t.nodes {
            if n.count > 0 {
                for s in n.start..n.start + n.count {
                    let p = t.order[s as usize] as usize;
                    assert!(!seen[p]);
                    seen[p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
