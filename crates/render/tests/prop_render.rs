//! Property tests for the rendering substrate: BVH structural invariants and
//! traversal-vs-brute-force agreement, bit for bit, on randomized scenes with
//! planted exact ties.

use dpp::Device;
use proptest::prelude::*;
use render::raytrace::bvh::intersect_triangle;
use render::raytrace::{Bvh, Hit, TriGeometry};
use vecmath::{Ray, Vec3};

/// xorshift64: the scene and ray generator of these tests.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A coordinate in `[-1, 1)` on a grid of 1/1000.
    fn coord(&mut self) -> f32 {
        (self.next_u64() % 2000) as f32 / 1000.0 - 1.0
    }

    fn vec3(&mut self) -> Vec3 {
        Vec3::new(self.coord(), self.coord(), self.coord())
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Random triangle soup inside the unit-ish cube, with exact ties planted:
/// about one triangle in six repeats an earlier one verbatim (the same `t`,
/// `u` and `v` for every ray), and about one in six completes the one before
/// it to a planar quad across their shared edge (a ray through the edge can
/// hit both at the same `t`).
fn arb_mesh() -> impl Strategy<Value = mesh::TriMesh> {
    (1usize..120, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = Rng(seed | 1);
        let mut m = mesh::TriMesh::default();
        for t in 0..n {
            let tri = match (rng.below(6), m.tris.last().copied()) {
                (0, Some(_)) => m.tris[rng.below(m.tris.len())],
                (1, Some([a, b, c])) => {
                    let [pa, pb, pc] = [a, b, c].map(|i| m.points[i as usize]);
                    m.points.push(pb + pc - pa);
                    m.scalars.push(t as f32);
                    [b, c, m.points.len() as u32 - 1]
                }
                _ => {
                    let base = rng.vec3();
                    let (e1, e2) = (rng.vec3() * 0.3, rng.vec3() * 0.3);
                    let i = m.points.len() as u32;
                    m.points.extend([base, base + e1, base + e2]);
                    m.scalars.extend_from_slice(&[t as f32; 3]);
                    [i, i + 1, i + 2]
                }
            };
            m.tris.push(tri);
        }
        m
    })
}

/// `count` rays from random origins: half in random directions, half aimed
/// at a random triangle's centroid or the midpoint of one of its edges,
/// where the planted ties are.
fn arb_rays(m: &mesh::TriMesh, seed: u64, count: usize) -> Vec<Ray> {
    let mut rng = Rng(seed | 1);
    (0..count)
        .filter_map(|i| {
            let origin = rng.vec3() * 3.0;
            let dir = if i % 2 == 0 {
                rng.vec3()
            } else {
                let [a, b, c] = m.tris[rng.below(m.tris.len())].map(|p| m.points[p as usize]);
                let target = match rng.below(4) {
                    0 => (a + b + c) / 3.0,
                    1 => (a + b) * 0.5,
                    2 => (b + c) * 0.5,
                    _ => (c + a) * 0.5,
                };
                target - origin
            };
            (dir.length() >= 1e-3).then(|| Ray::new(origin, dir.normalized()))
        })
        .collect()
}

/// The nearest hit over `bvh.prim_order` walked in position order with a
/// strict `<`: of the triangles at the nearest `t`, the earliest in
/// `prim_order`.
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

fn hit_bits(h: Hit) -> (u32, u32, u32, u32) {
    (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural invariants: every primitive in exactly one leaf, every
    /// primitive AABB contained by its leaf, children inside parents, leaves
    /// in preorder.
    #[test]
    fn bvh_invariants_hold(m in arb_mesh()) {
        let geom = TriGeometry::from_mesh(&m);
        for device in [Device::Serial, Device::parallel()] {
            let bvh = Bvh::build(&device, &geom);
            prop_assert!(bvh.validate(&geom).is_ok(), "{:?}", bvh.validate(&geom));
        }
    }

    /// Closest-hit traversal returns exactly the brute-force `Hit`: the same
    /// triangle, `t`, `u` and `v` bits, ties included.
    #[test]
    fn traversal_equals_brute_force(m in arb_mesh(), seed in any::<u64>()) {
        let geom = TriGeometry::from_mesh(&m);
        let bvh = Bvh::build(&Device::Serial, &geom);
        for ray in arb_rays(&m, seed, 48) {
            let (a, b) = (bvh.closest_hit(&geom, &ray), brute_force(&bvh, &geom, &ray));
            prop_assert_eq!(hit_bits(a), hit_bits(b), "{:?} vs brute force {:?}", a, b);
        }
    }

    /// Any-hit with max distance is consistent with closest-hit.
    #[test]
    fn any_hit_consistent_with_closest(m in arb_mesh(), ox in -2.0f32..2.0, oy in -2.0f32..2.0) {
        let geom = TriGeometry::from_mesh(&m);
        let bvh = Bvh::build(&Device::Serial, &geom);
        let ray = Ray::new(Vec3::new(ox, oy, -3.0), Vec3::Z);
        let closest = bvh.closest_hit(&geom, &ray);
        if closest.is_hit() {
            prop_assert!(bvh.any_hit(&geom, &ray, closest.t * 1.01));
            prop_assert!(!bvh.any_hit(&geom, &ray, closest.t * 0.5));
        } else {
            prop_assert!(!bvh.any_hit(&geom, &ray, f32::INFINITY));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The split BVH returns exactly the brute-force `Hit` over its own
    /// `prim_order` (where a triangle may appear more than once), finds the
    /// LBVH's nearest `t`, and never loses a primitive.
    #[test]
    fn split_bvh_equals_lbvh(m in arb_mesh(), seed in any::<u64>()) {
        let geom = TriGeometry::from_mesh(&m);
        let lbvh = Bvh::build(&Device::Serial, &geom);
        let sbvh = render::raytrace::build_split_bvh(&geom, 1e-6);
        render::raytrace::sbvh::validate_split(&sbvh, &geom).unwrap();
        for ray in arb_rays(&m, seed, 32) {
            let (a, b) = (sbvh.closest_hit(&geom, &ray), brute_force(&sbvh, &geom, &ray));
            prop_assert_eq!(hit_bits(a), hit_bits(b), "{:?} vs brute force {:?}", a, b);
            prop_assert_eq!(a.t.to_bits(), lbvh.closest_hit(&geom, &ray).t.to_bits());
        }
    }
}
