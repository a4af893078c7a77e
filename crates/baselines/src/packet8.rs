//! 8-wide ray-packet traversal — the ISPC back-end stand-in (Table 5).
//!
//! Chapter II's Xeon Phi experiment swapped EAVL's scalar OpenMP back-end for
//! an ISPC back-end that fills the vector units, observing 5-9x speedups with
//! no algorithm change. We reproduce the comparison's structure: the same
//! LBVH and Möller-Trumbore math, but eight coherent primary rays advance
//! through the tree together in structure-of-arrays lanes ([`dpp::simd`]
//! types that LLVM auto-vectorizes), amortizing node fetches across the
//! packet.

use dpp::simd::F32x8;
use render::raytrace::{Bvh, TriGeometry};
use vecmath::{Camera, Ray};

/// Eight rays in SoA lanes with per-lane state.
struct RayPacket {
    ox: F32x8,
    oy: F32x8,
    oz: F32x8,
    dx: F32x8,
    dy: F32x8,
    dz: F32x8,
    inv_dx: F32x8,
    inv_dy: F32x8,
    inv_dz: F32x8,
    t: [f32; 8],
    hit: [bool; 8],
}

impl RayPacket {
    fn from_rays(rays: &[Ray]) -> RayPacket {
        let get = |f: fn(&Ray) -> f32| -> F32x8 {
            let mut a = [0.0f32; 8];
            for (i, r) in rays.iter().take(8).enumerate() {
                a[i] = f(r);
            }
            // Pad with the last ray so all lanes are valid.
            if let Some(last) = rays.last() {
                for slot in a.iter_mut().skip(rays.len().min(8)) {
                    *slot = f(last);
                }
            }
            F32x8(a)
        };
        RayPacket {
            ox: get(|r| r.origin.x),
            oy: get(|r| r.origin.y),
            oz: get(|r| r.origin.z),
            dx: get(|r| r.dir.x),
            dy: get(|r| r.dir.y),
            dz: get(|r| r.dir.z),
            inv_dx: get(|r| r.inv_dir.x),
            inv_dy: get(|r| r.inv_dir.y),
            inv_dz: get(|r| r.inv_dir.z),
            t: [f32::INFINITY; 8],
            hit: [false; 8],
        }
    }

    /// 8-wide slab test: true if ANY lane's interval is non-empty.
    #[inline]
    fn any_hits_aabb(&self, bb: &vecmath::Aabb) -> bool {
        let t0x = F32x8::splat(bb.min.x).sub(self.ox).mul(self.inv_dx);
        let t1x = F32x8::splat(bb.max.x).sub(self.ox).mul(self.inv_dx);
        let t0y = F32x8::splat(bb.min.y).sub(self.oy).mul(self.inv_dy);
        let t1y = F32x8::splat(bb.max.y).sub(self.oy).mul(self.inv_dy);
        let t0z = F32x8::splat(bb.min.z).sub(self.oz).mul(self.inv_dz);
        let t1z = F32x8::splat(bb.max.z).sub(self.oz).mul(self.inv_dz);
        let near = t0x.min(t1x).max(t0y.min(t1y)).max(t0z.min(t1z)).max(F32x8::splat(0.0));
        let far = t0x.max(t1x).min(t0y.max(t1y)).min(t0z.max(t1z)).min(F32x8(self.t));
        near.le(far).iter().any(|&b| b)
    }

    /// 8-wide Möller-Trumbore against one triangle; updates lane hits.
    #[inline]
    fn intersect_tri(&mut self, v0: vecmath::Vec3, e1: vecmath::Vec3, e2: vecmath::Vec3) {
        // p = dir x e2
        let px = self.dy.mul(F32x8::splat(e2.z)).sub(self.dz.mul(F32x8::splat(e2.y)));
        let py = self.dz.mul(F32x8::splat(e2.x)).sub(self.dx.mul(F32x8::splat(e2.z)));
        let pz = self.dx.mul(F32x8::splat(e2.y)).sub(self.dy.mul(F32x8::splat(e2.x)));
        // det = e1 . p
        let det = px
            .mul(F32x8::splat(e1.x))
            .add(py.mul(F32x8::splat(e1.y)))
            .add(pz.mul(F32x8::splat(e1.z)));
        // tv = origin - v0
        let tvx = self.ox.sub(F32x8::splat(v0.x));
        let tvy = self.oy.sub(F32x8::splat(v0.y));
        let tvz = self.oz.sub(F32x8::splat(v0.z));
        // q = tv x e1
        let qx = tvy.mul(F32x8::splat(e1.z)).sub(tvz.mul(F32x8::splat(e1.y)));
        let qy = tvz.mul(F32x8::splat(e1.x)).sub(tvx.mul(F32x8::splat(e1.z)));
        let qz = tvx.mul(F32x8::splat(e1.y)).sub(tvy.mul(F32x8::splat(e1.x)));
        for l in 0..8 {
            let d = det.0[l];
            if d.abs() < 1e-12 {
                continue;
            }
            let inv = 1.0 / d;
            let u = (tvx.0[l] * px.0[l] + tvy.0[l] * py.0[l] + tvz.0[l] * pz.0[l]) * inv;
            if !(-1e-6..=1.0 + 1e-6).contains(&u) {
                continue;
            }
            let v =
                (self.dx.0[l] * qx.0[l] + self.dy.0[l] * qy.0[l] + self.dz.0[l] * qz.0[l]) * inv;
            if v < -1e-6 || u + v > 1.0 + 1e-6 {
                continue;
            }
            let t = (e2.x * qx.0[l] + e2.y * qy.0[l] + e2.z * qz.0[l]) * inv;
            if t > 1e-6 && t < self.t[l] {
                self.t[l] = t;
                self.hit[l] = true;
            }
        }
    }
}

/// WORKLOAD1 over a whole image with 8-ray packets against the DPP tracer's
/// own LBVH (same tree as the scalar back-end: only the *back-end* differs).
/// Returns (hit count, elapsed seconds).
pub fn intersect_image_packets(
    geom: &TriGeometry,
    bvh: &Bvh,
    camera: &Camera,
    width: u32,
    height: u32,
) -> (usize, f64) {
    use rayon::prelude::*;
    dpp::timed(|| {
        (0..height)
            .into_par_iter()
            .map(|py| {
                let mut row_hits = 0usize;
                let mut px = 0u32;
                while px < width {
                    let lanes = (width - px).min(8);
                    let rays: Vec<Ray> = (0..lanes)
                        .map(|l| camera.primary_ray(px + l, py, width, height, 0.5, 0.5))
                        .collect();
                    let mut packet = RayPacket::from_rays(&rays);
                    traverse_packet(geom, bvh, &mut packet);
                    row_hits += packet.hit.iter().take(lanes as usize).filter(|&&h| h).count();
                    px += lanes;
                }
                row_hits
            })
            .sum()
    })
}

fn traverse_packet(geom: &TriGeometry, bvh: &Bvh, packet: &mut RayPacket) {
    if bvh.nodes.is_empty() {
        return;
    }
    let mut stack = [0u32; 64];
    let mut sp = 1usize;
    stack[0] = 0;
    while sp > 0 {
        sp -= 1;
        let ni = stack[sp] as usize;
        let node = &bvh.nodes[ni];
        if !packet.any_hits_aabb(&node.aabb) {
            continue;
        }
        if node.count > 0 {
            for s in node.start..node.start + node.count {
                let p = bvh.prim_order[s as usize] as usize;
                packet.intersect_tri(geom.v0[p], geom.e1[p], geom.e2[p]);
            }
        } else {
            stack[sp] = node.right;
            sp += 1;
            stack[sp] = ni as u32 + 1;
            sp += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Device;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;
    use render::raytrace::{RayTracer, RtConfig};

    fn setup() -> (TriGeometry, Bvh, Camera) {
        let g = field_grid(FieldKind::ShockShell, [16, 16, 16]);
        let m = isosurface(&g, "scalar", 0.5, None);
        let geom = TriGeometry::from_mesh(&m);
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = Camera::close_view(&geom.bounds);
        (geom, bvh, cam)
    }

    #[test]
    fn packets_agree_with_scalar_backend() {
        let (geom, bvh, cam) = setup();
        let (hits, _) = intersect_image_packets(&geom, &bvh, &cam, 56, 40);
        let rt = RayTracer::new(Device::Serial, geom);
        let out = rt.render(&cam, 56, 40, &RtConfig::workload1());
        assert_eq!(hits as f64, out.stats.active_pixels);
    }

    #[test]
    fn non_multiple_of_eight_widths() {
        let (geom, bvh, cam) = setup();
        // Width 53 exercises the partial-packet tail.
        let (hits53, _) = intersect_image_packets(&geom, &bvh, &cam, 53, 31);
        let rt = RayTracer::new(Device::Serial, geom);
        let out = rt.render(&cam, 53, 31, &RtConfig::workload1());
        assert_eq!(hits53 as f64, out.stats.active_pixels);
    }

    #[test]
    fn empty_scene_no_hits() {
        let geom = TriGeometry::from_mesh(&mesh::TriMesh::default());
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = Camera::default();
        let (hits, _) = intersect_image_packets(&geom, &bvh, &cam, 16, 16);
        assert_eq!(hits, 0);
    }
}
