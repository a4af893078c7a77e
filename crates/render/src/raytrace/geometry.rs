//! Triangle geometry in structure-of-arrays layout (the memory layout the
//! dissertation's study used for both CPU vectorization and GPU coalescing).

use mesh::TriMesh;
use std::collections::BTreeMap;
use vecmath::{Aabb, Vec3};

/// SoA triangle soup: per-triangle base vertex and edge vectors (the
/// Möller-Trumbore working set), per-vertex normals and scalars for shading.
#[derive(Debug, Clone)]
pub struct TriGeometry {
    pub v0: Vec<Vec3>,
    pub e1: Vec<Vec3>,
    pub e2: Vec<Vec3>,
    pub n0: Vec<Vec3>,
    pub n1: Vec<Vec3>,
    pub n2: Vec<Vec3>,
    pub s0: Vec<f32>,
    pub s1: Vec<f32>,
    pub s2: Vec<f32>,
    pub bounds: Aabb,
    pub scalar_range: (f32, f32),
}

impl TriGeometry {
    pub fn num_tris(&self) -> usize {
        self.v0.len()
    }

    /// Build from a triangle mesh with flat (geometric) normals.
    pub fn from_mesh(mesh: &TriMesh) -> TriGeometry {
        Self::build(mesh, false)
    }

    /// Build with smooth per-vertex normals: normals of all triangles sharing
    /// a (quantized) vertex position are averaged. Costs a hash pass; used
    /// for quality renders, not the performance study.
    pub fn from_mesh_smooth(mesh: &TriMesh) -> TriGeometry {
        Self::build(mesh, true)
    }

    fn build(mesh: &TriMesh, smooth: bool) -> TriGeometry {
        let n = mesh.num_tris();
        let mut g = TriGeometry {
            v0: Vec::with_capacity(n),
            e1: Vec::with_capacity(n),
            e2: Vec::with_capacity(n),
            n0: Vec::with_capacity(n),
            n1: Vec::with_capacity(n),
            n2: Vec::with_capacity(n),
            s0: Vec::with_capacity(n),
            s1: Vec::with_capacity(n),
            s2: Vec::with_capacity(n),
            bounds: mesh.bounds(),
            scalar_range: mesh.scalar_range(),
        };

        let smooth_normals: Option<Vec<Vec3>> = smooth.then(|| smooth_vertex_normals(mesh));

        for (t, tri) in mesh.tris.iter().enumerate() {
            let [ia, ib, ic] = *tri;
            let a = mesh.points[ia as usize];
            let b = mesh.points[ib as usize];
            let c = mesh.points[ic as usize];
            g.v0.push(a);
            g.e1.push(b - a);
            g.e2.push(c - a);
            match &smooth_normals {
                Some(vn) => {
                    g.n0.push(vn[ia as usize]);
                    g.n1.push(vn[ib as usize]);
                    g.n2.push(vn[ic as usize]);
                }
                None => {
                    let fnm = mesh.tri_normal(t).normalized();
                    g.n0.push(fnm);
                    g.n1.push(fnm);
                    g.n2.push(fnm);
                }
            }
            let sc = |i: u32| mesh.scalars.get(i as usize).copied().unwrap_or(0.0);
            g.s0.push(sc(ia));
            g.s1.push(sc(ib));
            g.s2.push(sc(ic));
        }
        g
    }

    /// Box of triangle `t`: its vertices' AABB, padded on every side by
    /// 1e-5 of its largest extent. `intersect_triangle` accepts hits up to
    /// 1e-6 outside the triangle in barycentric terms, which can lie outside
    /// the vertices' AABB; the pad keeps them inside, so a walk that tests
    /// the box meets every hit the brute force finds.
    #[inline]
    pub fn tri_aabb(&self, t: usize) -> Aabb {
        let a = self.v0[t];
        let b = a + self.e1[t];
        let c = a + self.e2[t];
        let mut bb = Aabb::from_corners(a, b);
        bb.expand(c);
        let e = bb.max - bb.min;
        let pad = Vec3::splat(e.x.max(e.y).max(e.z) * 1e-5);
        Aabb { min: bb.min - pad, max: bb.max + pad }
    }

    /// Centroid of triangle `t`.
    #[inline]
    pub fn tri_centroid(&self, t: usize) -> Vec3 {
        self.v0[t] + (self.e1[t] + self.e2[t]) / 3.0
    }

    /// Barycentric-interpolated normal for a hit at `(u, v)` on triangle `t`.
    #[inline]
    pub fn interpolate_normal(&self, t: usize, u: f32, v: f32) -> Vec3 {
        (self.n0[t] * (1.0 - u - v) + self.n1[t] * u + self.n2[t] * v).normalized()
    }

    /// Barycentric-interpolated scalar for a hit at `(u, v)` on triangle `t`.
    #[inline]
    pub fn interpolate_scalar(&self, t: usize, u: f32, v: f32) -> f32 {
        self.s0[t] * (1.0 - u - v) + self.s1[t] * u + self.s2[t] * v
    }
}

/// Average triangle normals onto shared (position-quantized) vertices.
fn smooth_vertex_normals(mesh: &TriMesh) -> Vec<Vec3> {
    let bounds = mesh.bounds();
    let inv_ext = bounds.extent().recip();
    let quant = |p: Vec3| -> (i64, i64, i64) {
        let q = (p - bounds.min) * inv_ext * 1_000_000.0;
        (q.x.round() as i64, q.y.round() as i64, q.z.round() as i64)
    };
    // Gather (vertex key, face normal) contributions and sum them in a
    // canonical sorted order: the averaged normal is then bit-identical no
    // matter how the input triangles are ordered, and the BTreeMap keeps the
    // whole pass free of unspecified hash iteration order.
    let mut contrib: Vec<((i64, i64, i64), Vec3)> = Vec::with_capacity(mesh.num_tris() * 3);
    for t in 0..mesh.num_tris() {
        let n = mesh.tri_normal(t); // area-weighted (unnormalized)
        for &vi in &mesh.tris[t] {
            contrib.push((quant(mesh.points[vi as usize]), n));
        }
    }
    contrib.sort_by_key(|&(k, n)| (k, n.x.to_bits(), n.y.to_bits(), n.z.to_bits()));
    let mut accum: BTreeMap<(i64, i64, i64), Vec3> = BTreeMap::new();
    for (k, n) in contrib {
        *accum.entry(k).or_insert(Vec3::ZERO) += n;
    }
    mesh.points.iter().map(|&p| accum[&quant(p)].normalized()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> TriMesh {
        TriMesh {
            points: vec![
                Vec3::ZERO,
                Vec3::X,
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::ZERO,
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::Y,
            ],
            tris: vec![[0, 1, 2], [3, 4, 5]],
            scalars: vec![0.0, 1.0, 2.0, 0.0, 2.0, 1.0],
        }
    }

    #[test]
    fn soa_layout_and_bounds() {
        let g = TriGeometry::from_mesh(&quad());
        assert_eq!(g.num_tris(), 2);
        assert_eq!(g.v0[0], Vec3::ZERO);
        assert_eq!(g.e1[0], Vec3::X);
        assert!(g.bounds.contains(Vec3::new(0.5, 0.5, 0.0)));
        assert_eq!(g.scalar_range, (0.0, 2.0));
    }

    #[test]
    fn flat_normals_are_face_normals() {
        let g = TriGeometry::from_mesh(&quad());
        assert!((g.n0[0] - Vec3::Z).length() < 1e-6);
        assert_eq!(g.n0[0], g.n1[0]);
    }

    #[test]
    fn interpolation_at_corners() {
        let g = TriGeometry::from_mesh(&quad());
        assert!((g.interpolate_scalar(0, 0.0, 0.0) - 0.0).abs() < 1e-6);
        assert!((g.interpolate_scalar(0, 1.0, 0.0) - 1.0).abs() < 1e-6);
        assert!((g.interpolate_scalar(0, 0.0, 1.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn smooth_normals_average_shared_vertices() {
        // Two triangles forming a "tent": shared edge vertices get averaged
        // normals that differ from either face normal.
        let m = TriMesh {
            points: vec![
                Vec3::new(-1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 1.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 1.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
            tris: vec![[0, 1, 2], [3, 4, 5]],
            scalars: vec![0.0; 6],
        };
        let g = TriGeometry::from_mesh_smooth(&m);
        // Shared ridge vertex normal should have ~zero x (averaged).
        assert!(g.n1[0].x.abs() < 1e-5, "ridge normal {:?}", g.n1[0]);
        assert!(g.n1[0].y.abs() > 0.5);
        // And it differs from either face normal, which have |x| ~ 0.7.
        assert!(g.n0[0].x.abs() > 0.5);
    }

    #[test]
    fn smooth_normals_are_input_order_independent() {
        // Assemble the same tent with its triangles (and their corner rows)
        // in opposite orders; every shared-position vertex must get a
        // bit-identical averaged normal either way.
        let fwd = TriMesh {
            points: vec![
                Vec3::new(-1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 1.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 1.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
            tris: vec![[0, 1, 2], [3, 4, 5]],
            scalars: vec![0.0; 6],
        };
        let rev = TriMesh {
            points: vec![
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 1.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(-1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 1.0),
            ],
            tris: vec![[0, 1, 2], [3, 4, 5]],
            scalars: vec![0.0; 6],
        };
        let gf = TriGeometry::from_mesh_smooth(&fwd);
        let gr = TriGeometry::from_mesh_smooth(&rev);
        // fwd corner (tri 0, vertex 0) is rev corner (tri 1, vertex 0), etc.
        let pairs = [
            (gf.n0[0], gr.n0[1]), // (-1,0,0)
            (gf.n1[0], gr.n2[1]), // ridge (0,1,0)
            (gf.n2[0], gr.n1[1]), // ridge (0,1,1)
            (gf.n0[1], gr.n0[0]), // (1,0,0)
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "pair {i} x: {a:?} vs {b:?}");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "pair {i} y");
            assert_eq!(a.z.to_bits(), b.z.to_bits(), "pair {i} z");
        }
    }

    #[test]
    fn tri_aabb_contains_vertices() {
        let g = TriGeometry::from_mesh(&quad());
        let bb = g.tri_aabb(0);
        assert!(bb.contains(Vec3::ZERO));
        assert!(bb.contains(Vec3::X));
        assert!(bb.contains(Vec3::new(1.0, 1.0, 0.0)));
    }
}
