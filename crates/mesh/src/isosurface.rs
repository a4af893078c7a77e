//! Isosurface extraction via marching tetrahedra.
//!
//! The study's surface data sets (the Richtmyer-Meshkov and Lead Telluride
//! isosurfaces of Chapter II) are triangle soups extracted from regular
//! grids. We use marching *tetrahedra* — each grid cell is split into six
//! tets and each tet contributes 0, 1, or 2 triangles — because its case
//! table is small enough to verify by construction while producing the same
//! kind of workload (triangle count proportional to surface area resolution).

use crate::structured::UniformGrid;
use crate::unstructured::{TriMesh, HEX_TO_TETS};
use rayon::prelude::*;
use vecmath::Vec3;

/// Offsets of the 8 cell corners in VTK hexahedron order.
const CORNER_OFFSETS: [[usize; 3]; 8] =
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]];

/// Extract the isosurface of point field `field_name` at `isovalue`.
///
/// Per-vertex scalars on the output are taken from `color_field` (another
/// point field interpolated onto the surface) when given, else the
/// z-coordinate of the vertex — the paper's renderings color isosurfaces by
/// a secondary quantity the same way.
///
/// # Panics
/// If `field_name`, or `color_field` when given, names no point field of
/// the grid.
#[expect(clippy::panic, reason = "callers name point fields the grid carries")]
pub fn isosurface(
    grid: &UniformGrid,
    field_name: &str,
    isovalue: f32,
    color_field: Option<&str>,
) -> TriMesh {
    let field = grid
        .field(field_name)
        .unwrap_or_else(|| panic!("no point field named {field_name}"))
        .values
        .clone();
    let color: Option<Vec<f32>> = color_field.map(|n| {
        grid.field(n).unwrap_or_else(|| panic!("no point field named {n}")).values.clone()
    });

    let c = grid.cell_dims();
    let per_slab: Vec<TriMesh> = (0..c[2])
        .into_par_iter()
        .map(|k| {
            let mut out = TriMesh::default();
            let mut corners_p = [Vec3::ZERO; 8];
            let mut corners_s = [0.0f32; 8];
            let mut corners_c = [0.0f32; 8];
            for j in 0..c[1] {
                for i in 0..c[0] {
                    for (n, off) in CORNER_OFFSETS.iter().enumerate() {
                        let (pi, pj, pk) = (i + off[0], j + off[1], k + off[2]);
                        corners_p[n] = grid.point_position(pi, pj, pk);
                        let idx = grid.point_index(pi, pj, pk);
                        corners_s[n] = field[idx];
                        corners_c[n] = match &color {
                            Some(cf) => cf[idx],
                            None => corners_p[n].z,
                        };
                    }
                    // Cheap reject: whole cell on one side.
                    let lo = corners_s.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = corners_s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    if lo > isovalue || hi < isovalue {
                        continue;
                    }
                    for tet in HEX_TO_TETS {
                        march_tet(
                            &mut out,
                            [
                                corners_p[tet[0]],
                                corners_p[tet[1]],
                                corners_p[tet[2]],
                                corners_p[tet[3]],
                            ],
                            [
                                corners_s[tet[0]],
                                corners_s[tet[1]],
                                corners_s[tet[2]],
                                corners_s[tet[3]],
                            ],
                            [
                                corners_c[tet[0]],
                                corners_c[tet[1]],
                                corners_c[tet[2]],
                                corners_c[tet[3]],
                            ],
                            isovalue,
                        );
                    }
                }
            }
            out
        })
        .collect();

    let mut mesh = TriMesh::default();
    let total: usize = per_slab.iter().map(|m| m.num_tris()).sum();
    mesh.tris.reserve(total);
    mesh.points.reserve(total * 3);
    mesh.scalars.reserve(total * 3);
    for slab in &per_slab {
        mesh.append(slab);
    }
    mesh
}

/// Emit the triangles of one tetrahedron crossing the isovalue.
fn march_tet(out: &mut TriMesh, p: [Vec3; 4], s: [f32; 4], c: [f32; 4], iso: f32) {
    let inside: Vec<usize> = (0..4).filter(|&i| s[i] > iso).collect();
    let outside: Vec<usize> = (0..4).filter(|&i| s[i] <= iso).collect();

    let interp = |a: usize, b: usize| -> (Vec3, f32) {
        let denom = s[b] - s[a];
        let t = if denom.abs() > 1e-20 { (iso - s[a]) / denom } else { 0.5 };
        let t = t.clamp(0.0, 1.0);
        (p[a].lerp(p[b], t), c[a] + (c[b] - c[a]) * t)
    };

    let mut push_tri = |v: [(Vec3, f32); 3]| {
        let base = out.points.len() as u32;
        for (pt, sc) in v {
            out.points.push(pt);
            out.scalars.push(sc);
        }
        out.tris.push([base, base + 1, base + 2]);
    };

    match inside.len() {
        1 => {
            let a = inside[0];
            push_tri([interp(a, outside[0]), interp(a, outside[1]), interp(a, outside[2])]);
        }
        3 => {
            let a = outside[0];
            push_tri([interp(a, inside[0]), interp(a, inside[1]), interp(a, inside[2])]);
        }
        2 => {
            // Quad between the two crossing pairs, split into two triangles.
            let (a, b) = (inside[0], inside[1]);
            let (x, y) = (outside[0], outside[1]);
            let v0 = interp(a, x);
            let v1 = interp(a, y);
            let v2 = interp(b, y);
            let v3 = interp(b, x);
            push_tri([v0, v1, v2]);
            push_tri([v0, v2, v3]);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmath::Aabb;

    fn sphere_grid(cells: usize) -> UniformGrid {
        let mut g =
            UniformGrid::new([cells; 3], Aabb::from_corners(Vec3::splat(-1.0), Vec3::splat(1.0)));
        g.add_point_field("r", |p| p.length());
        g
    }

    #[test]
    fn sphere_isosurface_lies_on_sphere() {
        let g = sphere_grid(24);
        let m = isosurface(&g, "r", 0.6, None);
        assert!(m.num_tris() > 100, "got {} tris", m.num_tris());
        for &pt in m.points.iter().step_by(37) {
            assert!((pt.length() - 0.6).abs() < 0.08, "vertex {pt:?} off the r=0.6 sphere");
        }
    }

    #[test]
    fn empty_when_isovalue_out_of_range() {
        let g = sphere_grid(8);
        assert_eq!(isosurface(&g, "r", 10.0, None).num_tris(), 0);
        assert_eq!(isosurface(&g, "r", -1.0, None).num_tris(), 0);
    }

    #[test]
    fn triangle_count_scales_with_resolution() {
        let lo = isosurface(&sphere_grid(12), "r", 0.6, None).num_tris();
        let hi = isosurface(&sphere_grid(24), "r", 0.6, None).num_tris();
        // Surface triangle count should scale ~4x when resolution doubles.
        assert!(hi > lo * 2, "lo={lo} hi={hi}");
    }

    #[test]
    fn color_field_is_interpolated() {
        let mut g = sphere_grid(10);
        g.add_point_field("cz", |p| p.z);
        let m = isosurface(&g, "r", 0.5, Some("cz"));
        for (pt, &s) in m.points.iter().zip(m.scalars.iter()).step_by(11) {
            assert!((pt.z - s).abs() < 0.05, "color should track z: {} vs {}", pt.z, s);
        }
    }

    #[test]
    fn all_triangles_nondegenerate_enough() {
        let g = sphere_grid(16);
        let m = isosurface(&g, "r", 0.62, None);
        let degenerate = (0..m.num_tris()).filter(|&t| m.tri_normal(t).length() < 1e-12).count();
        // Marching tets can make slivers but not a meaningful fraction.
        assert!(degenerate < m.num_tris() / 20);
    }
}
