//! Bunyk-style unstructured ray caster (the Figure 7 comparator).
//!
//! Bunyk et al.'s algorithm pre-traces face connectivity (which cell lies on
//! the other side of each tetrahedron face), finds each ray's entry cell
//! through a boundary face, then marches cell to cell, integrating the
//! transfer function over each ray segment. The paper notes the serial
//! preprocessing took 50+ minutes on Enzo-80M; our hash-based version is
//! faster but still a distinct, measured, serial step.

use mesh::{Assoc, TetMesh};
use rayon::prelude::*;
use render::{Framebuffer, PhaseTimer, RenderOutput, RenderStats};
use vecmath::{over, Camera, Color, Ray, TransferFunction, Vec3};

/// Face-connectivity structure: for each tet, its 4 neighbors
/// (`u32::MAX` = boundary), plus the list of boundary (tet, face) pairs.
pub struct Connectivity {
    /// `neighbors[t][f]` = tet adjacent across face `f` of tet `t`.
    pub neighbors: Vec<[u32; 4]>,
    /// Boundary faces as (tet, face index).
    pub boundary: Vec<(u32, u8)>,
    pub preprocess_seconds: f64,
}

/// Face `f` of a tet is the one opposite vertex `f`: vertices are the other
/// three in canonical order.
const TET_FACES: [[usize; 3]; 4] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]];

impl Connectivity {
    /// Serial preprocessing pass (the algorithm's defining overhead).
    #[expect(
        clippy::disallowed_types,
        reason = "faces are matched by lookup; the boundary list is sorted before it leaves"
    )]
    pub fn build(tets: &TetMesh) -> Connectivity {
        let ((neighbors, boundary), preprocess_seconds) = dpp::timed(|| {
            let n = tets.num_tets();
            let mut neighbors = vec![[u32::MAX; 4]; n];
            let mut map: std::collections::HashMap<[u32; 3], (u32, u8)> =
                std::collections::HashMap::with_capacity(n * 2);
            for t in 0..n {
                let ix = tets.tets[t];
                for (f, face) in TET_FACES.iter().enumerate() {
                    let mut key = [ix[face[0]], ix[face[1]], ix[face[2]]];
                    key.sort_unstable();
                    match map.remove(&key) {
                        Some((ot, of)) => {
                            neighbors[t][f] = ot;
                            neighbors[ot as usize][of as usize] = t as u32;
                        }
                        None => {
                            map.insert(key, (t as u32, f as u8));
                        }
                    }
                }
            }
            // Sorted, so the entry search's tie-break (first nearest face wins)
            // does not depend on the hasher's iteration order.
            let mut boundary: Vec<(u32, u8)> = map.into_values().collect();
            boundary.sort_unstable();
            (neighbors, boundary)
        });
        Connectivity { neighbors, boundary, preprocess_seconds }
    }
}

/// Ray/triangle test returning the `t` parameter only.
#[inline]
fn hit_face(ray: &Ray, a: Vec3, b: Vec3, c: Vec3) -> Option<f32> {
    render::raytrace::bvh::intersect_triangle(ray, a, b - a, c - a).map(|(t, _, _)| t)
}

/// Render with the connectivity marcher, timed as one `march` phase whose
/// work units are the cell-to-cell steps. `conn` may be reused across
/// frames; its build is not part of the render.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per render input, as the other renderers take them"
)]
pub fn render_bunyk(
    tets: &TetMesh,
    conn: &Connectivity,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    step_scale: f32,
) -> RenderOutput {
    let field = &tets
        .field(field_name)
        .filter(|f| f.assoc == Assoc::Point)
        .unwrap_or_else(|| panic!("bunyk needs point field {field_name}"))
        .values;
    let ((frame, cells_marched, active), march_s) = dpp::timed(|| {
        let n_px = (width * height) as usize;
        let bounds = tets.bounds();
        let step = bounds.diagonal() * step_scale;

        let results: Vec<(Color, f32, u64)> = (0..n_px)
            .into_par_iter()
            .map(|i| {
                let px = i as u32 % width;
                let py = i as u32 / width;
                let ray = camera.primary_ray(px, py, width, height, 0.5, 0.5);
                if bounds.intersect_ray(&ray, 0.0, f32::INFINITY).is_none() {
                    return (Color::TRANSPARENT, f32::INFINITY, 0);
                }
                // Entry: nearest boundary-face hit.
                let mut entry_t = f32::INFINITY;
                let mut cell = u32::MAX;
                for &(t, f) in &conn.boundary {
                    let ix = tets.tets[t as usize];
                    let face = TET_FACES[f as usize];
                    let a = tets.points[ix[face[0]] as usize];
                    let b = tets.points[ix[face[1]] as usize];
                    let c = tets.points[ix[face[2]] as usize];
                    if let Some(th) = hit_face(&ray, a, b, c) {
                        if th < entry_t {
                            entry_t = th;
                            cell = t;
                        }
                    }
                }
                if cell == u32::MAX {
                    return (Color::TRANSPARENT, f32::INFINITY, 0);
                }
                // March cell to cell.
                let mut acc = Color::TRANSPARENT;
                let mut t_cur = entry_t + 1e-5;
                let mut marched = 0u64;
                let max_steps = tets.num_tets() as u64 * 4;
                while cell != u32::MAX && marched < max_steps {
                    marched += 1;
                    let tix = tets.tets[cell as usize];
                    // Exit face: nearest forward face hit other than entry.
                    let mut exit_t = f32::INFINITY;
                    let mut exit_face = usize::MAX;
                    for (f, face) in TET_FACES.iter().enumerate() {
                        let a = tets.points[tix[face[0]] as usize];
                        let b = tets.points[tix[face[1]] as usize];
                        let c = tets.points[tix[face[2]] as usize];
                        if let Some(th) = hit_face(&ray, a, b, c) {
                            if th > t_cur && th < exit_t {
                                exit_t = th;
                                exit_face = f;
                            }
                        }
                    }
                    if exit_face == usize::MAX {
                        break; // numeric corner; give up on this ray
                    }
                    // Integrate the segment [t_cur, exit_t] by sampling its
                    // midpoint scalar (barycentric interpolation).
                    let mid = ray.at((t_cur + exit_t) * 0.5);
                    let value = barycentric_value(tets, field, cell as usize, mid);
                    let seg = exit_t - t_cur;
                    let base = tf.sample(value);
                    let alpha = 1.0 - (1.0 - base.a.min(0.999)).powf(seg / step.max(1e-9));
                    let frag = Color::new(base.r * alpha, base.g * alpha, base.b * alpha, alpha);
                    acc = over(acc, frag);
                    if acc.a > 0.98 {
                        break;
                    }
                    cell = conn.neighbors[cell as usize][exit_face];
                    t_cur = exit_t + 1e-5;
                }
                (acc, entry_t, marched)
            })
            .collect();

        let mut frame = Framebuffer::new(width, height);
        let mut active = 0usize;
        let mut cells_marched = 0u64;
        for (i, (c, d, m)) in results.into_iter().enumerate() {
            cells_marched += m;
            if c.a > 0.0 {
                frame.color[i] = c.unpremultiplied();
                frame.depth[i] = d;
                active += 1;
            }
        }
        (frame, cells_marched, active)
    });

    let mut phases = PhaseTimer::new();
    phases.record("march", march_s, cells_marched);
    RenderOutput {
        frame,
        stats: RenderStats {
            objects: tets.num_tets() as f64,
            active_pixels: active as f64,
            render_seconds: phases.total_seconds(),
            ..RenderStats::default()
        },
        phases,
    }
}

fn barycentric_value(tets: &TetMesh, field: &[f32], cell: usize, p: Vec3) -> f32 {
    let [a, b, c, d] = tets.tet_points(cell);
    let ix = tets.tets[cell];
    let vol = |p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3| (p1 - p0).cross(p2 - p0).dot(p3 - p0);
    let v = vol(a, b, c, d);
    if v.abs() < 1e-20 {
        return field[ix[0] as usize];
    }
    let l0 = vol(p, b, c, d) / v;
    let l1 = vol(a, p, c, d) / v;
    let l2 = vol(a, b, p, d) / v;
    let l3 = 1.0 - l0 - l1 - l2;
    field[ix[0] as usize] * l0
        + field[ix[1] as usize] * l1
        + field[ix[2] as usize] * l2
        + field[ix[3] as usize] * l3
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{FieldKind, TetDatasetSpec};

    fn tets(n: usize) -> TetMesh {
        TetDatasetSpec { name: "t", cells: [n, n, n], kind: FieldKind::ShockShell }.build(1.0)
    }

    #[test]
    fn connectivity_counts_are_consistent() {
        let t = tets(4);
        let conn = Connectivity::build(&t);
        // Interior faces are shared; boundary faces belong to one tet.
        let total_faces = t.num_tets() * 4;
        let interior = conn.neighbors.iter().flatten().filter(|&&n| n != u32::MAX).count();
        assert_eq!(interior + conn.boundary.len(), total_faces);
        // Neighbor relation is symmetric.
        for (t_i, nb) in conn.neighbors.iter().enumerate() {
            for &o in nb {
                if o != u32::MAX {
                    assert!(
                        conn.neighbors[o as usize].contains(&(t_i as u32)),
                        "asymmetric {t_i} <-> {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_face_count_matches_surface() {
        // For an n^3 hex grid split into 6 tets each, every external quad is
        // covered by exactly 2 tet faces, so boundary = 6 * n^2 * 2.
        let t = tets(5);
        let conn = Connectivity::build(&t);
        assert_eq!(conn.boundary.len(), 6 * 5 * 5 * 2);
    }

    #[test]
    fn renders_the_shell() {
        let t = tets(7);
        let conn = Connectivity::build(&t);
        let cam = Camera::close_view(&t.bounds());
        let r = t.field("scalar").unwrap().range().unwrap();
        let tf = TransferFunction::sparse_features(r);
        let out = render_bunyk(&t, &conn, "scalar", &cam, 40, 40, &tf, 0.01);
        assert!(out.stats.active_pixels > 200.0, "{}", out.stats.active_pixels);
        assert!(out.phases.work_of("march") > 1000);
    }

    #[test]
    fn agrees_with_dpp_vr_coverage() {
        let t = tets(6);
        let conn = Connectivity::build(&t);
        let cam = Camera::close_view(&t.bounds());
        let r = t.field("scalar").unwrap().range().unwrap();
        let tf = TransferFunction::sparse_features(r);
        let a = render_bunyk(&t, &conn, "scalar", &cam, 32, 32, &tf, 0.01);
        let b = render::volume_unstructured::render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            32,
            32,
            &tf,
            &render::volume_unstructured::UvrConfig { depth_samples: 64, ..Default::default() },
        )
        .unwrap();
        let mut both = 0;
        let mut either = 0;
        for i in 0..a.frame.num_pixels() {
            let x = a.frame.color[i].a > 0.01;
            let y = b.frame.color[i].a > 0.01;
            if x || y {
                either += 1;
                if x && y {
                    both += 1;
                }
            }
        }
        assert!(either > 50);
        assert!(both as f64 > either as f64 * 0.6, "{both}/{either}");
    }

    use dpp::Device;
}
