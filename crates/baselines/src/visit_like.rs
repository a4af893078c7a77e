//! VisIt-style sampling volume renderer (the Table 9 comparator).
//!
//! VisIt extracts samples by "rasterizing" geometry: each cell is
//! transformed to screen space (SS), sliced by pixel columns to extract
//! sample runs in depth (S), and the samples are composited per pixel with
//! early ray termination (C). It runs serially (the paper compared against
//! one core for exactly this reason) and amortizes per-cell setup across a
//! cell's samples — beneficial for large cells, overhead-bound for small
//! ones, which is the crossover Table 9 exhibits.

use mesh::{Assoc, TetMesh};
use render::volume_unstructured::column_run;
use render::Framebuffer;
use vecmath::{over, Camera, Color, TransferFunction, Vec3};

/// Phase times matching Table 9's columns.
#[derive(Debug, Clone)]
pub struct VisitStats {
    /// SS: screen-space transformation seconds.
    pub screen_space_seconds: f64,
    /// S: sampling seconds.
    pub sampling_seconds: f64,
    /// C: compositing seconds.
    pub compositing_seconds: f64,
    pub total_seconds: f64,
    pub objects: usize,
    pub active_pixels: usize,
}

pub struct VisitOutput {
    pub frame: Framebuffer,
    pub stats: VisitStats,
}

/// Serial sampling volume render in VisIt's style.
pub fn render_visit(
    tets: &TetMesh,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    depth_samples: u32,
    tf: &TransferFunction,
) -> VisitOutput {
    let field = &tets
        .field(field_name)
        .filter(|f| f.assoc == Assoc::Point)
        .unwrap_or_else(|| panic!("visit renderer needs point field {field_name}"))
        .values;
    let t_total = std::time::Instant::now();
    let n = tets.num_tets();
    let fwd = (camera.look_at - camera.position).normalized();
    let st = camera.screen_transform(width, height);

    // Depth range of the whole data set.
    let mut z0 = f32::INFINITY;
    let mut z1 = f32::NEG_INFINITY;
    for p in &tets.points {
        let d = (*p - camera.position).dot(fwd);
        z0 = z0.min(d);
        z1 = z1.max(d);
    }
    z0 = z0.max(camera.near);
    let s_total = depth_samples.max(2);
    let dz = (z1 - z0).max(1e-6) / s_total as f32;

    // --- SS: transform all cells to screen space (serial). ---
    let t_ss = std::time::Instant::now();
    struct ScreenCell {
        v: [Vec3; 4],
        inv: [[f32; 3]; 3],
        s: [f32; 4],
    }
    let mut cells: Vec<Option<ScreenCell>> = Vec::with_capacity(n);
    for t in 0..n {
        let pts = tets.tet_points(t);
        let ix = tets.tets[t];
        let mut sv = [Vec3::ZERO; 4];
        let mut ok = true;
        for (i, p) in pts.iter().enumerate() {
            let d = (*p - camera.position).dot(fwd);
            if d < camera.near * 0.5 {
                ok = false;
                break;
            }
            let s = st.to_screen(*p);
            if !s.is_finite() {
                ok = false;
                break;
            }
            sv[i] = Vec3::new(s.x, s.y, d);
        }
        if !ok {
            cells.push(None);
            continue;
        }
        let d = sv[3];
        let m0 = sv[0] - d;
        let m1 = sv[1] - d;
        let m2 = sv[2] - d;
        let det = m0.x * (m1.y * m2.z - m2.y * m1.z) - m1.x * (m0.y * m2.z - m2.y * m0.z)
            + m2.x * (m0.y * m1.z - m1.y * m0.z);
        if det.abs() < 1e-12 {
            cells.push(None);
            continue;
        }
        let id = 1.0 / det;
        cells.push(Some(ScreenCell {
            v: sv,
            inv: [
                [
                    (m1.y * m2.z - m2.y * m1.z) * id,
                    (m2.x * m1.z - m1.x * m2.z) * id,
                    (m1.x * m2.y - m2.x * m1.y) * id,
                ],
                [
                    (m2.y * m0.z - m0.y * m2.z) * id,
                    (m0.x * m2.z - m2.x * m0.z) * id,
                    (m2.x * m0.y - m0.x * m2.y) * id,
                ],
                [
                    (m0.y * m1.z - m1.y * m0.z) * id,
                    (m1.x * m0.z - m0.x * m1.z) * id,
                    (m0.x * m1.y - m1.x * m0.y) * id,
                ],
            ],
            s: [
                field[ix[0] as usize],
                field[ix[1] as usize],
                field[ix[2] as usize],
                field[ix[3] as usize],
            ],
        }));
    }
    let screen_space_seconds = t_ss.elapsed().as_secs_f64();

    // --- S: slice cells by pixel columns into the sample buffer (serial). ---
    let t_s = std::time::Instant::now();
    const EMPTY: u32 = 0xFFFF_FFFF;
    let n_px = (width * height) as usize;
    let mut samples: Vec<u32> = vec![EMPTY; n_px * s_total as usize];
    for cell in cells.iter().flatten() {
        let sv = &cell.v;
        let x0 = sv.iter().map(|v| v.x).fold(f32::INFINITY, f32::min).floor().max(0.0) as u32;
        let x1 = (sv.iter().map(|v| v.x).fold(f32::NEG_INFINITY, f32::max).ceil() as i64)
            .min(width as i64 - 1)
            .max(0) as u32;
        let y0 = sv.iter().map(|v| v.y).fold(f32::INFINITY, f32::min).floor().max(0.0) as u32;
        let y1 = (sv.iter().map(|v| v.y).fold(f32::NEG_INFINITY, f32::max).ceil() as i64)
            .min(height as i64 - 1)
            .max(0) as u32;
        if x0 > x1 || y0 > y1 {
            continue;
        }
        let bz0 = sv.iter().map(|v| v.z).fold(f32::INFINITY, f32::min);
        let bz1 = sv.iter().map(|v| v.z).fold(f32::NEG_INFINITY, f32::max);
        let s_lo = (((bz0 - z0) / dz).floor().max(0.0)) as u32;
        let s_hi = ((((bz1 - z0) / dz).ceil()) as i64).min(s_total as i64 - 1).max(0) as u32;
        for py in y0..=y1 {
            for px in x0..=x1 {
                let pix = (py * width + px) as usize;
                // The column's sample run in depth; the inside test below
                // still decides each sample of it.
                let centre = (px as f32 + 0.5, py as f32 + 0.5);
                let run = column_run(&cell.inv, sv[3], centre, z0, dz, (s_lo, s_hi));
                let Some((lo, hi)) = run else { continue };
                for sl in lo..=hi {
                    let z = z0 + (sl as f32 + 0.5) * dz;
                    let r = Vec3::new(px as f32 + 0.5, py as f32 + 0.5, z) - sv[3];
                    let l0 = cell.inv[0][0] * r.x + cell.inv[0][1] * r.y + cell.inv[0][2] * r.z;
                    let l1 = cell.inv[1][0] * r.x + cell.inv[1][1] * r.y + cell.inv[1][2] * r.z;
                    let l2 = cell.inv[2][0] * r.x + cell.inv[2][1] * r.y + cell.inv[2][2] * r.z;
                    let l3 = 1.0 - l0 - l1 - l2;
                    if l0 >= -1e-5 && l1 >= -1e-5 && l2 >= -1e-5 && l3 >= -1e-5 {
                        let v = cell.s[0] * l0 + cell.s[1] * l1 + cell.s[2] * l2 + cell.s[3] * l3;
                        samples[pix * s_total as usize + sl as usize] = v.to_bits();
                    }
                }
            }
        }
    }
    let sampling_seconds = t_s.elapsed().as_secs_f64();

    // --- C: per-pixel front-to-back compositing with early termination. ---
    let t_c = std::time::Instant::now();
    let mut frame = Framebuffer::new(width, height);
    let mut active = 0usize;
    for pix in 0..n_px {
        let mut acc = Color::TRANSPARENT;
        for sl in 0..s_total as usize {
            let bits = samples[pix * s_total as usize + sl];
            if bits == EMPTY {
                continue;
            }
            let col = tf.sample(f32::from_bits(bits));
            if col.a > 0.0 {
                acc = over(acc, col.premultiplied());
                if acc.a > 0.98 {
                    break;
                }
            }
        }
        if acc.a > 0.0 {
            frame.color[pix] = acc.unpremultiplied();
            frame.depth[pix] = 0.0;
            active += 1;
        }
    }
    let compositing_seconds = t_c.elapsed().as_secs_f64();

    VisitOutput {
        frame,
        stats: VisitStats {
            screen_space_seconds,
            sampling_seconds,
            compositing_seconds,
            total_seconds: t_total.elapsed().as_secs_f64(),
            objects: n,
            active_pixels: active,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Device;
    use mesh::datasets::{FieldKind, TetDatasetSpec};
    use render::volume_unstructured::{render_unstructured, UvrConfig};

    fn tets(n: usize) -> TetMesh {
        TetDatasetSpec { name: "t", cells: [n, n, n], kind: FieldKind::ShockShell }.build(1.0)
    }

    fn tfn(t: &TetMesh) -> TransferFunction {
        TransferFunction::sparse_features(t.field("scalar").unwrap().range().unwrap())
    }

    #[test]
    fn phases_are_timed() {
        let t = tets(7);
        let cam = Camera::close_view(&t.bounds());
        let out = render_visit(&t, "scalar", &cam, 40, 40, 48, &tfn(&t));
        assert!(out.stats.screen_space_seconds >= 0.0);
        assert!(out.stats.sampling_seconds > 0.0);
        assert!(out.stats.total_seconds >= out.stats.sampling_seconds);
        assert!(out.stats.active_pixels > 200);
    }

    #[test]
    fn image_matches_dpp_vr_closely() {
        // Both are sampling-based with identical sample grids, so images
        // should agree nearly exactly (no early termination differences with
        // term > 1 in DPP and 0.98 in both... keep same threshold).
        let t = tets(6);
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let a = render_visit(&t, "scalar", &cam, 32, 32, 50, &tf);
        let b = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            32,
            32,
            &tf,
            &UvrConfig { depth_samples: 50, num_passes: 1, ..Default::default() },
        )
        .unwrap();
        let diff = a.frame.mean_abs_diff(&b.frame);
        assert!(diff < 0.02, "mean diff {diff}");
    }

    #[test]
    fn more_samples_cost_more_sampling_work() {
        let t = tets(6);
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let a = render_visit(&t, "scalar", &cam, 32, 32, 16, &tf);
        let b = render_visit(&t, "scalar", &cam, 32, 32, 256, &tf);
        // 16x the samples: sampling time must grow (allow slack for noise).
        assert!(b.stats.sampling_seconds > a.stats.sampling_seconds);
    }
}
