//! VisIt-style sampling volume renderer (the Table 9 comparator).
//!
//! VisIt extracts samples by "rasterizing" geometry: each cell is
//! transformed to screen space (SS), sliced by pixel columns to extract
//! sample runs in depth (S), and the samples are composited per pixel with
//! early ray termination (C). It runs serially (the paper compared against
//! one core for exactly this reason) and amortizes per-cell setup across a
//! cell's samples — beneficial for large cells, overhead-bound for small
//! ones, which is the crossover Table 9 exhibits.
//!
//! The per-cell math is DPP-VR's own: [`ScreenTet`] projects each cell and
//! tests its samples, [`Footprint`] clips it and walks each row's span of its
//! silhouette, [`column_run`] narrows each column. What differs is the loop
//! shape — one serial cell-major pass over one full-depth buffer with a
//! branch per sample, then a serial per-pixel fold over every slot, where
//! DPP-VR's band tasks store through a select and hand compositing compacted
//! samples — so the frame equals a one-pass DPP-VR frame bit for bit and
//! Table 9 compares loops alone.

use mesh::{Assoc, TetMesh};
use render::volume_unstructured::{column_run, Footprint, ScreenTet};
use render::{Framebuffer, PhaseTimer};
use vecmath::{over, Camera, Color, TransferFunction};

pub struct VisitOutput {
    pub frame: Framebuffer,
    /// `initialization` (the depth-range pre-pass), `screen_space`,
    /// `sampling` and `compositing`: DPP-VR's phase names, Table 9's columns.
    pub phases: PhaseTimer,
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
    let n = tets.num_tets();
    let n_px = (width * height) as usize;
    let fwd = (camera.look_at - camera.position).normalized();
    let s_total = depth_samples.max(2);
    let slab = s_total as usize;
    let mut phases = PhaseTimer::new();

    // Depth range of the whole data set.
    let (z0, dz) = phases.run("initialization", tets.points.len() as u64, || {
        let mut z0 = f32::INFINITY;
        let mut z1 = f32::NEG_INFINITY;
        for p in &tets.points {
            let d = (*p - camera.position).dot(fwd);
            z0 = z0.min(d);
            z1 = z1.max(d);
        }
        let z0 = z0.max(camera.near);
        (z0, (z1 - z0).max(1e-6) / s_total as f32)
    });

    // --- SS: transform all cells to screen space (serial). ---
    let cells: Vec<Option<ScreenTet>> = phases.run("screen_space", n as u64, || {
        let st = camera.screen_transform(width, height);
        (0..n).map(|t| ScreenTet::project(tets, field, t, camera, fwd, &st)).collect()
    });

    // --- S: slice cells by pixel columns into the sample buffer (serial). ---
    const EMPTY: u32 = 0xFFFF_FFFF;
    let samples = phases.run("sampling", n as u64, || {
        let mut samples: Vec<u32> = vec![EMPTY; n_px * slab];
        for cell in cells.iter().flatten() {
            let Some(f) = Footprint::of(cell, width, height, z0, dz, (0, s_total)) else {
                continue;
            };
            for py in f.y.0..=f.y.1 {
                // Only the columns of the row's span of the silhouette.
                for px in f.row(cell, py) {
                    let pix = (py * width + px) as usize;
                    // The column's sample run in depth; the inside test below
                    // still decides each sample of it.
                    let centre = (px as f32 + 0.5, py as f32 + 0.5);
                    let run = column_run(&cell.inv, cell.d, centre, z0, dz, f.s);
                    let Some((lo, hi)) = run else { continue };
                    let c = cell.column(centre);
                    for sl in lo..=hi {
                        if let Some(v) = cell.value_at(&c, z0 + (sl as f32 + 0.5) * dz) {
                            samples[pix * slab + sl as usize] = v.to_bits();
                        }
                    }
                }
            }
        }
        samples
    });

    // --- C: per-pixel front-to-back compositing with early termination. ---
    let frame = phases.run("compositing", n_px as u64, || {
        let mut frame = Framebuffer::new(width, height);
        for (pix, slots) in samples.chunks_exact(slab).enumerate() {
            let mut acc = Color::TRANSPARENT;
            for &bits in slots {
                if bits == EMPTY {
                    continue;
                }
                let col = tf.sample(f32::from_bits(bits));
                if col.a > 0.0 {
                    acc = over(acc, col.premultiplied());
                    // DPP-VR's default termination test, `>=` included.
                    if acc.a >= 0.98 {
                        break;
                    }
                }
            }
            if acc.a > 0.0 {
                frame.color[pix] = acc.unpremultiplied();
                frame.depth[pix] = 0.0;
            }
        }
        frame
    });

    VisitOutput { frame, phases }
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
        let names: Vec<&str> = out.phases.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["initialization", "screen_space", "sampling", "compositing"]);
        assert!(out.phases.seconds_of("sampling") > 0.0);
        assert_eq!(out.phases.work_of("screen_space"), t.num_tets() as u64);
        assert!(out.frame.active_pixels() > 200);
    }

    #[test]
    fn image_matches_dpp_vr_closely() {
        // Both project, clip and test every sample through the same
        // `ScreenTet`, `Footprint` (row spans included) and `column_run` on
        // the same sample grid, and both keep the highest tet index's sample
        // where two tets claim one; at one pass nothing terminates DPP-VR's sampling early, so the
        // two front-to-back folds see the same samples: the frames are equal.
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
        assert!(b.stats.active_pixels > 200.0, "{}", b.stats.active_pixels);
        let bits = |f: &Framebuffer| -> Vec<u32> {
            let rgba = f.color.iter().flat_map(|c| [c.r, c.g, c.b, c.a]);
            rgba.chain(f.depth.iter().copied()).map(f32::to_bits).collect()
        };
        assert_eq!(bits(&a.frame), bits(&b.frame));
    }

    #[test]
    fn more_samples_cost_more_sampling_work() {
        let t = tets(6);
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let a = render_visit(&t, "scalar", &cam, 32, 32, 16, &tf);
        let b = render_visit(&t, "scalar", &cam, 32, 32, 256, &tf);
        // 16x the samples: sampling time must grow (allow slack for noise).
        assert!(b.phases.seconds_of("sampling") > a.phases.seconds_of("sampling"));
    }
}
