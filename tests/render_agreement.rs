//! Integration: the independent renderer implementations agree with each
//! other on what they draw — the cross-checks that make the performance
//! comparisons meaningful.

use baselines::tuned::{Profile, TunedTracer};
use dpp::Device;
use mesh::datasets::{field_grid, tet_dataset_pool, FieldKind};
use mesh::isosurface::isosurface;
use render::raster::rasterize;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::volume_structured::{render_structured, SvrConfig};
use render::volume_unstructured::{render_unstructured, UvrConfig};
use vecmath::{Camera, TransferFunction};

fn surface() -> TriGeometry {
    let g = field_grid(FieldKind::ShockShell, [20, 20, 20]);
    TriGeometry::from_mesh(&isosurface(&g, "scalar", 0.5, Some("elevation")))
}

#[test]
fn raytracer_and_rasterizer_draw_the_same_surface() {
    let geom = surface();
    let cam = Camera::close_view(&geom.bounds);
    let tf = TransferFunction::rainbow(geom.scalar_range);
    let ras = rasterize(&Device::Serial, &geom, &cam, 96, 96, &tf, None);
    let rt = RayTracer::new(Device::Serial, geom);
    let rtr = rt.render_with_map(&cam, 96, 96, &RtConfig::workload2(), &tf);
    // Coverage overlap.
    let mut both = 0;
    let mut either = 0;
    let mut color_diff = 0.0f32;
    for i in 0..ras.frame.num_pixels() {
        let a = ras.frame.color[i].a > 0.0;
        let b = rtr.frame.color[i].a > 0.0;
        if a || b {
            either += 1;
            if a && b {
                both += 1;
                let ca = ras.frame.color[i];
                let cb = rtr.frame.color[i];
                color_diff += (ca.r - cb.r).abs() + (ca.g - cb.g).abs() + (ca.b - cb.b).abs();
            }
        }
    }
    assert!(either > 1000);
    assert!(both as f64 > either as f64 * 0.95, "coverage {both}/{either}");
    // Where both hit, shading agrees closely (same normal, scalar, light).
    let avg_diff = color_diff / both as f32 / 3.0;
    assert!(avg_diff < 0.05, "avg per-channel diff {avg_diff}");
}

#[test]
fn tuned_tracers_see_the_same_picture_as_dpp() {
    let geom = surface();
    let cam = Camera::close_view(&geom.bounds);
    let rt = RayTracer::new(Device::Serial, geom.clone());
    let dpp_out = rt.render(&cam, 72, 72, &RtConfig::workload1());
    for profile in [Profile::Embree, Profile::Optix] {
        let tuned = TunedTracer::from_geometry(geom.clone(), profile);
        let (hits, _) = tuned.intersect_image(&cam, 72, 72);
        assert_eq!(hits as f64, dpp_out.stats.active_pixels, "{profile:?}");
    }
}

#[test]
fn structured_and_unstructured_vr_agree_on_decomposed_grid() {
    // The same field rendered as a structured grid and as its tet
    // decomposition should produce similar images (different interpolation
    // bases, same data).
    let grid = field_grid(FieldKind::ShockShell, [14, 14, 14]);
    let tets = mesh::HexMesh::from_uniform_grid(&grid).to_tets();
    let range = grid.field("scalar").unwrap().range().unwrap();
    let tf = TransferFunction::sparse_features(range);
    let cam = Camera::close_view(&grid.bounds());
    let s = render_structured(
        &Device::Serial,
        &grid,
        "scalar",
        &cam,
        56,
        56,
        &tf,
        &SvrConfig { samples_per_ray: 128, ..Default::default() },
    )
    .unwrap();
    let u = render_unstructured(
        &Device::Serial,
        &tets,
        "scalar",
        &cam,
        56,
        56,
        &tf,
        &UvrConfig { depth_samples: 128, ..Default::default() },
    )
    .unwrap();
    let mut both = 0;
    let mut either = 0;
    for i in 0..s.frame.num_pixels() {
        let a = s.frame.color[i].a > 0.02;
        let b = u.frame.color[i].a > 0.02;
        if a || b {
            either += 1;
            if a && b {
                both += 1;
            }
        }
    }
    assert!(either > 400);
    assert!(both as f64 > either as f64 * 0.85, "VR coverage {both}/{either}");
}

#[test]
fn all_volume_renderers_light_up_the_same_region() {
    let spec = &tet_dataset_pool()[0];
    let tets = spec.build(0.12);
    let range = tets.field("scalar").unwrap().range().unwrap();
    let tf = TransferFunction::sparse_features(range);
    let cam = Camera::close_view(&tets.bounds());
    let dpp = render_unstructured(
        &Device::Serial,
        &tets,
        "scalar",
        &cam,
        48,
        48,
        &tf,
        &UvrConfig { depth_samples: 96, ..Default::default() },
    )
    .unwrap();
    let conn = baselines::bunyk::Connectivity::build(&tets);
    let bunyk = baselines::bunyk::render_bunyk(&tets, &conn, "scalar", &cam, 48, 48, &tf, 0.01);
    let havs = baselines::havs::render_havs(&Device::Serial, &tets, "scalar", &cam, 48, 48, &tf);
    let visit = baselines::visit_like::render_visit(&tets, "scalar", &cam, 48, 48, 96, &tf);
    let coverage =
        |f: &render::Framebuffer| -> usize { f.color.iter().filter(|c| c.a > 0.02).count() };
    let base = coverage(&dpp.frame);
    assert!(base > 200);
    for (name, c) in [
        ("bunyk", coverage(&bunyk.frame)),
        ("havs", coverage(&havs.frame)),
        ("visit", coverage(&visit.frame)),
    ] {
        let ratio = c as f64 / base as f64;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "{name} coverage {c} vs dpp {base} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn serial_and_parallel_devices_render_identically_across_renderers() {
    let geom = surface();
    let cam = Camera::close_view(&geom.bounds);
    let tf = TransferFunction::rainbow(geom.scalar_range);
    // Rasterizer.
    let a = rasterize(&Device::Serial, &geom, &cam, 64, 64, &tf, None);
    let b = rasterize(&Device::parallel(), &geom, &cam, 64, 64, &tf, None);
    assert!(a.frame.mean_abs_diff(&b.frame) < 1e-5);
    // Ray tracer (workload3, all stages).
    let rt_s = RayTracer::new(Device::Serial, geom.clone());
    let rt_p = RayTracer::new(Device::parallel(), geom);
    let cfg = RtConfig::workload3();
    let fa = rt_s.render(&cam, 48, 48, &cfg);
    let fb = rt_p.render(&cam, 48, 48, &cfg);
    assert!(fa.frame.mean_abs_diff(&fb.frame) < 1e-5);
}
