//! Regenerate the paper's *image* figures — the renderings the dissertation
//! prints rather than plots:
//!
//! * Figure 2 — ray tracings of the Richtmyer-Meshkov isosurface, basic
//!   intersection (WORKLOAD1) and shaded (WORKLOAD2).
//! * Figure 3 — volume renderings of the study data sets, zoomed in and out.
//! * Figure 9 — images produced by Strawman from the three proxy codes.
//! * Figure 10 — one image per simulation code with the renderer the SC16
//!   study paired it with.
//!
//! Each PNG lands in `repro_out/images/`.

use crate::Scale;
use dpp::Device;
use mesh::datasets::{surface_dataset_pool, tet_dataset_pool};
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::volume_unstructured::{render_unstructured, UvrConfig};
use render::Framebuffer;
use sims::ProxySim;
use vecmath::{Camera, Color, TransferFunction};

fn save(frame: &mut Framebuffer, name: &str) {
    let dir = crate::out_dir().join("images");
    frame.set_background(Color::WHITE);
    let path = dir.join(format!("{name}.png"));
    // As `write_artifact`: a picture that was not written fails the stage.
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| strawman::api::write_image(frame, &path, "png"));
    if let Err(e) = written {
        panic!("could not write {}: {e}", path.display());
    }
    println!("[wrote {}]", path.display());
}

/// Figure 2: the RM isosurface, intersection-only (left) and shaded (right).
pub fn figure2(scale: Scale) {
    let spec = &surface_dataset_pool()[0]; // RM 3.2M
    let mesh = spec.build(scale.dataset_scale());
    let geom = TriGeometry::from_mesh_smooth(&mesh);
    let rt = RayTracer::new(Device::parallel(), geom);
    let cam = Camera::close_view(&rt.geom.bounds);
    let side = scale.image_side();
    let mut w1 = rt.render(&cam, side, side, &RtConfig::workload1()).frame;
    save(&mut w1, "fig2_rm_workload1_intersections");
    let mut w2 = rt.render(&cam, side, side, &RtConfig::workload2()).frame;
    save(&mut w2, "fig2_rm_workload2_shaded");
    let mut w3 = rt.render(&cam, side, side, &RtConfig::workload3()).frame;
    save(&mut w3, "fig2_rm_workload3_full");
}

/// Figure 3: volume renderings of the tet pool, zoomed in and out.
pub fn figure3(scale: Scale) {
    for spec in &tet_dataset_pool()[..2] {
        let tets = spec.build(scale.dataset_scale() * 0.7);
        let tf = TransferFunction::sparse_features(tets.field("scalar").unwrap().range().unwrap());
        let side = scale.image_side();
        for (view, cam) in [
            ("close", Camera::close_view(&tets.bounds())),
            ("far", Camera::far_view(&tets.bounds())),
        ] {
            if let Ok(out) = render_unstructured(
                &Device::parallel(),
                &tets,
                "scalar",
                &cam,
                side,
                side,
                &tf,
                &UvrConfig { depth_samples: 256, ..Default::default() },
            ) {
                let mut f = out.frame;
                save(&mut f, &format!("fig3_{}_{}", spec.name.to_lowercase(), view));
            }
        }
    }
}

/// Figures 9/10: one image per proxy code with its paired renderer
/// (CloverLeaf3D volume rendered, Kripke ray traced, LULESH rasterized for
/// fig 9; the fig 10 pairing swaps Kripke/LULESH).
pub fn figures_9_10(scale: Scale) {
    let side = scale.image_side();
    let device = Device::parallel();
    let (nc, nk, nl) = match scale {
        Scale::Quick => (48usize, 32usize, 16usize),
        Scale::Full => (128, 64, 48),
    };

    // CloverLeaf3D: volume rendering of density.
    {
        let mut sim = sims::Cloverleaf::new(nc);
        for _ in 0..6 {
            sim.step();
        }
        let grid = sim.grid().to_uniform();
        let range = grid.field("density_p").unwrap().range().unwrap();
        let tf = TransferFunction::sparse_features(range);
        let cam = Camera::close_view(&grid.bounds());
        let out = render::volume_structured::render_structured(
            &device,
            &grid,
            "density_p",
            &cam,
            side,
            side,
            &tf,
            &render::volume_structured::SvrConfig::default(),
        )
        .expect("images: structured render failed");
        let mut f = out.frame;
        save(&mut f, "fig9_cloverleaf_volume");
    }
    // Kripke: ray-traced isosurface-ish pseudocolor of phi.
    {
        let mut sim = sims::Kripke::new(nk);
        for _ in 0..3 {
            sim.step();
        }
        let grid = sim.grid();
        let tris = mesh::external_faces::external_faces_grid(&grid, "phi_p");
        let geom = TriGeometry::from_mesh(&tris);
        let tf = TransferFunction::rainbow(geom.scalar_range);
        let rt = RayTracer::new(device.clone(), geom);
        let cam = Camera::close_view(&rt.geom.bounds);
        let out = rt.render_with_map(&cam, side, side, &RtConfig::workload2(), &tf);
        let mut f = out.frame;
        save(&mut f, "fig9_kripke_raytraced");
    }
    // LULESH: rasterized pseudocolor of e (fig 9) + volume rendering (fig 10).
    {
        let mut sim = sims::Lulesh::new(nl);
        for _ in 0..8 {
            sim.step();
        }
        let hexes = sim.hex_mesh();
        let tris = mesh::external_faces::external_faces_hex(&hexes, Some("e_p"));
        let geom = TriGeometry::from_mesh(&tris);
        let tf = TransferFunction::rainbow(geom.scalar_range);
        let cam = Camera::close_view(&geom.bounds);
        let out = render::raster::rasterize(&device, &geom, &cam, side, side, &tf, None);
        let mut f = out.frame;
        save(&mut f, "fig9_lulesh_rasterized");

        let tets = hexes.to_tets();
        let range = tets.field("e_p").unwrap().range().unwrap();
        let vtf = TransferFunction::sparse_features(range);
        let vcam = Camera::close_view(&tets.bounds());
        if let Ok(out) = render_unstructured(
            &device,
            &tets,
            "e_p",
            &vcam,
            side,
            side,
            &vtf,
            &UvrConfig { depth_samples: 200, ..Default::default() },
        ) {
            let mut f = out.frame;
            save(&mut f, "fig10_lulesh_volume");
        }
    }
}

/// All image figures.
pub fn all(scale: Scale) {
    figure2(scale);
    figure3(scale);
    figures_9_10(scale);
}
