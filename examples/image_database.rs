//! The Cinema-style image-database workload that motivates the feasibility
//! question (Section 1.1): extract *many* renderings of the same geometry
//! under varying camera parameters, amortizing the acceleration-structure
//! build across all of them.
//!
//! `Strawman` does the same amortisation on its own for repeated `SaveImage`s
//! of one `publish`: the surface of a plotted variable is extracted once and
//! its BVH built once, whatever the number of views (DESIGN §11). This example
//! drives the renderer directly because its geometry is an isosurface, which
//! Strawman's actions do not produce.

use dpp::Device;
use mesh::datasets::{field_grid, FieldKind};
use mesh::isosurface::isosurface;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use vecmath::{Camera, Vec3};

fn main() {
    let grid = field_grid(FieldKind::ShockShell, [48, 48, 48]);
    let surface = isosurface(&grid, "scalar", 0.5, Some("elevation"));
    println!("database geometry: {} triangles", surface.num_tris());

    let tracer = RayTracer::new(Device::parallel(), TriGeometry::from_mesh(&surface));
    println!("BVH build: {:.3} s (amortized across the database)", tracer.bvh_build_seconds);

    // Camera sweep: phi x theta grid around the data (a small Cinema DB).
    let out_dir = std::path::PathBuf::from("image_db");
    std::fs::create_dir_all(&out_dir).expect("mkdir image_db");
    let bounds = tracer.geom.bounds;
    let cfg = RtConfig::workload2();
    let (n_phi, n_theta, side) = (8u32, 3u32, 256u32);

    let (total_rays, elapsed) = dpp::timed(|| {
        let mut total_rays = 0u64;
        for ti in 0..n_theta {
            let theta = 0.3 + 0.9 * ti as f32 / n_theta as f32;
            for pi in 0..n_phi {
                let phi = 2.0 * std::f32::consts::PI * pi as f32 / n_phi as f32;
                let dir = Vec3::new(theta.sin() * phi.cos(), theta.cos(), theta.sin() * phi.sin());
                let cam = Camera::framing(&bounds, dir, 0.9);
                let out = tracer.render(&cam, side, side, &cfg);
                total_rays += out.stats.rays_traced;
                let mut frame = out.frame;
                frame.set_background(vecmath::Color::WHITE);
                let path = out_dir.join(format!("view_t{ti}_p{pi}.png"));
                strawman::api::write_image(&frame, &path, "png").expect("write");
            }
        }
        total_rays
    });
    let n_images = (n_phi * n_theta) as f64;
    println!(
        "rendered {} images ({side}x{side}) in {:.2} s  ->  {:.1} images/s, {:.1} Mrays/s",
        n_images,
        elapsed,
        n_images / elapsed,
        total_rays as f64 / elapsed / 1e6
    );
    println!(
        "at this rate a 60 s in situ budget buys ~{:.0} images per cycle",
        60.0 / (elapsed / n_images)
    );
    println!("images under image_db/");
}
