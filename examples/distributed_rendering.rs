//! Sort-last distributed rendering over the simulated interconnect: four
//! ranks each own a spatial sub-domain, render it locally with the DPP ray
//! tracer, and the images are composited — once by the serial reference
//! (ordered merge of every rank image) and once with the barriered radix-k
//! algorithm, which also reports bytes moved and simulated seconds —
//! producing identical pictures.

use compositing::{compose, reference, CompositeMode, CompositeWire, RankImage};
use dpp::Device;
use mesh::datasets::{field_grid, FieldKind};
use mesh::isosurface::isosurface;
use mpirt::NetModel;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use strawman::api::{from_rank_image, to_rank_image};
use vecmath::{Aabb, Camera, Vec3};

const RANKS: usize = 4;
const SIDE: u32 = 320;

/// Each rank renders the isosurface restricted to its z-slab of the domain.
fn render_rank(rank: usize, camera: &Camera) -> RankImage {
    let cells = 40usize;
    let grid = field_grid(FieldKind::Tangle, [cells, cells, cells]);
    let full = isosurface(&grid, "scalar", 0.0, Some("elevation"));
    // Domain decomposition: keep triangles whose centroid falls in this
    // rank's z-slab.
    let b = grid.bounds();
    let z0 = b.min.z + b.extent().z * rank as f32 / RANKS as f32;
    let z1 = b.min.z + b.extent().z * (rank + 1) as f32 / RANKS as f32;
    let mut local = mesh::TriMesh::default();
    for t in 0..full.num_tris() {
        let pts = full.tri_points(t);
        let c = (pts[0] + pts[1] + pts[2]) / 3.0;
        if c.z >= z0 && c.z < z1 {
            let base = local.points.len() as u32;
            for (i, p) in pts.iter().enumerate() {
                local.points.push(*p);
                local.scalars.push(full.scalars[full.tris[t][i] as usize]);
            }
            local.tris.push([base, base + 1, base + 2]);
        }
    }
    // Consistent color tables across ranks need a *global* scalar range —
    // the data-extent reduction the paper added to EAVL for sort-last use.
    let tf = vecmath::TransferFunction::rainbow(full.scalar_range());
    let tracer = RayTracer::new(Device::parallel_with_threads(2), TriGeometry::from_mesh(&local));
    let out = tracer.render_with_map(camera, SIDE, SIDE, &RtConfig::workload2(), &tf);
    to_rank_image(&out.frame)
}

fn main() {
    let bounds = Aabb::from_corners(Vec3::splat(-3.2), Vec3::splat(3.2));
    let camera = Camera::close_view(&bounds);

    let images: Vec<RankImage> = (0..RANKS).map(|r| render_rank(r, &camera)).collect();

    // --- Path 1: the serial reference, every rank image merged in order. ---
    let via_reference = reference(&images, CompositeMode::ZBuffer);

    // --- Path 2: barriered radix-k over the same rank images, shipping
    // run-length-compressed spans. ---
    let (via_radix, stats) =
        compose(&images, CompositeMode::ZBuffer, NetModel::cluster(), CompositeWire::Compressed);
    println!(
        "radix-k: {} rounds, {} bytes moved, {:.4} s simulated",
        stats.rounds, stats.total_bytes, stats.simulated_seconds
    );

    let diff = via_reference.max_color_diff(&via_radix);
    println!("max per-channel difference between the two paths: {diff:.2e}");
    assert!(diff < 1e-5, "compositing paths disagree");

    let mut frame = from_rank_image(&via_radix);
    frame.set_background(vecmath::Color::WHITE);
    strawman::api::write_image(&frame, std::path::Path::new("distributed.png"), "png")
        .expect("write png");
    println!("wrote distributed.png ({} active pixels)", frame.active_pixels());
}
