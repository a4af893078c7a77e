//! Distributed-data rendering over object-space partitions.
//!
//! Each simulated rank renders only the triangles its [`Partition`] bin owns
//! — against the *global* camera and the *global* scalar range, so shading
//! is identical to the single-rank render — and contributes one
//! [`RankImage`] fragment set. The partitions produced by recursive
//! bisection are non-convex in general, which rules out the classic
//! depth-sorted alpha composite; opaque surfaces need no ordering at all:
//! z-buffer merging is associative and commutative (nearest fragment wins),
//! so the existing deterministic exchanges ([`compositing::radix_k_opts`],
//! [`compositing::dfb_compose_opts`], or the serial
//! [`compositing::reference`] suffix fold) all reduce the per-rank images to
//! the same pixels the single-rank ray tracer produces — byte-identical,
//! which the partition tests pin.
//!
//! Per-rank render seconds come from the ray tracer's own instrumentation
//! (this module never reads the wall clock) and are exactly the `T_LR`
//! inputs of the paper's `T_total = max(T_LR) + T_COMP`: feed them to
//! `sched::rebalance`'s controller to close the load-balance loop.

use crate::api::to_rank_image;
use compositing::RankImage;
use dpp::Device;
use mesh::partition::{partitioned_tris, Partition};
use mesh::TriMesh;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::RenderStats;
use vecmath::{Camera, TransferFunction};

/// One rank's contribution to a distributed frame.
#[derive(Debug, Clone)]
pub struct RankFrame {
    /// Full-resolution fragment set (premultiplied colors + nearest depth).
    pub image: RankImage,
    /// The rank's ray-tracer stats: `objects` are the triangles it owned,
    /// `render_seconds` the `T_LR` model input.
    pub stats: RenderStats,
}

/// Render each per-rank triangle set into a [`RankFrame`]. A rank with no
/// triangles (partitions may leave tail ranks empty when cells are scarce)
/// contributes a fully transparent image at zero cost — never a panic.
///
/// The transfer function must be built from the *global* scalar range;
/// deriving it per rank would shade the same scalar differently on
/// different ranks and break the single-rank identity.
pub fn render_rank_frames(
    device: &Device,
    parts: &[TriMesh],
    camera: &Camera,
    width: u32,
    height: u32,
    cfg: &RtConfig,
    tf: &TransferFunction,
) -> Vec<RankFrame> {
    parts
        .iter()
        .map(|part| {
            if part.num_tris() == 0 {
                return RankFrame {
                    image: RankImage::empty(width, height),
                    stats: RenderStats::default(),
                };
            }
            let geom = TriGeometry::from_mesh(part);
            let rt = RayTracer::new(device.clone(), geom);
            let out = rt.render_with_map(camera, width, height, cfg, tf);
            RankFrame { image: to_rank_image(&out.frame), stats: out.stats }
        })
        .collect()
}

/// Partition `mesh` with `part` and render every rank's share against the
/// mesh's global scalar range. Convenience over
/// [`partitioned_tris`] + [`render_rank_frames`].
pub fn render_partitioned(
    device: &Device,
    mesh: &TriMesh,
    part: &Partition,
    camera: &Camera,
    width: u32,
    height: u32,
    cfg: &RtConfig,
) -> Vec<RankFrame> {
    let tf = TransferFunction::rainbow(mesh.scalar_range());
    let parts = partitioned_tris(mesh, part);
    render_rank_frames(device, &parts, camera, width, height, cfg, &tf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compositing::{reference, CompositeMode, ExchangeOptions};
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;
    use mpirt::NetModel;

    fn fixture() -> TriMesh {
        let grid = field_grid(FieldKind::Tangle, [14, 14, 14]);
        isosurface(&grid, "scalar", 0.0, Some("elevation"))
    }

    fn assert_bits_equal(a: &RankImage, b: &RankImage, what: &str) {
        assert_eq!(a.color.len(), b.color.len());
        for i in 0..a.color.len() {
            let (ca, cb) = (a.color[i], b.color[i]);
            assert_eq!(
                [ca.r.to_bits(), ca.g.to_bits(), ca.b.to_bits(), ca.a.to_bits()],
                [cb.r.to_bits(), cb.g.to_bits(), cb.b.to_bits(), cb.a.to_bits()],
                "{what}: color pixel {i}"
            );
            assert_eq!(a.depth[i].to_bits(), b.depth[i].to_bits(), "{what}: depth pixel {i}");
        }
    }

    #[test]
    fn partitioned_render_matches_single_rank_bytes() {
        let mesh = fixture();
        let device = Device::Serial;
        let camera = Camera::close_view(&mesh.bounds());
        let cfg = RtConfig::workload2();
        let (w, h) = (40, 40);

        // Single-rank reference.
        let tf = TransferFunction::rainbow(mesh.scalar_range());
        let rt = RayTracer::new(device.clone(), TriGeometry::from_mesh(&mesh));
        let out = rt.render_with_map(&camera, w, h, &cfg, &tf);
        let single = to_rank_image(&out.frame);
        assert!(single.active_pixels() > 50, "fixture must be visible");
        let centroids = mesh::partition::tri_centroids(&mesh);

        // One rank owns every triangle: its stats are the tracer's.
        let one = render_partitioned(
            &device,
            &mesh,
            &Partition::bisect(&centroids, 1),
            &camera,
            w,
            h,
            &cfg,
        );
        let inputs = |s: &RenderStats| (s.objects, s.active_pixels, s.rays_traced);
        assert_eq!(inputs(&one[0].stats), inputs(&out.stats), "one rank's stats");

        for ranks in [2usize, 3, 5] {
            let part = Partition::bisect(&centroids, ranks);
            let frames = render_partitioned(&device, &mesh, &part, &camera, w, h, &cfg);
            assert_eq!(frames.len(), ranks);
            let images: Vec<RankImage> = frames.iter().map(|f| f.image.clone()).collect();

            let folded = reference(&images, CompositeMode::ZBuffer);
            assert_bits_equal(&folded, &single, &format!("reference fold, {ranks} ranks"));

            let factors = compositing::algorithms::default_factors(ranks);
            let (rk, _) = compositing::radix_k_opts(
                &images,
                CompositeMode::ZBuffer,
                NetModel::cluster(),
                &factors,
                ExchangeOptions::default(),
            );
            assert_bits_equal(&rk, &single, &format!("radix-k, {ranks} ranks"));

            let (dfb, stats) = compositing::dfb_compose_opts(
                &images,
                CompositeMode::ZBuffer,
                NetModel::cluster(),
                ExchangeOptions::default(),
            );
            assert_bits_equal(&dfb, &single, &format!("dfb, {ranks} ranks"));
            assert!(stats.total_bytes > 0);
        }
    }

    #[test]
    fn empty_ranks_render_transparent_without_panicking() {
        // 3 triangles over 8 ranks: five ranks own nothing.
        let mesh = TriMesh {
            points: vec![
                vecmath::Vec3::ZERO,
                vecmath::Vec3::X,
                vecmath::Vec3::Y,
                vecmath::Vec3::new(2.0, 0.0, 0.0),
                vecmath::Vec3::new(3.0, 0.0, 0.0),
                vecmath::Vec3::new(2.0, 1.0, 0.0),
                vecmath::Vec3::new(4.0, 0.0, 0.0),
                vecmath::Vec3::new(5.0, 0.0, 0.0),
                vecmath::Vec3::new(4.0, 1.0, 0.0),
            ],
            tris: vec![[0, 1, 2], [3, 4, 5], [6, 7, 8]],
            scalars: vec![0.0; 9],
        };
        let part = Partition::bisect(&mesh::partition::tri_centroids(&mesh), 8);
        let camera = Camera::close_view(&mesh.bounds());
        let frames = render_partitioned(
            &Device::Serial,
            &mesh,
            &part,
            &camera,
            24,
            24,
            &RtConfig::workload2(),
        );
        assert_eq!(frames.len(), 8);
        let empty = frames.iter().filter(|f| f.stats.objects == 0.0).count();
        assert_eq!(empty, 5);
        for f in frames.iter().filter(|f| f.stats.objects == 0.0) {
            assert_eq!(f.stats, RenderStats::default());
            assert_eq!(f.image.active_pixels(), 0);
        }
        assert!(frames.iter().any(|f| f.stats.active_pixels > 0.0), "visible ranks must draw");
    }
}
