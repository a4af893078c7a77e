//! Integration: sort-last distributed rendering. Disjoint sub-domain renders
//! composited across simulated ranks must equal the single-rank render of
//! the whole scene, for every compositing algorithm.

use compositing::{
    binary_swap_opts, dfb_compose_opts, direct_send_opts, radix_k_opts, reference, CompositeMode,
    ExchangeOptions, PixelView, RankImage,
};
use dpp::Device;
use mesh::datasets::{field_grid, FieldKind};
use mesh::isosurface::isosurface;
use mpirt::NetModel;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::Framebuffer;
use strawman::api::{frame_view, from_rank_image, to_rank_image};
use strawman::{Options, Strawman};
use vecmath::{Camera, Color};

const SIDE: u32 = 96;

/// Split the scene's triangles into `ranks` z-slabs; render slab `rank`.
fn rank_mesh(rank: usize, ranks: usize) -> mesh::TriMesh {
    let grid = field_grid(FieldKind::Tangle, [24, 24, 24]);
    let full = isosurface(&grid, "scalar", 0.0, Some("elevation"));
    let b = grid.bounds();
    let z0 = b.min.z + b.extent().z * rank as f32 / ranks as f32;
    let z1 = b.min.z + b.extent().z * (rank + 1) as f32 / ranks as f32;
    let mut local = mesh::TriMesh::default();
    for t in 0..full.num_tris() {
        let pts = full.tri_points(t);
        let c = (pts[0] + pts[1] + pts[2]) / 3.0;
        if c.z >= z0 && (c.z < z1 || (rank + 1 == ranks && c.z <= z1 + 1e-5)) {
            let base = local.points.len() as u32;
            for (i, p) in pts.iter().enumerate() {
                local.points.push(*p);
                local.scalars.push(full.scalars[full.tris[t][i] as usize]);
            }
            local.tris.push([base, base + 1, base + 2]);
        }
    }
    local
}

fn whole_scene_camera() -> Camera {
    let grid = field_grid(FieldKind::Tangle, [8, 8, 8]);
    Camera::close_view(&grid.bounds())
}

/// Global scalar range shared by all ranks — without this "data extent
/// reduction" (which the paper added to EAVL for exactly this reason), each
/// rank would normalize its color table locally and the distributed image
/// would not match the single-rank one.
fn global_range() -> (f32, f32) {
    let grid = field_grid(FieldKind::Tangle, [24, 24, 24]);
    let full = isosurface(&grid, "scalar", 0.0, Some("elevation"));
    full.scalar_range()
}

fn render_mesh(m: &mesh::TriMesh, cam: &Camera) -> RankImage {
    let rt = RayTracer::new(Device::Serial, TriGeometry::from_mesh(m));
    let tf = vecmath::TransferFunction::rainbow(global_range());
    to_rank_image(&rt.render_with_map(cam, SIDE, SIDE, &RtConfig::workload2(), &tf).frame)
}

#[test]
fn distributed_render_equals_single_rank_render() {
    let ranks = 4;
    let cam = whole_scene_camera();
    // Single-rank ground truth: render everything at once.
    let mut whole = mesh::TriMesh::default();
    for r in 0..ranks {
        whole.append(&rank_mesh(r, ranks));
    }
    let truth = render_mesh(&whole, &cam);

    // Distributed: render slabs, composite with every algorithm.
    let images: Vec<RankImage> =
        (0..ranks).map(|r| render_mesh(&rank_mesh(r, ranks), &cam)).collect();
    let (mode, net, opts) = (CompositeMode::ZBuffer, NetModel::zero(), ExchangeOptions::default());
    for (name, composited) in [
        ("reference", reference(&images, mode)),
        ("direct_send", direct_send_opts(&images, mode, net, opts).0),
        ("binary_swap", binary_swap_opts(&images, mode, net, opts).0),
        ("radix_k", radix_k_opts(&images, mode, net, &[2, 2], opts).0),
    ] {
        // Depth-composited sub-domains must reproduce the whole-scene image
        // almost exactly (tiny BVH traversal-order epsilon at slab seams).
        let diff_pixels = truth
            .color
            .iter()
            .zip(composited.color.iter())
            .filter(|(a, b)| {
                (a.r - b.r).abs() > 0.02 || (a.g - b.g).abs() > 0.02 || (a.b - b.b).abs() > 0.02
            })
            .count();
        let frac = diff_pixels as f64 / truth.num_pixels() as f64;
        assert!(frac < 0.01, "{name}: {diff_pixels} differing pixels ({frac:.3})");
    }
}

/// Every algorithm, compressed and dense, must be pixel-exact against the
/// serial reference at awkward rank counts — primes and Fibonacci numbers
/// exercise radix-k's mixed factors and binary swap's non-power-of-two fold
/// path (3, 5, 13 all fold before swapping).
#[test]
fn compressed_and_dense_match_reference_at_odd_rank_counts() {
    for ranks in [1usize, 2, 3, 5, 8, 13] {
        let images = perfmodel::study::synth_rank_images(ranks, 48, 100 + ranks as u64);
        let factors = compositing::algorithms::default_factors(ranks);
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let expect = reference(&images, mode);
            for opts in [ExchangeOptions::default(), ExchangeOptions::dense()] {
                let tag = if opts.compress { "compressed" } else { "dense" };
                let (ds, _) = direct_send_opts(&images, mode, NetModel::zero(), opts);
                assert!(ds.max_color_diff(&expect) < 2e-5, "direct_send {tag} p={ranks} {mode:?}");
                let (bs, _) = binary_swap_opts(&images, mode, NetModel::zero(), opts);
                assert!(bs.max_color_diff(&expect) < 2e-5, "binary_swap {tag} p={ranks} {mode:?}");
                let (rk, _) = radix_k_opts(&images, mode, NetModel::zero(), &factors, opts);
                assert!(rk.max_color_diff(&expect) < 2e-5, "radix_k {tag} p={ranks} {mode:?}");
            }
            // Compressed and dense must agree bit-for-bit, not just within
            // the reference tolerance.
            let (c, _) =
                radix_k_opts(&images, mode, NetModel::zero(), &factors, ExchangeOptions::default());
            let (d, _) =
                radix_k_opts(&images, mode, NetModel::zero(), &factors, ExchangeOptions::dense());
            assert_eq!(c.max_color_diff(&d), 0.0, "p={ranks} {mode:?}");
        }
    }
}

/// The acceptance bar for active-pixel compression: at 64 simulated ranks on
/// the study's sparse images, the run-length exchange must move less than
/// half the dense bytes while producing the identical image.
#[test]
fn compression_halves_wire_bytes_at_64_ranks() {
    let images = perfmodel::study::synth_rank_images(64, 128, 7);
    let factors = compositing::algorithms::default_factors(64);
    let mode = CompositeMode::AlphaOrdered;
    let (comp_img, comp) =
        radix_k_opts(&images, mode, NetModel::cluster(), &factors, ExchangeOptions::default());
    let (dense_img, dense) =
        radix_k_opts(&images, mode, NetModel::cluster(), &factors, ExchangeOptions::dense());
    assert!(
        comp.total_bytes * 2 <= dense.total_bytes,
        "expected >= 2x reduction: {} vs {}",
        comp.total_bytes,
        dense.total_bytes
    );
    assert!(comp.compression_ratio() >= 2.0);
    // Pixel-identical, bit for bit.
    assert_eq!(comp_img.max_color_diff(&dense_img), 0.0);
    for i in 0..comp_img.depth.len() {
        assert!(comp_img.depth[i] == dense_img.depth[i], "depth {i}");
    }
}

#[test]
fn compositing_cost_reported_for_simulated_scale() {
    // 256 simulated ranks: the simulated clock handles rank counts no thread
    // pool could, reporting wire-inclusive timing.
    let images = perfmodel::study::synth_rank_images(256, 64, 1);
    let (out, stats) = radix_k_opts(
        &images,
        CompositeMode::AlphaOrdered,
        NetModel::cluster(),
        &compositing::algorithms::default_factors(256),
        ExchangeOptions::default(),
    );
    assert_eq!(out.num_pixels(), 64 * 64);
    assert!(stats.simulated_seconds > 0.0);
    assert!(stats.total_bytes > 0);
    assert_eq!(stats.rounds, 8 + 1); // 2^8 = 256, + gather
                                     // Must equal the serial reference.
    let expect = reference(&images, CompositeMode::AlphaOrdered);
    assert!(out.max_color_diff(&expect) < 2e-5);
}

fn pixel_bits(color: &[Color], depth: &[f32]) -> Vec<[u32; 5]> {
    let bits = |(c, d): (&Color, &f32)| {
        [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits(), d.to_bits()]
    };
    color.iter().zip(depth).map(bits).collect()
}

/// `Strawman::composite` encodes its fragments straight from the borrowed
/// framebuffers and moves the merged image out; the frame it returns is the
/// one the staged path makes — frames to rank images, the serial reference,
/// back to a frame — bit for bit under the z test and within the
/// re-association tolerance under ordered alpha, for both exchanges and
/// rank counts that fold, factor unevenly or do neither.
#[test]
fn strawman_composite_is_the_reference_of_its_frames() {
    for ranks in [1usize, 2, 5, 8, 12] {
        let mut frames: Vec<Framebuffer> =
            perfmodel::study::synth_rank_images(ranks, 40, 200 + ranks as u64)
                .iter()
                .map(from_rank_image)
                .collect();
        // Pixels whose premultiplied form is not their stored form, and a
        // depth under whatever color is there. (No color at infinite depth:
        // the z test keeps one only in the rearmost image, so the serial
        // fold and a tree exchange disagree about it in any wire format.)
        for (r, f) in frames.iter_mut().enumerate() {
            let n = f.num_pixels();
            f.color[r] = Color::new(0.4, -0.2, 0.9, 0.0);
            f.depth[n / 2 + r] = 3.0 + r as f32;
            f.color[n - 1 - r] = Color::new(0.2, -0.0, 0.4, 0.5);
            f.depth[n - 1 - r] = 0.5 + r as f32;
        }
        let images: Vec<RankImage> = frames.iter().map(to_rank_image).collect();
        let views: Vec<PixelView> = frames.iter().map(frame_view).collect();
        let factors = compositing::algorithms::default_factors(ranks);
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let expect = reference(&images, mode);
            let expect_frame = from_rank_image(&expect);
            for dfb in [false, true] {
                let what = format!("p={ranks} {mode:?} dfb={dfb}");
                let mut sm = Strawman::open(Options { dfb_compositing: dfb, ..Options::default() });
                let (frame, stats) = sm.composite(&frames, mode);
                assert_eq!((frame.width, frame.height), (40, 40), "{what}");
                match mode {
                    CompositeMode::ZBuffer => {
                        let (got, want) = (
                            pixel_bits(&frame.color, &frame.depth),
                            pixel_bits(&expect_frame.color, &expect_frame.depth),
                        );
                        let diff = (0..got.len()).find(|&i| got[i] != want[i]);
                        assert_eq!(diff.map(|i| (i, got[i], want[i])), None, "{what}");
                    }
                    CompositeMode::AlphaOrdered => {
                        assert!(to_rank_image(&frame).max_color_diff(&expect) <= 2e-5, "{what}")
                    }
                }
                // The API adds nothing to the exchange entered with views of
                // the frames but the unpremultiply: same bits, same wire.
                let opts = ExchangeOptions::default();
                let (merged, wire) = if dfb {
                    dfb_compose_opts(&views, mode, NetModel::cluster(), opts)
                } else {
                    radix_k_opts(&views, mode, NetModel::cluster(), &factors, opts)
                };
                let merged = from_rank_image(&merged);
                assert_eq!(
                    pixel_bits(&frame.color, &frame.depth),
                    pixel_bits(&merged.color, &merged.depth),
                    "{what}"
                );
                assert_eq!(stats.total_bytes, wire.total_bytes, "{what}");
            }
        }
    }
}
