//! Properties of object-space partitioning and the rebalancing loop
//! (DESIGN.md §12), plus the distributed-render identity across worker
//! counts that the partition work is pinned against.

use compositing::{reference, CompositeMode, RankImage};
use dpp::Device;
use mesh::partition::{tri_centroids, Partition};
use proptest::prelude::*;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use sched::rebalance::{RebalanceConfig, Rebalancer};
use strawman::api::to_rank_image;
use strawman::render_partitioned;
use vecmath::{Camera, TransferFunction, Vec3};

/// Deterministic centroid cloud from a seed: xorshift positions in a box
/// whose aspect varies with the seed, so splits exercise all three axes.
fn centroid_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f32 / 10_000.0
    };
    let scale = Vec3::new(1.0 + next() * 4.0, 1.0 + next() * 4.0, 1.0 + next() * 4.0);
    (0..n).map(|_| Vec3::new(next() * scale.x, next() * scale.y, next() * scale.z)).collect()
}

/// Every cell on exactly one rank, ranks in range, and each rank's cells
/// inside the input centroid bounds (the union therefore covers the input).
fn assert_covering(part: &Partition, centroids: &[Vec3]) {
    assert_eq!(part.num_cells(), centroids.len());
    let counts = part.counts();
    assert_eq!(counts.len(), part.ranks());
    assert_eq!(counts.iter().sum::<usize>(), centroids.len(), "every cell assigned exactly once");
    let inf = Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY);
    let (lo, hi) = centroids.iter().fold((inf, -inf), |(lo, hi), c| (lo.min(*c), hi.max(*c)));
    let mut seen = vec![false; centroids.len()];
    for rank in 0..part.ranks() {
        for cell in part.cells_of(rank) {
            assert!(!seen[cell], "cell {cell} assigned to two ranks");
            seen[cell] = true;
            assert_eq!(part.rank_of(cell), rank);
            let c = centroids[cell];
            assert!(c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y);
            assert!(c.z >= lo.z && c.z <= hi.z, "rank domains stay inside the input bounds");
        }
    }
    assert!(seen.into_iter().all(|s| s), "no cell lost");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unweighted bisection covers the input for arbitrary clouds and rank
    /// counts, and is a pure function of its inputs.
    #[test]
    fn bisection_assigns_every_cell_exactly_once(
        n in 1usize..400, ranks in 1usize..33, seed in any::<u64>()
    ) {
        let centroids = centroid_cloud(n, seed);
        let part = Partition::bisect(&centroids, ranks);
        prop_assert_eq!(part.ranks(), ranks.max(1));
        assert_covering(&part, &centroids);
        if n >= ranks {
            prop_assert!(part.counts().iter().all(|&c| c > 0), "no empty rank when cells >= ranks");
        }
        let again = Partition::bisect(&centroids, ranks);
        prop_assert_eq!(part.assignments(), again.assignments(), "bisection is deterministic");
    }

    /// Weighted bisection keeps the exactly-once property for arbitrary
    /// weights, including degenerate ones (zero, negative, non-finite).
    #[test]
    fn weighted_bisection_tolerates_arbitrary_weights(
        n in 1usize..300, ranks in 1usize..17, seed in any::<u64>()
    ) {
        let centroids = centroid_cloud(n, seed);
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 7 {
                    0 => 0.0,
                    1 => -1.0,
                    2 => f64::NAN,
                    _ => (state % 1000) as f64 / 100.0,
                }
            })
            .collect();
        let part = Partition::weighted_bisect(&centroids, &weights, ranks);
        assert_covering(&part, &centroids);
    }

    /// Rebalancing permutes ownership, never the cell set: after any
    /// sequence of observed cycles the partition still covers every cell
    /// exactly once, and the reported migration matches the assignment diff.
    #[test]
    fn rebalancing_is_a_permutation(
        n in 64usize..300, ranks in 2usize..17, seed in any::<u64>()
    ) {
        let centroids = centroid_cloud(n, seed);
        let cfg = RebalanceConfig { sustain_cycles: 2, ..RebalanceConfig::default() };
        let mut reb = Rebalancer::new(centroids.clone(), ranks, cfg);
        let mut state = seed | 1;
        for _ in 0..8 {
            let before = reb.partition().clone();
            // Skewed measured times: rank r costs (r+1) units per cycle,
            // jittered by the seed so triggers vary run to run.
            let times: Vec<f64> = (0..before.ranks())
                .map(|r| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (r + 1) as f64 * (1.0 + (state % 100) as f64 / 200.0)
                })
                .collect();
            let migration = reb.observe_cycle(&times);
            let after = reb.partition();
            assert_covering(after, &centroids);
            let diff = before
                .assignments()
                .iter()
                .zip(after.assignments().iter())
                .filter(|(a, b)| a != b)
                .count();
            match migration {
                Some(m) => {
                    prop_assert_eq!(m.moved_cells(), diff, "migration must equal the assignment diff");
                    prop_assert!(m.moved_cells() > 0);
                    prop_assert_eq!(&before.migration(after), &m);
                }
                None => prop_assert_eq!(diff, 0, "no migration reported, so no cell may move"),
            }
        }
    }
}

/// Full-fidelity partitioned rendering is byte-identical to the unpartitioned
/// single-rank reference on every pool size from 1 to 8 workers — the
/// acceptance pin for the distributed-data render path.
#[test]
fn full_lod_partitioned_render_is_byte_identical_across_workers() {
    let grid = mesh::datasets::field_grid(mesh::datasets::FieldKind::Tangle, [12, 12, 12]);
    let mesh = mesh::isosurface::isosurface(&grid, "scalar", 0.0, Some("elevation"));
    let camera = Camera::close_view(&mesh.bounds());
    let cfg = RtConfig::workload2();
    let (w, h) = (32, 32);
    let tf = TransferFunction::rainbow(mesh.scalar_range());
    let rt = RayTracer::new(Device::Serial, TriGeometry::from_mesh(&mesh));
    let single = to_rank_image(&rt.render_with_map(&camera, w, h, &cfg, &tf).frame);
    assert!(single.active_pixels() > 30, "fixture must be visible");

    let part = Partition::bisect(&tri_centroids(&mesh), 3);
    for workers in 1..=8usize {
        let device = Device::parallel_with_threads(workers);
        let frames = render_partitioned(&device, &mesh, &part, &camera, w, h, &cfg);
        let images: Vec<RankImage> = frames.iter().map(|f| f.image.clone()).collect();
        let folded = reference(&images, CompositeMode::ZBuffer);
        for i in 0..single.color.len() {
            let (a, b) = (folded.color[i], single.color[i]);
            assert_eq!(
                [a.r.to_bits(), a.g.to_bits(), a.b.to_bits(), a.a.to_bits()],
                [b.r.to_bits(), b.g.to_bits(), b.b.to_bits(), b.a.to_bits()],
                "{workers} workers: color pixel {i}"
            );
            assert_eq!(
                folded.depth[i].to_bits(),
                single.depth[i].to_bits(),
                "{workers} workers: depth pixel {i}"
            );
        }
    }
}
