//! Cross-crate property tests: invariants that span subsystem boundaries.

use compositing::{
    binary_swap_opts, direct_send_opts, radix_k_opts, reference, CompositeMode, ExchangeOptions,
    RankImage,
};
use conduit_node::Node;
use mpirt::NetModel;
use proptest::prelude::*;
use strawman::mesh_convert::{convert, PublishedMesh};
use vecmath::Color;

fn arb_rank_images(max_ranks: usize) -> impl Strategy<Value = Vec<RankImage>> {
    (1..=max_ranks, 2u32..10, 2u32..10, any::<u64>()).prop_map(|(ranks, w, h, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f32 / 1000.0
        };
        (0..ranks)
            .map(|r| {
                let mut img = RankImage::empty(w, h);
                for i in 0..img.num_pixels() {
                    if next() < 0.5 {
                        let a = next() * 0.9;
                        img.color[i] = Color::new(next() * a, next() * a, next() * a, a);
                        img.depth[i] = r as f32 + next();
                    }
                }
                img
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every compositing algorithm equals the serial reference, both modes,
    /// arbitrary images and rank counts.
    #[test]
    fn compositing_algorithms_are_equivalent(images in arb_rank_images(12)) {
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let expect = reference(&images, mode);
            let (net, opts) = (NetModel::zero(), ExchangeOptions::default());
            let (ds, _) = direct_send_opts(&images, mode, net, opts);
            prop_assert!(ds.max_color_diff(&expect) < 3e-5);
            let factors = compositing::algorithms::default_factors(images.len());
            let (rk, _) = radix_k_opts(&images, mode, net, &factors, opts);
            prop_assert!(rk.max_color_diff(&expect) < 3e-5);
            if images.len().is_power_of_two() {
                let (bs, _) = binary_swap_opts(&images, mode, net, opts);
                prop_assert!(bs.max_color_diff(&expect) < 3e-5);
            }
        }
    }

    /// PNG encoding always produces structurally valid files whose IDAT
    /// stored blocks decode back to the raw scanlines.
    #[test]
    fn png_encoder_is_always_valid(w in 1u32..24, h in 1u32..24, seed in any::<u64>()) {
        let n = (w * h * 4) as usize;
        let pixels: Vec<u8> = (0..n).map(|i| ((seed >> (i % 56)) as u8).wrapping_add(i as u8)).collect();
        let png = strawman::png::encode_rgba(w, h, &pixels);
        prop_assert_eq!(&png[..8], &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A][..]);
        // Walk chunks and validate CRCs.
        let mut pos = 8usize;
        let mut seen_iend = false;
        while pos + 8 <= png.len() {
            let len = u32::from_be_bytes([png[pos], png[pos+1], png[pos+2], png[pos+3]]) as usize;
            let kind = &png[pos+4..pos+8];
            let payload_end = pos + 8 + len;
            prop_assert!(payload_end + 4 <= png.len(), "truncated chunk");
            let crc = u32::from_be_bytes([
                png[payload_end], png[payload_end+1], png[payload_end+2], png[payload_end+3],
            ]);
            prop_assert_eq!(crc, strawman::png::crc32(&png[pos+4..payload_end]));
            if kind == b"IEND" { seen_iend = true; }
            pos = payload_end + 4;
        }
        prop_assert!(seen_iend);
    }

    /// Publishing a uniform grid through Conduit conventions round-trips the
    /// field values exactly.
    #[test]
    fn conduit_mesh_round_trip(
        nx in 2usize..6, ny in 2usize..6, nz in 2usize..6, seed in any::<u32>()
    ) {
        let n_points = nx * ny * nz;
        let values: Vec<f32> = (0..n_points)
            .map(|i| (seed.wrapping_mul(i as u32 + 1) % 1000) as f32 / 10.0)
            .collect();
        let mut d = Node::new();
        d.set("coords/type", "uniform");
        d.set("coords/dims/i", nx as i64);
        d.set("coords/dims/j", ny as i64);
        d.set("coords/dims/k", nz as i64);
        d.set("fields/f/association", "vertex");
        d.set("fields/f/values", values.clone());
        let m = convert(&d).unwrap();
        let PublishedMesh::Uniform(g) = m else { panic!("wrong mesh kind") };
        prop_assert_eq!(g.dims, [nx, ny, nz]);
        prop_assert_eq!(&g.field("f").unwrap().values, &values);
    }

    /// The linear-regression + cross-validation pipeline recovers planted
    /// rendering-cost laws from arbitrary positive inputs.
    #[test]
    fn regression_recovers_planted_cost_model(
        c0 in 1e-9f64..1e-6, c1 in 1e-8f64..1e-5, c2 in 1e-4f64..1e-1
    ) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 1..40usize {
            let ap = 1000.0 * i as f64;
            let o = 500.0 * ((i * 13) % 29 + 1) as f64;
            let t = c0 * ap * o.log2() + c1 * ap + c2;
            xs.push(vec![ap * o.log2(), ap, 1.0]);
            ys.push(t);
        }
        let fit = perfmodel::regression::LinearRegression::fit(&xs, &ys);
        prop_assert!(fit.r_squared > 0.999999);
        prop_assert!((fit.coeffs[0] - c0).abs() / c0 < 1e-4);
        prop_assert!((fit.coeffs[1] - c1).abs() / c1 < 1e-4);
    }
}
