//! Byte-accounting guarantees of the compressed exchange: compression must
//! strictly shrink the wire for mostly-background images, cost exactly the
//! dense bytes for fully-active images (the raw fallback), and never change
//! the simulated-clock rules (latency on messages, bytes over bandwidth).

use compositing::{
    binary_swap_opts, dfb_compose_opts, dfb_compose_shuffled, dfb_compose_staggered,
    direct_send_opts, radix_k_opts, CompositeMode, CompositeStats, ExchangeOptions, PixelView,
    Pixels, RankImage,
};
use mpirt::NetModel;
use vecmath::Color;

/// `p` rank images with exactly `active` payload pixels each (at staggered
/// offsets so overlap patterns vary), the rest background.
fn images_with_active(p: usize, w: u32, h: u32, active: usize) -> Vec<RankImage> {
    (0..p)
        .map(|r| {
            let mut img = RankImage::empty(w, h);
            let n = img.num_pixels();
            for k in 0..active.min(n) {
                let i = (k + r * 17) % n;
                let a = 0.25 + 0.5 * ((k % 7) as f32 / 7.0);
                img.color[i] = Color::new(0.6 * a, 0.3 * a, 0.1 * a, a);
                img.depth[i] = r as f32 + (k % 5) as f32 * 0.1;
            }
            img
        })
        .collect()
}

#[test]
fn mostly_background_strictly_decreases_total_bytes() {
    // ~6% active pixels: every algorithm must move strictly fewer bytes
    // compressed than dense, in both merge modes.
    let imgs = images_with_active(8, 32, 32, 64);
    let factors = compositing::algorithms::default_factors(8);
    for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
        for (name, comp, dense) in [
            (
                "direct_send",
                direct_send_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::default()).1,
                direct_send_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::dense()).1,
            ),
            (
                "binary_swap",
                binary_swap_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::default()).1,
                binary_swap_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::dense()).1,
            ),
            (
                "radix_k",
                radix_k_opts(
                    &imgs,
                    mode,
                    NetModel::cluster(),
                    &factors,
                    ExchangeOptions::default(),
                )
                .1,
                radix_k_opts(&imgs, mode, NetModel::cluster(), &factors, ExchangeOptions::dense())
                    .1,
            ),
        ] {
            assert!(
                comp.total_bytes < dense.total_bytes,
                "{name} {mode:?}: {} !< {}",
                comp.total_bytes,
                dense.total_bytes
            );
            // Dense accounting is representation-independent.
            assert_eq!(comp.dense_bytes, dense.total_bytes, "{name} {mode:?}");
            assert!(comp.compression_ratio() > 1.0, "{name} {mode:?}");
        }
    }
}

#[test]
fn fully_active_images_cost_exactly_dense_bytes() {
    // Every pixel carries payload: the raw fallback must make the compressed
    // exchange byte-identical to the dense one.
    let n_px = 24 * 24;
    let imgs = images_with_active(8, 24, 24, n_px);
    for img in &imgs {
        assert_eq!(img.active_pixels(), n_px);
    }
    let factors = compositing::algorithms::default_factors(8);
    for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
        let (_, comp) =
            radix_k_opts(&imgs, mode, NetModel::cluster(), &factors, ExchangeOptions::default());
        let (_, dense) =
            radix_k_opts(&imgs, mode, NetModel::cluster(), &factors, ExchangeOptions::dense());
        assert_eq!(comp.total_bytes, dense.total_bytes, "{mode:?}");
        assert_eq!(comp.dense_bytes, comp.total_bytes, "{mode:?}");
        assert!((comp.compression_ratio() - 1.0).abs() < 1e-12, "{mode:?}");
    }
}

#[test]
fn simulated_time_tracks_wire_bytes() {
    // On a slow interconnect (1 MB/s) wire time dwarfs measured compute, so
    // the exchange that moves fewer bytes must finish sooner on the
    // simulated clock — this is the whole point of compressing.
    let imgs = images_with_active(8, 48, 48, 96);
    let net = NetModel { latency_s: 0.0, bandwidth_bps: 1e6 };
    let factors = compositing::algorithms::default_factors(8);
    let mode = CompositeMode::ZBuffer;
    let (_, comp) = radix_k_opts(&imgs, mode, net, &factors, ExchangeOptions::default());
    let (_, dense) = radix_k_opts(&imgs, mode, net, &factors, ExchangeOptions::dense());
    assert!(comp.total_bytes < dense.total_bytes);
    assert!(
        comp.simulated_seconds < dense.simulated_seconds,
        "compressed {} s !< dense {} s",
        comp.simulated_seconds,
        dense.simulated_seconds
    );
    // Per-round records: wire never exceeds dense, and both sum to totals.
    for (i, r) in comp.per_round.iter().enumerate() {
        assert!(r.wire_bytes <= r.dense_bytes, "round {i}");
    }
    assert_eq!(comp.per_round.iter().map(|r| r.wire_bytes).sum::<u64>(), comp.total_bytes);
    assert_eq!(comp.per_round.iter().map(|r| r.dense_bytes).sum::<u64>(), comp.dense_bytes);
}

/// Every exchange, entered with `images` in whichever form they come.
fn every_exchange(
    images: &[impl Pixels],
    mode: CompositeMode,
    opts: ExchangeOptions,
) -> Vec<(&'static str, RankImage, CompositeStats)> {
    let net = NetModel::cluster();
    let factors = compositing::algorithms::default_factors(images.len());
    let starts: Vec<f64> = (0..images.len()).map(|r| r as f64 * 1e-3).collect();
    [
        ("direct_send", direct_send_opts(images, mode, net, opts)),
        ("binary_swap", binary_swap_opts(images, mode, net, opts)),
        ("radix_k", radix_k_opts(images, mode, net, &factors, opts)),
        ("dfb", dfb_compose_opts(images, mode, net, opts)),
        ("dfb_staggered", dfb_compose_staggered(images, mode, net, opts, &starts)),
        ("dfb_shuffled", dfb_compose_shuffled(images, mode, net, opts, 7)),
    ]
    .into_iter()
    .map(|(name, (pixels, stats))| (name, pixels, stats))
    .collect()
}

/// Every exchange keeps the same books and makes the same pixels whether it
/// is entered through owned premultiplied images or through views of the
/// straight-alpha framebuffers those images were made from. 6 and 12 ranks
/// take binary swap through its fold round, 8 does not.
#[test]
fn views_of_framebuffers_keep_the_books_of_rank_images() {
    for p in [1usize, 6, 8, 12] {
        // The framebuffers hold straight alpha; the rank images are their
        // premultiplied copies, as `strawman::api::to_rank_image` makes them.
        let mut images = images_with_active(p, 40, 23, 150);
        let frames: Vec<Vec<Color>> = images
            .iter()
            .map(|img| img.color.iter().map(|c| c.unpremultiplied()).collect())
            .collect();
        for (img, frame) in images.iter_mut().zip(&frames) {
            img.color = frame.iter().map(|c| c.premultiplied()).collect();
        }
        let views: Vec<PixelView> = images
            .iter()
            .zip(&frames)
            .map(|(img, color)| PixelView { color, straight_alpha: true, ..img.view() })
            .collect();
        for opts in [ExchangeOptions::default(), ExchangeOptions::dense()] {
            for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
                let owned = every_exchange(&images, mode, opts);
                let viewed = every_exchange(&views, mode, opts);
                for ((name, owned_px, owned), (_, view_px, viewed)) in owned.iter().zip(&viewed) {
                    let what = format!("{name} p={p} {mode:?} {opts:?}");
                    assert_eq!(viewed.total_bytes, owned.total_bytes, "{what}");
                    assert_eq!(viewed.dense_bytes, owned.dense_bytes, "{what}");
                    assert_eq!(viewed.per_round, owned.per_round, "{what}");
                    assert_eq!(viewed.rounds, owned.rounds, "{what}");
                    assert_eq!(view_px.max_color_diff(owned_px), 0.0, "{what}");
                    assert_eq!(view_px.depth, owned_px.depth, "{what}");
                }
            }
        }
    }
}
