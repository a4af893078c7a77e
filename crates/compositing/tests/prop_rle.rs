//! Property tests for the run-length active-pixel codec: the compressed
//! representation must be information-lossless and its compositing operators
//! bit-exact against the dense oracle, for arbitrary images — including the
//! adversarial payloads (zero-alpha colored pixels, active pixels with
//! infinite depth) that a naive "active == visible" predicate would drop.

use compositing::rle::{composite, composite_windows, Run};
use compositing::{CompositeMode, PixelView, RankImage, SpanImage};
use proptest::prelude::*;
use vecmath::Color;

/// Pixel descriptor: selector picks background or one of three active
/// flavors, exercising every codec edge case.
type Px = (u8, f32, f32);

fn build_image(w: u32, h: u32, pixels: &[Px]) -> RankImage {
    let mut img = RankImage::empty(w, h);
    if pixels.is_empty() {
        return img;
    }
    for i in 0..img.num_pixels() {
        let (sel, a, d) = pixels[i % pixels.len()];
        match sel % 4 {
            0 => {} // background
            1 => {
                // Ordinary premultiplied fragment.
                img.color[i] = Color::new(0.8 * a, 0.5 * a, 0.25 * a, a);
                img.depth[i] = d;
            }
            2 => {
                // Zero-alpha but colored: payload the codec must not drop.
                img.color[i] = Color::new(a, 0.0, a * 0.5, 0.0);
                img.depth[i] = d;
            }
            _ => {
                // Colored but infinitely deep: loses every z test, yet is
                // not background.
                img.color[i] = Color::new(0.1, 0.2, 0.3, a.max(0.05));
                img.depth[i] = f32::INFINITY;
            }
        }
    }
    img
}

/// A straight-alpha frame (what a renderer's framebuffer holds) built from
/// the same descriptors, eight flavors wide so the encoder meets every pixel
/// whose premultiplied form is awkward. `shape` forces the whole-frame
/// cases: 1 all background, 2 all active, 3 one active pixel at each end of
/// a background frame, 4 one background pixel at each end of an active one.
fn build_frame(w: u32, h: u32, pixels: &[Px], shape: u8) -> (Vec<Color>, Vec<f32>) {
    let n = (w * h) as usize;
    let mut color = vec![Color::TRANSPARENT; n];
    let mut depth = vec![f32::INFINITY; n];
    for i in 0..n {
        let (sel, a, d) = if pixels.is_empty() { (0, 0.0, 0.0) } else { pixels[i % pixels.len()] };
        let edge = i == 0 || i + 1 == n;
        let flavor = match shape {
            1 => 0,
            2 => 2 + sel % 2,
            3 if edge => 2,
            3 => 0,
            4 if edge => 1,
            4 => 3,
            _ => sel % 8,
        };
        (color[i], depth[i]) = match flavor {
            // Background, and a colored pixel behind zero alpha at infinite
            // depth, which premultiplies to background.
            0 => (Color::TRANSPARENT, f32::INFINITY),
            1 => (Color::new(0.7, a, 0.2, 0.0), f32::INFINITY),
            // Ordinary fragment; transparent color over a finite depth.
            2 => (Color::new(0.8, 0.5, a, a.max(0.01)), d),
            3 => (Color::TRANSPARENT, d),
            // Colored at infinite depth; zero alpha over a finite depth.
            4 => (Color::new(0.1, 0.2, 0.3, a.max(0.05)), f32::INFINITY),
            5 => (Color::new(a, 0.4, 0.0, 0.0), d),
            // Negative zero: stored (background by the codec's `!=` test),
            // and produced by premultiplying a negative channel by alpha 0
            // or a -0.0 channel by any alpha.
            6 => (Color::new(-0.0, 0.0, -0.0, 0.0), f32::INFINITY),
            _ => (Color::new(-0.0, -a, 0.3, if sel >= 8 { 0.0 } else { a }), d),
        };
    }
    (color, depth)
}

/// What the encoder this codec started with — one `push` per pixel, a run
/// pair opened by a background pixel after an active one — makes of `img`,
/// printed as `SpanImage`'s `Debug` prints its six fields (a float so that it
/// round-trips, signed zero included).
fn pixel_at_a_time_spans(img: &RankImage) -> String {
    let mut runs: Vec<Run> = Vec::new();
    let (mut color, mut depth) = (Vec::new(), Vec::new());
    for (&c, &d) in img.color.iter().zip(&img.depth) {
        let active = c.a != 0.0 || c.r != 0.0 || c.g != 0.0 || c.b != 0.0 || d.is_finite();
        match runs.last_mut() {
            Some(r) if active => r.active += 1,
            Some(r) if r.active == 0 => r.background += 1,
            _ => runs.push(Run { background: !active as u32, active: active as u32 }),
        }
        if active {
            color.push(c);
            depth.push(d);
        }
    }
    let (w, h, len) = (img.width, img.height, img.num_pixels());
    format!(
        "SpanImage {{ width: {w}, height: {h}, len: {len}, runs: {runs:?}, color: {color:?}, \
         depth: {depth:?} }}"
    )
}

/// Window starts in `img`, by where they fall: inside a background run,
/// inside an active run, on a run boundary (the first pixel included), and
/// the image end.
fn starts_by_kind(img: &RankImage) -> [Vec<usize>; 4] {
    let active = |i: usize| {
        let c = img.color[i];
        c.a != 0.0 || c.r != 0.0 || c.g != 0.0 || c.b != 0.0 || img.depth[i].is_finite()
    };
    let mut kinds: [Vec<usize>; 4] = Default::default();
    for i in 0..img.num_pixels() {
        let kind = match (i > 0 && active(i - 1) == active(i), active(i)) {
            (true, false) => 0,
            (true, true) => 1,
            (false, _) => 2,
        };
        kinds[kind].push(i);
    }
    kinds[3].push(img.num_pixels());
    kinds
}

/// `composite_windows` against merging the two slices, field for field,
/// for every start of each kind in `front` (paired with a start of the same
/// kind in `back`, when it has one) and lengths from zero to the most both
/// windows allow.
fn check_windows(front: &RankImage, back: &RankImage) -> Result<(), String> {
    let (sf, sb) = (SpanImage::encode(front), SpanImage::encode(back));
    let n = front.num_pixels();
    let (front_kinds, back_kinds) = (starts_by_kind(front), starts_by_kind(back));
    for (kind, starts) in front_kinds.iter().enumerate() {
        for (i, &fs) in starts.iter().enumerate() {
            let theirs = &back_kinds[kind];
            let bs = if theirs.is_empty() { n - fs } else { theirs[(i * 7) % theirs.len()] };
            let most = n - fs.max(bs);
            for len in [0, 1.min(most), most / 2, most] {
                for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
                    let got = composite_windows((&sf, fs), (&sb, bs), len, mode);
                    let want = composite(&sf.slice(fs, fs + len), &sb.slice(bs, bs + len), mode);
                    prop_assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "front {}+{} back {}+{} kind {} {:?}",
                        fs,
                        len,
                        bs,
                        len,
                        kind,
                        mode
                    );
                }
            }
        }
    }
    Ok(())
}

fn assert_bit_exact(a: &RankImage, b: &RankImage) -> Result<(), String> {
    prop_assert_eq!(a.color.len(), b.color.len());
    for i in 0..a.color.len() {
        prop_assert!(a.color[i] == b.color[i], "color {}: {:?} vs {:?}", i, a.color[i], b.color[i]);
        prop_assert!(a.depth[i] == b.depth[i], "depth {}: {} vs {}", i, a.depth[i], b.depth[i]);
    }
    Ok(())
}

/// One fixed pair with starts of every kind in both images.
#[test]
fn windows_of_every_kind_equal_merging_the_slices() {
    let pixels: Vec<Px> =
        [(0, 0.0, 0.0), (0, 0.0, 0.0), (1, 0.5, 2.0), (1, 0.25, 1.0), (2, 0.5, 3.0), (0, 0.0, 0.0)]
            .into_iter()
            .chain([(3, 0.7, 0.0), (3, 0.1, 0.0), (0, 0.0, 0.0), (1, 0.9, 0.5), (0, 0.0, 0.0)])
            .collect();
    let front = build_image(11, 3, &pixels);
    let back = build_image(11, 3, &pixels.iter().rev().copied().collect::<Vec<_>>());
    for img in [&front, &back] {
        assert!(starts_by_kind(img).iter().all(|starts| !starts.is_empty()));
    }
    check_windows(&front, &back).unwrap();
    check_windows(&back, &front).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_identity(
        w in 1u32..12,
        h in 1u32..8,
        pixels in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96)
    ) {
        let img = build_image(w, h, &pixels);
        let span = SpanImage::encode(&img);
        prop_assert_eq!(span.num_pixels(), img.num_pixels());
        assert_bit_exact(&span.decode(), &img)?;
    }

    #[test]
    fn wire_bytes_never_exceed_dense(
        w in 1u32..12,
        h in 1u32..8,
        pixels in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96)
    ) {
        let img = build_image(w, h, &pixels);
        let span = SpanImage::encode(&img);
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let dense = img.num_pixels() * RankImage::bytes_per_pixel(mode);
            prop_assert!(span.wire_bytes(mode) <= dense);
        }
    }

    #[test]
    fn sparse_merge_equals_dense_merge(
        w in 1u32..12,
        h in 1u32..8,
        front_px in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96),
        back_px in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96)
    ) {
        let front = build_image(w, h, &front_px);
        let back = build_image(w, h, &back_px);
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let mut dense = back.clone();
            dense.merge_front(&front, mode);
            let merged = composite(&SpanImage::encode(&front), &SpanImage::encode(&back), mode);
            assert_bit_exact(&merged.decode(), &dense)?;
        }
    }

    #[test]
    fn slice_commutes_with_decode(
        w in 1u32..12,
        h in 1u32..8,
        pixels in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96),
        cut_a in 0usize..96,
        cut_b in 0usize..96
    ) {
        let img = build_image(w, h, &pixels);
        let n = img.num_pixels();
        let (s, e) = {
            let a = cut_a % (n + 1);
            let b = cut_b % (n + 1);
            (a.min(b), a.max(b))
        };
        let span = SpanImage::encode(&img);
        assert_bit_exact(&span.slice(s, e).decode(), &img.slice(s, e))?;
    }

    /// The one encoder, handed a straight-alpha view, produces the spans the
    /// pixel-at-a-time encoder made of the premultiplied copy, field for
    /// field, and `encode` of that copy is the same encoder.
    #[test]
    fn view_encoder_equals_encoding_the_premultiplied_copy(
        w in 1u32..12,
        h in 1u32..8,
        pixels in proptest::collection::vec((0u8..16, 0.0f32..1.0, 0.0f32..10.0), 0..96),
        shape in 0u8..8
    ) {
        let (color, depth) = build_frame(w, h, &pixels, shape);
        let straight =
            PixelView { width: w, height: h, color: &color, depth: &depth, straight_alpha: true };
        let copy = RankImage {
            width: w,
            height: h,
            color: color.iter().map(|c| c.premultiplied()).collect(),
            depth: depth.clone(),
        };
        let fused = SpanImage::from_view(straight);
        prop_assert_eq!(format!("{fused:?}"), pixel_at_a_time_spans(&copy));
        prop_assert_eq!(format!("{fused:?}"), format!("{:?}", SpanImage::encode(&copy)));
        // The dense constructor premultiplies the same way.
        let dense = RankImage::from_view(straight);
        for i in 0..copy.num_pixels() {
            let bits = |img: &RankImage| {
                let c = img.color[i];
                [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits(), img.depth[i].to_bits()]
            };
            prop_assert_eq!(bits(&dense), bits(&copy), "pixel {}", i);
        }
    }

    /// Pricing a sub-range from run counts is pricing the slice, for every
    /// window of the fragment.
    #[test]
    fn wire_bytes_range_is_the_slice_s_wire_bytes(
        w in 1u32..12,
        h in 1u32..8,
        pixels in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96)
    ) {
        let span = SpanImage::encode(&build_image(w, h, &pixels));
        let n = span.num_pixels();
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            for start in 0..=n {
                for end in start..=n {
                    prop_assert_eq!(
                        span.wire_bytes_range(start, end, mode),
                        span.slice(start, end).wire_bytes(mode),
                        "{}..{} of {} {:?}", start, end, n, mode
                    );
                }
            }
        }
    }

    /// A window merge is the merge of the two slices, bit for bit and run
    /// for run, wherever the windows start and however long they are.
    #[test]
    fn composite_windows_is_composite_of_the_slices(
        w in 1u32..12,
        h in 1u32..8,
        front_px in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96),
        back_px in proptest::collection::vec((0u8..8, 0.0f32..1.0, 0.0f32..10.0), 0..96)
    ) {
        check_windows(&build_image(w, h, &front_px), &build_image(w, h, &back_px))?;
    }
}
