//! The exchanges as they ran before members were read in place — each
//! radix-k round slicing every member's part before merging it, the DFB
//! slicing every rank's fragment into per-tile copies — kept as the oracle
//! the windowed exchanges must equal bit for bit and byte for byte: pixel
//! bits, `total_bytes`, `dense_bytes`, `rounds` and `per_round`, on 32
//! ranks at the benchmark's 320² in release (96² in debug), in both modes
//! and on both wires.

use compositing::algorithms::default_factors;
use compositing::dfb::num_tiles;
use compositing::rle::composite;
use compositing::{
    dfb_compose_opts, radix_k_opts, CompositeMode, CompositeStats, ExchangeOptions, PixelView,
    Pixels, RankImage, SpanImage,
};
use mpirt::{EventWorld, NetModel, RoundCost};
use rand::{Rng, SeedableRng};
use vecmath::Color;

/// A wire format with the whole-fragment operations the old exchanges
/// called.
trait SliceMerge: Clone {
    fn from_view(view: PixelView<'_>) -> Self;
    fn slice(&self, start: usize, end: usize) -> Self;
    /// Merge `front` into `self`, `front` in front.
    fn merge_front(&mut self, front: &Self, mode: CompositeMode);
    fn wire_bytes(&self, mode: CompositeMode) -> usize;
    fn wire_bytes_range(&self, start: usize, end: usize, mode: CompositeMode) -> usize;
    fn write_into(&self, out: &mut RankImage, start: usize);
}

impl SliceMerge for RankImage {
    fn from_view(view: PixelView<'_>) -> RankImage {
        RankImage::from_view(view)
    }

    fn slice(&self, start: usize, end: usize) -> RankImage {
        RankImage::slice(self, start, end)
    }

    fn merge_front(&mut self, front: &RankImage, mode: CompositeMode) {
        RankImage::merge_front(self, front, mode)
    }

    fn wire_bytes(&self, mode: CompositeMode) -> usize {
        self.num_pixels() * RankImage::bytes_per_pixel(mode)
    }

    fn wire_bytes_range(&self, start: usize, end: usize, mode: CompositeMode) -> usize {
        (end - start) * RankImage::bytes_per_pixel(mode)
    }

    fn write_into(&self, out: &mut RankImage, start: usize) {
        out.color[start..start + self.num_pixels()].copy_from_slice(&self.color);
        out.depth[start..start + self.num_pixels()].copy_from_slice(&self.depth);
    }
}

impl SliceMerge for SpanImage {
    fn from_view(view: PixelView<'_>) -> SpanImage {
        SpanImage::from_view(view)
    }

    fn slice(&self, start: usize, end: usize) -> SpanImage {
        SpanImage::slice(self, start, end)
    }

    fn merge_front(&mut self, front: &SpanImage, mode: CompositeMode) {
        *self = composite(front, self, mode);
    }

    fn wire_bytes(&self, mode: CompositeMode) -> usize {
        SpanImage::wire_bytes(self, mode)
    }

    fn wire_bytes_range(&self, start: usize, end: usize, mode: CompositeMode) -> usize {
        SpanImage::wire_bytes_range(self, start, end, mode)
    }

    fn write_into(&self, out: &mut RankImage, start: usize) {
        SpanImage::write_into(self, out, start)
    }
}

/// What an exchange is compared on: the merged image and the world's books.
type Outcome = (RankImage, EventWorld);

/// Radix-k at `factors`: every round slices each member's part, then folds
/// the slices front to back.
fn slice_then_merge_radix<F: SliceMerge>(
    images: &[RankImage],
    mode: CompositeMode,
    net: NetModel,
    factors: &[usize],
) -> Outcome {
    let p = images.len();
    let n_px = images[0].num_pixels();
    let bpp = RankImage::bytes_per_pixel(mode);
    let mut world = EventWorld::new(p, net);
    let mut states: Vec<(usize, usize, F)> =
        images.iter().map(|img| (0, n_px, F::from_view(img.view()))).collect();
    let mut stride = 1usize;
    for &k in factors.iter().filter(|&&k| k != 1) {
        let mut next = Vec::with_capacity(p);
        let mut costs = Vec::with_capacity(p);
        for r in 0..p {
            let d = (r / stride) % k;
            let group_base = r - d * stride;
            let (start, end, frag) = &states[r];
            let len = end - start;
            let part = |j: usize| (start + j * len / k, start + (j + 1) * len / k);
            let (ps, pe) = part(d);
            let mut acc: Option<F> = None;
            for j in 0..k {
                let (ms, _, mf) = &states[group_base + j * stride];
                let piece = mf.slice(ps - ms, pe - ms);
                acc = Some(match acc {
                    None => piece,
                    Some(mut acc) => match mode {
                        CompositeMode::ZBuffer => {
                            acc.merge_front(&piece, mode);
                            acc
                        }
                        CompositeMode::AlphaOrdered => {
                            let mut back = piece;
                            back.merge_front(&acc, mode);
                            back
                        }
                    },
                });
            }
            let wire = (0..k)
                .filter(|&j| j != d)
                .map(|j| {
                    let (s, e) = part(j);
                    frag.wire_bytes_range(s - start, e - start, mode)
                })
                .sum();
            costs.push(RoundCost {
                compute_s: 0.0,
                bytes_sent: wire,
                bytes_dense: (len - (pe - ps)) * bpp,
                messages: k - 1,
            });
            next.push((ps, pe, acc.unwrap()));
        }
        states = next;
        world.finish_round(&costs);
        stride *= k;
    }
    let mut full = RankImage::empty(images[0].width, images[0].height);
    let mut gather = vec![RoundCost::default(); p];
    for (r, (start, end, frag)) in states.iter().enumerate() {
        frag.write_into(&mut full, *start);
        if r != 0 {
            let wire = frag.wire_bytes(mode);
            gather[r] = RoundCost {
                bytes_sent: wire,
                bytes_dense: (end - start) * bpp,
                messages: 1,
                ..RoundCost::default()
            };
            gather[0].bytes_sent += wire;
        }
    }
    gather[0].bytes_dense = n_px.saturating_sub(states[0].1 - states[0].0) * bpp;
    gather[0].messages = p - 1;
    world.finish_round(&gather);
    (full, world)
}

/// The DFB with every rank's fragment sliced into per-tile copies and each
/// copy cloned again on delivery, folded back to front in rank order (the
/// order every arrival permutation folds in).
fn per_tile_slicing_dfb<F: SliceMerge>(
    images: &[RankImage],
    mode: CompositeMode,
    net: NetModel,
) -> Outcome {
    let p = images.len();
    let n_px = images[0].num_pixels();
    let bpp = RankImage::bytes_per_pixel(mode);
    let tiles = num_tiles(n_px);
    let bounds = |t: usize| (t * n_px / tiles, (t + 1) * n_px / tiles);
    let owner = |t: usize| t % p;
    let mut world = EventWorld::new(p, net);
    let produced: Vec<Vec<F>> = images
        .iter()
        .map(|img| {
            let whole = F::from_view(img.view());
            (0..tiles).map(|t| whole.slice(bounds(t).0, bounds(t).1)).collect()
        })
        .collect();
    for (r, frags) in produced.iter().enumerate() {
        for (t, frag) in frags.iter().enumerate() {
            if owner(t) != r {
                world.send(r, frag.wire_bytes(mode), (bounds(t).1 - bounds(t).0) * bpp);
            }
        }
    }
    world.close_round();
    let mut out = RankImage::empty(images[0].width, images[0].height);
    for t in 0..tiles {
        let mut acc = produced[p - 1][t].clone();
        for frags in produced[..p - 1].iter().rev() {
            acc.merge_front(&frags[t].clone(), mode);
        }
        if owner(t) != 0 {
            world.send(owner(t), acc.wire_bytes(mode), (bounds(t).1 - bounds(t).0) * bpp);
        }
        acc.write_into(&mut out, bounds(t).0);
    }
    world.close_round();
    (out, world)
}

/// `p` rank images of `side`² pixels shaped like rendered fragments: each
/// rank covers a rectangle, mostly active with holes, so rows break into
/// runs; some active pixels carry zero alpha or infinite depth.
fn fragment_set(p: usize, side: u32, seed: u64) -> Vec<RankImage> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..p)
        .map(|r| {
            let mut img = RankImage::empty(side, side);
            let (x0, y0) = (rng.gen_range(0..side), rng.gen_range(0..side));
            let (x1, y1) = (rng.gen_range(x0..=side), rng.gen_range(y0..=side));
            for y in y0..y1 {
                for x in x0..x1 {
                    let i = (y * side + x) as usize;
                    let a = rng.gen::<f32>() * 0.9;
                    let depth = r as f32 + rng.gen::<f32>();
                    (img.color[i], img.depth[i]) = match rng.gen_range(0u32..50) {
                        0..=4 => continue,
                        5 => (Color::new(a, 0.0, a * 0.5, 0.0), depth),
                        6 => (Color::new(0.1, 0.2, 0.3, a.max(0.05)), f32::INFINITY),
                        _ => (Color::new(0.8 * a, 0.5 * a, 0.25 * a, a), depth),
                    };
                }
            }
            img
        })
        .collect()
}

fn bits(img: &RankImage) -> Vec<u32> {
    img.color
        .iter()
        .zip(&img.depth)
        .flat_map(|(c, d)| [c.r, c.g, c.b, c.a, *d].map(f32::to_bits))
        .collect()
}

fn assert_same(got: &(RankImage, CompositeStats), want: &Outcome, what: &str) {
    assert!(bits(&got.0) == bits(&want.0), "pixels: {what}");
    assert_eq!(got.1.total_bytes, want.1.total_bytes, "{what}");
    assert_eq!(got.1.dense_bytes, want.1.dense_bytes, "{what}");
    assert_eq!(got.1.rounds, want.1.round_bytes.len(), "{what}");
    assert_eq!(got.1.per_round, want.1.round_bytes, "{what}");
}

/// 320² as the benchmark composites in release; smaller in debug.
const SIDE: u32 = if cfg!(debug_assertions) { 96 } else { 320 };
const RANKS: usize = 32;

#[test]
fn windowed_radix_rounds_equal_slice_then_merge() {
    let imgs = fragment_set(RANKS, SIDE, 48);
    let net = NetModel::cluster();
    for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
        for factors in [default_factors(RANKS), vec![RANKS], vec![4, 8]] {
            let what = format!("{mode:?} {factors:?}");
            assert_same(
                &radix_k_opts(&imgs, mode, net, &factors, ExchangeOptions::default()),
                &slice_then_merge_radix::<SpanImage>(&imgs, mode, net, &factors),
                &format!("compressed {what}"),
            );
            assert_same(
                &radix_k_opts(&imgs, mode, net, &factors, ExchangeOptions::dense()),
                &slice_then_merge_radix::<RankImage>(&imgs, mode, net, &factors),
                &format!("dense {what}"),
            );
        }
    }
}

#[test]
fn windowed_dfb_equals_per_tile_slicing() {
    let imgs = fragment_set(RANKS, SIDE, 49);
    let net = NetModel::cluster();
    for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
        assert_same(
            &dfb_compose_opts(&imgs, mode, net, ExchangeOptions::default()),
            &per_tile_slicing_dfb::<SpanImage>(&imgs, mode, net),
            &format!("compressed {mode:?}"),
        );
        assert_same(
            &dfb_compose_opts(&imgs, mode, net, ExchangeOptions::dense()),
            &per_tile_slicing_dfb::<RankImage>(&imgs, mode, net),
            &format!("dense {mode:?}"),
        );
    }
}
