//! Distributed FrameBuffer compositing — the async tile-based exchange.
//!
//! The round-structured algorithms in [`crate::algorithms`] advance every
//! rank through barriered supersteps; a rank that finished its local work
//! early still waits for the round's slowest member. Usher et al.'s
//! *Distributed FrameBuffer* dissolves the barrier: the image is statically
//! partitioned into fixed-size **tiles**, each owned by one rank
//! (round-robin), and every rank streams its per-tile fragments to the
//! owners as soon as its local rendering completes. Owners composite
//! fragments *as they arrive*, overlapping one rank's communication with
//! another's compute, and the exchange is done when the slowest rank's
//! clock stops — not when the last barrier releases.
//!
//! **Determinism invariant (rank, depth):** arrival order is scheduling
//! noise, so it must never reach the pixels. Each tile parks incoming
//! fragments in a rank-indexed buffer (`TileBuffer`) and only ever folds
//! the contiguous *suffix* of ranks already present, back (rank `p-1`) to
//! front (rank 0). That is exactly the serial reference association
//! (`reference` folds back-to-front), so the folded pixels are
//! byte-identical to the reference — and to themselves under **any**
//! arrival permutation. [`dfb_compose_shuffled`] exposes an adversarial
//! entry point that delivers fragments in a seeded random permutation; the
//! property tests pin that the pixels do not move.
//!
//! Timing runs on the same [`mpirt::EventWorld`] the round exchanges use,
//! without its barrier: fragment production and fold compute are
//! *measured*, the wire is *modeled* (eager injection — the sender pays one
//! message latency, the payload's transfer time rides the wire and delays
//! only the receiver). [`dfb_compose_staggered`] seeds
//! per-rank start clocks with render-completion times, so the overlap of
//! rendering and compositing — the DFB's reason to exist — shows up in
//! `simulated_seconds`.

use crate::algorithms::{views_of, CompositeStats, ExchangeOptions, Fragment};
use crate::image::{CompositeMode, PixelView, Pixels, RankImage};
use crate::rle::SpanImage;
use mpirt::{EventWorld, NetModel};
use rayon::prelude::*;

/// Target pixels per tile. Fixed tile *size* (as in the DFB paper) means the
/// tile count tracks the image, not the rank count: message granularity
/// stays constant as ranks scale.
pub const TILE_PIXELS: usize = 2048;

/// Number of tiles an `n_px`-pixel image is split into.
pub fn num_tiles(n_px: usize) -> usize {
    n_px.div_ceil(TILE_PIXELS).max(1)
}

/// Pixel range `[start, end)` of tile `t` out of `tiles` over `n_px` pixels.
fn tile_bounds(t: usize, tiles: usize, n_px: usize) -> (usize, usize) {
    (t * n_px / tiles, (t + 1) * n_px / tiles)
}

/// Owning rank of tile `t`: static round-robin assignment.
fn tile_owner(t: usize, ranks: usize) -> usize {
    t % ranks
}

/// Arrival-order-proof accumulator for one tile's fragments.
///
/// Fragments may be inserted in any order; folding only ever consumes the
/// contiguous suffix of ranks already present, back to front, so the
/// result bits are a function of the fragments alone — never of the
/// insertion permutation. A fragment is a window `(&F, start)` of its
/// rank's one encoded image: nothing is copied to be parked.
struct TileBuffer<'a, F> {
    /// Windows parked until their rank's turn, rank-indexed. A plain Vec:
    /// iteration order must not depend on hasher state (X005).
    pending: Vec<Option<(&'a F, usize)>>,
    /// Folded suffix `[next, p)` — the back of the image so far: still the
    /// back rank's window until a second rank folds onto it.
    acc: Option<Folded<'a, F>>,
    /// Lowest rank already folded into `acc`; counts down from `p`.
    next: usize,
    /// Pixels per window.
    n: usize,
}

/// A tile's folded suffix.
enum Folded<'a, F> {
    /// One rank's window, not merged with anything yet.
    Window((&'a F, usize)),
    /// The merge of two or more ranks' windows.
    Merged(F),
}

impl<'a, F: Fragment> TileBuffer<'a, F> {
    fn new(ranks: usize, n: usize) -> TileBuffer<'a, F> {
        TileBuffer { pending: vec![None; ranks], acc: None, next: ranks, n }
    }

    /// Park `window` and fold any newly contiguous suffix, returning the
    /// measured fold seconds — the owner's compute for this delivery.
    fn insert(&mut self, rank: usize, window: (&'a F, usize), mode: CompositeMode) -> f64 {
        self.pending[rank] = Some(window);
        let ((), fold_s) = dpp::timed(|| {
            while self.next > 0 {
                let Some(front) = self.pending[self.next - 1].take() else {
                    break;
                };
                self.next -= 1;
                self.acc = Some(match self.acc.take() {
                    None => Folded::Window(front),
                    Some(Folded::Window(back)) => {
                        Folded::Merged(F::merge_windows(front, back, self.n, mode))
                    }
                    Some(Folded::Merged(back)) => {
                        Folded::Merged(F::merge_windows(front, (&back, 0), self.n, mode))
                    }
                });
            }
        });
        fold_s
    }

    /// The fully folded tile; `None` only if nothing was ever inserted.
    fn finish(self) -> Option<F> {
        self.acc.map(|acc| match acc {
            Folded::Window((frag, start)) => frag.slice(start, start + self.n),
            Folded::Merged(frag) => frag,
        })
    }
}

/// DFB composite with every rank's clock starting at zero.
pub fn dfb_compose_opts(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    opts: ExchangeOptions,
) -> (RankImage, CompositeStats) {
    dfb_compose_staggered(images, mode, net, opts, &vec![0.0; images.len()])
}

/// DFB composite where rank `r`'s clock starts at `starts[r]` — its render
/// completion time — so the exchange overlaps the staggered producer.
/// Pixel output is independent of `starts`; only the stats change.
pub fn dfb_compose_staggered(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    opts: ExchangeOptions,
    starts: &[f64],
) -> (RankImage, CompositeStats) {
    dfb(images, mode, net, opts, starts, None)
}

/// Adversarial entry point: deliver every tile's fragments in a seeded
/// random permutation instead of arrival order. The determinism invariant
/// says the pixels must be byte-identical to [`dfb_compose_opts`] for every
/// seed; the property tests pin exactly that.
pub fn dfb_compose_shuffled(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    opts: ExchangeOptions,
    arrival_seed: u64,
) -> (RankImage, CompositeStats) {
    dfb(images, mode, net, opts, &vec![0.0; images.len()], Some(arrival_seed))
}

/// Run the exchange in the wire format `opts` selects.
fn dfb(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    opts: ExchangeOptions,
    starts: &[f64],
    arrival_seed: Option<u64>,
) -> (RankImage, CompositeStats) {
    let images = views_of(images);
    if opts.compress {
        run_dfb::<SpanImage>(&images, mode, net, starts, arrival_seed)
    } else {
        run_dfb::<RankImage>(&images, mode, net, starts, arrival_seed)
    }
}

/// Deterministic Fisher–Yates driven by an inline xorshift stream.
fn shuffle(order: &mut [usize], mut state: u64) {
    state |= 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
}

/// One tile's composited result plus its (rank, fold-seconds) delivery trace.
type MergedTile<F> = (Option<F>, Vec<(usize, f64)>);

fn run_dfb<F: Fragment>(
    images: &[PixelView],
    mode: CompositeMode,
    net: NetModel,
    starts: &[f64],
    arrival_seed: Option<u64>,
) -> (RankImage, CompositeStats) {
    let p = images.len();
    assert!(p > 0);
    assert_eq!(starts.len(), p, "one start clock per rank");
    let width = images[0].width;
    let height = images[0].height;
    let n_px = images[0].color.len();
    let bpp = RankImage::bytes_per_pixel(mode);
    let tiles = num_tiles(n_px);

    let mut world = EventWorld::with_starts(starts, net);
    let mut compute_total = 0.0f64;

    // 1. Fragment production: each rank encodes its image once, as its local
    //    (render) work completes; tiles are windows of it.
    let produced: Vec<(F, f64)> =
        images.par_iter().map(|&view| dpp::timed(|| F::from_view(view))).collect();
    for (r, (_, dt)) in produced.iter().enumerate() {
        world.compute(r, *dt);
        compute_total += *dt;
    }

    // 2. Scatter: every rank streams its non-owned tile fragments to the
    //    owners, eagerly, in tile order. `arrival[t][r]` is when tile t's
    //    fragment from rank r is available at the owner.
    let mut arrival = vec![vec![0.0f64; p]; tiles];
    for (r, (frag, _)) in produced.iter().enumerate() {
        for (t, at) in arrival.iter_mut().enumerate() {
            at[r] = if tile_owner(t, p) == r {
                world.now(r)
            } else {
                let (s, e) = tile_bounds(t, tiles, n_px);
                world.send(r, frag.wire_bytes_range(s, e, mode), (e - s) * bpp)
            };
        }
    }
    world.close_round();

    // 3. Delivery order per tile: arrival order (ties broken by rank), or an
    //    adversarial permutation when a seed is given. The folded pixels must
    //    not depend on this order — that is the invariant the arrival-order
    //    property tests pin.
    let orders: Vec<Vec<usize>> = (0..tiles)
        .map(|t| {
            let mut order: Vec<usize> = (0..p).collect();
            match arrival_seed {
                None => {
                    order.sort_by(|&a, &b| arrival[t][a].total_cmp(&arrival[t][b]).then(a.cmp(&b)))
                }
                Some(seed) => {
                    shuffle(&mut order, seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                }
            }
            order
        })
        .collect();

    // 4. Tile merges — the pixel work, parallel over tiles: deliveries pass
    //    through the TileBuffer in delivery order; each delivery's fold
    //    compute is measured for the clock replay below.
    let merged: Vec<MergedTile<F>> = orders
        .par_iter()
        .enumerate()
        .map(|(t, order)| {
            let (s, e) = tile_bounds(t, tiles, n_px);
            let mut buf = TileBuffer::new(p, e - s);
            let folds: Vec<(usize, f64)> =
                order.iter().map(|&r| (r, buf.insert(r, (&produced[r].0, s), mode))).collect();
            (buf.finish(), folds)
        })
        .collect();

    // 5. Clock replay: each tile's owner waits for a delivery, then folds.
    for (t, (_, folds)) in merged.iter().enumerate() {
        let owner = tile_owner(t, p);
        for &(r, fold_s) in folds {
            world.recv(owner, arrival[t][r]);
            world.compute(owner, fold_s);
            compute_total += fold_s;
        }
    }

    // 6. Gather: owners ship finished tiles to rank 0, whose inbound link
    //    drains one tile at a time (the round exchange's gather charges the
    //    root the full incoming volume the same way).
    let mut inbound: Vec<(f64, f64)> = Vec::new(); // (first-byte time, transfer seconds)
    for (t, (frag, _)) in merged.iter().enumerate() {
        let owner = tile_owner(t, p);
        if owner == 0 {
            continue;
        }
        if let Some(f) = frag {
            let (s, e) = tile_bounds(t, tiles, n_px);
            let wire = f.wire_bytes(mode);
            let transfer = wire as f64 / net.bandwidth_bps;
            let at = world.send(owner, wire, (e - s) * bpp);
            inbound.push((at - transfer, transfer));
        }
    }
    inbound.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (first_byte, transfer) in inbound {
        let start = world.now(0).max(first_byte);
        world.recv(0, start + transfer);
    }
    world.close_round();

    // 7. Final assembly at the root.
    let (out, asm) = dpp::timed(|| {
        let mut out = RankImage::empty(width, height);
        for (t, (frag, _)) in merged.iter().enumerate() {
            if let Some(f) = frag {
                let (s, _) = tile_bounds(t, tiles, n_px);
                f.write_into(&mut out, s);
            }
        }
        out
    });
    world.compute(0, asm);
    compute_total += asm;

    (out, CompositeStats::from_world(world, compute_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference;
    use rand::{Rng, SeedableRng};
    use vecmath::Color;

    fn make_images(p: usize, w: u32, h: u32, seed: u64) -> Vec<RankImage> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..p)
            .map(|r| {
                let mut img = RankImage::empty(w, h);
                let n = img.num_pixels();
                for i in 0..n {
                    if rng.gen::<f32>() < 0.4 {
                        let a = rng.gen::<f32>() * 0.8;
                        img.color[i] = Color::new(
                            rng.gen::<f32>() * a,
                            rng.gen::<f32>() * a,
                            rng.gen::<f32>() * a,
                            a,
                        );
                        img.depth[i] = r as f32 + rng.gen::<f32>();
                    }
                }
                img
            })
            .collect()
    }

    fn bits(img: &RankImage) -> Vec<u32> {
        img.color
            .iter()
            .zip(img.depth.iter())
            .flat_map(|(c, d)| {
                [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits(), d.to_bits()]
            })
            .collect()
    }

    #[test]
    fn matches_reference_bit_exactly() {
        for p in [1usize, 2, 5, 8] {
            let imgs = make_images(p, 16, 9, 40 + p as u64);
            for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
                let expect = reference(&imgs, mode);
                let (out, _) =
                    dfb_compose_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::default());
                assert_eq!(bits(&out), bits(&expect), "p={p} {mode:?}");
            }
        }
    }

    #[test]
    fn dense_and_compressed_agree_bit_exactly() {
        let imgs = make_images(6, 20, 11, 7);
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let (c, cs) =
                dfb_compose_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::default());
            let (d, ds) =
                dfb_compose_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::dense());
            assert_eq!(bits(&c), bits(&d), "{mode:?}");
            assert_eq!(cs.dense_bytes, ds.dense_bytes, "{mode:?}");
            assert_eq!(ds.total_bytes, ds.dense_bytes, "dense path is dense");
            assert!(cs.total_bytes < ds.total_bytes, "sparse bands must compress");
        }
    }

    #[test]
    fn shuffled_arrivals_do_not_change_pixels() {
        let imgs = make_images(7, 24, 13, 99);
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let (canonical, _) =
                dfb_compose_opts(&imgs, mode, NetModel::cluster(), ExchangeOptions::default());
            for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let (out, _) = dfb_compose_shuffled(
                    &imgs,
                    mode,
                    NetModel::cluster(),
                    ExchangeOptions::default(),
                    seed,
                );
                assert_eq!(bits(&out), bits(&canonical), "seed={seed} {mode:?}");
            }
        }
    }

    /// What a duplicate delivery does today: a duplicate of a rank already
    /// folded is parked and never read, and a duplicate of a rank still
    /// pending replaces the first copy. Every delivery is a window of a
    /// whole image, at an offset into it, as `run_dfb` parks them.
    #[test]
    fn duplicate_deliveries_are_parked_or_replace_the_pending_copy() {
        let mode = CompositeMode::AlphaOrdered;
        let imgs = make_images(3, 16, 9, 3);
        let other = make_images(3, 16, 9, 4);
        let (start, n) = (37, 64);
        let tile = |imgs: &[RankImage]| -> Vec<RankImage> {
            imgs.iter().map(|img| img.slice(start, start + n)).collect()
        };
        let deliver = |deliveries: [(usize, &RankImage); 4]| {
            let mut buf = TileBuffer::new(3, n);
            for (r, img) in deliveries {
                buf.insert(r, (img, start), mode);
            }
            (buf.pending[2].is_some(), buf.finish().unwrap())
        };
        // Rank 2 folds on arrival, so its duplicate stays parked behind `next`.
        let (parked, folded) =
            deliver([(2, &imgs[2]), (2, &other[2]), (1, &imgs[1]), (0, &imgs[0])]);
        assert!(parked);
        assert_eq!(bits(&folded), bits(&reference(&tile(&imgs), mode)));
        // Rank 0 waits for ranks 1 and 2, so its duplicate replaces it.
        let (_, folded) = deliver([(0, &imgs[0]), (0, &other[0]), (2, &imgs[2]), (1, &imgs[1])]);
        let replaced = tile(&[other[0].clone(), imgs[1].clone(), imgs[2].clone()]);
        assert_ne!(bits(&reference(&replaced, mode)), bits(&reference(&tile(&imgs), mode)));
        assert_eq!(bits(&folded), bits(&reference(&replaced, mode)));
    }

    #[test]
    fn single_rank_moves_no_bytes() {
        let imgs = make_images(1, 10, 10, 5);
        let (out, st) = dfb_compose_opts(
            &imgs,
            CompositeMode::ZBuffer,
            NetModel::cluster(),
            ExchangeOptions::default(),
        );
        assert_eq!(bits(&out), bits(&imgs[0]));
        assert_eq!(st.total_bytes, 0);
        assert_eq!(st.dense_bytes, 0);
        assert_eq!(st.rounds, 2);
    }

    #[test]
    fn per_round_tallies_sum_to_totals() {
        let imgs = make_images(8, 64, 48, 21);
        let (_, st) = dfb_compose_opts(
            &imgs,
            CompositeMode::AlphaOrdered,
            NetModel::cluster(),
            ExchangeOptions::default(),
        );
        assert_eq!(st.per_round.len(), 2);
        let wire: u64 = st.per_round.iter().map(|r| r.wire_bytes).sum();
        let dense: u64 = st.per_round.iter().map(|r| r.dense_bytes).sum();
        assert_eq!(wire, st.total_bytes);
        assert_eq!(dense, st.dense_bytes);
        assert!(st.compression_ratio() > 1.0);
        assert!(st.simulated_seconds > 0.0);
        assert!(st.compute_seconds > 0.0);
    }

    #[test]
    fn staggered_starts_floor_the_elapsed_time() {
        let imgs = make_images(4, 32, 32, 3);
        let starts = [0.0, 0.5, 1.0, 2.0];
        let (out, st) = dfb_compose_staggered(
            &imgs,
            CompositeMode::AlphaOrdered,
            NetModel::cluster(),
            ExchangeOptions::default(),
            &starts,
        );
        // The slowest producer bounds the exchange from below; pixels are
        // unaffected by the stagger.
        assert!(st.simulated_seconds >= 2.0);
        let (plain, _) = dfb_compose_opts(
            &imgs,
            CompositeMode::AlphaOrdered,
            NetModel::cluster(),
            ExchangeOptions::default(),
        );
        assert_eq!(bits(&out), bits(&plain));
    }

    #[test]
    fn tile_bounds_cover_every_pixel_once() {
        for n_px in [1usize, 100, 2048, 2049, 65536, 65537] {
            let tiles = num_tiles(n_px);
            let mut next = 0usize;
            for t in 0..tiles {
                let (s, e) = tile_bounds(t, tiles, n_px);
                assert_eq!(s, next, "n_px={n_px} t={t}");
                assert!(e > s || n_px == 0);
                next = e;
            }
            assert_eq!(next, n_px);
        }
    }
}
