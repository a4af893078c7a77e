//! The compositing algorithms: direct send, binary swap, and radix-k, and
//! [`compose`], the one dispatch from a [`CompositeWire`] to an exchange.
//!
//! All three are expressed as the same round-structured partition exchange
//! with different round factorizations (Peterka et al.'s radix-k insight,
//! which IceT implements): factor the rank count `P` into rounds
//! `k_0 * k_1 * ... = P`; in round `i`, groups of `k_i` ranks split their
//! current pixel partition `k_i` ways and exchange so each member keeps one
//! part, composited from all members in visibility order.
//!
//! * factors `[P]`            => direct send (one all-to-all round)
//! * factors `[2, 2, ..., 2]` => binary swap (log2 P pairwise rounds)
//! * anything else            => general radix-k
//!
//! Rounds execute as barriered supersteps of the [`EventWorld`]
//! ([`EventWorld::finish_round`]): per rank we *measure* blending compute and
//! *model* the wire (latency + bytes/bandwidth), and every rank leaves the
//! round when the slowest one does.
//!
//! By default every exchange ships **run-length compressed** fragments
//! ([`crate::rle::SpanImage`]) — IceT's active-pixel optimization — and the
//! per-round wire and dense bytes are recorded in [`CompositeStats`]. Pass
//! [`ExchangeOptions::dense`] for the dense exchange; both paths produce
//! pixel-identical output, so the delta in `total_bytes`/`simulated_seconds`
//! isolates what compression buys.

use crate::dfb::dfb_compose_opts;
use crate::image::{CompositeMode, PixelView, Pixels, RankImage};
use crate::rle::{composite_windows, SpanImage};
use mpirt::{EventWorld, NetModel, RoundBytes, RoundCost};
use rayon::prelude::*;

/// Knobs for the round exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeOptions {
    /// Ship run-length-compressed fragments (active pixels only) instead of
    /// dense partitions. On by default, as in IceT.
    pub compress: bool,
}

impl Default for ExchangeOptions {
    fn default() -> ExchangeOptions {
        ExchangeOptions { compress: true }
    }
}

impl ExchangeOptions {
    /// The uncompressed exchange (for byte-accounting baselines).
    pub fn dense() -> ExchangeOptions {
        ExchangeOptions { compress: false }
    }
}

/// Which exchange carries the fragments: dense full-image fragments over
/// radix-k rounds, run-length-compressed active-pixel spans over the same
/// rounds (the default, as in IceT), or the asynchronous per-tile
/// Distributed FrameBuffer exchange. The compositing models are fitted per
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompositeWire {
    /// Full-image fragments, uncompressed.
    Dense,
    #[default]
    /// Run-length-encoded active-pixel spans.
    Compressed,
    /// Message-driven per-tile exchange (compressed fragments, no barrier).
    Dfb,
}

impl CompositeWire {
    /// Stable lowercase name used in CSV rows.
    pub fn name(&self) -> &'static str {
        match self {
            CompositeWire::Dense => "dense",
            CompositeWire::Compressed => "compressed",
            CompositeWire::Dfb => "dfb",
        }
    }
}

/// Composite `images` over the exchange `wire` names: radix-k at
/// [`default_factors`] for the dense and compressed wires, the DFB for
/// [`CompositeWire::Dfb`].
pub fn compose(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    wire: CompositeWire,
) -> (RankImage, CompositeStats) {
    let radix_k = |opts| radix_k_opts(images, mode, net, &default_factors(images.len()), opts);
    match wire {
        CompositeWire::Dense => radix_k(ExchangeOptions::dense()),
        CompositeWire::Compressed => radix_k(ExchangeOptions::default()),
        CompositeWire::Dfb => dfb_compose_opts(images, mode, net, ExchangeOptions::default()),
    }
}

/// Result record of one composite.
#[derive(Debug, Clone)]
pub struct CompositeStats {
    /// Simulated wall seconds (sum of per-round maxima, compute + wire).
    pub simulated_seconds: f64,
    /// Total measured blending/assembly compute seconds across ranks.
    pub compute_seconds: f64,
    /// Total bytes moved on the (simulated) wire.
    pub total_bytes: u64,
    /// Bytes the same rounds would have moved without compression; equals
    /// `total_bytes` for a dense exchange.
    pub dense_bytes: u64,
    /// Per-round byte tallies, in execution order, as the exchange's world
    /// recorded them (fold round first for non-power-of-two binary swap,
    /// final gather last; the DFB's scatter, then its gather).
    pub per_round: Vec<RoundBytes>,
    /// Communication rounds (including the final gather).
    pub rounds: usize,
}

impl CompositeStats {
    /// The record of an exchange that ran on `world`, whose ranks spent
    /// `compute_seconds` blending in total.
    pub(crate) fn from_world(world: EventWorld, compute_seconds: f64) -> CompositeStats {
        CompositeStats {
            simulated_seconds: world.elapsed(),
            compute_seconds,
            total_bytes: world.total_bytes,
            dense_bytes: world.dense_bytes,
            rounds: world.round_bytes.len(),
            per_round: world.round_bytes,
        }
    }

    /// Overall dense-to-wire compression ratio (1.0 when nothing moved).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            1.0
        } else {
            self.dense_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Serial reference: merge every rank image in visibility order.
pub fn reference(images: &[RankImage], mode: CompositeMode) -> RankImage {
    assert!(!images.is_empty());
    let mut out = images[images.len() - 1].clone();
    for img in images[..images.len() - 1].iter().rev() {
        out.merge_front(img, mode);
    }
    out
}

/// The representation a rank's in-flight fragment travels in: dense pixels
/// or run-length spans. Both implement identical merge semantics, so the
/// round loop (and the [`crate::dfb`] tile exchange) is generic over the
/// wire format.
pub(crate) trait Fragment: Send + Sync {
    fn from_view(view: PixelView<'_>) -> Self;
    fn slice(&self, start: usize, end: usize) -> Self;
    /// Pixels `[fs, fs + n)` of `front` merged in front of pixels
    /// `[bs, bs + n)` of `back`, read where they lie, as a new `n`-pixel
    /// fragment.
    fn merge_windows(
        front: (&Self, usize),
        back: (&Self, usize),
        n: usize,
        mode: CompositeMode,
    ) -> Self;
    /// Bytes this whole fragment costs to send.
    fn wire_bytes(&self, mode: CompositeMode) -> usize;
    /// Bytes the sub-range `[start, end)` costs to send.
    fn wire_bytes_range(&self, start: usize, end: usize, mode: CompositeMode) -> usize;
    fn write_into(&self, out: &mut RankImage, start: usize);
}

/// The dense wire serves probes and studies only, so it merges windows
/// through slices.
impl Fragment for RankImage {
    fn from_view(view: PixelView<'_>) -> RankImage {
        RankImage::from_view(view)
    }

    fn slice(&self, start: usize, end: usize) -> RankImage {
        RankImage::slice(self, start, end)
    }

    fn merge_windows(
        (front, fs): (&RankImage, usize),
        (back, bs): (&RankImage, usize),
        n: usize,
        mode: CompositeMode,
    ) -> RankImage {
        let mut out = back.slice(bs, bs + n);
        out.merge_front(&front.slice(fs, fs + n), mode);
        out
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

impl Fragment for SpanImage {
    fn from_view(view: PixelView<'_>) -> SpanImage {
        SpanImage::from_view(view)
    }

    fn slice(&self, start: usize, end: usize) -> SpanImage {
        SpanImage::slice(self, start, end)
    }

    fn merge_windows(
        front: (&SpanImage, usize),
        back: (&SpanImage, usize),
        n: usize,
        mode: CompositeMode,
    ) -> SpanImage {
        composite_windows(front, back, n, mode)
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

/// Direct send: every rank owns `1/P` of the pixels and receives that part
/// from all other ranks in one round.
pub fn direct_send_opts(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    opts: ExchangeOptions,
) -> (RankImage, CompositeStats) {
    radix_k_opts(images, mode, net, &[images.len()], opts)
}

/// Binary swap: pairwise half-exchanges over log2(P) rounds. Non-power-of-two
/// rank counts are handled with IceT's *folding* pre-round: the first
/// `2*(P - 2^floor(log2 P))` ranks merge pairwise (whole-image sends), which
/// leaves a power-of-two group of contiguous visibility blocks for the swap
/// rounds.
pub fn binary_swap_opts(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    opts: ExchangeOptions,
) -> (RankImage, CompositeStats) {
    let p = images.len();
    assert!(p > 0);
    let pow2 = 1usize << p.ilog2();
    let swaps = vec![2usize; p.ilog2() as usize];
    if p == pow2 {
        return radix_k_opts(images, mode, net, &swaps, opts);
    }
    let images = views_of(images);

    // Fold: with m = p - pow2 extras, ranks 0..2m merge in adjacent pairs
    // (2i, 2i+1) — adjacency keeps the visibility order contiguous for the
    // ordered-alpha mode. The fold is the first barriered round of the world
    // the swap rounds then run on.
    let m = p - pow2;
    let bpp = RankImage::bytes_per_pixel(mode);
    let n_px = images[0].color.len();
    let mut world = EventWorld::new(p, net);
    let mut fold_costs = vec![RoundCost::default(); p];
    let mut pairs: Vec<RankImage> = Vec::with_capacity(m);
    let mut fold_compute = 0.0f64;
    for i in 0..m {
        let ((sent, back), dt) = dpp::timed(|| {
            // The odd member ships its whole image to the even member (active
            // spans only when compression is on).
            let sent = if opts.compress {
                SpanImage::from_view(images[2 * i + 1]).wire_bytes(mode)
            } else {
                n_px * bpp
            };
            let mut back = RankImage::from_view(images[2 * i + 1]);
            back.merge_front(&RankImage::from_view(images[2 * i]), mode);
            (sent, back)
        });
        fold_compute += dt;
        fold_costs[2 * i + 1] =
            RoundCost { compute_s: 0.0, bytes_sent: sent, bytes_dense: n_px * bpp, messages: 1 };
        fold_costs[2 * i] = RoundCost { compute_s: dt, ..RoundCost::default() };
        pairs.push(back);
    }
    let folded: Vec<PixelView> =
        pairs.iter().map(Pixels::view).chain(images[2 * m..].iter().copied()).collect();
    debug_assert_eq!(folded.len(), pow2);
    world.finish_round(&fold_costs);
    exchange(&folded, mode, world, fold_compute, &swaps, opts)
}

/// Factor `p` into radix-k round sizes (2s and small primes, largest last).
pub fn default_factors(p: usize) -> Vec<usize> {
    let mut n = p.max(1);
    let mut out = Vec::new();
    for f in [2usize, 3, 5, 7] {
        while n.is_multiple_of(f) {
            out.push(f);
            n /= f;
        }
    }
    if n > 1 {
        out.push(n);
    }
    if out.is_empty() {
        out.push(1);
    }
    out
}

/// One rank's in-flight state: the pixel range it currently owns and the
/// composited fragment for that range.
#[derive(Clone)]
struct RankState<F> {
    start: usize,
    end: usize,
    frag: F,
}

/// General radix-k compositing. `factors` must multiply to `images.len()`.
/// Rank index is visibility order (front = rank 0) for `AlphaOrdered`.
pub fn radix_k_opts(
    images: &[impl Pixels],
    mode: CompositeMode,
    net: NetModel,
    factors: &[usize],
    opts: ExchangeOptions,
) -> (RankImage, CompositeStats) {
    exchange(&views_of(images), mode, EventWorld::new(images.len(), net), 0.0, factors, opts)
}

/// The views every entry point hands the one exchange path.
pub(crate) fn views_of(images: &[impl Pixels]) -> Vec<PixelView<'_>> {
    images.iter().map(Pixels::view).collect()
}

/// Run the rounds on `world` in the wire format `opts` selects. Binary swap
/// hands over a world that has run the fold round (`compute_so_far` is its
/// blending) and whose folded-away ranks sit the remaining rounds out.
fn exchange(
    images: &[PixelView],
    mode: CompositeMode,
    world: EventWorld,
    compute_so_far: f64,
    factors: &[usize],
    opts: ExchangeOptions,
) -> (RankImage, CompositeStats) {
    if opts.compress {
        run_radix::<SpanImage>(images, mode, world, compute_so_far, factors)
    } else {
        run_radix::<RankImage>(images, mode, world, compute_so_far, factors)
    }
}

fn run_radix<F: Fragment>(
    images: &[PixelView],
    mode: CompositeMode,
    mut world: EventWorld,
    mut compute_total: f64,
    factors: &[usize],
) -> (RankImage, CompositeStats) {
    let p = images.len();
    assert!(p > 0);
    assert_eq!(factors.iter().product::<usize>(), p, "factors {factors:?} do not multiply to {p}");
    let width = images[0].width;
    let height = images[0].height;
    let n_px = images[0].color.len();
    let bpp = RankImage::bytes_per_pixel(mode);

    // Initial (compressed) fragment construction is compute the ranks do,
    // each on its own.
    let encoded: Vec<(F, f64)> =
        images.par_iter().map(|&view| dpp::timed(|| F::from_view(view))).collect();
    compute_total += encoded.iter().map(|e| e.1).sum::<f64>();
    let mut states: Vec<RankState<F>> =
        encoded.into_iter().map(|(frag, _)| RankState { start: 0, end: n_px, frag }).collect();

    let mut stride = 1usize;
    for &k in factors {
        if k == 1 {
            continue;
        }
        // Execute the round: every rank keeps part `d` of its range and
        // merges the same part from its k-1 group partners (digit order =
        // visibility order of the accumulated contiguous blocks).
        let results: Vec<(RankState<F>, RoundCost, f64)> = (0..p)
            .into_par_iter()
            .map(|r| {
                let d = (r / stride) % k;
                let group_base = r - d * stride;
                let my = &states[r];
                let len = my.end - my.start;
                let part = |j: usize| -> (usize, usize) {
                    (my.start + j * len / k, my.start + (j + 1) * len / k)
                };
                let (ps, pe) = part(d);
                let ((frag, wire), compute) = dpp::timed(|| {
                    // Merge members front (digit 0) to back (digit k-1), each
                    // read in place: member `j`'s fragment covers
                    // [ms.start, ms.end), so [ps, pe) starts at ps - ms.start.
                    let n = pe - ps;
                    let window = |j: usize| {
                        let ms = &states[group_base + j * stride];
                        (&ms.frag, ps - ms.start)
                    };
                    // `acc` holds members 0..j (in front), so member j goes
                    // behind it.
                    let merge = |acc: (&F, usize), j: usize| match mode {
                        CompositeMode::ZBuffer => F::merge_windows(window(j), acc, n, mode),
                        CompositeMode::AlphaOrdered => F::merge_windows(acc, window(j), n, mode),
                    };
                    let mut frag = merge(window(0), 1);
                    for j in 2..k {
                        frag = merge((&frag, 0), j);
                    }
                    // Wire bytes: this rank sends its own fragment's other k-1
                    // parts (compressed sizing included in the timed window — it
                    // is the packing cost).
                    let mut wire = 0usize;
                    for j in 0..k {
                        if j != d {
                            let (s, e) = part(j);
                            wire += my.frag.wire_bytes_range(s - my.start, e - my.start, mode);
                        }
                    }
                    (frag, wire)
                });
                let sent_pixels = len - (pe - ps);
                let cost = RoundCost {
                    compute_s: compute,
                    bytes_sent: wire,
                    bytes_dense: sent_pixels * bpp,
                    messages: k - 1,
                };
                (RankState { start: ps, end: pe, frag }, cost, compute)
            })
            .collect();
        let costs: Vec<RoundCost> = results.iter().map(|r| r.1).collect();
        compute_total += results.iter().map(|r| r.2).sum::<f64>();
        states = results.into_iter().map(|r| r.0).collect();
        world.finish_round(&costs);
        stride *= k;
    }

    // Final gather to root: every rank ships its piece; the root's NIC
    // serializes the incoming image, so the root is charged the full byte
    // volume.
    let (full, assemble) = dpp::timed(|| {
        let mut full = RankImage::empty(width, height);
        for st in &states {
            st.frag.write_into(&mut full, st.start);
        }
        full
    });
    compute_total += assemble;
    let mut gather_costs = vec![RoundCost::default(); p];
    let mut incoming_wire = 0usize;
    for (r, st) in states.iter().enumerate() {
        if r != 0 {
            let wire = st.frag.wire_bytes(mode);
            incoming_wire += wire;
            gather_costs[r] = RoundCost {
                compute_s: 0.0,
                bytes_sent: wire,
                bytes_dense: (st.end - st.start) * bpp,
                messages: 1,
            };
        }
    }
    gather_costs[0] = RoundCost {
        compute_s: assemble,
        bytes_sent: incoming_wire,
        bytes_dense: n_px.saturating_sub(states[0].end - states[0].start) * bpp,
        messages: p.saturating_sub(1),
    };
    world.finish_round(&gather_costs);
    (full, CompositeStats::from_world(world, compute_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use vecmath::Color;

    /// Random sparse rank images: each rank covers a band of pixels.
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

    #[test]
    fn all_algorithms_match_reference_zbuffer() {
        let (net, opts) = (NetModel::zero(), ExchangeOptions::default());
        for p in [1usize, 2, 4, 6, 8, 12] {
            let imgs = make_images(p, 16, 9, 42 + p as u64);
            let expect = reference(&imgs, CompositeMode::ZBuffer);
            let (ds, _) = direct_send_opts(&imgs, CompositeMode::ZBuffer, net, opts);
            assert!(ds.max_color_diff(&expect) < 1e-6, "direct send p={p}");
            let (rk, _) =
                radix_k_opts(&imgs, CompositeMode::ZBuffer, net, &default_factors(p), opts);
            assert!(rk.max_color_diff(&expect) < 1e-6, "radix-k p={p}");
            let (bs, _) = binary_swap_opts(&imgs, CompositeMode::ZBuffer, net, opts);
            assert!(bs.max_color_diff(&expect) < 1e-6, "binary swap p={p}");
        }
    }

    #[test]
    fn all_algorithms_match_reference_alpha() {
        let (net, opts) = (NetModel::zero(), ExchangeOptions::default());
        for p in [1usize, 2, 4, 8, 9, 16] {
            let imgs = make_images(p, 13, 7, 1000 + p as u64);
            let expect = reference(&imgs, CompositeMode::AlphaOrdered);
            let (ds, _) = direct_send_opts(&imgs, CompositeMode::AlphaOrdered, net, opts);
            assert!(ds.max_color_diff(&expect) < 2e-5, "direct send p={p}");
            let (rk, _) =
                radix_k_opts(&imgs, CompositeMode::AlphaOrdered, net, &default_factors(p), opts);
            assert!(rk.max_color_diff(&expect) < 2e-5, "radix-k p={p}");
            let (bs, _) = binary_swap_opts(&imgs, CompositeMode::AlphaOrdered, net, opts);
            assert!(bs.max_color_diff(&expect) < 2e-5, "binary swap p={p}");
        }
    }

    #[test]
    fn binary_swap_has_log_rounds() {
        let (net, opts) = (NetModel::cluster(), ExchangeOptions::default());
        let imgs = make_images(8, 8, 8, 3);
        let (_, st) = binary_swap_opts(&imgs, CompositeMode::ZBuffer, net, opts);
        assert_eq!(st.rounds, 3 + 1); // log2(8) + gather
        let (_, st2) = direct_send_opts(&imgs, CompositeMode::ZBuffer, net, opts);
        assert_eq!(st2.rounds, 1 + 1);
        // Non-power-of-two adds one fold round: 12 -> fold + log2(8) + gather.
        let imgs12 = make_images(12, 8, 8, 4);
        let (out, st3) = binary_swap_opts(&imgs12, CompositeMode::AlphaOrdered, net, opts);
        assert_eq!(st3.rounds, 1 + 3 + 1);
        let expect = reference(&imgs12, CompositeMode::AlphaOrdered);
        assert!(out.max_color_diff(&expect) < 2e-5);
    }

    /// Non-power-of-two binary swap runs its fold round and its swap rounds
    /// on one world: one set of books, fold round first, gather last.
    #[test]
    fn folded_binary_swap_keeps_one_set_of_books() {
        for (p, pow2) in [(6usize, 4usize), (12, 8)] {
            let imgs = make_images(p, 16, 9, 300 + p as u64);
            for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
                let expect = reference(&imgs, mode);
                for opts in [ExchangeOptions::default(), ExchangeOptions::dense()] {
                    let (out, st) = binary_swap_opts(&imgs, mode, NetModel::cluster(), opts);
                    assert!(out.max_color_diff(&expect) < 2e-5, "p={p} {mode:?} {opts:?}");
                    assert_eq!(st.rounds, 1 + pow2.trailing_zeros() as usize + 1);
                    assert_eq!(st.per_round.len(), st.rounds);
                    let wire: u64 = st.per_round.iter().map(|r| r.wire_bytes).sum();
                    let dense: u64 = st.per_round.iter().map(|r| r.dense_bytes).sum();
                    assert_eq!(wire, st.total_bytes, "p={p} {mode:?} {opts:?}");
                    assert_eq!(dense, st.dense_bytes, "p={p} {mode:?} {opts:?}");
                    // The fold round: p - pow2 whole images, one per pair.
                    let image_bytes = (16 * 9 * RankImage::bytes_per_pixel(mode)) as u64;
                    assert_eq!(st.per_round[0].dense_bytes, (p - pow2) as u64 * image_bytes);
                }
            }
        }
    }

    #[test]
    fn bigger_images_cost_more_simulated_time() {
        let (net, opts) = (NetModel::cluster(), ExchangeOptions::default());
        let small = make_images(4, 16, 16, 9);
        let big = make_images(4, 64, 64, 9);
        let (_, a) = binary_swap_opts(&small, CompositeMode::AlphaOrdered, net, opts);
        let (_, b) = binary_swap_opts(&big, CompositeMode::AlphaOrdered, net, opts);
        assert!(b.simulated_seconds > a.simulated_seconds);
        assert!(b.total_bytes > a.total_bytes);
    }

    #[test]
    fn default_factors_multiply_back() {
        for p in [1usize, 2, 6, 8, 12, 24, 1024, 1000] {
            let f = default_factors(p);
            assert_eq!(f.iter().product::<usize>(), p, "{f:?}");
        }
    }

    /// `compose` is the call each wire used to be dispatched to by hand:
    /// the same image bits, bytes and rounds, at a non-power-of-two rank
    /// count (through default factors `[2, 3]`) and a power of two.
    #[test]
    fn compose_runs_the_exchange_its_wire_names() {
        let bits = |img: &RankImage| -> Vec<u32> {
            img.color
                .iter()
                .zip(&img.depth)
                .flat_map(|(c, d)| [c.r, c.g, c.b, c.a, *d].map(f32::to_bits))
                .collect()
        };
        let net = NetModel::cluster();
        for p in [6usize, 8] {
            let imgs = make_images(p, 80, 60, 500 + p as u64);
            let factors = default_factors(p);
            for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
                for (wire, (want, want_st)) in [
                    (
                        CompositeWire::Dense,
                        radix_k_opts(&imgs, mode, net, &factors, ExchangeOptions::dense()),
                    ),
                    (
                        CompositeWire::Compressed,
                        radix_k_opts(&imgs, mode, net, &factors, ExchangeOptions::default()),
                    ),
                    (
                        CompositeWire::Dfb,
                        dfb_compose_opts(&imgs, mode, net, ExchangeOptions::default()),
                    ),
                ] {
                    let (got, st) = compose(&imgs, mode, net, wire);
                    let what = format!("p={p} {mode:?} {}", wire.name());
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    assert_eq!(st.total_bytes, want_st.total_bytes, "{what}");
                    assert_eq!(st.dense_bytes, want_st.dense_bytes, "{what}");
                    assert_eq!(st.per_round, want_st.per_round, "{what}");
                    assert_eq!(st.rounds, want_st.rounds, "{what}");
                }
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let (net, opts) = (NetModel::cluster(), ExchangeOptions::default());
        let imgs = make_images(1, 10, 10, 5);
        let (out, st) = direct_send_opts(&imgs, CompositeMode::ZBuffer, net, opts);
        assert!(out.max_color_diff(&imgs[0]) < 1e-7);
        assert_eq!(st.total_bytes, 0);
        assert_eq!(st.dense_bytes, 0);
    }

    /// Compressed (default) and dense exchanges must agree bit-for-bit.
    #[test]
    fn compressed_and_dense_outputs_are_pixel_identical() {
        for p in [2usize, 4, 6, 12] {
            let imgs = make_images(p, 16, 9, 77 + p as u64);
            for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
                let factors = default_factors(p);
                let (c, cs) = radix_k_opts(
                    &imgs,
                    mode,
                    NetModel::cluster(),
                    &factors,
                    ExchangeOptions::default(),
                );
                let (d, ds) = radix_k_opts(
                    &imgs,
                    mode,
                    NetModel::cluster(),
                    &factors,
                    ExchangeOptions::dense(),
                );
                assert_eq!(c.max_color_diff(&d), 0.0, "p={p} {mode:?}");
                for i in 0..c.depth.len() {
                    assert!(c.depth[i] == d.depth[i], "depth {i} p={p} {mode:?}");
                }
                // Dense accounting must match regardless of representation.
                assert_eq!(cs.dense_bytes, ds.dense_bytes, "p={p} {mode:?}");
                assert_eq!(ds.total_bytes, ds.dense_bytes, "dense path is dense");
            }
        }
    }

    /// Sparse bands compress; the wire total must drop accordingly and the
    /// per-round records must sum to the totals.
    #[test]
    fn sparse_images_compress_on_the_wire() {
        let imgs = make_images(8, 32, 32, 21);
        let factors = default_factors(8);
        let mode = CompositeMode::ZBuffer;
        let (_, comp) =
            radix_k_opts(&imgs, mode, NetModel::cluster(), &factors, ExchangeOptions::default());
        let (_, dense) =
            radix_k_opts(&imgs, mode, NetModel::cluster(), &factors, ExchangeOptions::dense());
        assert!(
            comp.total_bytes < dense.total_bytes,
            "{} vs {}",
            comp.total_bytes,
            dense.total_bytes
        );
        assert!(comp.compression_ratio() > 1.0);
        assert_eq!(comp.per_round.len(), comp.rounds);
        let wire_sum: u64 = comp.per_round.iter().map(|r| r.wire_bytes).sum();
        let dense_sum: u64 = comp.per_round.iter().map(|r| r.dense_bytes).sum();
        assert_eq!(wire_sum, comp.total_bytes);
        assert_eq!(dense_sum, comp.dense_bytes);
    }
}
