//! Run-length active-pixel compression — the IceT optimization that makes
//! sort-last compositing scale.
//!
//! Rendered rank images are mostly background (an isosurface covers a
//! fraction of the screen, and domain decomposition shrinks each rank's
//! footprint further), so shipping dense pixel arrays wastes almost all of
//! the wire. [`SpanImage`] stores a fragment as alternating runs of
//! *background* (no payload) and *active* pixels (color + depth payload),
//! and implements the compositing operators directly on that representation:
//!
//! * background ⊕ background — free, no per-pixel work;
//! * active ⊕ background — a payload copy (plus the z test against the
//!   background's infinite depth);
//! * active ⊕ active — the exact per-pixel blend of the dense path.
//!
//! Every operation is **bit-exact** against [`RankImage::merge_front`]: a
//! pixel is encoded as background only when its payload equals the canonical
//! background `(Color::TRANSPARENT, +inf)`, so `decode(encode(img)) == img`
//! and compressed compositing produces pixel-identical images. (This
//! predicate is deliberately stricter than [`RankImage::active_pixels`],
//! which is a *model statistic* and ignores zero-alpha colored pixels.)
//!
//! The one encoder, [`SpanImage::from_view`], reads a borrowed [`PixelView`]
//! and premultiplies a straight-alpha framebuffer pixel as it tests it, so
//! no dense copy is built only to have its background thrown away.
//!
//! Wire cost: a compressed fragment costs an 8-byte header, 8 bytes per run
//! pair, and `bytes_per_pixel(mode)` per active pixel. [`SpanImage::wire_bytes`]
//! charges `min(dense, compressed)` — a sender always falls back to the raw
//! representation when run structure would inflate a dense image, exactly as
//! IceT's per-scanline compression flag does, so fully-active images cost
//! the same bytes as the uncompressed path. [`SpanImage::wire_bytes_range`]
//! prices a sub-range the same way from run counts alone, without slicing.

use crate::image::{CompositeMode, PixelView, Pixels, RankImage};
use vecmath::{over, Color};

/// Wire-format overhead charged per compressed fragment (pixel count + run
/// count, two u32s).
pub const HEADER_BYTES: usize = 8;
/// Wire-format overhead charged per run pair (background length + active
/// length, two u32s).
pub const RUN_BYTES: usize = 8;

/// One alternating run pair: `background` payload-free pixels followed by
/// `active` payload-carrying pixels. Either count may be zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub background: u32,
    pub active: u32,
}

/// A run-length-compressed image fragment.
#[derive(Debug, Clone)]
pub struct SpanImage {
    width: u32,
    height: u32,
    /// Total pixels covered (sum of all run lengths).
    len: usize,
    runs: Vec<Run>,
    /// Color payload of active pixels, in pixel order.
    color: Vec<Color>,
    /// Depth payload of active pixels, in pixel order.
    depth: Vec<f32>,
}

/// True when the pixel carries information the background default does not.
#[inline]
fn is_active(c: Color, d: f32) -> bool {
    c.a != 0.0 || c.r != 0.0 || c.g != 0.0 || c.b != 0.0 || d.is_finite()
}

/// Incremental [`SpanImage`] constructor that coalesces adjacent runs.
struct Builder {
    width: u32,
    height: u32,
    len: usize,
    runs: Vec<Run>,
    color: Vec<Color>,
    depth: Vec<f32>,
}

impl Builder {
    fn new(width: u32, height: u32) -> Builder {
        Builder::with_capacity(width, height, 0, 0)
    }

    fn with_capacity(width: u32, height: u32, runs: usize, payload: usize) -> Builder {
        Builder {
            width,
            height,
            len: 0,
            runs: Vec::with_capacity(runs),
            color: Vec::with_capacity(payload),
            depth: Vec::with_capacity(payload),
        }
    }

    fn push_background(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        match self.runs.last_mut() {
            // Extend a trailing pure-background run; an active run in
            // progress forces a fresh pair.
            Some(r) if r.active == 0 => r.background += n as u32,
            _ => self.runs.push(Run { background: n as u32, active: 0 }),
        }
    }

    /// Append one active piece; `colors` and `depths` yield equally many
    /// pixels.
    fn push_active(
        &mut self,
        colors: impl Iterator<Item = Color>,
        depths: impl Iterator<Item = f32>,
    ) {
        let before = self.depth.len();
        self.color.extend(colors);
        self.depth.extend(depths);
        debug_assert_eq!(self.color.len(), self.depth.len());
        let n = self.depth.len() - before;
        if n == 0 {
            return;
        }
        self.len += n;
        match self.runs.last_mut() {
            Some(r) => r.active += n as u32,
            None => self.runs.push(Run { background: 0, active: n as u32 }),
        }
    }

    fn finish(self) -> SpanImage {
        SpanImage {
            width: self.width,
            height: self.height,
            len: self.len,
            runs: self.runs,
            color: self.color,
            depth: self.depth,
        }
    }
}

/// Cursor over the alternating segments of a window of a [`SpanImage`],
/// supporting partial consumption (needed when two images' run boundaries
/// interleave).
struct SegCursor<'a> {
    runs: &'a [Run],
    /// Index of the current run pair.
    run: usize,
    /// Currently inside the active half of the pair?
    in_active: bool,
    /// Pixels left in the current half.
    remaining: usize,
    /// Payload index of the next active pixel.
    payload: usize,
    /// Pixels left in the window.
    left: usize,
}

impl<'a> SegCursor<'a> {
    /// A cursor over pixels `[start, start + n)` of `img`.
    fn window(img: &'a SpanImage, start: usize, n: usize) -> SegCursor<'a> {
        assert!(start + n <= img.len, "window {start}+{n} of {}", img.len);
        let (mut pos, mut payload) = (0usize, 0usize);
        // The run half holding `start` and its pixels from `start` on; past
        // the last run when `start` is the image end.
        let mut at = (img.runs.len(), true, 0usize);
        for (run, r) in img.runs.iter().enumerate() {
            let background_end = pos + r.background as usize;
            pos = background_end + r.active as usize;
            if start < background_end {
                at = (run, false, background_end - start);
                break;
            }
            if start < pos {
                payload += start - background_end;
                at = (run, true, pos - start);
                break;
            }
            payload += r.active as usize;
        }
        let (run, in_active, remaining) = at;
        SegCursor { runs: &img.runs, run, in_active, remaining, payload, left: n }
    }

    /// `(is_active, available)` of the current non-empty segment, clipped to
    /// the window, or `None` at the window's end.
    fn peek(&mut self) -> Option<(bool, usize)> {
        if self.left == 0 {
            return None;
        }
        while self.remaining == 0 {
            if !self.in_active {
                self.in_active = true;
                self.remaining = self.runs[self.run].active as usize;
            } else {
                // The window lies inside the image, so another run follows.
                self.run += 1;
                self.in_active = false;
                self.remaining = self.runs[self.run].background as usize;
            }
        }
        Some((self.in_active, self.remaining.min(self.left)))
    }

    /// Consume `n` pixels of the current segment (`n <= peek().1`); returns
    /// the payload start index (meaningful only for active segments).
    fn take(&mut self, n: usize) -> usize {
        debug_assert!(n <= self.remaining && n <= self.left);
        let start = self.payload;
        if self.in_active {
            self.payload += n;
        }
        self.remaining -= n;
        self.left -= n;
        start
    }
}

impl SpanImage {
    /// Compress a dense rank image (or fragment).
    pub fn encode(img: &RankImage) -> SpanImage {
        SpanImage::from_view(img.view())
    }

    /// Compress the pixels behind `view` — the one encoder. It scans for run
    /// boundaries and appends each active run whole. A straight-alpha pixel
    /// is premultiplied *before* the activity test, so the spans are those
    /// of the premultiplied image, bit for bit.
    pub fn from_view(view: PixelView<'_>) -> SpanImage {
        let depth = view.depth;
        let n = view.color.len().min(depth.len());
        let run_end = |from: usize, active: bool| -> usize {
            (from..n).find(|&i| is_active(view.premultiplied(i), depth[i]) != active).unwrap_or(n)
        };
        let mut b = Builder::new(view.width, view.height);
        let mut i = 0usize;
        while i < n {
            let bg_end = run_end(i, false);
            b.push_background(bg_end - i);
            i = run_end(bg_end, true);
            b.push_active(
                (bg_end..i).map(|j| view.premultiplied(j)),
                depth[bg_end..i].iter().copied(),
            );
        }
        b.finish()
    }

    /// Decompress back to the dense representation.
    pub fn decode(&self) -> RankImage {
        let mut out = RankImage {
            width: self.width,
            height: self.height,
            color: vec![Color::TRANSPARENT; self.len],
            depth: vec![f32::INFINITY; self.len],
        };
        self.write_into(&mut out, 0);
        out
    }

    /// Write the fragment's pixels into `out` starting at pixel `start`.
    pub fn write_into(&self, out: &mut RankImage, start: usize) {
        let mut pos = start;
        let mut pay = 0usize;
        for r in &self.runs {
            pos += r.background as usize;
            let n = r.active as usize;
            out.color[pos..pos + n].copy_from_slice(&self.color[pay..pay + n]);
            out.depth[pos..pos + n].copy_from_slice(&self.depth[pay..pay + n]);
            pos += n;
            pay += n;
        }
    }

    /// Total pixels covered by this fragment.
    pub fn num_pixels(&self) -> usize {
        self.len
    }

    /// Payload-carrying pixels.
    pub fn active_pixels(&self) -> usize {
        self.color.len()
    }

    /// Bytes this fragment costs on the wire: the compressed encoding
    /// (header + runs + active payloads), or the dense size when run
    /// structure would inflate past it (IceT's raw fallback).
    pub fn wire_bytes(&self, mode: CompositeMode) -> usize {
        let bpp = RankImage::bytes_per_pixel(mode);
        let dense = self.len * bpp;
        let compressed = HEADER_BYTES + self.runs.len() * RUN_BYTES + self.color.len() * bpp;
        dense.min(compressed)
    }

    /// Call `f(active, payload_start, n)` for each non-empty piece of a run
    /// half inside `[start, end)`, in pixel order. The runs cover `len`
    /// pixels, so the pieces cover the window.
    fn for_segments_in(&self, start: usize, end: usize, mut f: impl FnMut(bool, usize, usize)) {
        assert!(start <= end && end <= self.len, "slice {start}..{end} of {}", self.len);
        let mut pos = 0usize;
        let mut pay = 0usize;
        for r in &self.runs {
            for (active, n) in [(false, r.background as usize), (true, r.active as usize)] {
                let lo = pos.max(start);
                let hi = (pos + n).min(end);
                if lo < hi {
                    f(active, pay + (lo - pos), hi - lo);
                }
                pos += n;
                if active {
                    pay += n;
                }
            }
            if pos >= end {
                return;
            }
        }
    }

    /// Extract pixels `[start, end)` as a new fragment.
    pub fn slice(&self, start: usize, end: usize) -> SpanImage {
        let mut b = Builder::new(self.width, self.height);
        self.for_segments_in(start, end, |active, p, n| {
            if active {
                b.push_active(
                    self.color[p..p + n].iter().copied(),
                    self.depth[p..p + n].iter().copied(),
                );
            } else {
                b.push_background(n);
            }
        });
        b.finish()
    }

    /// `self.slice(start, end).wire_bytes(mode)` without building the slice:
    /// the run-coalescing rule replayed on counts alone.
    pub fn wire_bytes_range(&self, start: usize, end: usize, mode: CompositeMode) -> usize {
        let (mut runs, mut tail_active, mut active) = (0usize, 0usize, 0usize);
        self.for_segments_in(start, end, |is_active, _, n| {
            // A background piece opens a pair unless the last one is still
            // pure background; an active piece joins the last pair.
            if runs == 0 || (!is_active && tail_active != 0) {
                runs += 1;
                tail_active = 0;
            }
            if is_active {
                tail_active += n;
                active += n;
            }
        });
        let bpp = RankImage::bytes_per_pixel(mode);
        ((end - start) * bpp).min(HEADER_BYTES + runs * RUN_BYTES + active * bpp)
    }
}

/// Compressed-domain merge of two whole fragments: `front` over/in-front-of
/// `back`, mirroring `back.merge_front(&front, mode)` of the dense path
/// exactly.
pub fn composite(front: &SpanImage, back: &SpanImage, mode: CompositeMode) -> SpanImage {
    assert_eq!(front.len, back.len, "fragment size mismatch");
    composite_windows((front, 0), (back, 0), front.len, mode)
}

/// Compressed-domain merge of two windows where they lie: pixels
/// `[fs, fs + n)` of `front` over/in-front-of pixels `[bs, bs + n)` of
/// `back`, as a new `n`-pixel fragment. Bit for bit
/// `composite(&front.slice(fs, fs + n), &back.slice(bs, bs + n), mode)`,
/// without building either slice.
pub fn composite_windows<'a>(
    (front, fs): (&'a SpanImage, usize),
    (back, bs): (&'a SpanImage, usize),
    n: usize,
    mode: CompositeMode,
) -> SpanImage {
    let mut f = SegCursor::window(front, fs, n);
    let mut b = SegCursor::window(back, bs, n);
    let mut out = Builder::with_capacity(
        front.width,
        front.height,
        front.runs.len() + back.runs.len(),
        n.min(front.active_pixels() + back.active_pixels()),
    );
    while let Some((f_act, f_avail)) = f.peek() {
        #[expect(
            clippy::expect_used,
            reason = "both windows are `n` pixels long; cursors advance in lockstep"
        )]
        let (b_act, b_avail) = b.peek().expect("windows cover equal pixel counts");
        let n = f_avail.min(b_avail);
        // Each side's payload for the piece; a background piece has none.
        let payload = |img: &'a SpanImage, p: usize, active: bool| -> (&'a [Color], &'a [f32]) {
            if active {
                (&img.color[p..p + n], &img.depth[p..p + n])
            } else {
                (&[], &[])
            }
        };
        let (fc, fd) = payload(front, f.take(n), f_act);
        let (bc, bd) = payload(back, b.take(n), b_act);
        match (f_act, b_act) {
            // Background over background stays background.
            (false, false) => out.push_background(n),
            // Background in front never obscures: z-test against +inf fails,
            // and over(transparent, x) == x; the back payload survives.
            (false, true) => out.push_active(bc.iter().copied(), bd.iter().copied()),
            (true, false) => match mode {
                // over(x, transparent) == x, depth min(d, inf) == d.
                CompositeMode::AlphaOrdered => {
                    out.push_active(fc.iter().copied(), fd.iter().copied())
                }
                // The z test `front.depth < inf` can still fail for an
                // active pixel whose color is set but whose depth is
                // infinite; the dense path keeps the background there.
                CompositeMode::ZBuffer => {
                    let mut i = 0;
                    while i < n {
                        let hit = |d: &f32| *d < f32::INFINITY;
                        let j = fd[i..].iter().position(|d| !hit(d)).map_or(n, |k| i + k);
                        out.push_active(fc[i..j].iter().copied(), fd[i..j].iter().copied());
                        i = fd[j..].iter().position(hit).map_or(n, |k| j + k);
                        out.push_background(i - j);
                    }
                }
            },
            (true, true) => match mode {
                CompositeMode::ZBuffer => out.push_active(
                    fc.iter().zip(bc).zip(fd.iter().zip(bd)).map(
                        |((c, k), (f, b))| {
                            if f < b {
                                *c
                            } else {
                                *k
                            }
                        },
                    ),
                    fd.iter().zip(bd).map(|(f, b)| if f < b { *f } else { *b }),
                ),
                CompositeMode::AlphaOrdered => out.push_active(
                    fc.iter().zip(bc).map(|(&f, &b)| over(f, b)),
                    bd.iter().zip(fd).map(|(&b, &f)| b.min(f)),
                ),
            },
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_from(colors: &[(f32, f32)], width: u32) -> RankImage {
        // (alpha, depth) pairs; alpha 0 + inf depth = background.
        let mut img = RankImage::empty(width, colors.len() as u32 / width);
        for (i, &(a, d)) in colors.iter().enumerate() {
            if a != 0.0 || d.is_finite() {
                img.color[i] = Color::new(a * 0.5, a * 0.25, a * 0.125, a);
                img.depth[i] = d;
            }
        }
        img
    }

    fn assert_images_equal(a: &RankImage, b: &RankImage) {
        assert_eq!(a.color.len(), b.color.len());
        for i in 0..a.color.len() {
            assert!(
                a.color[i] == b.color[i] && (a.depth[i] == b.depth[i]),
                "pixel {i}: {:?}/{} vs {:?}/{}",
                a.color[i],
                a.depth[i],
                b.color[i],
                b.depth[i]
            );
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let inf = f32::INFINITY;
        let img = image_from(
            &[(0.0, inf), (0.5, 1.0), (0.25, 2.0), (0.0, inf), (0.0, inf), (1.0, 0.5)],
            6,
        );
        let span = SpanImage::encode(&img);
        assert_eq!(span.num_pixels(), 6);
        assert_eq!(span.active_pixels(), 3);
        assert_images_equal(&span.decode(), &img);
    }

    #[test]
    fn zero_alpha_colored_pixel_survives_round_trip() {
        // Stricter than active_pixels(): color payload with a == 0 must not
        // be dropped by the codec.
        let mut img = RankImage::empty(2, 1);
        img.color[0] = Color::new(0.3, 0.0, 0.0, 0.0);
        let span = SpanImage::encode(&img);
        assert_images_equal(&span.decode(), &img);
    }

    #[test]
    fn wire_bytes_compresses_sparse_and_caps_at_dense() {
        let mut sparse = RankImage::empty(100, 1);
        sparse.depth[40] = 1.0;
        sparse.color[40] = Color::new(0.1, 0.1, 0.1, 0.5);
        let span = SpanImage::encode(&sparse);
        let dense = 100 * RankImage::bytes_per_pixel(CompositeMode::ZBuffer);
        assert!(span.wire_bytes(CompositeMode::ZBuffer) < dense / 10);

        let mut full = RankImage::empty(100, 1);
        for i in 0..100 {
            full.depth[i] = 1.0 + i as f32;
            full.color[i] = Color::new(0.5, 0.5, 0.5, 1.0);
        }
        let full_span = SpanImage::encode(&full);
        // Raw fallback: never more than the dense representation.
        assert_eq!(full_span.wire_bytes(CompositeMode::ZBuffer), dense);
        assert_eq!(
            full_span.wire_bytes(CompositeMode::AlphaOrdered),
            100 * RankImage::bytes_per_pixel(CompositeMode::AlphaOrdered)
        );
    }

    #[test]
    fn slice_matches_dense_slice() {
        let inf = f32::INFINITY;
        let img = image_from(
            &[
                (0.1, 3.0),
                (0.0, inf),
                (0.0, inf),
                (0.7, 1.0),
                (0.2, 2.0),
                (0.0, inf),
                (0.4, 0.1),
                (0.0, inf),
            ],
            8,
        );
        let span = SpanImage::encode(&img);
        for (s, e) in [(0, 8), (1, 5), (2, 3), (4, 4), (5, 8), (0, 2)] {
            let got = span.slice(s, e).decode();
            let want = img.slice(s, e);
            assert_images_equal(&got, &want);
        }
    }

    #[test]
    fn composite_matches_dense_both_modes() {
        let inf = f32::INFINITY;
        let a = image_from(
            &[(0.5, 2.0), (0.0, inf), (0.3, 1.0), (0.0, inf), (0.9, 4.0), (0.2, 0.5)],
            6,
        );
        let b = image_from(
            &[(0.0, inf), (0.6, 3.0), (0.4, 2.0), (0.0, inf), (0.1, 1.0), (0.8, 0.25)],
            6,
        );
        for mode in [CompositeMode::ZBuffer, CompositeMode::AlphaOrdered] {
            let mut dense = b.clone();
            dense.merge_front(&a, mode);
            let span = composite(&SpanImage::encode(&a), &SpanImage::encode(&b), mode);
            assert_images_equal(&span.decode(), &dense);
        }
    }

    #[test]
    fn empty_fragment_is_legal() {
        let img = RankImage::empty(4, 1);
        let span = SpanImage::encode(&img);
        let empty = span.slice(2, 2);
        assert_eq!(empty.num_pixels(), 0);
        assert_eq!(empty.wire_bytes(CompositeMode::ZBuffer), 0);
        assert_eq!(empty.decode().color.len(), 0);
    }
}
