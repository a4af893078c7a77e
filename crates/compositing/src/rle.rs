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
//! Wire cost: a compressed fragment costs an 8-byte header, 8 bytes per run
//! pair, and `bytes_per_pixel(mode)` per active pixel. [`SpanImage::wire_bytes`]
//! charges `min(dense, compressed)` — a sender always falls back to the raw
//! representation when run structure would inflate a dense image, exactly as
//! IceT's per-scanline compression flag does, so fully-active images cost
//! the same bytes as the uncompressed path.

use crate::image::{CompositeMode, RankImage};
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
        Builder { width, height, len: 0, runs: Vec::new(), color: Vec::new(), depth: Vec::new() }
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

    fn push_pixel(&mut self, c: Color, d: f32) {
        self.len += 1;
        match self.runs.last_mut() {
            Some(r) => r.active += 1,
            None => self.runs.push(Run { background: 0, active: 1 }),
        }
        self.color.push(c);
        self.depth.push(d);
    }

    fn push_active(&mut self, colors: &[Color], depths: &[f32]) {
        if colors.is_empty() {
            return;
        }
        self.len += colors.len();
        match self.runs.last_mut() {
            Some(r) => r.active += colors.len() as u32,
            None => self.runs.push(Run { background: 0, active: colors.len() as u32 }),
        }
        self.color.extend_from_slice(colors);
        self.depth.extend_from_slice(depths);
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

/// Cursor over the alternating segments of a [`SpanImage`], supporting
/// partial consumption (needed when two images' run boundaries interleave).
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
}

impl<'a> SegCursor<'a> {
    fn new(img: &'a SpanImage) -> SegCursor<'a> {
        let remaining = img.runs.first().map_or(0, |r| r.background as usize);
        SegCursor { runs: &img.runs, run: 0, in_active: false, remaining, payload: 0 }
    }

    /// `(is_active, available)` of the current non-empty segment, or `None`
    /// at the end.
    fn peek(&mut self) -> Option<(bool, usize)> {
        while self.remaining == 0 {
            if !self.in_active {
                if self.run >= self.runs.len() {
                    return None;
                }
                self.in_active = true;
                self.remaining = self.runs[self.run].active as usize;
            } else {
                self.run += 1;
                if self.run >= self.runs.len() {
                    return None;
                }
                self.in_active = false;
                self.remaining = self.runs[self.run].background as usize;
            }
        }
        Some((self.in_active, self.remaining))
    }

    /// Consume `n` pixels of the current segment (`n <= peek().1`); returns
    /// the payload start index (meaningful only for active segments).
    fn take(&mut self, n: usize) -> usize {
        debug_assert!(n <= self.remaining);
        let start = self.payload;
        if self.in_active {
            self.payload += n;
        }
        self.remaining -= n;
        start
    }
}

impl SpanImage {
    /// Compress a dense rank image (or fragment).
    pub fn encode(img: &RankImage) -> SpanImage {
        let mut b = Builder::new(img.width, img.height);
        for (c, d) in img.color.iter().zip(img.depth.iter()) {
            if is_active(*c, *d) {
                b.push_pixel(*c, *d);
            } else {
                b.push_background(1);
            }
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

    /// Extract pixels `[start, end)` as a new fragment.
    pub fn slice(&self, start: usize, end: usize) -> SpanImage {
        assert!(start <= end && end <= self.len, "slice {start}..{end} of {}", self.len);
        let mut b = Builder::new(self.width, self.height);
        let mut pos = 0usize;
        let mut pay = 0usize;
        for r in &self.runs {
            for (active, n) in [(false, r.background as usize), (true, r.active as usize)] {
                let seg_start = pos;
                let seg_end = pos + n;
                let lo = seg_start.max(start);
                let hi = seg_end.min(end);
                if lo < hi {
                    if active {
                        let p = pay + (lo - seg_start);
                        b.push_active(&self.color[p..p + (hi - lo)], &self.depth[p..p + (hi - lo)]);
                    } else {
                        b.push_background(hi - lo);
                    }
                }
                pos = seg_end;
                if active {
                    pay += n;
                }
            }
            if pos >= end {
                break;
            }
        }
        // A fragment covers exactly end-start pixels even when the parent's
        // trailing pixels are implicit (no runs past the window).
        if b.len < end - start {
            b.push_background(end - start - b.len);
        }
        b.finish()
    }

    /// Merge `front` into `self` with the same per-pixel semantics (and
    /// bit-exact results) as [`RankImage::merge_front`], operating directly
    /// on the compressed spans.
    pub fn merge_front(&mut self, front: &SpanImage, mode: CompositeMode) {
        *self = composite(front, self, mode);
    }
}

/// Compressed-domain merge: `front` over/in-front-of `back`, mirroring
/// `back.merge_front(&front, mode)` of the dense path exactly.
pub fn composite(front: &SpanImage, back: &SpanImage, mode: CompositeMode) -> SpanImage {
    assert_eq!(front.len, back.len, "fragment size mismatch");
    let mut f = SegCursor::new(front);
    let mut b = SegCursor::new(back);
    let mut out = Builder::new(front.width, front.height);
    while let Some((f_act, f_avail)) = f.peek() {
        // xlint::allow(X006): guarded by the len assert at function top; cursors advance in lockstep.
        let (b_act, b_avail) = b.peek().expect("fragments cover equal pixel counts");
        let n = f_avail.min(b_avail);
        let fp = f.take(n);
        let bp = b.take(n);
        match (f_act, b_act) {
            // Background over background stays background.
            (false, false) => out.push_background(n),
            // Background in front never obscures: z-test against +inf fails,
            // and over(transparent, x) == x; the back payload survives.
            (false, true) => out.push_active(&back.color[bp..bp + n], &back.depth[bp..bp + n]),
            (true, false) => match mode {
                // over(x, transparent) == x, depth min(d, inf) == d.
                CompositeMode::AlphaOrdered => {
                    out.push_active(&front.color[fp..fp + n], &front.depth[fp..fp + n])
                }
                // The z test `front.depth < inf` can still fail for an
                // active pixel whose color is set but whose depth is
                // infinite; the dense path keeps the background there.
                CompositeMode::ZBuffer => {
                    for i in 0..n {
                        let d = front.depth[fp + i];
                        if d < f32::INFINITY {
                            out.push_pixel(front.color[fp + i], d);
                        } else {
                            out.push_background(1);
                        }
                    }
                }
            },
            (true, true) => match mode {
                CompositeMode::ZBuffer => {
                    for i in 0..n {
                        if front.depth[fp + i] < back.depth[bp + i] {
                            out.push_pixel(front.color[fp + i], front.depth[fp + i]);
                        } else {
                            out.push_pixel(back.color[bp + i], back.depth[bp + i]);
                        }
                    }
                }
                CompositeMode::AlphaOrdered => {
                    for i in 0..n {
                        out.push_pixel(
                            over(front.color[fp + i], back.color[bp + i]),
                            back.depth[bp + i].min(front.depth[fp + i]),
                        );
                    }
                }
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
    fn merge_front_matches_dense_both_modes() {
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
            let mut span = SpanImage::encode(&b);
            span.merge_front(&SpanImage::encode(&a), mode);
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
