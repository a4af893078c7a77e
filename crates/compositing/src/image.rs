//! Rank images and per-pixel merge semantics.

use vecmath::{over, Color};

/// How fragments merge during compositing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositeMode {
    /// Opaque: nearest depth wins.
    ZBuffer,
    /// Translucent: *over* in rank (visibility) order, colors premultiplied.
    AlphaOrdered,
}

/// One rank's full-resolution image contribution. Colors are premultiplied
/// alpha; depth is the camera-space distance of the nearest fragment
/// (infinity = background).
#[derive(Debug, Clone)]
pub struct RankImage {
    pub width: u32,
    pub height: u32,
    pub color: Vec<Color>,
    pub depth: Vec<f32>,
}

/// A borrowed rank image — the one input every exchange reads its fragments
/// from, so a framebuffer is encoded where it lies.
#[derive(Debug, Clone, Copy)]
pub struct PixelView<'a> {
    pub width: u32,
    pub height: u32,
    pub color: &'a [Color],
    pub depth: &'a [f32],
    /// `color` is straight (un-premultiplied) alpha, as a framebuffer holds it.
    pub straight_alpha: bool,
}

impl PixelView<'_> {
    /// Pixel `i`'s color as the exchanges blend it: premultiplied.
    #[inline]
    pub fn premultiplied(&self, i: usize) -> Color {
        if self.straight_alpha {
            self.color[i].premultiplied()
        } else {
            self.color[i]
        }
    }

    /// Count pixels carrying a fragment (the per-rank *active pixels* input
    /// of the compositing model); premultiplying does not move it.
    pub fn active_pixels(&self) -> usize {
        self.color.iter().zip(self.depth.iter()).filter(|(c, d)| c.a > 0.0 || d.is_finite()).count()
    }
}

/// One rank's contribution to an exchange: an owned [`RankImage`] or a
/// [`PixelView`] of pixels that live elsewhere.
pub trait Pixels {
    fn view(&self) -> PixelView<'_>;
}

impl Pixels for PixelView<'_> {
    fn view(&self) -> PixelView<'_> {
        *self
    }
}

impl Pixels for RankImage {
    fn view(&self) -> PixelView<'_> {
        let RankImage { width, height, color, depth } = self;
        PixelView { width: *width, height: *height, color, depth, straight_alpha: false }
    }
}

impl RankImage {
    /// The dense, premultiplied copy of `view`.
    pub fn from_view(view: PixelView<'_>) -> RankImage {
        let color = (0..view.color.len()).map(|i| view.premultiplied(i)).collect();
        RankImage { width: view.width, height: view.height, color, depth: view.depth.to_vec() }
    }

    /// Empty (fully transparent) image.
    pub fn empty(width: u32, height: u32) -> RankImage {
        let n = (width * height) as usize;
        RankImage {
            width,
            height,
            color: vec![Color::TRANSPARENT; n],
            depth: vec![f32::INFINITY; n],
        }
    }

    pub fn num_pixels(&self) -> usize {
        self.color.len()
    }

    /// [`PixelView::active_pixels`] of this image.
    pub fn active_pixels(&self) -> usize {
        self.view().active_pixels()
    }

    /// Bytes one pixel costs on the wire for the given mode (RGBA f32, plus
    /// depth for z compositing).
    pub fn bytes_per_pixel(mode: CompositeMode) -> usize {
        match mode {
            CompositeMode::ZBuffer => 20,
            CompositeMode::AlphaOrdered => 16,
        }
    }

    /// Extract the pixel range `[start, end)` as a sub-image fragment.
    pub fn slice(&self, start: usize, end: usize) -> RankImage {
        RankImage {
            width: self.width,
            height: self.height,
            color: self.color[start..end].to_vec(),
            depth: self.depth[start..end].to_vec(),
        }
    }

    /// Merge `front` into `self` pixel-by-pixel. For `AlphaOrdered` the
    /// argument must be *in front of* `self` in visibility order.
    pub fn merge_front(&mut self, front: &RankImage, mode: CompositeMode) {
        debug_assert_eq!(self.color.len(), front.color.len());
        match mode {
            CompositeMode::ZBuffer => {
                for i in 0..self.color.len() {
                    if front.depth[i] < self.depth[i] {
                        self.depth[i] = front.depth[i];
                        self.color[i] = front.color[i];
                    }
                }
            }
            CompositeMode::AlphaOrdered => {
                for i in 0..self.color.len() {
                    self.color[i] = over(front.color[i], self.color[i]);
                    self.depth[i] = self.depth[i].min(front.depth[i]);
                }
            }
        }
    }

    /// Max per-channel difference to another image, ignoring depth.
    pub fn max_color_diff(&self, o: &RankImage) -> f32 {
        self.color
            .iter()
            .zip(o.color.iter())
            .map(|(a, b)| {
                (a.r - b.r)
                    .abs()
                    .max((a.g - b.g).abs())
                    .max((a.b - b.b).abs())
                    .max((a.a - b.a).abs())
            })
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zbuffer_merge_keeps_nearest() {
        let mut back = RankImage::empty(2, 1);
        back.color[0] = Color::new(0.0, 1.0, 0.0, 1.0);
        back.depth[0] = 5.0;
        let mut front = RankImage::empty(2, 1);
        front.color[0] = Color::new(1.0, 0.0, 0.0, 1.0);
        front.depth[0] = 2.0;
        front.color[1] = Color::new(0.0, 0.0, 1.0, 1.0);
        front.depth[1] = 9.0;
        back.merge_front(&front, CompositeMode::ZBuffer);
        assert_eq!(back.color[0].r, 1.0);
        assert_eq!(back.depth[0], 2.0);
        assert_eq!(back.color[1].b, 1.0);
    }

    #[test]
    fn alpha_merge_is_over() {
        let mut back = RankImage::empty(1, 1);
        back.color[0] = Color::new(0.0, 0.5, 0.0, 0.5); // premultiplied green
        let mut front = RankImage::empty(1, 1);
        front.color[0] = Color::new(0.25, 0.0, 0.0, 0.25);
        back.merge_front(&front, CompositeMode::AlphaOrdered);
        let c = back.color[0];
        assert!((c.r - 0.25).abs() < 1e-6);
        assert!((c.g - 0.375).abs() < 1e-6);
        assert!((c.a - 0.625).abs() < 1e-6);
    }

    #[test]
    fn active_pixels_counts_fragments() {
        let mut img = RankImage::empty(4, 1);
        assert_eq!(img.active_pixels(), 0);
        img.depth[1] = 3.0;
        img.color[2] = Color::new(0.1, 0.0, 0.0, 0.1);
        assert_eq!(img.active_pixels(), 2);
    }

    #[test]
    fn slice_extracts_range() {
        let mut img = RankImage::empty(4, 1);
        img.depth[2] = 1.0;
        let s = img.slice(2, 4);
        assert_eq!(s.color.len(), 2);
        assert_eq!(s.depth[0], 1.0);
    }
}
