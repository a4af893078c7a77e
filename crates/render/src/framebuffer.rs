//! Framebuffer: RGBA color + depth, with PPM serialization for quick viewing
//! (PNG encoding lives in the `strawman` delivery layer).

use vecmath::Color;

/// An RGBA + depth framebuffer. Depth is camera-ray parameter `t` (world
/// units); `f32::INFINITY` marks background pixels.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    pub width: u32,
    pub height: u32,
    pub color: Vec<Color>,
    pub depth: Vec<f32>,
}

impl Framebuffer {
    /// A cleared framebuffer (transparent black, infinite depth).
    pub fn new(width: u32, height: u32) -> Framebuffer {
        let n = width as usize * height as usize;
        Framebuffer {
            width,
            height,
            color: vec![Color::TRANSPARENT; n],
            depth: vec![f32::INFINITY; n],
        }
    }

    #[inline]
    pub fn index(&self, x: u32, y: u32) -> usize {
        (y * self.width + x) as usize
    }

    pub fn num_pixels(&self) -> usize {
        self.color.len()
    }

    /// Count pixels whose color was written (alpha > 0): the model's
    /// *active pixels* measurement.
    pub fn active_pixels(&self) -> usize {
        self.color.iter().filter(|c| c.a > 0.0).count()
    }

    /// Fill untouched pixels with `bg` (the study composites onto white).
    pub fn set_background(&mut self, bg: Color) {
        for c in &mut self.color {
            if c.a == 0.0 {
                *c = bg;
            } else {
                // Composite translucent results over the background.
                *c = vecmath::over(c.premultiplied(), bg.premultiplied()).unpremultiplied();
            }
        }
    }

    /// Convert to packed RGBA8 bytes (row-major, top row first).
    pub fn to_rgba8(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.color.len() * 4];
        for (px, c) in out.chunks_exact_mut(4).zip(&self.color) {
            px.copy_from_slice(&c.to_rgba8());
        }
        out
    }

    /// Serialize as binary PPM (P6, RGB).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for c in &self.color {
            let px = c.to_rgba8();
            out.extend_from_slice(&px[..3]);
        }
        out
    }

    /// Mean absolute per-channel difference to another framebuffer, for
    /// image-agreement tests between renderers.
    pub fn mean_abs_diff(&self, o: &Framebuffer) -> f32 {
        assert_eq!(self.num_pixels(), o.num_pixels());
        if self.color.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .color
            .iter()
            .zip(o.color.iter())
            .map(|(a, b)| ((a.r - b.r).abs() + (a.g - b.g).abs() + (a.b - b.b).abs()) as f64 / 3.0)
            .sum();
        (sum / self.color.len() as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_cleared() {
        let fb = Framebuffer::new(4, 3);
        assert_eq!(fb.num_pixels(), 12);
        assert_eq!(fb.active_pixels(), 0);
        assert!(fb.depth.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn indexing_is_row_major() {
        let fb = Framebuffer::new(10, 5);
        assert_eq!(fb.index(0, 0), 0);
        assert_eq!(fb.index(9, 0), 9);
        assert_eq!(fb.index(0, 1), 10);
    }

    #[test]
    fn background_fills_only_untouched() {
        let mut fb = Framebuffer::new(2, 1);
        fb.color[0] = Color::rgb(1.0, 0.0, 0.0);
        fb.set_background(Color::WHITE);
        assert_eq!(fb.color[0].to_rgba8()[0], 255);
        assert_eq!(fb.color[0].to_rgba8()[1], 0);
        assert_eq!(fb.color[1].to_rgba8(), [255, 255, 255, 255]);
    }

    #[test]
    fn translucent_composites_over_background() {
        let mut fb = Framebuffer::new(1, 1);
        fb.color[0] = Color::new(1.0, 0.0, 0.0, 0.5);
        fb.set_background(Color::WHITE);
        let px = fb.color[0].to_rgba8();
        assert!(px[0] > 200); // red over white stays bright in R
        assert!(px[1] > 100 && px[1] < 160); // G is half white
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = Framebuffer::new(3, 2);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
    }

    #[test]
    fn diff_of_identical_is_zero() {
        let fb = Framebuffer::new(8, 8);
        assert_eq!(fb.mean_abs_diff(&fb.clone()), 0.0);
    }
}
