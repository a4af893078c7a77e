//! RGBA colors with premultiplied-alpha *over* compositing — the operator at
//! the heart of sort-last image compositing (IceT stand-in) and of
//! front-to-back volume-rendering sample accumulation.

use crate::clampf;

/// RGBA color with `f32` channels. Compositing operations treat the color as
/// premultiplied by alpha; conversion helpers handle straight-alpha IO.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Color {
    pub r: f32,
    pub g: f32,
    pub b: f32,
    pub a: f32,
}

impl Color {
    pub const TRANSPARENT: Color = Color { r: 0.0, g: 0.0, b: 0.0, a: 0.0 };
    pub const BLACK: Color = Color { r: 0.0, g: 0.0, b: 0.0, a: 1.0 };
    pub const WHITE: Color = Color { r: 1.0, g: 1.0, b: 1.0, a: 1.0 };

    #[inline]
    pub const fn new(r: f32, g: f32, b: f32, a: f32) -> Color {
        Color { r, g, b, a }
    }

    /// Opaque color from RGB.
    #[inline]
    pub const fn rgb(r: f32, g: f32, b: f32) -> Color {
        Color { r, g, b, a: 1.0 }
    }

    /// Premultiply the color channels by alpha.
    #[inline]
    pub fn premultiplied(self) -> Color {
        Color::new(self.r * self.a, self.g * self.a, self.b * self.a, self.a)
    }

    /// Undo premultiplication (no-op for zero alpha).
    #[inline]
    pub fn unpremultiplied(self) -> Color {
        if self.a > 0.0 {
            Color::new(self.r / self.a, self.g / self.a, self.b / self.a, self.a)
        } else {
            Color::TRANSPARENT
        }
    }

    /// Channel-wise scale.
    #[inline]
    pub fn scale(self, s: f32) -> Color {
        Color::new(self.r * s, self.g * s, self.b * s, self.a * s)
    }

    /// Channel-wise sum (named like the lane op it parallels, not `Add`,
    /// because color addition here is premultiplied-accumulation specific).
    #[inline]
    #[allow(clippy::should_implement_trait, reason = "premultiplied accumulation is not `Add`")]
    pub fn add(self, o: Color) -> Color {
        Color::new(self.r + o.r, self.g + o.g, self.b + o.b, self.a + o.a)
    }

    /// Linear interpolation.
    #[inline]
    pub fn lerp(self, o: Color, t: f32) -> Color {
        self.add(o.add(self.scale(-1.0)).scale(t))
    }

    /// Clamp every channel to `[0,1]`.
    #[inline]
    pub fn clamped(self) -> Color {
        Color::new(
            clampf(self.r, 0.0, 1.0),
            clampf(self.g, 0.0, 1.0),
            clampf(self.b, 0.0, 1.0),
            clampf(self.a, 0.0, 1.0),
        )
    }

    /// 8-bit sRGB-ish (no gamma; the paper's renderers write linear PNGs).
    #[inline]
    pub fn to_rgba8(self) -> [u8; 4] {
        let c = self.clamped();
        [
            (c.r * 255.0 + 0.5) as u8,
            (c.g * 255.0 + 0.5) as u8,
            (c.b * 255.0 + 0.5) as u8,
            (c.a * 255.0 + 0.5) as u8,
        ]
    }
}

/// Premultiplied-alpha *over* operator: `front` composited over `back`.
///
/// This is associative, which is what lets binary-swap and radix-k partition
/// the compositing tree arbitrarily and still produce the direct-send answer.
#[inline]
pub fn over(front: Color, back: Color) -> Color {
    let t = 1.0 - front.a;
    Color::new(
        front.r + back.r * t,
        front.g + back.g * t,
        front.b + back.b * t,
        front.a + back.a * t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: Color, b: Color) -> bool {
        (a.r - b.r).abs() < 1e-5
            && (a.g - b.g).abs() < 1e-5
            && (a.b - b.b).abs() < 1e-5
            && (a.a - b.a).abs() < 1e-5
    }

    #[test]
    fn over_with_opaque_front_hides_back() {
        let f = Color::rgb(1.0, 0.0, 0.0).premultiplied();
        let b = Color::rgb(0.0, 1.0, 0.0).premultiplied();
        assert!(approx(over(f, b), f));
    }

    #[test]
    fn over_with_transparent_front_shows_back() {
        let b = Color::rgb(0.2, 0.4, 0.6).premultiplied();
        assert!(approx(over(Color::TRANSPARENT, b), b));
    }

    #[test]
    fn over_is_associative() {
        let a = Color::new(0.3, 0.1, 0.0, 0.5).premultiplied();
        let b = Color::new(0.0, 0.5, 0.2, 0.25).premultiplied();
        let c = Color::new(0.1, 0.1, 0.9, 0.75).premultiplied();
        assert!(approx(over(over(a, b), c), over(a, over(b, c))));
    }

    #[test]
    fn premultiply_round_trip() {
        let c = Color::new(0.5, 0.25, 0.75, 0.5);
        assert!(approx(c.premultiplied().unpremultiplied(), c));
        assert!(approx(Color::TRANSPARENT.unpremultiplied(), Color::TRANSPARENT));
    }

    #[test]
    fn rgba8_quantizes_with_rounding() {
        let c = Color::new(0.5, 0.0, 1.0, 1.0);
        assert_eq!(c.to_rgba8(), [128, 0, 255, 255]);
    }

    #[test]
    fn clamp() {
        let c = Color::new(2.0, -1.0, 0.5, 1.5).clamped();
        assert_eq!(c, Color::new(1.0, 0.0, 0.5, 1.0));
    }
}
