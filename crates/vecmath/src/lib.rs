//! Small linear-algebra and graphics-math substrate used by every renderer.
//!
//! The paper's rendering algorithms (Chapters II, III, V) are built on a thin
//! layer of 3-vectors, 4x4 matrices, camera models, axis-aligned bounding
//! boxes, RGBA colors, and scalar transfer functions. This crate provides that
//! layer with `f32` precision (matching the single-precision kernels in
//! EAVL/VTK-m) and no external dependencies.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod aabb;
pub mod camera;
pub mod color;
pub mod mat4;
pub mod morton;
pub mod ray;
pub mod transfer;
pub mod vec3;

pub use aabb::Aabb;
pub use camera::{Camera, PixelRays, ScreenTransform};
pub use color::{over, Color};
pub use mat4::Mat4;
pub use morton::{morton2, morton3, morton_decode3};
pub use ray::Ray;
pub use transfer::TransferFunction;
pub use vec3::Vec3;

/// Clamp `x` into `[lo, hi]`.
#[inline]
pub fn clampf(x: f32, lo: f32, hi: f32) -> f32 {
    x.max(lo).min(hi)
}

/// Linear interpolation between `a` and `b` by `t` in `[0,1]`.
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_and_lerp() {
        assert_eq!(clampf(2.0, 0.0, 1.0), 1.0);
        assert_eq!(clampf(-2.0, 0.0, 1.0), 0.0);
        assert_eq!(clampf(0.5, 0.0, 1.0), 0.5);
        assert_eq!(lerp(1.0, 3.0, 0.5), 2.0);
        assert_eq!(lerp(1.0, 3.0, 0.0), 1.0);
        assert_eq!(lerp(1.0, 3.0, 1.0), 3.0);
    }
}
