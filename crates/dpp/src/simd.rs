//! Fixed-width SIMD-friendly lane types.
//!
//! Chapter II's Xeon Phi experiment (Table 5) compared EAVL's scalar OpenMP
//! back-end against an ISPC back-end that fills the vector units, observing
//! 5–9x speedups without changing the algorithm. We reproduce the *structure*
//! of that comparison: [`F32x8`] processes eight lanes per operation through
//! plain array arithmetic that LLVM reliably auto-vectorizes, versus the
//! one-lane scalar path. The "back-end swap" is a type parameter, not an
//! algorithm rewrite — the same point the dissertation makes.

// The `add`/`sub`/`mul` method names intentionally mirror the lane
// intrinsics they stand in for, and the indexed loops are the shape LLVM
// auto-vectorizes most reliably.
#![allow(
    clippy::should_implement_trait,
    clippy::needless_range_loop,
    reason = "lane-op names mirror the intrinsics; indexed loops vectorize most reliably"
)]

/// Eight f32 lanes operated on element-wise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; 8]);

impl F32x8 {
    pub const LANES: usize = 8;

    #[inline]
    pub fn splat(v: f32) -> F32x8 {
        F32x8([v; 8])
    }

    #[inline]
    pub fn add(self, o: F32x8) -> F32x8 {
        let mut r = [0.0; 8];
        for i in 0..8 {
            r[i] = self.0[i] + o.0[i];
        }
        F32x8(r)
    }

    #[inline]
    pub fn sub(self, o: F32x8) -> F32x8 {
        let mut r = [0.0; 8];
        for i in 0..8 {
            r[i] = self.0[i] - o.0[i];
        }
        F32x8(r)
    }

    #[inline]
    pub fn mul(self, o: F32x8) -> F32x8 {
        let mut r = [0.0; 8];
        for i in 0..8 {
            r[i] = self.0[i] * o.0[i];
        }
        F32x8(r)
    }

    #[inline]
    pub fn min(self, o: F32x8) -> F32x8 {
        let mut r = [0.0; 8];
        for i in 0..8 {
            r[i] = self.0[i].min(o.0[i]);
        }
        F32x8(r)
    }

    #[inline]
    pub fn max(self, o: F32x8) -> F32x8 {
        let mut r = [0.0; 8];
        for i in 0..8 {
            r[i] = self.0[i].max(o.0[i]);
        }
        F32x8(r)
    }

    /// Lane-wise fused multiply-add `self * a + b` (LLVM folds to FMA where
    /// the target supports it).
    #[inline]
    pub fn mul_add(self, a: F32x8, b: F32x8) -> F32x8 {
        let mut r = [0.0; 8];
        for i in 0..8 {
            r[i] = self.0[i] * a.0[i] + b.0[i];
        }
        F32x8(r)
    }

    /// Lane mask `self <= o` as booleans.
    #[inline]
    pub fn le(self, o: F32x8) -> [bool; 8] {
        let mut r = [false; 8];
        for i in 0..8 {
            r[i] = self.0[i] <= o.0[i];
        }
        r
    }
}

/// Three packed lanes of 3-vectors (structure-of-arrays), for 8-wide ray /
/// box arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct Vec3x8 {
    pub x: F32x8,
    pub y: F32x8,
    pub z: F32x8,
}

impl Vec3x8 {
    #[inline]
    pub fn splat(v: vecmath_like::V3) -> Vec3x8 {
        Vec3x8 { x: F32x8::splat(v.0), y: F32x8::splat(v.1), z: F32x8::splat(v.2) }
    }

    #[inline]
    pub fn dot(self, o: Vec3x8) -> F32x8 {
        self.x.mul(o.x).add(self.y.mul(o.y)).add(self.z.mul(o.z))
    }

    #[inline]
    pub fn sub(self, o: Vec3x8) -> Vec3x8 {
        Vec3x8 { x: self.x.sub(o.x), y: self.y.sub(o.y), z: self.z.sub(o.z) }
    }

    #[inline]
    pub fn cross(self, o: Vec3x8) -> Vec3x8 {
        Vec3x8 {
            x: self.y.mul(o.z).sub(self.z.mul(o.y)),
            y: self.z.mul(o.x).sub(self.x.mul(o.z)),
            z: self.x.mul(o.y).sub(self.y.mul(o.x)),
        }
    }
}

/// Tiny local tuple so this crate stays dependency-free; conversion helpers
/// live in the consuming crates.
pub mod vecmath_like {
    /// Minimal (x, y, z) tuple for splat construction.
    #[derive(Debug, Clone, Copy)]
    pub struct V3(pub f32, pub f32, pub f32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(2.0);
        assert_eq!(a.add(b).0[0], 3.0);
        assert_eq!(a.mul(b).0[7], 16.0);
        assert_eq!(a.sub(b).0[1], 0.0);
        assert_eq!(a.min(b).0[5], 2.0);
        assert_eq!(a.max(b).0[0], 2.0);
        assert_eq!(a.mul_add(b, b).0[2], 8.0);
    }

    #[test]
    fn masks() {
        let a = F32x8([1.0, 5.0, 2.0, 2.0, 0.0, 9.0, 9.0, 9.0]);
        let m = a.le(F32x8::splat(2.0));
        assert!(m[0]);
        assert!(!m[1]);
        assert!(m[2]);
    }

    #[test]
    fn vec3x8_dot_cross() {
        use vecmath_like::V3;
        let x = Vec3x8::splat(V3(1.0, 0.0, 0.0));
        let y = Vec3x8::splat(V3(0.0, 1.0, 0.0));
        let d = x.dot(y);
        assert_eq!(d.0[0], 0.0);
        let c = x.cross(y);
        assert_eq!((c.x.0[0], c.y.0[0], c.z.0[0]), (0.0, 0.0, 1.0));
    }
}
