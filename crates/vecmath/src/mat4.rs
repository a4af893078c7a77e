//! Row-major 4x4 matrix with the transforms needed by the rendering pipeline:
//! look-at view matrices, perspective projection, viewport mapping, and a
//! general inverse (Gauss-Jordan) used for camera-space reconstruction.

use crate::vec3::Vec3;

/// Row-major 4x4 `f32` matrix. `m[r][c]` addresses row `r`, column `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    pub m: [[f32; 4]; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::identity()
    }
}

impl Mat4 {
    /// The identity matrix.
    pub fn identity() -> Mat4 {
        let mut m = [[0.0f32; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        Mat4 { m }
    }

    /// Matrix from explicit rows.
    pub fn from_rows(r0: [f32; 4], r1: [f32; 4], r2: [f32; 4], r3: [f32; 4]) -> Mat4 {
        Mat4 { m: [r0, r1, r2, r3] }
    }

    /// Right-handed look-at view matrix (world -> camera space). The camera
    /// looks down -Z in camera space, matching OpenGL conventions.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Mat4::from_rows(
            [s.x, s.y, s.z, -s.dot(eye)],
            [u.x, u.y, u.z, -u.dot(eye)],
            [-f.x, -f.y, -f.z, f.dot(eye)],
            [0.0, 0.0, 0.0, 1.0],
        )
    }

    /// Right-handed perspective projection. `fovy` is the vertical field of
    /// view in radians; depth maps to NDC `[-1, 1]`.
    pub fn perspective(fovy: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
        let t = 1.0 / (fovy * 0.5).tan();
        let mut m = [[0.0f32; 4]; 4];
        m[0][0] = t / aspect;
        m[1][1] = t;
        m[2][2] = (far + near) / (near - far);
        m[2][3] = 2.0 * far * near / (near - far);
        m[3][2] = -1.0;
        Mat4 { m }
    }

    /// Matrix product `self * rhs`.
    #[allow(clippy::needless_range_loop, reason = "index form mirrors the math")]
    pub fn mul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = [[0.0f32; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = 0.0;
                for (k, rhs_row) in rhs.m.iter().enumerate() {
                    acc += self.m[r][k] * rhs_row[c];
                }
                out[r][c] = acc;
            }
        }
        Mat4 { m: out }
    }

    /// Transform a point (w = 1) with perspective divide.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let x = self.m[0][0] * p.x + self.m[0][1] * p.y + self.m[0][2] * p.z + self.m[0][3];
        let y = self.m[1][0] * p.x + self.m[1][1] * p.y + self.m[1][2] * p.z + self.m[1][3];
        let z = self.m[2][0] * p.x + self.m[2][1] * p.y + self.m[2][2] * p.z + self.m[2][3];
        let w = self.m[3][0] * p.x + self.m[3][1] * p.y + self.m[3][2] * p.z + self.m[3][3];
        if w != 0.0 && w != 1.0 {
            Vec3::new(x / w, y / w, z / w)
        } else {
            Vec3::new(x, y, z)
        }
    }

    /// General inverse via Gauss-Jordan elimination with partial pivoting.
    /// Returns `None` for singular matrices.
    #[allow(clippy::needless_range_loop, reason = "index form mirrors the math")]
    pub fn inverse(&self) -> Option<Mat4> {
        // Augmented [A | I] in f64 for stability.
        let mut a = [[0.0f64; 8]; 4];
        for r in 0..4 {
            for c in 0..4 {
                a[r][c] = self.m[r][c] as f64;
            }
            a[r][4 + r] = 1.0;
        }
        for col in 0..4 {
            // Partial pivot.
            let mut piv = col;
            for r in col + 1..4 {
                if a[r][col].abs() > a[piv][col].abs() {
                    piv = r;
                }
            }
            if a[piv][col].abs() < 1e-12 {
                return None;
            }
            a.swap(col, piv);
            let d = a[col][col];
            for v in a[col].iter_mut() {
                *v /= d;
            }
            for r in 0..4 {
                if r != col {
                    let f = a[r][col];
                    if f != 0.0 {
                        for c in 0..8 {
                            a[r][c] -= f * a[col][c];
                        }
                    }
                }
            }
        }
        let mut out = [[0.0f32; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                out[r][c] = a[r][4 + c] as f32;
            }
        }
        Some(Mat4 { m: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagonal(x: f32, y: f32, z: f32) -> Mat4 {
        let rows =
            [[x, 0.0, 0.0, 0.0], [0.0, y, 0.0, 0.0], [0.0, 0.0, z, 0.0], [0.0, 0.0, 0.0, 1.0]];
        Mat4 { m: rows }
    }

    fn approx(a: &Mat4, b: &Mat4, eps: f32) -> bool {
        a.m.iter().flatten().zip(b.m.iter().flatten()).all(|(x, y)| (x - y).abs() < eps)
    }

    #[test]
    fn identity_is_neutral() {
        let id = Mat4::identity();
        let t = diagonal(1.0, 2.0, 3.0);
        assert!(approx(&id.mul(&t), &t, 1e-6));
        assert!(approx(&t.mul(&id), &t, 1e-6));
    }

    #[test]
    fn inverse_round_trips() {
        let m = Mat4::look_at(Vec3::new(3.0, 4.0, 5.0), Vec3::ZERO, Vec3::Y)
            .mul(&diagonal(2.0, 3.0, 0.5));
        let inv = m.inverse().expect("invertible");
        assert!(approx(&m.mul(&inv), &Mat4::identity(), 1e-4));
        assert!(approx(&inv.mul(&m), &Mat4::identity(), 1e-4));
    }

    #[test]
    fn singular_has_no_inverse() {
        let z = Mat4 { m: [[0.0; 4]; 4] };
        assert!(z.inverse().is_none());
    }

    #[test]
    fn look_at_maps_eye_to_origin() {
        let eye = Vec3::new(1.0, 2.0, 3.0);
        let v = Mat4::look_at(eye, Vec3::ZERO, Vec3::Y);
        let p = v.transform_point(eye);
        assert!(p.length() < 1e-5);
        // Target should be on the -Z axis in camera space.
        let t = v.transform_point(Vec3::ZERO);
        assert!(t.x.abs() < 1e-5 && t.y.abs() < 1e-5 && t.z < 0.0);
    }

    #[test]
    fn perspective_maps_near_far_to_ndc() {
        let p = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 100.0);
        let near = p.transform_point(Vec3::new(0.0, 0.0, -1.0));
        let far = p.transform_point(Vec3::new(0.0, 0.0, -100.0));
        assert!((near.z - -1.0).abs() < 1e-4);
        assert!((far.z - 1.0).abs() < 1e-4);
    }
}
