//! Pinhole camera (primary-ray generation for the ray tracers and volume
//! renderers) and the screen-space transform used by the rasterizer and the
//! unstructured volume renderer's screen-space phase.

use crate::aabb::Aabb;
use crate::mat4::Mat4;
use crate::ray::Ray;
use crate::vec3::Vec3;

/// Pinhole camera description shared by every renderer in the repo.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    pub position: Vec3,
    pub look_at: Vec3,
    pub up: Vec3,
    /// Vertical field of view in radians.
    pub fov_y: f32,
    pub near: f32,
    pub far: f32,
}

impl Default for Camera {
    fn default() -> Self {
        Camera {
            position: Vec3::new(0.0, 0.0, 5.0),
            look_at: Vec3::ZERO,
            up: Vec3::Y,
            fov_y: std::f32::consts::FRAC_PI_3,
            near: 0.01,
            far: 1000.0,
        }
    }
}

impl Camera {
    /// Position the camera so `bounds` fills roughly `fill` of the image
    /// height, looking from the `dir` direction. The paper's study uses
    /// "close" (fill ~ 1.0) and "far"/zoomed-out (fill ~ 0.5) views.
    pub fn framing(bounds: &Aabb, dir: Vec3, fill: f32) -> Camera {
        let center = bounds.center();
        let radius = bounds.diagonal() * 0.5;
        let fov_y = std::f32::consts::FRAC_PI_3;
        let dist = radius / ((fov_y * 0.5).tan() * fill.max(1e-3));
        let d = dir.normalized();
        let up = if d.cross(Vec3::Y).length() < 1e-3 { Vec3::Z } else { Vec3::Y };
        Camera {
            position: center + d * dist,
            look_at: center,
            up,
            fov_y,
            near: (dist - radius * 2.0).max(dist * 1e-3),
            far: dist + radius * 4.0,
        }
    }

    /// The paper's default "close" view down the +Z-ish diagonal.
    pub fn close_view(bounds: &Aabb) -> Camera {
        Camera::framing(bounds, Vec3::new(0.4, 0.3, 1.0), 1.0)
    }

    /// The zoomed-out view (data surrounded by white space).
    pub fn far_view(bounds: &Aabb) -> Camera {
        Camera::framing(bounds, Vec3::new(0.4, 0.3, 1.0), 0.45)
    }

    /// Orthonormal camera basis `(right, up, back)`.
    pub fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let f = (self.look_at - self.position).normalized();
        let r = f.cross(self.up).normalized();
        let u = r.cross(f);
        (r, u, -f)
    }

    /// The per-frame part of primary-ray generation for a `w x h` image:
    /// the basis, the view direction and the half extents of the image
    /// plane. A renderer builds it once per frame and calls
    /// [`PixelRays::ray`] per pixel.
    pub fn pixel_rays(&self, w: u32, h: u32) -> PixelRays {
        let (right, up, _back) = self.basis();
        let forward = (self.look_at - self.position).normalized();
        let aspect = w as f32 / h as f32;
        let half_h = (self.fov_y * 0.5).tan();
        let half_w = half_h * aspect;
        PixelRays { origin: self.position, forward, right, up, half_w, half_h, w, h }
    }

    /// Generate the primary ray through pixel `(px, py)` of a `w x h` image,
    /// with optional sub-pixel jitter `(jx, jy)` in `[0,1)` (0.5 = center).
    /// Ray directions are normalized. For a whole frame, build
    /// [`Camera::pixel_rays`] once instead.
    #[inline]
    pub fn primary_ray(&self, px: u32, py: u32, w: u32, h: u32, jx: f32, jy: f32) -> Ray {
        self.pixel_rays(w, h).ray(px, py, jx, jy)
    }

    /// World -> camera matrix.
    pub fn view_matrix(&self) -> Mat4 {
        Mat4::look_at(self.position, self.look_at, self.up)
    }

    /// Camera -> clip matrix.
    pub fn projection_matrix(&self, aspect: f32) -> Mat4 {
        Mat4::perspective(self.fov_y, aspect, self.near, self.far)
    }

    /// Full world -> screen transform for a `w x h` viewport.
    pub fn screen_transform(&self, w: u32, h: u32) -> ScreenTransform {
        let aspect = w as f32 / h as f32;
        let vp = self.projection_matrix(aspect).mul(&self.view_matrix());
        ScreenTransform { view_proj: vp, width: w, height: h }
    }
}

/// Primary rays of one `w x h` frame through one camera
/// ([`Camera::pixel_rays`]).
#[derive(Debug, Clone, Copy)]
pub struct PixelRays {
    origin: Vec3,
    forward: Vec3,
    right: Vec3,
    up: Vec3,
    half_w: f32,
    half_h: f32,
    w: u32,
    h: u32,
}

impl PixelRays {
    /// The ray through pixel `(px, py)` with sub-pixel jitter `(jx, jy)`:
    /// bit for bit [`Camera::primary_ray`].
    #[inline]
    pub fn ray(&self, px: u32, py: u32, jx: f32, jy: f32) -> Ray {
        // NDC in [-1, 1], y up.
        let ndc_x = ((px as f32 + jx) / self.w as f32) * 2.0 - 1.0;
        let ndc_y = 1.0 - ((py as f32 + jy) / self.h as f32) * 2.0;
        let dir =
            (self.forward + self.right * (ndc_x * self.half_w) + self.up * (ndc_y * self.half_h))
                .normalized();
        Ray::new(self.origin, dir)
    }
}

/// World-to-screen mapping: world point -> (pixel x, pixel y, NDC depth).
#[derive(Debug, Clone, Copy)]
pub struct ScreenTransform {
    pub view_proj: Mat4,
    pub width: u32,
    pub height: u32,
}

impl ScreenTransform {
    /// Transform a world-space point to screen space. Returns
    /// `(x_pixels, y_pixels, depth_ndc)`, where depth is in `[-1, 1]`
    /// (smaller = closer) for points inside the frustum.
    #[inline]
    pub fn to_screen(&self, p: Vec3) -> Vec3 {
        let ndc = self.view_proj.transform_point(p);
        Vec3::new(
            (ndc.x * 0.5 + 0.5) * self.width as f32,
            (0.5 - ndc.y * 0.5) * self.height as f32,
            ndc.z,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_pixel_ray_points_at_target() {
        let cam = Camera::default();
        let r = cam.primary_ray(50, 50, 101, 101, 0.5, 0.5);
        let to_target = (cam.look_at - cam.position).normalized();
        assert!((r.dir - to_target).length() < 1e-3);
        assert!((r.dir.length() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn framing_contains_bounds_in_frustum() {
        let b = Aabb::from_corners(Vec3::ZERO, Vec3::splat(10.0));
        let cam = Camera::close_view(&b);
        let st = cam.screen_transform(100, 100);
        // The box center must land near the image center.
        let s = st.to_screen(b.center());
        assert!((s.x - 50.0).abs() < 1.0, "x was {}", s.x);
        assert!((s.y - 50.0).abs() < 1.0, "y was {}", s.y);
        assert!(s.z > -1.0 && s.z < 1.0);
    }

    #[test]
    fn far_view_projects_smaller_than_close_view() {
        let b = Aabb::from_corners(Vec3::ZERO, Vec3::splat(4.0));
        let w = 512;
        let measure = |cam: Camera| {
            let st = cam.screen_transform(w, w);
            let a = st.to_screen(b.min);
            let c = st.to_screen(b.max);
            ((a.x - c.x).abs() + (a.y - c.y).abs()) / 2.0
        };
        assert!(measure(Camera::far_view(&b)) < measure(Camera::close_view(&b)));
    }

    /// `pixel_rays` hoists the per-frame terms out of the whole per-pixel
    /// formula without moving a bit of any ray.
    #[test]
    fn pixel_rays_are_the_per_pixel_formula_bit_for_bit() {
        let per_pixel = |cam: &Camera, px: u32, py: u32, w: u32, h: u32, jx: f32, jy: f32| {
            let (right, up, _back) = cam.basis();
            let forward = (cam.look_at - cam.position).normalized();
            let aspect = w as f32 / h as f32;
            let half_h = (cam.fov_y * 0.5).tan();
            let half_w = half_h * aspect;
            let ndc_x = ((px as f32 + jx) / w as f32) * 2.0 - 1.0;
            let ndc_y = 1.0 - ((py as f32 + jy) / h as f32) * 2.0;
            let dir = (forward + right * (ndc_x * half_w) + up * (ndc_y * half_h)).normalized();
            Ray::new(cam.position, dir)
        };
        let bits = |r: Ray| {
            [r.origin, r.dir, r.inv_dir].map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        };
        let b = Aabb::from_corners(Vec3::new(-1.0, 0.5, 2.0), Vec3::new(3.0, 1.25, 9.0));
        for cam in [Camera::default(), Camera::close_view(&b), Camera::far_view(&b)] {
            for (w, h) in [(288, 288), (320, 200), (7, 13)] {
                let rays = cam.pixel_rays(w, h);
                for py in (0..h).step_by(3) {
                    for px in (0..w).step_by(5) {
                        for (jx, jy) in [(0.5, 0.5), (0.0, 0.0), (0.9, 0.1)] {
                            let want = per_pixel(&cam, px, py, w, h, jx, jy);
                            assert_eq!(bits(rays.ray(px, py, jx, jy)), bits(want));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn corner_rays_diverge() {
        let cam = Camera::default();
        let tl = cam.primary_ray(0, 0, 100, 100, 0.5, 0.5);
        let br = cam.primary_ray(99, 99, 100, 100, 0.5, 0.5);
        assert!(tl.dir.dot(br.dir) < 1.0 - 1e-4);
        // Top-left ray should have larger y than bottom-right (y up).
        assert!(tl.dir.y > br.dir.y);
    }
}
