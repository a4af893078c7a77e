//! Structured grids: uniform (Kripke-style) and rectilinear
//! (CloverLeaf3D-style). Point dimensions are stored; cell dimensions are
//! one less per axis.

use crate::field::{find, Assoc, Field};
use vecmath::{Aabb, Vec3};

/// A uniform (regular) grid: `dims` points per axis, constant spacing.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    /// Point counts per axis (>= 2 per axis for a non-degenerate grid).
    pub dims: [usize; 3],
    pub origin: Vec3,
    pub spacing: Vec3,
    pub fields: Vec<Field>,
}

impl UniformGrid {
    /// Grid over `bounds` with `cells` cells per axis.
    pub fn new(cells: [usize; 3], bounds: Aabb) -> UniformGrid {
        let dims = [cells[0] + 1, cells[1] + 1, cells[2] + 1];
        let e = bounds.extent();
        UniformGrid {
            dims,
            origin: bounds.min,
            spacing: Vec3::new(e.x / cells[0] as f32, e.y / cells[1] as f32, e.z / cells[2] as f32),
            fields: Vec::new(),
        }
    }

    pub fn num_points(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    pub fn cell_dims(&self) -> [usize; 3] {
        [self.dims[0] - 1, self.dims[1] - 1, self.dims[2] - 1]
    }

    pub fn num_cells(&self) -> usize {
        let c = self.cell_dims();
        c[0] * c[1] * c[2]
    }

    #[inline]
    pub fn point_index(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.dims[1] + j) * self.dims[0] + i
    }

    #[inline]
    pub fn point_position(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                i as f32 * self.spacing.x,
                j as f32 * self.spacing.y,
                k as f32 * self.spacing.z,
            )
    }

    pub fn bounds(&self) -> Aabb {
        let c = self.cell_dims();
        Aabb::from_corners(
            self.origin,
            self.origin
                + Vec3::new(
                    c[0] as f32 * self.spacing.x,
                    c[1] as f32 * self.spacing.y,
                    c[2] as f32 * self.spacing.z,
                ),
        )
    }

    /// Fill a point field by evaluating `f` at every point position.
    pub fn add_point_field(&mut self, name: &str, f: impl Fn(Vec3) -> f32 + Sync) {
        let mut values = vec![0.0f32; self.num_points()];
        let dims = self.dims;
        let origin = self.origin;
        let spacing = self.spacing;
        // Parallel fill via rayon directly (generation is not a studied kernel).
        use rayon::prelude::*;
        values.par_chunks_mut(dims[0] * dims[1]).enumerate().for_each(|(k, slab)| {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    let p = origin
                        + Vec3::new(
                            i as f32 * spacing.x,
                            j as f32 * spacing.y,
                            k as f32 * spacing.z,
                        );
                    slab[j * dims[0] + i] = f(p);
                }
            }
        });
        self.fields.push(Field { name: name.to_string(), assoc: Assoc::Point, values });
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        find(&self.fields, name)
    }

    /// Trilinear interpolation of a point field at a world position; `None`
    /// outside the grid bounds.
    pub fn sample_trilinear(&self, values: &[f32], p: Vec3) -> Option<f32> {
        let local = (p - self.origin) * self.spacing.recip();
        let c = self.cell_dims();
        if local.x < 0.0 || local.y < 0.0 || local.z < 0.0 {
            return None;
        }
        let i = (local.x as usize).min(c[0].saturating_sub(1));
        let j = (local.y as usize).min(c[1].saturating_sub(1));
        let k = (local.z as usize).min(c[2].saturating_sub(1));
        if local.x > c[0] as f32 || local.y > c[1] as f32 || local.z > c[2] as f32 {
            return None;
        }
        let fx = (local.x - i as f32).clamp(0.0, 1.0);
        let fy = (local.y - j as f32).clamp(0.0, 1.0);
        let fz = (local.z - k as f32).clamp(0.0, 1.0);
        let idx = |ii, jj, kk| values[self.point_index(ii, jj, kk)];
        let c00 = idx(i, j, k) * (1.0 - fx) + idx(i + 1, j, k) * fx;
        let c10 = idx(i, j + 1, k) * (1.0 - fx) + idx(i + 1, j + 1, k) * fx;
        let c01 = idx(i, j, k + 1) * (1.0 - fx) + idx(i + 1, j, k + 1) * fx;
        let c11 = idx(i, j + 1, k + 1) * (1.0 - fx) + idx(i + 1, j + 1, k + 1) * fx;
        let c0 = c00 * (1.0 - fy) + c10 * fy;
        let c1 = c01 * (1.0 - fy) + c11 * fy;
        Some(c0 * (1.0 - fz) + c1 * fz)
    }
}

/// A rectilinear grid: per-axis coordinate arrays, possibly non-uniform.
#[derive(Debug, Clone)]
pub struct RectilinearGrid {
    pub xs: Vec<f32>,
    pub ys: Vec<f32>,
    pub zs: Vec<f32>,
    pub fields: Vec<Field>,
}

impl RectilinearGrid {
    /// Uniformly spaced coordinates (a uniform grid stored rectilinearly,
    /// as CloverLeaf3D does).
    pub fn uniform(cells: [usize; 3], bounds: Aabb) -> RectilinearGrid {
        let axis = |n: usize, lo: f32, hi: f32| -> Vec<f32> {
            (0..=n).map(|i| lo + (hi - lo) * i as f32 / n as f32).collect()
        };
        RectilinearGrid {
            xs: axis(cells[0], bounds.min.x, bounds.max.x),
            ys: axis(cells[1], bounds.min.y, bounds.max.y),
            zs: axis(cells[2], bounds.min.z, bounds.max.z),
            fields: Vec::new(),
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        [self.xs.len(), self.ys.len(), self.zs.len()]
    }

    pub fn num_points(&self) -> usize {
        self.xs.len() * self.ys.len() * self.zs.len()
    }

    pub fn num_cells(&self) -> usize {
        (self.xs.len() - 1) * (self.ys.len() - 1) * (self.zs.len() - 1)
    }

    pub fn bounds(&self) -> Aabb {
        Aabb::from_corners(
            Vec3::new(self.xs[0], self.ys[0], self.zs[0]),
            Vec3::new(
                self.xs[self.xs.len() - 1],
                self.ys[self.ys.len() - 1],
                self.zs[self.zs.len() - 1],
            ),
        )
    }

    pub fn point_position(&self, i: usize, j: usize, k: usize) -> Vec3 {
        Vec3::new(self.xs[i], self.ys[j], self.zs[k])
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        find(&self.fields, name)
    }

    /// Reinterpret as a uniform grid with the same point dims, copying
    /// fields verbatim. Exact when the axes are evenly spaced; for stretched
    /// axes use [`RectilinearGrid::resample_to_uniform`].
    pub fn to_uniform(&self) -> UniformGrid {
        let d = self.dims();
        let mut g = UniformGrid::new([d[0] - 1, d[1] - 1, d[2] - 1], self.bounds());
        g.fields = self.fields.clone();
        g
    }

    /// True if every axis is evenly spaced (within `tol` of the mean step).
    pub fn is_evenly_spaced(&self, tol: f32) -> bool {
        let even = |axis: &[f32]| {
            let n = axis.len() - 1;
            let mean = (axis[n] - axis[0]) / n as f32;
            axis.windows(2).all(|w| ((w[1] - w[0]) - mean).abs() <= tol * mean.abs().max(1e-12))
        };
        even(&self.xs) && even(&self.ys) && even(&self.zs)
    }

    /// Index of the interval containing `x` on a sorted axis, clamped.
    fn axis_interval(axis: &[f32], x: f32) -> (usize, f32) {
        let n = axis.len();
        if x <= axis[0] {
            return (0, 0.0);
        }
        if x >= axis[n - 1] {
            return (n - 2, 1.0);
        }
        // Binary search for the upper bound.
        let i = axis.partition_point(|&v| v <= x).clamp(1, n - 1) - 1;
        let w = axis[i + 1] - axis[i];
        let t = if w > 0.0 { (x - axis[i]) / w } else { 0.0 };
        (i, t)
    }

    /// Trilinear interpolation of a point field at a world position,
    /// respecting non-uniform axis spacing; `None` outside the bounds.
    pub fn sample_trilinear(&self, values: &[f32], p: Vec3) -> Option<f32> {
        let b = self.bounds();
        if !b.contains(p) {
            return None;
        }
        let (i, fx) = Self::axis_interval(&self.xs, p.x);
        let (j, fy) = Self::axis_interval(&self.ys, p.y);
        let (k, fz) = Self::axis_interval(&self.zs, p.z);
        let d = self.dims();
        let idx = |ii: usize, jj: usize, kk: usize| values[(kk * d[1] + jj) * d[0] + ii];
        let c00 = idx(i, j, k) * (1.0 - fx) + idx(i + 1, j, k) * fx;
        let c10 = idx(i, j + 1, k) * (1.0 - fx) + idx(i + 1, j + 1, k) * fx;
        let c01 = idx(i, j, k + 1) * (1.0 - fx) + idx(i + 1, j, k + 1) * fx;
        let c11 = idx(i, j + 1, k + 1) * (1.0 - fx) + idx(i + 1, j + 1, k + 1) * fx;
        let c0 = c00 * (1.0 - fy) + c10 * fy;
        let c1 = c01 * (1.0 - fy) + c11 * fy;
        Some(c0 * (1.0 - fz) + c1 * fz)
    }

    /// Properly resample point fields onto a uniform grid of the given cell
    /// counts (for renderers that need constant spacing when the axes are
    /// stretched). Cell fields are dropped — resampling them needs a point
    /// conversion first.
    pub fn resample_to_uniform(&self, cells: [usize; 3]) -> UniformGrid {
        let mut out = UniformGrid::new(cells, self.bounds());
        let point_fields: Vec<&Field> =
            self.fields.iter().filter(|f| f.assoc == Assoc::Point).collect();
        for f in point_fields {
            let dims = out.dims;
            let mut values = vec![0.0f32; out.num_points()];
            for k in 0..dims[2] {
                for j in 0..dims[1] {
                    for i in 0..dims[0] {
                        let p = out.point_position(i, j, k);
                        values[(k * dims[1] + j) * dims[0] + i] =
                            self.sample_trilinear(&f.values, p).unwrap_or(0.0);
                    }
                }
            }
            out.fields.push(Field::point(f.name.clone(), values));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(cells: usize) -> UniformGrid {
        UniformGrid::new([cells; 3], Aabb::from_corners(Vec3::ZERO, Vec3::ONE))
    }

    #[test]
    fn counts_and_bounds() {
        let g = unit_grid(4);
        assert_eq!(g.dims, [5, 5, 5]);
        assert_eq!(g.num_points(), 125);
        assert_eq!(g.num_cells(), 64);
        let b = g.bounds();
        assert!((b.max - Vec3::ONE).length() < 1e-5);
    }

    #[test]
    fn point_positions_cover_corners() {
        let g = unit_grid(2);
        assert_eq!(g.point_position(0, 0, 0), Vec3::ZERO);
        assert!((g.point_position(2, 2, 2) - Vec3::ONE).length() < 1e-6);
    }

    #[test]
    fn trilinear_reproduces_linear_field() {
        let mut g = unit_grid(4);
        g.add_point_field("f", |p| 2.0 * p.x + 3.0 * p.y - p.z);
        let f = g.field("f").unwrap().values.clone();
        for &(x, y, z) in &[(0.1, 0.9, 0.3), (0.5, 0.5, 0.5), (0.99, 0.01, 0.7)] {
            let p = Vec3::new(x, y, z);
            let s = g.sample_trilinear(&f, p).unwrap();
            assert!((s - (2.0 * x + 3.0 * y - z)).abs() < 1e-4, "at {p:?}: {s}");
        }
        assert!(g.sample_trilinear(&f, Vec3::splat(2.0)).is_none());
        assert!(g.sample_trilinear(&f, Vec3::splat(-0.1)).is_none());
    }

    #[test]
    fn rectilinear_sampling_respects_stretched_axes() {
        // Stretched x axis; field f = x so interpolation must be exact in
        // world space, not index space.
        let mut r = RectilinearGrid {
            xs: vec![0.0, 0.1, 1.0, 10.0],
            ys: vec![0.0, 1.0, 2.0],
            zs: vec![0.0, 1.0, 2.0],
            fields: Vec::new(),
        };
        let mut vals = Vec::new();
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..4 {
                    let _ = (j, k);
                    vals.push(r.xs[i]);
                }
            }
        }
        r.fields.push(Field { name: "fx".into(), assoc: Assoc::Point, values: vals });
        let f = &r.fields[0].values;
        for &x in &[0.05f32, 0.5, 3.7, 9.9] {
            let s = r.sample_trilinear(f, Vec3::new(x, 1.0, 1.0)).unwrap();
            assert!((s - x).abs() < 1e-4, "{s} vs {x}");
        }
        assert!(r.sample_trilinear(f, Vec3::new(11.0, 1.0, 1.0)).is_none());
        assert!(!r.is_evenly_spaced(0.01));
        let u = r.resample_to_uniform([8, 2, 2]);
        let uf = &u.field("fx").unwrap().values;
        // Resampled field still equals x at uniform sample points.
        let probe = u.sample_trilinear(uf, Vec3::new(5.0, 1.0, 1.0)).unwrap();
        assert!((probe - 5.0).abs() < 0.05, "{probe}");
    }

    #[test]
    fn evenly_spaced_detection() {
        let b = Aabb::from_corners(Vec3::ZERO, Vec3::ONE);
        let r = RectilinearGrid::uniform([4, 4, 4], b);
        assert!(r.is_evenly_spaced(1e-5));
    }

    #[test]
    fn rectilinear_uniform_matches() {
        let b = Aabb::from_corners(Vec3::ZERO, Vec3::new(2.0, 4.0, 8.0));
        let r = RectilinearGrid::uniform([2, 4, 8], b);
        assert_eq!(r.dims(), [3, 5, 9]);
        assert_eq!(r.num_cells(), 2 * 4 * 8);
        assert!((r.point_position(1, 1, 1) - Vec3::new(1.0, 1.0, 1.0)).length() < 1e-5);
        let u = r.to_uniform();
        assert_eq!(u.num_cells(), r.num_cells());
        assert!((u.bounds().max - b.max).length() < 1e-5);
    }
}
