//! Named scalar fields attached to mesh points or cells, and the averages
//! that carry a cell field to points for point-based renderers.

use rayon::prelude::*;

/// Whether field values live on mesh points or cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assoc {
    Point,
    Cell,
}

/// A named scalar field. Simulations publish these; renderers consume them.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    pub assoc: Assoc,
    pub values: Vec<f32>,
}

impl Field {
    pub fn point(name: impl Into<String>, values: Vec<f32>) -> Field {
        Field { name: name.into(), assoc: Assoc::Point, values }
    }

    pub fn cell(name: impl Into<String>, values: Vec<f32>) -> Field {
        Field { name: name.into(), assoc: Assoc::Cell, values }
    }

    /// Min/max of finite values; `None` if there are none.
    pub fn range(&self) -> Option<(f32, f32)> {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.values {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if lo <= hi {
            Some((lo, hi))
        } else {
            None
        }
    }
}

/// Find a field by name in a field list.
pub fn find<'a>(fields: &'a [Field], name: &str) -> Option<&'a Field> {
    fields.iter().find(|f| f.name == name)
}

/// Average a cell field of a structured grid with point dimensions `dims`
/// to its points: each point takes the mean of its up-to-8 adjacent cells.
/// One task per `k` slab of points; every point's sum runs in the same order
/// on any pool.
pub fn structured_cell_to_point(dims: [usize; 3], cell: &[f32]) -> Vec<f32> {
    let [nx, ny, nz] = [dims[0] - 1, dims[1] - 1, dims[2] - 1];
    let mut out = vec![0.0f32; dims[0] * dims[1] * dims[2]];
    out.par_chunks_mut(dims[0] * dims[1]).enumerate().for_each(|(pk, slab)| {
        for pj in 0..dims[1] {
            for pi in 0..dims[0] {
                let mut sum = 0.0;
                let mut cnt = 0.0;
                for dk in 0..2usize {
                    for dj in 0..2usize {
                        for di in 0..2usize {
                            if pi >= di && pj >= dj && pk >= dk {
                                let (ci, cj, ck) = (pi - di, pj - dj, pk - dk);
                                if ci < nx && cj < ny && ck < nz {
                                    sum += cell[(ck * ny + cj) * nx + ci];
                                    cnt += 1.0;
                                }
                            }
                        }
                    }
                }
                slab[pj * dims[0] + pi] = if cnt > 0.0 { sum / cnt } else { 0.0 };
            }
        }
    });
    out
}

/// Average a cell field of an unstructured mesh (hexes or tets over
/// `n_points` nodes) to its nodes: each node takes the mean of its incident
/// cells, summed in cell order; a node no cell uses gets 0.
pub fn cell_to_point<const N: usize>(
    n_points: usize,
    cells: &[[u32; N]],
    cell: &[f32],
) -> Vec<f32> {
    let mut accum = vec![0.0f32; n_points];
    let mut count = vec![0u32; n_points];
    for (c, &v) in cells.iter().zip(cell) {
        for &n in c {
            accum[n as usize] += v;
            count[n as usize] += 1;
        }
    }
    for (a, c) in accum.iter_mut().zip(&count) {
        if *c > 0 {
            *a /= *c as f32;
        }
    }
    accum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_ignores_nonfinite() {
        let f = Field::point("t", vec![1.0, f32::NAN, -2.0, f32::INFINITY, 5.0]);
        assert_eq!(f.range(), Some((-2.0, 5.0)));
        let empty = Field::cell("e", vec![f32::NAN]);
        assert_eq!(empty.range(), None);
    }

    #[test]
    fn find_by_name() {
        let fs = vec![Field::point("a", vec![]), Field::cell("b", vec![])];
        assert!(find(&fs, "b").is_some());
        assert_eq!(find(&fs, "b").unwrap().assoc, Assoc::Cell);
        assert!(find(&fs, "c").is_none());
    }

    #[test]
    fn cell_to_point_preserves_constant_fields() {
        let pt = structured_cell_to_point([7, 7, 7], &[3.0f32; 6 * 6 * 6]);
        assert_eq!(pt.len(), 7 * 7 * 7);
        assert!(pt.iter().all(|v| (v - 3.0).abs() < 1e-6));
        // Two tets sharing a face, and one node no cell uses.
        let nodes = cell_to_point(6, &[[0, 1, 2, 3], [1, 2, 3, 4]], &[3.0, 3.0]);
        assert_eq!(nodes, [3.0, 3.0, 3.0, 3.0, 3.0, 0.0]);
    }
}
