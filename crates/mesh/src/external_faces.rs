//! External-faces extraction: the geometry filter the SC16 study uses to
//! produce surface workloads ("takes O(N^3) cells and creates O(N^2)
//! geometry"). For an N^3 grid the result is exactly 12 N^2 triangles — the
//! `O = 12 N^2` term of the model-input mapping in Section 5.8.

use crate::field::{find, Field};
use crate::structured::{RectilinearGrid, UniformGrid};
use crate::unstructured::{HexMesh, TriMesh};
use vecmath::Vec3;

/// External faces of a uniform grid with a point field mapped to per-vertex
/// scalars. Produces `12 * (nx*ny + ny*nz + nz*nx) / 3`-ish triangles —
/// exactly two triangles per boundary cell face.
///
/// # Panics
/// If `field_name` names no point field of the grid.
pub fn external_faces_grid(grid: &UniformGrid, field_name: &str) -> TriMesh {
    let field = point_values(&grid.fields, field_name);
    structured_faces(grid.dims, field, |i, j, k| grid.point_position(i, j, k))
}

/// External faces of a rectilinear grid, at its published axis coordinates
/// (stretched axes included); otherwise as [`external_faces_grid`].
///
/// # Panics
/// If `field_name` names no point field of the grid.
pub fn external_faces_rectilinear(grid: &RectilinearGrid, field_name: &str) -> TriMesh {
    let field = point_values(&grid.fields, field_name);
    structured_faces(grid.dims(), field, |i, j, k| grid.point_position(i, j, k))
}

#[expect(clippy::panic, reason = "callers name a point field the grid carries")]
fn point_values<'a>(fields: &'a [Field], field_name: &str) -> &'a [f32] {
    &find(fields, field_name).unwrap_or_else(|| panic!("no point field named {field_name}")).values
}

/// The one face walker of a structured grid of `dims` points per axis
/// (x fastest): two triangles per boundary cell face, each vertex at
/// `position(i, j, k)` with its scalar from `field`.
fn structured_faces(
    dims: [usize; 3],
    field: &[f32],
    position: impl Fn(usize, usize, usize) -> Vec3,
) -> TriMesh {
    let c = [dims[0] - 1, dims[1] - 1, dims[2] - 1];
    let mut mesh = TriMesh::default();
    let expected = 4 * (c[0] * c[1] + c[1] * c[2] + c[2] * c[0]);
    mesh.tris.reserve(expected);
    mesh.points.reserve(expected * 2);

    let mut emit_quad = |corners: [(usize, usize, usize); 4]| {
        let base = mesh.points.len() as u32;
        for (i, j, k) in corners {
            mesh.points.push(position(i, j, k));
            mesh.scalars.push(field[(k * dims[1] + j) * dims[0] + i]);
        }
        mesh.tris.push([base, base + 1, base + 2]);
        mesh.tris.push([base, base + 2, base + 3]);
    };

    // -z / +z faces.
    for j in 0..c[1] {
        for i in 0..c[0] {
            emit_quad([(i, j, 0), (i, j + 1, 0), (i + 1, j + 1, 0), (i + 1, j, 0)]);
            let k = c[2];
            emit_quad([(i, j, k), (i + 1, j, k), (i + 1, j + 1, k), (i, j + 1, k)]);
        }
    }
    // -y / +y faces.
    for k in 0..c[2] {
        for i in 0..c[0] {
            emit_quad([(i, 0, k), (i + 1, 0, k), (i + 1, 0, k + 1), (i, 0, k + 1)]);
            let j = c[1];
            emit_quad([(i, j, k), (i, j, k + 1), (i + 1, j, k + 1), (i + 1, j, k)]);
        }
    }
    // -x / +x faces.
    for k in 0..c[2] {
        for j in 0..c[1] {
            emit_quad([(0, j, k), (0, j, k + 1), (0, j + 1, k + 1), (0, j + 1, k)]);
            let i = c[0];
            emit_quad([(i, j, k), (i, j + 1, k), (i, j + 1, k + 1), (i, j, k + 1)]);
        }
    }
    mesh
}

/// Quad faces of a hexahedron in VTK ordering, outward-oriented.
const HEX_FACES: [[usize; 4]; 6] = [
    [0, 3, 2, 1], // -z
    [4, 5, 6, 7], // +z
    [0, 1, 5, 4], // -y
    [2, 3, 7, 6], // +y
    [0, 4, 7, 3], // -x
    [1, 2, 6, 5], // +x
];

/// External faces of an unstructured hex mesh: faces referenced by exactly
/// one hexahedron, triangulated, with an optional point field as scalar.
///
/// Faces are matched by their sorted vertex key. The keys are counting-sorted
/// into one bucket per smallest vertex, and full keys are compared only
/// within a bucket, so the pass is linear in hexes plus points. Each boundary
/// quad keeps the orientation of its one hexahedron, and the quads come out
/// in ascending order of their oriented vertex ids.
///
/// # Panics
/// If `field_name` names no field or a field whose length is not
/// `points.len()`, or if a hexahedron references a point the mesh lacks.
#[expect(
    clippy::panic,
    reason = "callers name a field of the mesh and pass hexes over its own points"
)]
pub fn external_faces_hex(mesh: &HexMesh, field_name: Option<&str>) -> TriMesh {
    let n_points = mesh.points.len();
    let field = field_name.map(|n| {
        let f = &mesh.field(n).unwrap_or_else(|| panic!("no field named {n}")).values;
        assert!(f.len() == n_points, "field {n} has {} values for {n_points} points", f.len());
        f
    });
    // Face `6 h + i` is `HEX_FACES[i]` of hex `h`; `keys` holds its sorted ids.
    let mut keys: Vec<[u32; 4]> = Vec::with_capacity(mesh.hexes.len() * 6);
    for (h, hex) in mesh.hexes.iter().enumerate() {
        if let Some(v) = hex.iter().find(|&&v| v as usize >= n_points) {
            panic!("hex {h} references point {v} of a mesh with {n_points} points");
        }
        for f in HEX_FACES {
            let mut key = f.map(|i| hex[i]);
            key.sort_unstable();
            keys.push(key);
        }
    }
    // Counting sort by smallest vertex: count into `end[v + 1]`, prefix-sum
    // to bucket starts, then fill with `end[v]` as the cursor, which leaves
    // `end[v]` at the end of bucket `v`.
    let mut end = vec![0usize; n_points + 1];
    for k in &keys {
        end[k[0] as usize + 1] += 1;
    }
    for v in 0..n_points {
        end[v + 1] += end[v];
    }
    let mut by_min = vec![0u32; keys.len()];
    for (face, k) in keys.iter().enumerate() {
        let cursor = &mut end[k[0] as usize];
        by_min[*cursor] = face as u32;
        *cursor += 1;
    }
    let mut boundary: Vec<[u32; 4]> = Vec::new();
    let mut begin = 0;
    for &bucket_end in &end[..n_points] {
        let bucket = &mut by_min[begin..bucket_end];
        begin = bucket_end;
        bucket.sort_unstable_by_key(|&face| keys[face as usize]);
        for run in bucket.chunk_by(|&a, &b| keys[a as usize] == keys[b as usize]) {
            if let &[face] = run {
                let hex = &mesh.hexes[face as usize / 6];
                boundary.push(HEX_FACES[face as usize % 6].map(|i| hex[i]));
            }
        }
    }
    // Deterministic output order.
    boundary.sort_unstable();
    let mut out = TriMesh::default();
    for quad in boundary {
        let base = out.points.len() as u32;
        for &v in &quad {
            let p = mesh.points[v as usize];
            out.points.push(p);
            out.scalars.push(match field {
                Some(f) => f[v as usize],
                None => p.z,
            });
        }
        out.tris.push([base, base + 1, base + 2]);
        out.tris.push([base, base + 2, base + 3]);
    }
    out
}

/// The study's mapping estimate: `O = 12 N^2` triangles for an N^3 grid.
pub fn external_face_triangle_estimate(n: usize) -> usize {
    12 * n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use proptest::prelude::*;
    use vecmath::{Aabb, Vec3};

    /// The `HashMap` version of [`external_faces_hex`] that the counting
    /// sort replaced, kept verbatim as its oracle.
    #[expect(
        clippy::disallowed_types,
        reason = "the oracle is the HashMap version; it sorts what it iterates"
    )]
    fn external_faces_hex_reference(mesh: &HexMesh, field_name: Option<&str>) -> TriMesh {
        let field = field_name
            .map(|n| &mesh.field(n).unwrap_or_else(|| panic!("no field named {n}")).values);
        // Count occurrences of each face by its sorted vertex key.
        let mut counts: std::collections::HashMap<[u32; 4], (u32, [u32; 4])> =
            std::collections::HashMap::with_capacity(mesh.num_hexes() * 3);
        for h in &mesh.hexes {
            for f in HEX_FACES {
                let quad = [h[f[0]], h[f[1]], h[f[2]], h[f[3]]];
                let mut key = quad;
                key.sort_unstable();
                counts.entry(key).and_modify(|e| e.0 += 1).or_insert((1, quad));
            }
        }
        let mut out = TriMesh::default();
        let mut boundary: Vec<[u32; 4]> =
            counts.into_values().filter_map(|(n, quad)| (n == 1).then_some(quad)).collect();
        // Deterministic output order.
        boundary.sort_unstable();
        for quad in boundary {
            let base = out.points.len() as u32;
            for &v in &quad {
                let p = mesh.points[v as usize];
                out.points.push(p);
                out.scalars.push(match field {
                    Some(f) => f.get(v as usize).copied().unwrap_or(0.0),
                    None => p.z,
                });
            }
            out.tris.push([base, base + 1, base + 2]);
            out.tris.push([base, base + 2, base + 3]);
        }
        out
    }

    /// A face mesh as bits: points, triangles, scalars.
    fn bits(m: &TriMesh) -> (Vec<[u32; 3]>, Vec<[u32; 3]>, Vec<u32>) {
        let points = m.points.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]);
        (points.collect(), m.tris.clone(), m.scalars.iter().map(|s| s.to_bits()).collect())
    }

    fn assert_matches_reference(mesh: &HexMesh, field: Option<&str>) {
        let (got, want) =
            (external_faces_hex(mesh, field), external_faces_hex_reference(mesh, field));
        assert!(bits(&got) == bits(&want), "faces differ ({field:?})");
    }

    /// Bit-equal to the oracle on every LULESH(24) step the surface workload
    /// cycles through (0–31), with its `e_p` field and with none. Debug
    /// builds check every eighth step.
    #[test]
    fn counting_sort_matches_the_hash_map_on_lulesh() {
        let stride = if cfg!(debug_assertions) { 8 } else { 1 };
        let mut sim = sims::Lulesh::new(24);
        for step in 0..32 {
            if step > 0 {
                sims::ProxySim::step(&mut sim);
            }
            if step % stride != 0 {
                continue;
            }
            // `sims` links its own build of this crate: rebuild the mesh here.
            let h = sim.hex_mesh();
            let e_p = h.fields.into_iter().find(|f| f.name == "e_p").expect("e_p").values;
            let mesh = HexMesh {
                points: h.points,
                hexes: h.hexes,
                fields: vec![Field::point("e_p", e_p)],
            };
            assert_matches_reference(&mesh, Some("e_p"));
            assert_matches_reference(&mesh, None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Bit-equal to the oracle on hex soups: a grid's shared faces, plus
        /// hexes over its first eight points (repeated vertices make them
        /// degenerate), plus extra copies of some hexes (a face used two or
        /// three times is no boundary), with and without a field.
        #[test]
        fn counting_sort_matches_the_hash_map_on_hex_soups(
            dims in (1usize..4, 1usize..4, 1usize..3),
            soup in proptest::collection::vec(proptest::collection::vec(0u32..8, 8..9), 0..6),
            copies in proptest::collection::vec((any::<usize>(), 1usize..3), 0..4),
            with_field in any::<bool>(),
        ) {
            let (nx, ny, nz) = dims;
            let grid = UniformGrid::new([nx, ny, nz], Aabb::from_corners(Vec3::ZERO, Vec3::ONE));
            let mut mesh = HexMesh::from_uniform_grid(&grid);
            mesh.hexes.extend(soup.iter().map(|v| std::array::from_fn(|i| v[i])));
            for (pick, n) in copies {
                let hex = mesh.hexes[pick % mesh.hexes.len()];
                mesh.hexes.extend(std::iter::repeat_n(hex, n));
            }
            let values = (0..mesh.points.len()).map(|i| i as f32 * 0.37 - 1.0).collect();
            mesh.fields.push(Field::point("s", values));
            assert_matches_reference(&mesh, with_field.then_some("s"));
        }
    }

    #[test]
    fn a_face_used_three_times_is_no_boundary() {
        let mut mesh = HexMesh::from_uniform_grid(&cube_grid(1));
        let hex = mesh.hexes[0];
        mesh.hexes.extend([hex, hex]);
        assert_eq!(external_faces_hex(&mesh, None).num_tris(), 0);
        assert_matches_reference(&mesh, None);
    }

    #[test]
    fn the_empty_mesh_has_no_faces() {
        let mut mesh = HexMesh::default();
        assert_eq!(external_faces_hex(&mesh, None).num_tris(), 0);
        mesh.fields.push(Field::point("s", Vec::new()));
        assert_matches_reference(&mesh, Some("s"));
        mesh.points.push(Vec3::ONE);
        mesh.fields[0].values.push(1.0);
        assert_matches_reference(&mesh, Some("s"));
    }

    /// A bogus id panics naming it; the bucket table is sized by the points,
    /// so the id never sizes an allocation.
    #[test]
    #[should_panic(expected = "hex 1 references point 4294967295 of a mesh with 12 points")]
    fn a_point_id_past_the_points_is_refused() {
        let mut mesh = HexMesh::from_uniform_grid(&UniformGrid::new(
            [2, 1, 1],
            Aabb::from_corners(Vec3::ZERO, Vec3::ONE),
        ));
        mesh.hexes[1][6] = u32::MAX;
        external_faces_hex(&mesh, None);
    }

    #[test]
    #[should_panic(expected = "field t has 7 values for 8 points")]
    fn a_field_of_the_wrong_length_is_refused() {
        let mut mesh = HexMesh::from_uniform_grid(&cube_grid(1));
        mesh.fields.push(Field::point("t", vec![0.0; 7]));
        external_faces_hex(&mesh, Some("t"));
    }

    fn cube_grid(n: usize) -> UniformGrid {
        let mut g = UniformGrid::new([n; 3], Aabb::from_corners(Vec3::ZERO, Vec3::ONE));
        g.add_point_field("s", |p| p.x + p.y + p.z);
        g
    }

    #[test]
    fn grid_face_count_matches_formula() {
        for n in [1usize, 2, 5, 8] {
            let m = external_faces_grid(&cube_grid(n), "s");
            assert_eq!(m.num_tris(), external_face_triangle_estimate(n), "n={n}");
        }
    }

    #[test]
    fn faces_lie_on_the_boundary() {
        let m = external_faces_grid(&cube_grid(4), "s");
        for &p in &m.points {
            let on_boundary =
                [p.x, p.y, p.z].iter().any(|&v| v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6);
            assert!(on_boundary, "{p:?} not on the unit cube boundary");
        }
    }

    #[test]
    fn normals_point_outward() {
        let m = external_faces_grid(&cube_grid(2), "s");
        let center = Vec3::splat(0.5);
        for t in 0..m.num_tris() {
            let pts = m.tri_points(t);
            let tri_center = (pts[0] + pts[1] + pts[2]) / 3.0;
            let n = m.tri_normal(t);
            assert!(n.dot(tri_center - center) > 0.0, "tri {t} normal points inward");
        }
    }

    #[test]
    fn hex_mesh_externals_match_grid_externals() {
        let g = cube_grid(3);
        let h = HexMesh::from_uniform_grid(&g);
        let from_hex = external_faces_hex(&h, Some("s"));
        let from_grid = external_faces_grid(&g, "s");
        assert_eq!(from_hex.num_tris(), from_grid.num_tris());
    }

    #[test]
    fn single_hex_has_twelve_tris() {
        let g = cube_grid(1);
        let h = HexMesh::from_uniform_grid(&g);
        let m = external_faces_hex(&h, None);
        assert_eq!(m.num_tris(), 12);
    }
}
