//! Mesh conventions: interpret a Conduit-style node as a mesh (Section 4.3).
//!
//! Supported conventions (informed by the paper's Listing 4.1):
//!
//! ```text
//! state/{time, cycle, domain}
//! coords/type            = "uniform" | "rectilinear" | "explicit"
//!   uniform:     coords/dims/{i,j,k}, coords/origin/{x,y,z}?, coords/spacing/{x,y,z}?
//!   rectilinear: coords/values/{x,y,z}   (per-axis coordinate arrays)
//!   explicit:    coords/{x,y,z}          (per-point coordinate arrays)
//! topology/type          = "uniform" | "rectilinear" | "unstructured"
//!   unstructured: topology/elements/shape = "hexs",
//!                 topology/elements/connectivity (u32 array, 8 per hex)
//! fields/<name>/association = "vertex" | "element"
//! fields/<name>/values      = f32 array (finite values only)
//! ```

use conduit_node::Node;
use mesh::{Assoc, Field, HexMesh, RectilinearGrid, UniformGrid};
use vecmath::{Aabb, Vec3};

/// A mesh reconstructed from published Conduit data.
#[derive(Debug, Clone)]
pub enum PublishedMesh {
    Uniform(UniformGrid),
    Rectilinear(RectilinearGrid),
    Hexes(HexMesh),
}

impl PublishedMesh {
    /// Cells in the published mesh — the data-size hint admission control
    /// feeds into the performance models.
    pub fn num_cells(&self) -> usize {
        match self {
            PublishedMesh::Uniform(g) => g.num_cells(),
            PublishedMesh::Rectilinear(g) => g.num_cells(),
            PublishedMesh::Hexes(m) => m.num_hexes(),
        }
    }

    pub fn bounds(&self) -> Aabb {
        match self {
            PublishedMesh::Uniform(g) => g.bounds(),
            PublishedMesh::Rectilinear(g) => g.bounds(),
            PublishedMesh::Hexes(m) => m.bounds(),
        }
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        match self {
            PublishedMesh::Uniform(g) => g.field(name),
            PublishedMesh::Rectilinear(g) => g.field(name),
            PublishedMesh::Hexes(m) => m.field(name),
        }
    }
}

/// Conversion failures surfaced to the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    MissingPath(&'static str),
    Unsupported(String),
    BadShape(String),
}

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvertError::MissingPath(p) => write!(f, "published data lacks `{p}`"),
            ConvertError::Unsupported(s) => write!(f, "unsupported convention: {s}"),
            ConvertError::BadShape(s) => write!(f, "inconsistent data: {s}"),
        }
    }
}

impl std::error::Error for ConvertError {}

/// Interpret a published node as a mesh. Structured meshes may carry ghost
/// layers (`ghost/{i,j,k}` = layers per side); they are stripped here —
/// the capability the paper's CloverLeaf3D integration had to hand-roll
/// ("it was necessary to copy the coordinate and field data to remove the
/// embedded ghost zones, which Strawman currently does not support").
pub fn convert(data: &Node) -> Result<PublishedMesh, ConvertError> {
    let ctype = data.get_str("coords/type").ok_or(ConvertError::MissingPath("coords/type"))?;
    let mesh = match ctype {
        "uniform" => convert_uniform(data),
        "rectilinear" => convert_rectilinear(data),
        "explicit" => convert_explicit(data),
        other => Err(ConvertError::Unsupported(format!("coords/type = {other}"))),
    }?;
    strip_ghosts(mesh, data)
}

/// Ghost layers per axis declared at `ghost/{i,j,k}`.
fn ghost_layers(data: &Node) -> [usize; 3] {
    [
        data.get_i64("ghost/i").unwrap_or(0).max(0) as usize,
        data.get_i64("ghost/j").unwrap_or(0).max(0) as usize,
        data.get_i64("ghost/k").unwrap_or(0).max(0) as usize,
    ]
}

/// Remove `g` ghost layers from each side of a structured mesh's axes and
/// fields. Unstructured meshes ignore the declaration.
fn strip_ghosts(mesh: PublishedMesh, data: &Node) -> Result<PublishedMesh, ConvertError> {
    let g = ghost_layers(data);
    if g == [0, 0, 0] {
        return Ok(mesh);
    }
    match mesh {
        PublishedMesh::Uniform(grid) => {
            let cd = grid.cell_dims();
            for axis in 0..3 {
                if cd[axis] <= 2 * g[axis] {
                    return Err(ConvertError::BadShape(format!(
                        "ghost layers {g:?} consume all of axis {axis} ({} cells)",
                        cd[axis]
                    )));
                }
            }
            let inner_cells = [cd[0] - 2 * g[0], cd[1] - 2 * g[1], cd[2] - 2 * g[2]];
            let mut out = UniformGrid {
                dims: [inner_cells[0] + 1, inner_cells[1] + 1, inner_cells[2] + 1],
                origin: grid.point_position(g[0], g[1], g[2]),
                spacing: grid.spacing,
                fields: Vec::new(),
            };
            for f in &grid.fields {
                out.fields.push(strip_field_structured(f, &grid, g)?);
            }
            Ok(PublishedMesh::Uniform(out))
        }
        PublishedMesh::Rectilinear(grid) => {
            let trim = |axis: &[f32], ga: usize| axis[ga..axis.len() - ga].to_vec();
            let d = grid.dims();
            for axis in 0..3 {
                if d[axis] <= 2 * g[axis] + 1 {
                    return Err(ConvertError::BadShape(format!(
                        "ghost layers {g:?} consume all of axis {axis}"
                    )));
                }
            }
            // Build a uniform-grid shim for index math on the source.
            let src_shim = UniformGrid {
                dims: d,
                origin: vecmath::Vec3::ZERO,
                spacing: vecmath::Vec3::ONE,
                fields: Vec::new(),
            };
            let mut out = RectilinearGrid {
                xs: trim(&grid.xs, g[0]),
                ys: trim(&grid.ys, g[1]),
                zs: trim(&grid.zs, g[2]),
                fields: Vec::new(),
            };
            for f in &grid.fields {
                out.fields.push(strip_field_structured(f, &src_shim, g)?);
            }
            Ok(PublishedMesh::Rectilinear(out))
        }
        other => Ok(other),
    }
}

/// Copy the interior window of a structured point or cell field.
fn strip_field_structured(
    f: &Field,
    src: &UniformGrid,
    g: [usize; 3],
) -> Result<Field, ConvertError> {
    let (src_dims, inner_dims): ([usize; 3], [usize; 3]) = match f.assoc {
        Assoc::Point => {
            let d = src.dims;
            (d, [d[0] - 2 * g[0], d[1] - 2 * g[1], d[2] - 2 * g[2]])
        }
        Assoc::Cell => {
            let c = src.cell_dims();
            (c, [c[0] - 2 * g[0], c[1] - 2 * g[1], c[2] - 2 * g[2]])
        }
    };
    let mut values = Vec::with_capacity(inner_dims[0] * inner_dims[1] * inner_dims[2]);
    for k in 0..inner_dims[2] {
        for j in 0..inner_dims[1] {
            let row_start = ((k + g[2]) * src_dims[1] + (j + g[1])) * src_dims[0] + g[0];
            values.extend_from_slice(&f.values[row_start..row_start + inner_dims[0]]);
        }
    }
    Ok(Field { name: f.name.clone(), assoc: f.assoc, values })
}

fn read_fields(data: &Node, n_points: usize, n_cells: usize) -> Result<Vec<Field>, ConvertError> {
    let mut out = Vec::new();
    if let Some(Node::Object(fields)) = data.get("fields") {
        for (name, f) in fields {
            let assoc = match f.get_str("association") {
                Some("vertex") => Assoc::Point,
                Some("element") => Assoc::Cell,
                other => {
                    return Err(ConvertError::Unsupported(format!(
                        "fields/{name}/association = {other:?}"
                    )))
                }
            };
            let values =
                f.get_f32s("values").ok_or(ConvertError::MissingPath("fields/<name>/values"))?;
            let expect = if assoc == Assoc::Point { n_points } else { n_cells };
            if values.len() != expect {
                return Err(ConvertError::BadShape(format!(
                    "field {name}: {} values for {} {}",
                    values.len(),
                    expect,
                    if assoc == Assoc::Point { "points" } else { "cells" }
                )));
            }
            let values = values.to_vec();
            if let Some(i) = values.iter().position(|v| !v.is_finite()) {
                return Err(ConvertError::BadShape(format!(
                    "field {name}[{i}] = {} is not finite",
                    values[i]
                )));
            }
            out.push(Field { name: name.to_string(), assoc, values });
        }
    }
    Ok(out)
}

fn convert_uniform(data: &Node) -> Result<PublishedMesh, ConvertError> {
    let dim = |axis: &str| {
        data.get_i64(&format!("coords/dims/{axis}"))
            .ok_or(ConvertError::MissingPath("coords/dims/{i,j,k}"))
    };
    let dims = [dim("i")?, dim("j")?, dim("k")?];
    if dims.iter().any(|&d| d < 2) {
        return Err(ConvertError::BadShape(format!("point dims {dims:?} < 2")));
    }
    let points = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(usize::try_from(d).ok()?));
    if points.is_none() {
        return Err(ConvertError::BadShape(format!("point dims {dims:?} overflow a point count")));
    }
    let dims = dims.map(|d| d as usize);
    let get = |p: &str, default: f64| data.get_f64(p).unwrap_or(default);
    let origin = Vec3::new(
        get("coords/origin/x", 0.0) as f32,
        get("coords/origin/y", 0.0) as f32,
        get("coords/origin/z", 0.0) as f32,
    );
    let spacing = Vec3::new(
        get("coords/spacing/x", 1.0) as f32,
        get("coords/spacing/y", 1.0) as f32,
        get("coords/spacing/z", 1.0) as f32,
    );
    // Checked after the `f32` cast, which turns a spacing past `f32::MAX`
    // into infinity and one below the smallest subnormal into zero.
    if ![origin.x, origin.y, origin.z].iter().all(|c| c.is_finite()) {
        return Err(ConvertError::BadShape(format!("origin {origin:?} is not finite")));
    }
    if ![spacing.x, spacing.y, spacing.z].iter().all(|s| s.is_finite() && *s > 0.0) {
        return Err(ConvertError::BadShape(format!(
            "spacing {spacing:?} is not finite and positive"
        )));
    }
    let mut g = UniformGrid { dims, origin, spacing, fields: Vec::new() };
    g.fields = read_fields(data, g.num_points(), g.num_cells())?;
    Ok(PublishedMesh::Uniform(g))
}

fn convert_rectilinear(data: &Node) -> Result<PublishedMesh, ConvertError> {
    let axis = |name: &str| -> Result<Vec<f32>, ConvertError> {
        data.get_f32s(&format!("coords/values/{name}"))
            .map(|s| s.to_vec())
            .ok_or(ConvertError::MissingPath("coords/values/{x,y,z}"))
    };
    let g = RectilinearGrid { xs: axis("x")?, ys: axis("y")?, zs: axis("z")?, fields: Vec::new() };
    if g.xs.len() < 2 || g.ys.len() < 2 || g.zs.len() < 2 {
        return Err(ConvertError::BadShape("rectilinear axes need >= 2 coords".into()));
    }
    check_finite(&[&g.xs, &g.ys, &g.zs])?;
    // Cell lookup bisects each axis, which places nothing right on an axis
    // that ever steps back or repeats a coordinate.
    for (name, axis) in ["x", "y", "z"].iter().zip([&g.xs, &g.ys, &g.zs]) {
        if let Some(i) = axis.windows(2).position(|w| w[1] <= w[0]) {
            let (a, b) = (axis[i], axis[i + 1]);
            return Err(ConvertError::BadShape(format!(
                "rectilinear axis {name} is not strictly increasing: {name}[{}] = {b} after {a}",
                i + 1
            )));
        }
    }
    let (np, nc) = (g.num_points(), g.num_cells());
    let mut g = g;
    g.fields = read_fields(data, np, nc)?;
    Ok(PublishedMesh::Rectilinear(g))
}

fn convert_explicit(data: &Node) -> Result<PublishedMesh, ConvertError> {
    let coord = |name: &str| -> Result<&[f32], ConvertError> {
        data.get_f32s(&format!("coords/{name}")).ok_or(ConvertError::MissingPath("coords/{x,y,z}"))
    };
    let xs = coord("x")?;
    let ys = coord("y")?;
    let zs = coord("z")?;
    if xs.len() != ys.len() || ys.len() != zs.len() {
        return Err(ConvertError::BadShape("coordinate arrays differ in length".into()));
    }
    check_finite(&[xs, ys, zs])?;
    let ttype = data.get_str("topology/type").ok_or(ConvertError::MissingPath("topology/type"))?;
    if ttype != "unstructured" {
        return Err(ConvertError::Unsupported(format!(
            "explicit coords with topology/type = {ttype}"
        )));
    }
    let shape = data
        .get_str("topology/elements/shape")
        .ok_or(ConvertError::MissingPath("topology/elements/shape"))?;
    if shape != "hexs" {
        return Err(ConvertError::Unsupported(format!("element shape {shape}")));
    }
    let conn = data
        .get_u32s("topology/elements/connectivity")
        .ok_or(ConvertError::MissingPath("topology/elements/connectivity"))?;
    if conn.len() % 8 != 0 {
        return Err(ConvertError::BadShape("hex connectivity not a multiple of 8".into()));
    }
    let n_points = xs.len();
    if let Some(&bad) = conn.iter().find(|&&v| v as usize >= n_points) {
        return Err(ConvertError::BadShape(format!("connectivity index {bad} out of range")));
    }
    let points: Vec<Vec3> = (0..n_points).map(|i| Vec3::new(xs[i], ys[i], zs[i])).collect();
    let hexes: Vec<[u32; 8]> =
        conn.chunks_exact(8).map(|c| [c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]).collect();
    let n_cells = hexes.len();
    let fields = read_fields(data, n_points, n_cells)?;
    Ok(PublishedMesh::Hexes(HexMesh { points, hexes, fields }))
}

/// Refuse a coordinate no renderer can place: NaN or infinite.
fn check_finite(axes: &[&[f32]; 3]) -> Result<(), ConvertError> {
    for (axis, values) in ["x", "y", "z"].iter().zip(axes) {
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(ConvertError::BadShape(format!(
                "coordinate {axis}[{i}] = {} is not finite",
                values[i]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_node() -> Node {
        let mut d = Node::new();
        d.set("coords/type", "uniform");
        d.set("coords/dims/i", 3i64);
        d.set("coords/dims/j", 4i64);
        d.set("coords/dims/k", 5i64);
        d.set("coords/spacing/x", 0.5f64);
        d.set("fields/t/association", "vertex");
        d.set("fields/t/values", vec![1.0f32; 60]);
        d
    }

    #[test]
    fn uniform_round_trip() {
        let m = convert(&uniform_node()).unwrap();
        let PublishedMesh::Uniform(g) = m else { panic!("wrong kind") };
        assert_eq!(g.dims, [3, 4, 5]);
        assert_eq!(g.spacing.x, 0.5);
        assert_eq!(g.spacing.y, 1.0);
        assert_eq!(g.field("t").unwrap().values.len(), 60);
    }

    #[test]
    fn negative_or_overflowing_dims_rejected() {
        for (axis, dim) in [("i", -1i64), ("k", i64::MIN), ("j", 1 << 62)] {
            let mut d = uniform_node();
            d.set(&format!("coords/dims/{axis}"), dim);
            let err = convert(&d).unwrap_err();
            assert!(matches!(err, ConvertError::BadShape(_)), "{axis}={dim}: {err}");
        }
    }

    #[test]
    fn field_length_mismatch_rejected() {
        let mut d = uniform_node();
        d.set("fields/t/values", vec![0.0f32; 7]);
        assert!(matches!(convert(&d), Err(ConvertError::BadShape(_))));
    }

    /// No renderer can colour a NaN or infinite scalar, and the surface and
    /// volume plots drew one differently, so a field value that is not
    /// finite is refused at publish with the field and the index.
    #[test]
    fn non_finite_field_value_rejected() {
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut points = vec![1.0f32; 60];
            points[17] = v;
            let mut d = uniform_node();
            d.set("fields/t/values", points);
            let err = convert(&d).unwrap_err();
            let ConvertError::BadShape(msg) = &err else { panic!("point {v}: {err}") };
            assert!(msg.contains("field t[17]"), "{msg}");

            let mut d = rectilinear_node();
            d.set("fields/rho/values", vec![0.5f32, v]);
            let err = convert(&d).unwrap_err();
            let ConvertError::BadShape(msg) = &err else { panic!("cell {v}: {err}") };
            assert!(msg.contains("field rho[1]"), "{msg}");
        }
    }

    #[test]
    fn non_finite_or_non_positive_spacing_rejected() {
        // 1e39 and 1e-50 are finite and positive as f64, but not as f32.
        for s in [f64::NAN, f64::INFINITY, 1e39, 0.0, -0.5, 1e-50] {
            let mut d = uniform_node();
            d.set("coords/spacing/y", s);
            let err = convert(&d).unwrap_err();
            assert!(matches!(err, ConvertError::BadShape(_)), "spacing {s}: {err}");
        }
    }

    #[test]
    fn non_finite_origin_rejected() {
        for o in [f64::NAN, f64::NEG_INFINITY, 1e39] {
            let mut d = uniform_node();
            d.set("coords/origin/z", o);
            let err = convert(&d).unwrap_err();
            assert!(matches!(err, ConvertError::BadShape(_)), "origin {o}: {err}");
        }
    }

    fn rectilinear_node() -> Node {
        let mut d = Node::new();
        d.set("coords/type", "rectilinear");
        d.set("coords/values/x", vec![0.0f32, 1.0, 3.0]);
        d.set("coords/values/y", vec![0.0f32, 2.0]);
        d.set("coords/values/z", vec![0.0f32, 1.0]);
        d.set("fields/rho/association", "element");
        d.set("fields/rho/values", vec![0.5f32, 0.25]);
        d
    }

    #[test]
    fn non_finite_rectilinear_coordinate_rejected() {
        for v in [f32::NAN, f32::INFINITY] {
            let mut d = rectilinear_node();
            d.set("coords/values/x", vec![0.0f32, v, 3.0]);
            let err = convert(&d).unwrap_err();
            assert!(matches!(err, ConvertError::BadShape(_)), "x[1] = {v}: {err}");
        }
    }

    /// Cell lookup assumes sorted axes, so a descending or repeated one is
    /// refused with the axis and the index where it stops increasing.
    #[test]
    fn non_increasing_rectilinear_axis_rejected() {
        // Each case keeps the field's length equal to the cell count, so
        // only the axis is wrong.
        for (axis, values, cells, at) in
            [("x", [3.0f32, 1.0, 0.0], 2, "x[1] = 1"), ("y", [0.0, 2.0, 2.0], 4, "y[2] = 2")]
        {
            let mut d = rectilinear_node();
            d.set(&format!("coords/values/{axis}"), values.to_vec());
            d.set("fields/rho/values", vec![0.5f32; cells]);
            let err = convert(&d).unwrap_err();
            let ConvertError::BadShape(msg) = &err else { panic!("{axis}: {err}") };
            assert!(msg.contains(&format!("axis {axis} is not strictly increasing")), "{msg}");
            assert!(msg.contains(at), "{msg}");
        }
    }

    fn explicit_node() -> Node {
        let mut d = Node::new();
        d.set("coords/type", "explicit");
        d.set("coords/x", vec![0.0f32, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        d.set("coords/y", vec![0.0f32, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
        d.set("coords/z", vec![0.0f32, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        d.set("topology/type", "unstructured");
        d.set("topology/elements/shape", "hexs");
        d.set("topology/elements/connectivity", (0u32..8).collect::<Vec<u32>>());
        d.set("fields/e/association", "element");
        d.set("fields/e/values", vec![9.0f32]);
        d
    }

    #[test]
    fn non_finite_explicit_coordinate_rejected() {
        for v in [f32::NAN, f32::NEG_INFINITY] {
            let mut d = explicit_node();
            d.set("coords/y", vec![0.0f32, 0.0, 1.0, 1.0, 0.0, v, 1.0, 1.0]);
            let err = convert(&d).unwrap_err();
            assert!(matches!(err, ConvertError::BadShape(_)), "y[5] = {v}: {err}");
        }
    }

    #[test]
    fn rectilinear_conversion() {
        let m = convert(&rectilinear_node()).unwrap();
        let PublishedMesh::Rectilinear(g) = m else { panic!() };
        assert_eq!(g.num_cells(), 2);
        assert_eq!(g.field("rho").unwrap().assoc, Assoc::Cell);
    }

    #[test]
    fn explicit_hex_conversion() {
        let m = convert(&explicit_node()).unwrap();
        let PublishedMesh::Hexes(h) = m else { panic!() };
        assert_eq!(h.num_hexes(), 1);
        assert_eq!(h.field("e").unwrap().values, vec![9.0]);
        assert!(h.bounds().contains(Vec3::splat(0.5)));
    }

    #[test]
    fn missing_paths_reported() {
        let d = Node::new();
        assert!(matches!(convert(&d), Err(ConvertError::MissingPath("coords/type"))));
        let mut d = Node::new();
        d.set("coords/type", "spectral");
        assert!(matches!(convert(&d), Err(ConvertError::Unsupported(_))));
    }

    #[test]
    fn bad_connectivity_rejected() {
        let mut d = Node::new();
        d.set("coords/type", "explicit");
        d.set("coords/x", vec![0.0f32; 4]);
        d.set("coords/y", vec![0.0f32; 4]);
        d.set("coords/z", vec![0.0f32; 4]);
        d.set("topology/type", "unstructured");
        d.set("topology/elements/shape", "hexs");
        d.set("topology/elements/connectivity", vec![0u32, 1, 2, 3, 4, 5, 6, 99]);
        assert!(matches!(convert(&d), Err(ConvertError::BadShape(_))));
    }
}

#[cfg(test)]
mod ghost_tests {
    use super::*;

    /// A 6x6x6-cell uniform grid with 1 ghost layer per side and a point
    /// field equal to the x index, so interior values are recognizable.
    fn ghosted_uniform() -> Node {
        let mut d = Node::new();
        d.set("coords/type", "uniform");
        d.set("coords/dims/i", 7i64);
        d.set("coords/dims/j", 7i64);
        d.set("coords/dims/k", 7i64);
        d.set("coords/spacing/x", 1.0f64);
        d.set("ghost/i", 1i64);
        d.set("ghost/j", 1i64);
        d.set("ghost/k", 1i64);
        let mut vals = vec![0.0f32; 343];
        for k in 0..7 {
            for j in 0..7 {
                for i in 0..7 {
                    vals[(k * 7 + j) * 7 + i] = i as f32;
                }
            }
        }
        d.set("fields/fx/association", "vertex");
        d.set("fields/fx/values", vals);
        // Cell field marking ghosts with -1.
        let mut cvals = vec![-1.0f32; 216];
        for k in 1..5usize {
            for j in 1..5usize {
                for i in 1..5usize {
                    cvals[(k * 6 + j) * 6 + i] = 7.0;
                }
            }
        }
        d.set("fields/interior/association", "element");
        d.set("fields/interior/values", cvals);
        d
    }

    #[test]
    fn ghost_layers_are_stripped_from_uniform_grids() {
        let m = convert(&ghosted_uniform()).unwrap();
        let PublishedMesh::Uniform(g) = m else { panic!("wrong kind") };
        // 6 cells - 2 ghosts = 4 cells => 5 points per axis.
        assert_eq!(g.dims, [5, 5, 5]);
        // Origin moved in by one spacing.
        assert_eq!(g.origin.x, 1.0);
        // Point field window: x index runs 1..=5 now.
        let f = g.field("fx").unwrap();
        assert_eq!(f.values.len(), 125);
        assert_eq!(f.values[0], 1.0);
        assert_eq!(f.values[4], 5.0);
        // Cell field: every surviving cell is interior.
        let c = g.field("interior").unwrap();
        assert_eq!(c.values.len(), 64);
        assert!(c.values.iter().all(|&v| v == 7.0), "ghost cells leaked");
    }

    #[test]
    fn ghost_layers_stripped_from_rectilinear() {
        let mut d = Node::new();
        d.set("coords/type", "rectilinear");
        d.set("coords/values/x", vec![0.0f32, 1.0, 2.0, 3.0, 4.0]);
        d.set("coords/values/y", vec![0.0f32, 1.0, 2.0, 3.0, 4.0]);
        d.set("coords/values/z", vec![0.0f32, 1.0, 2.0, 3.0, 4.0]);
        d.set("ghost/i", 1i64);
        d.set("ghost/j", 1i64);
        d.set("ghost/k", 1i64);
        d.set("fields/rho/association", "element");
        d.set("fields/rho/values", (0..64).map(|i| i as f32).collect::<Vec<f32>>());
        let m = convert(&d).unwrap();
        let PublishedMesh::Rectilinear(g) = m else { panic!("wrong kind") };
        assert_eq!(g.xs, vec![1.0, 2.0, 3.0]);
        assert_eq!(g.num_cells(), 8);
        let rho = g.field("rho").unwrap();
        // Interior cells of a 4^3 block with 1 ghost layer: indices with
        // i,j,k in 1..3 of the source; first is (1,1,1) = 1 + 4 + 16 = 21.
        assert_eq!(rho.values[0], 21.0);
        assert_eq!(rho.values.len(), 8);
    }

    #[test]
    fn oversized_ghosts_rejected() {
        let mut d = ghosted_uniform();
        d.set("ghost/i", 3i64); // 6 cells - 6 ghosts = nothing left
        assert!(matches!(convert(&d), Err(ConvertError::BadShape(_))));
    }

    #[test]
    fn zero_ghosts_is_identity() {
        let mut d = ghosted_uniform();
        d.set("ghost/i", 0i64);
        d.set("ghost/j", 0i64);
        d.set("ghost/k", 0i64);
        let m = convert(&d).unwrap();
        let PublishedMesh::Uniform(g) = m else { panic!() };
        assert_eq!(g.dims, [7, 7, 7]);
    }
}
