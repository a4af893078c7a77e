//! Data-parallel rasterizer (Chapter V): transform + cull (map), stream
//! compaction of visible triangles, tile binning (map + atomic histogram +
//! scan), and per-tile barycentric sampling with a z-buffer.
//!
//! The performance model is `T_RAST = c0*O + c1*(VO*PPT) + c2`: a per-object
//! transform/cull term plus a fill term proportional to visible objects times
//! pixels considered per triangle. The renderer measures both inputs.

use crate::counters::{PhaseTimer, RenderOutput, RenderStats};
use crate::framebuffer::Framebuffer;
use crate::raytrace::TriGeometry;
use crate::shading::{blinn_phong, ShadingParams};
use dpp::{compact_indices, count_if, map, Device};
use std::sync::atomic::{AtomicU32, Ordering};
use vecmath::{Camera, Color, TransferFunction, Vec3};

/// Side of the square screen tiles used for binning.
pub const TILE: u32 = 64;

/// Screen-space triangle produced by the transform stage.
#[derive(Debug, Clone, Copy)]
struct ScreenTri {
    /// Screen positions (x, y in pixels; z = NDC depth).
    p: [Vec3; 3],
    /// Source triangle id.
    src: u32,
}

/// Tile index range overlapped by a screen triangle.
fn tile_range(
    tri: &ScreenTri,
    width: u32,
    height: u32,
    tiles_x: u32,
    tiles_y: u32,
) -> (u32, u32, u32, u32) {
    let min_x = tri.p.iter().map(|p| p.x).fold(f32::INFINITY, f32::min).max(0.0);
    let max_x = tri.p.iter().map(|p| p.x).fold(f32::NEG_INFINITY, f32::max);
    let min_y = tri.p.iter().map(|p| p.y).fold(f32::INFINITY, f32::min).max(0.0);
    let max_y = tri.p.iter().map(|p| p.y).fold(f32::NEG_INFINITY, f32::max);
    let tx0 = (min_x as u32) / TILE;
    let tx1 = ((max_x.min(width as f32 - 1.0)) as u32) / TILE;
    let ty0 = (min_y as u32) / TILE;
    let ty1 = ((max_y.min(height as f32 - 1.0)) as u32) / TILE;
    (tx0, tx1.min(tiles_x - 1), ty0, ty1.min(tiles_y - 1))
}

/// Transform + cull stage: project every triangle, rejecting those behind the
/// camera, off screen, or degenerate.
fn transform_cull_stage(
    device: &Device,
    geom: &TriGeometry,
    camera: &Camera,
    width: u32,
    height: u32,
) -> Vec<Option<ScreenTri>> {
    let n = geom.num_tris();
    let st = camera.screen_transform(width, height);
    map(device, n, |t| {
        let a = geom.v0[t];
        let b = a + geom.e1[t];
        let c = a + geom.e2[t];
        let sa = st.to_screen(a);
        let sb = st.to_screen(b);
        let sc = st.to_screen(c);
        // Cull: behind the camera / outside NDC depth, off screen, or
        // degenerate in screen space.
        for s in [sa, sb, sc] {
            if s.z <= -1.0 || s.z >= 1.0 || !s.is_finite() {
                return None;
            }
        }
        let min_x = sa.x.min(sb.x).min(sc.x);
        let max_x = sa.x.max(sb.x).max(sc.x);
        let min_y = sa.y.min(sb.y).min(sc.y);
        let max_y = sa.y.max(sb.y).max(sc.y);
        if max_x < 0.0 || min_x >= width as f32 || max_y < 0.0 || min_y >= height as f32 {
            return None;
        }
        let area = (sb.x - sa.x) * (sc.y - sa.y) - (sc.x - sa.x) * (sb.y - sa.y);
        if area.abs() < 1e-12 {
            return None;
        }
        Some(ScreenTri { p: [sa, sb, sc], src: t as u32 })
    })
}

/// Tile binning count stage: per-tile atomic histogram of visible triangles,
/// loaded into a plain vector after the join.
fn bin_count_stage(
    device: &Device,
    screen: &[Option<ScreenTri>],
    visible: &[u32],
    width: u32,
    height: u32,
    tiles_x: u32,
    tiles_y: u32,
) -> Vec<u32> {
    let n_tiles = (tiles_x * tiles_y) as usize;
    let counts: Vec<AtomicU32> = (0..n_tiles).map(|_| AtomicU32::new(0)).collect();
    dpp::for_each(device, visible.len(), |vi| {
        #[expect(
            clippy::unwrap_used,
            reason = "visible[] only holds indices of triangles that projected to Some"
        )]
        let tri = screen[visible[vi] as usize].as_ref().unwrap();
        let (tx0, tx1, ty0, ty1) = tile_range(tri, width, height, tiles_x, tiles_y);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                // ORDERING: Relaxed — commutative counter; the fork-join
                // barrier below is the only reader's sync edge.
                counts[(ty * tiles_x + tx) as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    // ORDERING: Relaxed — read after the for_each joined; the join is the
    // happens-before edge.
    counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// Tile binning fill stage: scatter visible triangle ids into per-tile
/// segments at `offsets`, loaded into a plain vector after the join.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn bin_fill_stage(
    device: &Device,
    screen: &[Option<ScreenTri>],
    visible: &[u32],
    offsets: &[u32],
    total_pairs: u64,
    width: u32,
    height: u32,
    tiles_x: u32,
    tiles_y: u32,
) -> Vec<u32> {
    let cursors: Vec<AtomicU32> = offsets.iter().map(|&o| AtomicU32::new(o)).collect();
    let bins: Vec<AtomicU32> = (0..total_pairs as usize).map(|_| AtomicU32::new(0)).collect();
    dpp::for_each(device, visible.len(), |vi| {
        #[expect(
            clippy::unwrap_used,
            reason = "visible[] only holds indices of triangles that projected to Some"
        )]
        let tri = screen[visible[vi] as usize].as_ref().unwrap();
        let (tx0, tx1, ty0, ty1) = tile_range(tri, width, height, tiles_x, tiles_y);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let cursor = &cursors[(ty * tiles_x + tx) as usize];
                // ORDERING: Relaxed — fetch_add hands each writer a
                // unique slot; the slot is written once and only read
                // after the region joins (and is sorted there anyway).
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                // ORDERING: Relaxed — unique slot, read only after join.
                bins[slot as usize].store(visible[vi], Ordering::Relaxed);
            }
        }
    });
    // ORDERING: Relaxed — read after the for_each joined.
    bins.iter().map(|b| b.load(Ordering::Relaxed)).collect()
}

/// One sampled tile: (tile index, color buffer, depth buffer).
type TileFrame = (u32, Vec<Color>, Vec<f32>);

/// Per-tile barycentric sampling stage with a z-buffer, one task per tile
/// (tiles are disjoint, so no pixel depends on which worker filled it).
/// Returns the per-tile color/depth buffers and the total pixels considered
/// (the PPT model input).
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn sample_fill_stage(
    device: &Device,
    geom: &TriGeometry,
    screen: &[Option<ScreenTri>],
    bins: &[u32],
    offsets: &[u32],
    count_vals: &[u32],
    width: u32,
    height: u32,
    tiles_x: u32,
    colormap: &TransferFunction,
    shading: &ShadingParams,
    camera: &Camera,
) -> (Vec<TileFrame>, u64) {
    let filled = dpp::tasks(device, count_vals.len(), |tile| {
        let tx = tile as u32 % tiles_x;
        let ty = tile as u32 / tiles_x;
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        let x1 = (x0 + TILE).min(width);
        let y1 = (y0 + TILE).min(height);
        let tw = (x1 - x0) as usize;
        let th = (y1 - y0) as usize;
        let mut color = vec![Color::TRANSPARENT; tw * th];
        let mut depth = vec![f32::INFINITY; tw * th];
        let start = offsets[tile] as usize;
        let end = start + count_vals[tile] as usize;
        // The parallel bin fill claims slots with `fetch_add`, so the
        // order *within* a tile's segment depends on scheduling (the
        // segment's contents do not). Restore ascending triangle
        // order — the serial fill order — so z-buffer depth ties at
        // shared edges resolve identically on every device.
        let mut tris: Vec<u32> = bins[start..end].to_vec();
        tris.sort_unstable();
        let mut considered = 0u64;
        for src in tris {
            #[expect(
                clippy::unwrap_used,
                reason = "bins hold only visible[] entries, which all projected to Some"
            )]
            let tri = screen[src as usize].as_ref().unwrap();
            considered += raster_tri_into_tile(
                geom, tri, x0, y0, x1, y1, tw, &mut color, &mut depth, colormap, shading, camera,
            );
        }
        ((tile as u32, color, depth), considered)
    });
    let (frames, considered): (Vec<TileFrame>, Vec<u64>) = filled.into_iter().unzip();
    (frames, considered.iter().sum())
}

/// Stitch per-tile buffers into a full framebuffer and count active pixels.
fn stitch_stage(
    device: &Device,
    tile_frames: Vec<TileFrame>,
    width: u32,
    height: u32,
) -> (Framebuffer, usize) {
    let tiles_x = width.div_ceil(TILE);
    let mut frame = Framebuffer::new(width, height);
    for (tile, color, depth) in tile_frames {
        let tx = tile % tiles_x;
        let ty = tile / tiles_x;
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        let x1 = (x0 + TILE).min(width);
        let tw = (x1 - x0) as usize;
        for (i, (c, d)) in color.into_iter().zip(depth).enumerate() {
            let px = x0 + (i % tw) as u32;
            let py = y0 + (i / tw) as u32;
            let ix = frame.index(px, py);
            frame.color[ix] = c;
            frame.depth[ix] = d;
        }
    }
    let active = count_if(device, frame.num_pixels(), |i| frame.color[i].a > 0.0);
    (frame, active)
}

/// Rasterize `geom` through `camera` into a `width x height` frame: the
/// rasterizer's one driver, its seven stages timed as seven phases.
pub fn rasterize(
    device: &Device,
    geom: &TriGeometry,
    camera: &Camera,
    width: u32,
    height: u32,
    colormap: &TransferFunction,
    shading: Option<&ShadingParams>,
) -> RenderOutput {
    let n = geom.num_tris();
    let default_shading = ShadingParams::headlight(camera.position, camera.up);
    let shading = shading.unwrap_or(&default_shading);
    let (tiles_x, tiles_y) = (width.div_ceil(TILE), height.div_ceil(TILE));
    let n_tiles = (tiles_x * tiles_y) as u64;

    let mut phases = PhaseTimer::new();
    let screen = phases.run("transform_cull", n as u64, || {
        transform_cull_stage(device, geom, camera, width, height)
    });
    let visible = phases.run("compact_visible", n as u64, || {
        compact_indices(device, screen.len(), |i| screen[i].is_some())
    });
    let vo = visible.len();
    let counts = phases.run("bin_count", vo as u64, || {
        bin_count_stage(device, &screen, &visible, width, height, tiles_x, tiles_y)
    });
    let (offsets, pairs) =
        phases.run("bin_scan", n_tiles, || dpp::exclusive_scan_u32(device, &counts));
    let pairs = pairs as u64;
    let bins = phases.run("bin_fill", vo as u64, || {
        bin_fill_stage(device, &screen, &visible, &offsets, pairs, width, height, tiles_x, tiles_y)
    });
    // Free each intermediate after its last reader, before later stages allocate.
    drop(visible);
    let (tiles, pc) = phases.run("sample_fill", pairs, || {
        sample_fill_stage(
            device, geom, &screen, &bins, &offsets, &counts, width, height, tiles_x, colormap,
            shading, camera,
        )
    });
    drop((screen, counts, offsets, bins));
    let (frame, active) = phases
        .run("stitch", (width * height) as u64, || stitch_stage(device, tiles, width, height));

    RenderOutput {
        stats: RenderStats {
            objects: n as f64,
            visible_objects: vo as f64,
            pixels_per_triangle: if vo > 0 { pc as f64 / vo as f64 } else { 0.0 },
            active_pixels: active as f64,
            render_seconds: phases.total_seconds(),
            ..RenderStats::default()
        },
        frame,
        phases,
    }
}

/// Rasterize one screen triangle into a tile buffer; returns pixels considered.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn raster_tri_into_tile(
    geom: &TriGeometry,
    tri: &ScreenTri,
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
    tw: usize,
    color: &mut [Color],
    depth: &mut [f32],
    colormap: &TransferFunction,
    shading: &ShadingParams,
    camera: &Camera,
) -> u64 {
    let [a, b, c] = tri.p;
    let min_x = a.x.min(b.x).min(c.x).floor().max(x0 as f32) as u32;
    let max_x = (a.x.max(b.x).max(c.x).ceil() as u32).min(x1.saturating_sub(1).max(x0));
    let min_y = a.y.min(b.y).min(c.y).floor().max(y0 as f32) as u32;
    let max_y = (a.y.max(b.y).max(c.y).ceil() as u32).min(y1.saturating_sub(1).max(y0));
    if min_x > max_x || min_y > max_y {
        return 0;
    }
    let area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
    let inv_area = 1.0 / area;
    let t = tri.src as usize;
    let mut considered = 0u64;
    for py in min_y..=max_y {
        for px in min_x..=max_x {
            considered += 1;
            let x = px as f32 + 0.5;
            let y = py as f32 + 0.5;
            // Barycentric coordinates (signed-area ratios).
            let w0 = ((b.x - x) * (c.y - y) - (c.x - x) * (b.y - y)) * inv_area;
            let w1 = ((c.x - x) * (a.y - y) - (a.x - x) * (c.y - y)) * inv_area;
            let w2 = 1.0 - w0 - w1;
            if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                continue;
            }
            let z = a.z * w0 + b.z * w1 + c.z * w2;
            let ix = (py - y0) as usize * tw + (px - x0) as usize;
            if z < depth[ix] {
                depth[ix] = z;
                // Interpolate attributes (screen-space barycentrics, as the
                // paper's sampler does).
                let scalar = geom.s0[t] * w0 + geom.s1[t] * w1 + geom.s2[t] * w2;
                let normal = (geom.n0[t] * w0 + geom.n1[t] * w1 + geom.n2[t] * w2).normalized();
                let wa = geom.v0[t];
                let wb = wa + geom.e1[t];
                let wc = wa + geom.e2[t];
                let wp = wa * w0 + wb * w1 + wc * w2;
                let view = (camera.position - wp).normalized();
                let base = colormap.sample(scalar);
                color[ix] = blinn_phong(shading, wp, normal, view, base, &[true]);
            }
        }
    }
    considered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raytrace::{RayTracer, RtConfig};
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;

    fn geom() -> TriGeometry {
        let g = field_grid(FieldKind::ShockShell, [18, 18, 18]);
        let m = isosurface(&g, "scalar", 0.5, Some("elevation"));
        TriGeometry::from_mesh(&m)
    }

    #[test]
    fn produces_active_pixels_and_stats() {
        let g = geom();
        let cam = Camera::close_view(&g.bounds);
        let tf = TransferFunction::rainbow(g.scalar_range);
        let out = rasterize(&Device::Serial, &g, &cam, 64, 64, &tf, None);
        assert!(out.stats.active_pixels > 200.0, "{}", out.stats.active_pixels);
        assert!(out.stats.visible_objects > 0.0);
        assert!(out.stats.visible_objects <= out.stats.objects);
        assert!(out.stats.pixels_per_triangle > 0.0);
    }

    #[test]
    fn devices_agree() {
        let g = geom();
        let cam = Camera::close_view(&g.bounds);
        let tf = TransferFunction::rainbow(g.scalar_range);
        let a = rasterize(&Device::Serial, &g, &cam, 48, 48, &tf, None);
        let b = rasterize(&Device::parallel(), &g, &cam, 48, 48, &tf, None);
        assert!(a.frame.mean_abs_diff(&b.frame) < 1e-4);
        assert_eq!(a.stats.visible_objects, b.stats.visible_objects);
    }

    #[test]
    fn raster_depth_agrees_with_ray_tracer() {
        // The two renderers draw the same surface: where both produce a hit,
        // the visible surface should be the same (compare via image overlap).
        let g = geom();
        let cam = Camera::close_view(&g.bounds);
        let tf = TransferFunction::rainbow(g.scalar_range);
        let ra = rasterize(&Device::Serial, &g, &cam, 64, 64, &tf, None);
        let rt = RayTracer::new(Device::Serial, g);
        let rb = rt.render_with_map(&cam, 64, 64, &RtConfig::workload2(), &tf);
        // Count pixels covered by one but not the other: should be a small
        // fraction (edge rules differ slightly).
        let mut disagree = 0;
        let mut covered = 0;
        for i in 0..ra.frame.num_pixels() {
            let a_hit = ra.frame.color[i].a > 0.0;
            let b_hit = rb.frame.color[i].a > 0.0;
            if a_hit || b_hit {
                covered += 1;
                if a_hit != b_hit {
                    disagree += 1;
                }
            }
        }
        assert!(covered > 200);
        assert!(
            (disagree as f64) < covered as f64 * 0.05,
            "coverage disagreement {disagree}/{covered}"
        );
    }

    #[test]
    fn far_view_has_fewer_active_pixels() {
        let g = geom();
        let tf = TransferFunction::rainbow(g.scalar_range);
        let close =
            rasterize(&Device::Serial, &g, &Camera::close_view(&g.bounds), 64, 64, &tf, None);
        let far = rasterize(&Device::Serial, &g, &Camera::far_view(&g.bounds), 64, 64, &tf, None);
        assert!(far.stats.active_pixels < close.stats.active_pixels);
    }

    #[test]
    fn empty_geometry_renders_nothing() {
        let g = TriGeometry::from_mesh(&mesh::TriMesh::default());
        let cam = Camera::default();
        let tf = TransferFunction::rainbow((0.0, 1.0));
        let out = rasterize(&Device::Serial, &g, &cam, 32, 32, &tf, None);
        assert_eq!(out.stats.active_pixels, 0.0);
        assert_eq!(out.stats.visible_objects, 0.0);
    }
}
