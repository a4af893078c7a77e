//! Rasterization on the frame graph.
//!
//! Seven passes: `transform_cull` (cacheable — a static camera over static
//! geometry reuses last frame's screen-space triangles), `compact_visible`,
//! `bin_count`, `bin_scan`, `bin_fill`, `sample_fill`, and `stitch`. The
//! binning intermediates (counts, offsets, bins, per-tile buffers) are all
//! freed at their last use by the aliasing accountant.

use std::sync::Arc;

use crate::framebuffer::Framebuffer;
use crate::graph::cache::{fingerprint, GraphCache};
use crate::graph::exec::{vec_bytes, FrameGraph, GraphError};
use crate::graph::pipelines::{camera_fingerprint, geometry_fingerprint, GraphInfo};
use crate::raster::{
    bin_count_stage, bin_fill_stage, sample_fill_stage, stitch_stage, transform_cull_stage,
    RasterOutput, RasterStats, ScreenTri, TileFrame, TILE,
};
use crate::raytrace::TriGeometry;
use crate::shading::ShadingParams;
use dpp::{compact_indices, Device};
use vecmath::{Camera, Color, TransferFunction};

/// Rasterize `geom` through the frame graph — the rasterizer's one driver
/// ([`rasterize`](crate::raster::rasterize) is this with no skips or cache).
#[allow(clippy::too_many_arguments)] // one argument per model input, plus skips and cache
pub fn render_raster_graph(
    device: &Device,
    geom: &TriGeometry,
    camera: &Camera,
    width: u32,
    height: u32,
    colormap: &TransferFunction,
    shading: Option<&ShadingParams>,
    skips: &[&str],
    cache: Option<&mut GraphCache>,
) -> Result<(RasterOutput, GraphInfo), GraphError> {
    let n = geom.num_tris();
    let default_shading = ShadingParams::headlight(camera.position, camera.up);
    let shading: &ShadingParams = shading.unwrap_or(&default_shading);
    let tiles_x = width.div_ceil(TILE);
    let tiles_y = height.div_ceil(TILE);
    let n_tiles = (tiles_x * tiles_y) as usize;

    let mut g = FrameGraph::new();
    let screen = g.resource("raster.screen");
    let visible = g.resource("raster.visible");
    let vo_res = g.resource("raster.vo");
    let counts = g.resource("raster.counts");
    let offsets = g.resource("raster.offsets");
    let pairs = g.resource("raster.pairs");
    let bins = g.resource("raster.bins");
    let tiles = g.resource("raster.tiles");
    let pc_res = g.resource("raster.pc");
    let out = g.resource("raster.out");

    let p_tc = g.add_pass("transform_cull", &[], &[screen], n as u64, move |ctx| {
        let s = transform_cull_stage(device, geom, camera, width, height);
        ctx.put_shared(screen, Arc::new(s), vec_bytes::<Option<ScreenTri>>(n))
    });
    if cache.is_some() {
        let view = camera_fingerprint(camera, width, height);
        g.set_cache_key(p_tc, fingerprint(&[geometry_fingerprint(geom), view]));
    }

    g.add_pass("compact_visible", &[screen], &[visible, vo_res], n as u64, move |ctx| {
        let s = ctx.read::<Vec<Option<ScreenTri>>>(screen)?;
        let v = compact_indices(device, s.len(), |i| s[i].is_some());
        ctx.put(vo_res, v.len(), 0)?;
        let bytes = vec_bytes::<u32>(v.len());
        ctx.put(visible, v, bytes)
    });

    g.add_pass("bin_count", &[screen, visible], &[counts], 0, move |ctx| {
        let s = ctx.read::<Vec<Option<ScreenTri>>>(screen)?;
        let v = ctx.read::<Vec<u32>>(visible)?;
        ctx.set_work_units(v.len() as u64);
        let c = bin_count_stage(device, s, v, width, height, tiles_x, tiles_y);
        ctx.put(counts, c, vec_bytes::<u32>(n_tiles))
    });

    g.add_pass("bin_scan", &[counts], &[offsets, pairs], n_tiles as u64, move |ctx| {
        let c = ctx.read::<Vec<u32>>(counts)?;
        let (o, total) = dpp::exclusive_scan_u32(device, c);
        ctx.put(pairs, total as u64, 0)?;
        ctx.put(offsets, o, vec_bytes::<u32>(n_tiles))
    });

    g.add_pass("bin_fill", &[screen, visible, offsets, pairs], &[bins], 0, move |ctx| {
        let s = ctx.read::<Vec<Option<ScreenTri>>>(screen)?;
        let v = ctx.read::<Vec<u32>>(visible)?;
        let o = ctx.read::<Vec<u32>>(offsets)?;
        let total = *ctx.read::<u64>(pairs)?;
        ctx.set_work_units(v.len() as u64);
        let b = bin_fill_stage(device, s, v, o, total, width, height, tiles_x, tiles_y);
        let bytes = vec_bytes::<u32>(b.len());
        ctx.put(bins, b, bytes)
    });

    g.add_pass(
        "sample_fill",
        &[screen, bins, offsets, counts, pairs],
        &[tiles, pc_res],
        0,
        move |ctx| {
            let s = ctx.read::<Vec<Option<ScreenTri>>>(screen)?;
            let b = ctx.read::<Vec<u32>>(bins)?;
            let o = ctx.read::<Vec<u32>>(offsets)?;
            let c = ctx.read::<Vec<u32>>(counts)?;
            let total = *ctx.read::<u64>(pairs)?;
            ctx.set_work_units(total);
            let (tf, pc) = sample_fill_stage(
                device, geom, s, b, o, c, width, height, tiles_x, colormap, shading, camera,
            );
            ctx.put(pc_res, pc, 0)?;
            // Each tile holds TILE*TILE color + depth entries (edge tiles
            // less; charge the full tile as the allocation-side bound).
            let bytes = n_tiles * (TILE * TILE) as usize * (16 + 4);
            ctx.put(tiles, tf, bytes)
        },
    );

    g.add_pass("stitch", &[tiles], &[out], (width * height) as u64, move |ctx| {
        let tf = ctx.take::<Vec<TileFrame>>(tiles)?;
        let stitched = stitch_stage(device, tf, width, height);
        ctx.put(out, stitched, vec_bytes::<Color>((width * height) as usize))
    });
    g.export(out);
    g.export(vo_res);
    g.export(pc_res);

    let mut run = g.execute(skips, cache)?;
    let info = GraphInfo::from_run(&run);
    let (frame, active): (Framebuffer, usize) = run.take(out)?;
    let vo: usize = run.take(vo_res)?;
    let pc: u64 = run.take(pc_res)?;
    let phases = std::mem::take(&mut run.timer);

    let output = RasterOutput {
        stats: RasterStats {
            objects: n,
            visible_objects: vo,
            pixels_considered: pc,
            pixels_per_triangle: if vo > 0 { pc as f64 / vo as f64 } else { 0.0 },
            active_pixels: active,
            render_seconds: info.total_seconds(),
        },
        frame,
        phases,
    };
    Ok((output, info))
}
