//! Structured volume rendering on the frame graph.
//!
//! Two passes: `raycast` (the DDA march, cacheable across frames — a static
//! camera over a static field replays the frame without marching a single
//! ray) and `assemble` (fold per-ray results into the framebuffer).

use std::sync::Arc;

use crate::framebuffer::Framebuffer;
use crate::graph::cache::{fingerprint, GraphCache};
use crate::graph::exec::{vec_bytes, FrameGraph};
use crate::graph::pipelines::{
    camera_fingerprint, grid_fingerprint, slice_fingerprint_f32, tf_fingerprint, GraphInfo,
};
use crate::volume_structured::{
    assemble_stage, raycast_stage, RayWork, SvrConfig, SvrError, SvrOutput, SvrStats,
};
use dpp::Device;
use mesh::UniformGrid;
use vecmath::{Camera, Color, TransferFunction};

/// Render `field_name` of `grid` through the frame graph — the structured
/// volume renderer's one driver
/// ([`render_structured`](crate::volume_structured::render_structured) is
/// this with no skips or cache).
///
/// `skips` names passes to degrade (none are skippable here — volume
/// rendering has no optional passes); `cache` enables cross-frame reuse of
/// the `raycast` pass keyed on (grid, field, camera, config, transfer
/// function).
#[allow(clippy::too_many_arguments)] // one argument per model input, plus skips and cache
pub fn render_structured_graph(
    device: &Device,
    grid: &UniformGrid,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &SvrConfig,
    skips: &[&str],
    cache: Option<&mut GraphCache>,
) -> Result<(SvrOutput, GraphInfo), SvrError> {
    let field = &grid
        .field(field_name)
        .ok_or_else(|| SvrError::MissingField(field_name.to_string()))?
        .values;
    let n_px = (width * height) as usize;

    let mut g = FrameGraph::new();
    let results = g.resource("svr.results");
    let out = g.resource("svr.out");

    let p_raycast = g.add_pass("raycast", &[], &[results], n_px as u64, move |ctx| {
        let r = raycast_stage(device, grid, field, camera, width, height, tf, cfg);
        ctx.put_shared(results, Arc::new(r), vec_bytes::<(Color, RayWork)>(n_px))
    });
    if cache.is_some() {
        let key = fingerprint(&[
            grid_fingerprint(grid),
            slice_fingerprint_f32(field),
            camera_fingerprint(camera, width, height),
            cfg.samples_per_ray as u64,
            cfg.early_termination.to_bits() as u64,
            tf_fingerprint(tf),
        ]);
        g.set_cache_key(p_raycast, key);
    }

    g.add_pass("assemble", &[results], &[out], n_px as u64, move |ctx| {
        let r = ctx.read::<Vec<(Color, RayWork)>>(results)?;
        let assembled = assemble_stage(r, width, height);
        ctx.put(out, assembled, vec_bytes::<Color>(n_px))
    });
    g.export(out);

    let mut run = g.execute(skips, cache)?;
    let info = GraphInfo::from_run(&run);
    let (frame, active, total_samples, total_cells): (Framebuffer, usize, u64, u64) =
        run.take(out)?;
    let phases = std::mem::take(&mut run.timer);

    let output = SvrOutput {
        stats: SvrStats {
            objects: grid.num_cells(),
            active_pixels: active,
            samples_per_ray: if active > 0 { total_samples as f64 / active as f64 } else { 0.0 },
            cells_spanned: if active > 0 { total_cells as f64 / active as f64 } else { 0.0 },
            render_seconds: info.total_seconds(),
        },
        frame,
        phases,
    };
    Ok((output, info))
}
