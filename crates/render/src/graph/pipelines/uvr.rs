//! Unstructured (tetrahedral) volume rendering on the frame graph.
//!
//! The depth-pass loop of Algorithm 2 unrolls into the DAG: one
//! `initialization` pass (per-tet depth ranges + global range, cacheable
//! while mesh and camera hold still), then per depth span a
//! `pass_selection` → `screen_space` → `sampling` → `compositing` chain,
//! and a final `assemble`. The accumulation buffer threads span-to-span
//! (span *i*'s compositing reads span *i-1*'s output), so the schedule is
//! the serial front-to-back order, while the sample slabs — the renderer's
//! dominant allocation, the paper's OOM driver — are freed by the aliasing
//! accountant as soon as each span composites.

use std::sync::Arc;

use crate::framebuffer::Framebuffer;
use crate::graph::cache::{fingerprint, GraphCache};
use crate::graph::exec::{vec_bytes, FrameGraph};
use crate::graph::pipelines::{camera_fingerprint, tet_fingerprint, GraphInfo};
use crate::volume_unstructured::{
    assemble_uvr_stage, composite_stage, init_ranges_stage, sample_buffer_bytes, sampling_stage,
    screen_space_stage, select_stage, ScreenTet, UvrConfig, UvrError, UvrOutput, UvrStats,
};
use dpp::Device;
use mesh::{Assoc, TetMesh};
use vecmath::{Camera, Color, TransferFunction};

/// Global depth range handed from `initialization` to every span:
/// `(z0, dz, any)` where `any` is false when nothing lies in front of the
/// camera (an early exit expressed as data instead of control flow —
/// downstream passes see `any == false` and produce empty results).
type ZRange = (f32, f32, bool);

/// Render the tetrahedral mesh's point field through the frame graph — the
/// unstructured volume renderer's one driver
/// ([`render_unstructured`](crate::volume_unstructured::render_unstructured)
/// is this with no skips or cache).
#[allow(clippy::too_many_arguments)] // one argument per model input, plus skips and cache
pub fn render_unstructured_graph(
    device: &Device,
    tets: &TetMesh,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &UvrConfig,
    skips: &[&str],
    cache: Option<&mut GraphCache>,
) -> Result<(UvrOutput, GraphInfo), UvrError> {
    let field: &[f32] = &tets
        .field(field_name)
        .filter(|f| f.assoc == Assoc::Point)
        .ok_or_else(|| UvrError::MissingField(field_name.to_string()))?
        .values;

    let buffer_bytes = sample_buffer_bytes(width, height, cfg);
    if let Some(limit) = cfg.memory_limit_bytes {
        if buffer_bytes > limit {
            return Err(UvrError::OutOfMemory { required_bytes: buffer_bytes, limit_bytes: limit });
        }
    }

    let n_tets = tets.num_tets();
    let n_px = (width * height) as usize;
    let s_total = cfg.depth_samples.max(1);
    let passes = cfg.num_passes.max(1).min(s_total);
    let slab = s_total.div_ceil(passes) as usize;
    let term = cfg.early_termination;
    let near = camera.near;

    let mut g = FrameGraph::new();
    let ranges = g.resource("uvr.ranges");
    let zrange = g.resource("uvr.zrange");
    let out = g.resource("uvr.out");

    let p_init = g.add_pass("initialization", &[], &[ranges, zrange], n_tets as u64, move |ctx| {
        let r = init_ranges_stage(device, tets, camera);
        let (z0, z1) = dpp::reduce(device, &r, (f32::INFINITY, f32::NEG_INFINITY), |a, b| {
            (a.0.min(b.0), a.1.max(b.1))
        });
        let z0 = z0.max(near);
        let zr: ZRange = (z0, (z1 - z0) / s_total as f32, z0 < z1);
        ctx.put_shared(ranges, Arc::new(r), vec_bytes::<(f32, f32)>(n_tets))?;
        ctx.put_shared(zrange, Arc::new(zr), 0)
    });
    if cache.is_some() {
        let view = camera_fingerprint(camera, width, height);
        g.set_cache_key(p_init, fingerprint(&[tet_fingerprint(tets), view]));
    }

    // The accumulation buffer and the running (cells tested, samples
    // composited) totals thread span to span.
    let mut acc_prev =
        g.import("uvr.acc0", vec![Color::TRANSPARENT; n_px], vec_bytes::<Color>(n_px));
    let mut totals_prev = g.import("uvr.totals0", (0u64, 0u64), 0);
    for pass in 0..passes {
        let s_begin = pass * slab as u32;
        let s_end = ((pass + 1) * slab as u32).min(s_total);
        if s_begin >= s_end {
            break;
        }
        let active = g.resource(format!("uvr.active{pass}"));
        let screen = g.resource(format!("uvr.screen{pass}"));
        let samples = g.resource(format!("uvr.samples{pass}"));
        let tested = g.resource(format!("uvr.tested{pass}"));
        let acc = g.resource(format!("uvr.acc{}", pass + 1));
        let totals = g.resource(format!("uvr.totals{}", pass + 1));

        g.add_pass("pass_selection", &[ranges, zrange], &[active], n_tets as u64, move |ctx| {
            let r = ctx.read::<Vec<(f32, f32)>>(ranges)?;
            let &(z0, dz, any) = ctx.read::<ZRange>(zrange)?;
            let sel = if any {
                select_stage(device, r, near, z0 + s_begin as f32 * dz, z0 + s_end as f32 * dz)
            } else {
                Vec::new()
            };
            let bytes = vec_bytes::<u32>(sel.len());
            ctx.put(active, sel, bytes)
        });

        g.add_pass("screen_space", &[active], &[screen], 0, move |ctx| {
            let a = ctx.read::<Vec<u32>>(active)?;
            ctx.set_work_units(a.len() as u64);
            let s = screen_space_stage(device, tets, field, camera, width, height, a);
            let bytes = vec_bytes::<Option<ScreenTet>>(s.len());
            ctx.put(screen, s, bytes)
        });

        g.add_pass(
            "sampling",
            &[active, screen, acc_prev, zrange],
            &[samples, tested],
            0,
            move |ctx| {
                let a = ctx.read::<Vec<u32>>(active)?;
                let s = ctx.read::<Vec<Option<ScreenTet>>>(screen)?;
                let prev = ctx.read::<Vec<Color>>(acc_prev)?;
                let &(z0, dz, _) = ctx.read::<ZRange>(zrange)?;
                ctx.set_work_units(a.len() as u64);
                let opacity: Vec<f32> = prev.iter().map(|c| c.a).collect();
                let (buf, n_tested) = sampling_stage(
                    device, a, s, &opacity, term, width, height, z0, dz, slab, s_begin, s_end,
                );
                ctx.put(tested, n_tested, 0)?;
                let bytes = vec_bytes::<u64>(buf.len());
                ctx.put(samples, buf, bytes)
            },
        );

        g.add_pass(
            "compositing",
            &[acc_prev, samples, tested, totals_prev],
            &[acc, totals],
            n_px as u64,
            move |ctx| {
                let prev = ctx.read::<Vec<Color>>(acc_prev)?;
                let buf = ctx.read::<Vec<std::sync::atomic::AtomicU64>>(samples)?;
                let &(ct, total_composited) = ctx.read::<(u64, u64)>(totals_prev)?;
                let ct = ct + *ctx.read::<u64>(tested)?;
                let slab_this = (s_end - s_begin) as usize;
                let (next, composited) =
                    composite_stage(device, prev, buf, slab, slab_this, term, tf);
                ctx.put(totals, (ct, total_composited + composited), 0)?;
                ctx.put(acc, next, vec_bytes::<Color>(n_px))
            },
        );

        totals_prev = totals;
        acc_prev = acc;
    }

    g.add_pass("assemble", &[acc_prev, totals_prev], &[out], n_px as u64, move |ctx| {
        let acc = ctx.read::<Vec<Color>>(acc_prev)?;
        let (frame, active_px) = assemble_uvr_stage(acc, width, height);
        let &(ct, composited) = ctx.read::<(u64, u64)>(totals_prev)?;
        ctx.put(out, (frame, active_px, composited, ct), vec_bytes::<Color>(n_px))
    });
    g.export(out);

    let mut run = g.execute(skips, cache)?;
    let info = GraphInfo::from_run(&run);
    let (frame, active_px, total_composited, ct): (Framebuffer, usize, u64, u64) = run.take(out)?;
    let phases = std::mem::take(&mut run.timer);

    let output = UvrOutput {
        stats: UvrStats {
            objects: n_tets,
            active_pixels: active_px,
            samples_per_ray: if active_px > 0 {
                total_composited as f64 / active_px as f64
            } else {
                0.0
            },
            cells_per_pixel: if active_px > 0 { ct as f64 / active_px as f64 } else { 0.0 },
            buffer_bytes,
            render_seconds: info.total_seconds(),
        },
        frame,
        phases,
    };
    Ok((output, info))
}
