//! Ray tracing on the frame graph.
//!
//! The passes are the study's WORKLOAD stages, with two things only a graph
//! can express:
//!
//! * the acceleration structure is a resource: a [`RayTracer`]'s prebuilt
//!   BVH (LBVH or split BVH) is borrowed into it for the frame, and without
//!   one a cacheable `bvh_build` pass produces it, keyed on the triangle
//!   positions, so *any* render over unchanged geometry reuses it;
//! * `ambient_occlusion` and `shadows` carry degradation fallbacks
//!   (all-unoccluded / all-visible — what the non-Full workloads use), so
//!   the scheduler can shed individual passes by name instead of degrading
//!   the whole frame.
//!
//! [`RayTracer`]: crate::raytrace::RayTracer

use std::sync::Arc;

use crate::framebuffer::Framebuffer;
use crate::graph::cache::{fingerprint, GraphCache};
use crate::graph::exec::{vec_bytes, FrameGraph, GraphError};
use crate::graph::pipelines::{camera_fingerprint, geometry_fingerprint, GraphInfo};
use crate::raytrace::pipeline::{
    ao_factors_stage, ao_stage, depth_assemble_stage, intersect_stage, pixel_order_stage,
    ray_gen_stage, resolve_stage, shade_stage, shadows_stage,
};
use crate::raytrace::{Bvh, Hit, RtConfig, RtOutput, RtStats, TriGeometry, Workload};
use crate::shading::ShadingParams;
use dpp::{compact_indices, count_if, gather, Device};
use vecmath::{Camera, Color, Ray, TransferFunction};

/// Ray trace `geom` through the frame graph with no persistent renderer
/// object: the BVH lives in the graph `cache`, built on the first frame and
/// replayed (build time 0) while the geometry fingerprint holds — the
/// graph-native form of the model's amortized `c0*O` build term.
#[allow(clippy::too_many_arguments)] // one argument per model input, plus skips and cache
pub fn render_rt_graph(
    device: &Device,
    geom: &TriGeometry,
    camera: &Camera,
    width: u32,
    height: u32,
    cfg: &RtConfig,
    colormap: &TransferFunction,
    skips: &[&str],
    cache: Option<&mut GraphCache>,
) -> Result<(RtOutput, GraphInfo), GraphError> {
    rt_graph(device, geom, None, None, camera, width, height, cfg, colormap, skips, cache)
}

/// The ray tracer's one driver. `prebuilt` is a BVH the caller already owns
/// (it replaces the `bvh_build` pass and is never copied); `shading`
/// overrides the default headlight.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rt_graph(
    device: &Device,
    geom: &TriGeometry,
    prebuilt: Option<&Bvh>,
    shading: Option<&ShadingParams>,
    camera: &Camera,
    width: u32,
    height: u32,
    cfg: &RtConfig,
    colormap: &TransferFunction,
    skips: &[&str],
    cache: Option<&mut GraphCache>,
) -> Result<(RtOutput, GraphInfo), GraphError> {
    let ss = if cfg.antialias { 2u32 } else { 1u32 };
    let rw = width * ss;
    let rh = height * ss;
    let n_rays = (rw * rh) as usize;
    let n_tris = geom.num_tris();
    let default_shading = ShadingParams::headlight(camera.position, camera.up);
    let shading: &ShadingParams = shading.unwrap_or(&default_shading);
    let n_lights = shading.lights.len();

    let mut g = FrameGraph::new();
    let bvh = match prebuilt {
        Some(b) => g.import_ref("rt.bvh", b),
        None => {
            let bvh = g.resource("rt.bvh");
            let p_bvh = g.add_pass("bvh_build", &[], &[bvh], n_tris as u64, move |ctx| {
                let b = Bvh::build(device, geom);
                // Rough node-array footprint: ~2 nodes per triangle.
                ctx.put_shared(bvh, Arc::new(b), n_tris * 64)
            });
            if cache.is_some() {
                g.set_cache_key(p_bvh, geometry_fingerprint(geom));
            }
            bvh
        }
    };
    let order = g.resource("rt.pixel_order");
    let rays = g.resource("rt.rays");
    let hits = g.resource("rt.hits");
    let out = g.resource("rt.out");

    let p_rays = g.add_pass("ray_gen", &[], &[order, rays], n_rays as u64, move |ctx| {
        let po = pixel_order_stage(device, cfg, rw, rh);
        let r = ray_gen_stage(device, camera, &po, rw, rh);
        ctx.put_shared(order, Arc::new(po), vec_bytes::<u32>(n_rays))?;
        ctx.put_shared(rays, Arc::new(r), vec_bytes::<Ray>(n_rays))
    });
    if cache.is_some() {
        let view = camera_fingerprint(camera, rw, rh);
        g.set_cache_key(p_rays, fingerprint(&[view, ss as u64, cfg.morton_sort_rays as u64]));
    }

    g.add_pass("intersect", &[bvh, rays], &[hits], n_rays as u64, move |ctx| {
        let b = ctx.read::<Bvh>(bvh)?;
        let r = ctx.read::<Vec<Ray>>(rays)?;
        let h = intersect_stage(device, geom, b, r);
        ctx.put(hits, h, vec_bytes::<Hit>(n_rays))
    });

    if cfg.workload == Workload::Intersect {
        // WORKLOAD1 stops at the depth image.
        g.add_pass("depth_assemble", &[hits, order], &[out], n_rays as u64, move |ctx| {
            let h = ctx.read::<Vec<Hit>>(hits)?;
            let po = ctx.read::<Vec<u32>>(order)?;
            let frame = depth_assemble_stage(h, po, width, height, rw, ss);
            let active = frame.active_pixels();
            ctx.put(out, (frame, active), vec_bytes::<Color>((width * height) as usize))
        });
    } else {
        // The secondary-ray passes exist only in the workloads that cast
        // those rays, so a non-Full frame's phase record carries no
        // zero-work entries; `shade` then takes the neutral terms itself.
        let full = cfg.workload == Workload::Full;
        let live = g.resource("rt.live");
        let live_rays = g.resource("rt.live_rays");
        let live_hits = g.resource("rt.live_hits");
        let colors = g.resource("rt.colors");
        let mut shade_reads = vec![bvh, live_rays, live_hits];

        g.add_pass(
            "compaction",
            &[rays, hits],
            &[live, live_rays, live_hits],
            n_rays as u64,
            move |ctx| {
                let r = ctx.read::<Vec<Ray>>(rays)?;
                let h = ctx.read::<Vec<Hit>>(hits)?;
                let (idx, lr, lh) = if cfg.compaction {
                    let idx = compact_indices(device, n_rays, |i| h[i].is_hit());
                    let lr = gather(device, &idx, r);
                    let lh = gather(device, &idx, h);
                    (idx, lr, lh)
                } else {
                    ((0..n_rays as u32).collect(), r.clone(), h.clone())
                };
                let n_live = idx.len();
                ctx.put(live, idx, vec_bytes::<u32>(n_live))?;
                ctx.put(live_rays, lr, vec_bytes::<Ray>(n_live))?;
                ctx.put(live_hits, lh, vec_bytes::<Hit>(n_live))
            },
        );

        let occlusion = (full && cfg.ao_samples > 0).then(|| g.resource("rt.occlusion"));
        if let Some(occlusion) = occlusion {
            shade_reads.push(occlusion);
            let p_ao = g.add_pass(
                "ambient_occlusion",
                &[bvh, live, live_rays, live_hits],
                &[occlusion],
                0,
                move |ctx| {
                    let idx = ctx.read::<Vec<u32>>(live)?;
                    let lr = ctx.read::<Vec<Ray>>(live_rays)?;
                    let lh = ctx.read::<Vec<Hit>>(live_hits)?;
                    let (n_live, s) = (idx.len(), cfg.ao_samples as usize);
                    ctx.set_work_units((n_live * s) as u64);
                    let occ_hits = ao_stage(device, geom, ctx.read::<Bvh>(bvh)?, cfg, idx, lr, lh);
                    let occ = ao_factors_stage(device, &occ_hits, n_live, s);
                    ctx.put(occlusion, occ, vec_bytes::<f32>(n_live))
                },
            );
            // Degradation fallback: all-unoccluded, the non-Full default.
            g.set_fallback(p_ao, move |ctx| {
                let n_live = ctx.read::<Vec<u32>>(live)?.len();
                ctx.put(occlusion, vec![1.0f32; n_live], vec_bytes::<f32>(n_live))
            });
        }

        let light_vis = full.then(|| g.resource("rt.light_vis"));
        if let Some(light_vis) = light_vis {
            shade_reads.push(light_vis);
            let p_sh =
                g.add_pass("shadows", &[bvh, live_rays, live_hits], &[light_vis], 0, move |ctx| {
                    let lr = ctx.read::<Vec<Ray>>(live_rays)?;
                    let lh = ctx.read::<Vec<Hit>>(live_hits)?;
                    let n_sh = lh.len() * n_lights;
                    ctx.set_work_units(n_sh as u64);
                    let vis = shadows_stage(device, geom, ctx.read::<Bvh>(bvh)?, shading, lr, lh);
                    ctx.put(light_vis, vis, vec_bytes::<bool>(n_sh))
                });
            // Degradation fallback: all lights visible, the non-Full default.
            g.set_fallback(p_sh, move |ctx| {
                let n_sh = ctx.read::<Vec<Hit>>(live_hits)?.len() * n_lights;
                ctx.put(light_vis, vec![true; n_sh], vec_bytes::<bool>(n_sh))
            });
        }

        g.add_pass("shade", &shade_reads, &[colors], 0, move |ctx| {
            let lr = ctx.read::<Vec<Ray>>(live_rays)?;
            let lh = ctx.read::<Vec<Hit>>(live_hits)?;
            // Neutral tables, empty (no allocation) where a pass's is read.
            let neutral_occ = vec![1.0f32; occlusion.map_or(lh.len(), |_| 0)];
            let neutral_vis = vec![true; light_vis.map_or(lh.len() * n_lights, |_| 0)];
            let occ = match occlusion {
                Some(o) => ctx.read::<Vec<f32>>(o)?,
                None => &neutral_occ,
            };
            let vis = match light_vis {
                Some(v) => ctx.read::<Vec<bool>>(v)?,
                None => &neutral_vis,
            };
            ctx.set_work_units(lh.len() as u64);
            let c = shade_stage(
                device,
                geom,
                ctx.read::<Bvh>(bvh)?,
                cfg,
                shading,
                colormap,
                lr,
                lh,
                occ,
                vis,
            );
            let bytes = vec_bytes::<Color>(lh.len());
            ctx.put(colors, c, bytes)
        });

        g.add_pass(
            "anti_alias",
            &[live, live_hits, colors, order],
            &[out],
            (width * height) as u64,
            move |ctx| {
                let idx = ctx.read::<Vec<u32>>(live)?;
                let lh = ctx.read::<Vec<Hit>>(live_hits)?;
                let c = ctx.read::<Vec<Color>>(colors)?;
                let po = ctx.read::<Vec<u32>>(order)?;
                let frame = resolve_stage(idx, lh, c, po, width, height, ss);
                let active = count_if(device, frame.num_pixels(), |i| frame.color[i].a > 0.0);
                ctx.put(out, (frame, active), vec_bytes::<Color>((width * height) as usize))
            },
        );
    }
    g.export(out);

    let mut run = g.execute(skips, cache)?;
    let info = GraphInfo::from_run(&run);
    let (frame, active_pixels): (Framebuffer, usize) = run.take(out)?;
    let phases = std::mem::take(&mut run.timer);

    // Rays traced = primary rays + whatever the AO and shadow passes
    // actually cast (0 when skipped via fallback or when not Full).
    let secondary: u64 = info
        .records
        .iter()
        .filter(|r| r.name == "ambient_occlusion" || r.name == "shadows")
        .map(|r| r.work_units)
        .sum();
    // A cache-hit build records 0 seconds: amortization, graph-style.
    let bvh_build_seconds = info.seconds_of("bvh_build");
    let output = RtOutput {
        stats: RtStats {
            objects: n_tris,
            active_pixels,
            rays_traced: n_rays as u64 + secondary,
            bvh_build_seconds,
            render_seconds: info.total_seconds() - bvh_build_seconds,
        },
        frame,
        phases,
    };
    Ok((output, info))
}
