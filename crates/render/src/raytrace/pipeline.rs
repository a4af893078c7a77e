//! The breadth-first ray-tracing pipeline (Algorithm 1 of the dissertation),
//! staged as data-parallel primitive calls.

use super::bvh::{Bvh, Hit};
use super::geometry::TriGeometry;
use crate::counters::{PhaseTimer, RenderOutput, RenderStats};
use crate::framebuffer::Framebuffer;
use crate::shading::{blinn_phong, hash_rand2, hemisphere_dir, ShadingParams};
use dpp::{compact_indices, count_if, gather, map, Device};
use vecmath::{morton2, Camera, Color, Ray, TransferFunction};

/// Which subset of the pipeline runs — the study's three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// WORKLOAD1: primary-ray intersection only (rays/second benchmarks).
    Intersect,
    /// WORKLOAD2: intersection + Blinn-Phong shading (rasterization-like).
    Shade,
    /// WORKLOAD3: shading + ambient occlusion + shadows + anti-aliasing +
    /// stream compaction.
    Full,
}

/// Ray-tracer configuration.
#[derive(Debug, Clone)]
pub struct RtConfig {
    pub workload: Workload,
    /// Hemisphere samples per intersection for ambient occlusion.
    pub ao_samples: u32,
    /// Specular-reflection bounce limit (0 disables reflections).
    pub max_reflections: u32,
    /// Stream compaction of dead rays between stages.
    pub compaction: bool,
    /// 2x2 supersampling anti-aliasing.
    pub antialias: bool,
    /// Sort primary rays along a Morton curve of the framebuffer (the study
    /// enables this on throughput devices).
    pub morton_sort_rays: bool,
}

impl RtConfig {
    pub fn workload1() -> RtConfig {
        RtConfig {
            workload: Workload::Intersect,
            ao_samples: 0,
            max_reflections: 0,
            compaction: false,
            antialias: false,
            morton_sort_rays: false,
        }
    }

    pub fn workload2() -> RtConfig {
        RtConfig { workload: Workload::Shade, ..RtConfig::workload1() }
    }

    pub fn workload3() -> RtConfig {
        RtConfig {
            workload: Workload::Full,
            ao_samples: 4,
            compaction: true,
            antialias: true,
            ..RtConfig::workload1()
        }
    }
}

/// The data-parallel ray tracer: geometry + BVH + device.
pub struct RayTracer {
    pub device: Device,
    pub geom: TriGeometry,
    pub bvh: Bvh,
    pub shading: Option<ShadingParams>,
    pub bvh_build_seconds: f64,
}

impl RayTracer {
    /// Build the acceleration structure on `device` and keep it for repeated
    /// renders (the model's amortized-build use case). Uses the LBVH — the
    /// linear-time build the `c0*O` model term assumes.
    pub fn new(device: Device, geom: TriGeometry) -> RayTracer {
        RayTracer::timing_build(device, geom, Bvh::build)
    }

    /// Build with the Chapter II split BVH instead (slower build, faster
    /// traversal; `split_alpha` as in the paper, 1e-6).
    pub fn new_with_split_bvh(device: Device, geom: TriGeometry, split_alpha: f32) -> RayTracer {
        RayTracer::timing_build(device, geom, |_, g| super::sbvh::build_split_bvh(g, split_alpha))
    }

    fn timing_build(
        device: Device,
        geom: TriGeometry,
        build: impl FnOnce(&Device, &TriGeometry) -> Bvh,
    ) -> RayTracer {
        let mut timer = PhaseTimer::new();
        let bvh = timer.run("bvh_build", geom.num_tris() as u64, || build(&device, &geom));
        RayTracer { bvh_build_seconds: timer.total_seconds(), device, geom, bvh, shading: None }
    }

    /// Render one frame with the default rainbow pseudocolor map.
    pub fn render(&self, camera: &Camera, width: u32, height: u32, cfg: &RtConfig) -> RenderOutput {
        let tf = TransferFunction::rainbow(self.geom.scalar_range);
        self.render_with_map(camera, width, height, cfg, &tf)
    }

    /// Render with an explicit pseudocolor map: the one driver, `trace`,
    /// over this tracer's prebuilt BVH and shading override.
    pub fn render_with_map(
        &self,
        camera: &Camera,
        width: u32,
        height: u32,
        cfg: &RtConfig,
        colormap: &TransferFunction,
    ) -> RenderOutput {
        let (device, geom, shading) = (&self.device, &self.geom, self.shading.as_ref());
        let mut out = trace(device, geom, &self.bvh, shading, camera, width, height, cfg, colormap);
        out.stats.build_seconds = self.bvh_build_seconds;
        out
    }
}

/// The ray tracer's one driver: the WORKLOAD stages straight-line over one
/// [`PhaseTimer`], each buffer dropped after its last use. `shading`
/// overrides the default headlight. The caller owns the BVH, so
/// `stats.build_seconds` is left 0 for it to fill in.
///
/// The phases are `ray_gen`, `intersect`, then `depth_assemble` for
/// WORKLOAD1 and otherwise `compaction`, (`ambient_occlusion`, `shadows`),
/// `shade`, `anti_alias`. The bracketed secondary-ray phases run only in the
/// workload that casts those rays, so no frame records a zero-work phase;
/// `shade` then reads the neutral terms (all unoccluded, all lights
/// visible).
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per model input, plus the BVH and shading"
)]
pub(crate) fn trace(
    device: &Device,
    geom: &TriGeometry,
    bvh: &Bvh,
    shading: Option<&ShadingParams>,
    camera: &Camera,
    width: u32,
    height: u32,
    cfg: &RtConfig,
    colormap: &TransferFunction,
) -> RenderOutput {
    let ss = if cfg.antialias { 2u32 } else { 1u32 };
    let (rw, rh) = (width * ss, height * ss);
    let n_rays = (rw * rh) as usize;
    let default_shading = ShadingParams::headlight(camera.position, camera.up);
    let shading = shading.unwrap_or(&default_shading);
    let mut phases = PhaseTimer::new();

    let (order, rays) = phases.run("ray_gen", n_rays as u64, || {
        let order = pixel_order_stage(device, cfg, rw, rh);
        let rays = ray_gen_stage(device, camera, &order, rw, rh);
        (order, rays)
    });
    let hits = phases.run("intersect", n_rays as u64, || intersect_stage(device, geom, bvh, &rays));

    let (frame, active_pixels) = if cfg.workload == Workload::Intersect {
        drop(rays);
        phases.run("depth_assemble", n_rays as u64, || {
            let frame = depth_assemble_stage(&hits, &order, width, height, rw, ss);
            let active = frame.active_pixels();
            (frame, active)
        })
    } else {
        // Without `cfg.compaction` the full tables are the live ones: they
        // move on, since nothing reads them afterwards.
        let (live, live_rays, live_hits) = phases.run("compaction", n_rays as u64, || {
            if cfg.compaction {
                let live = compact_indices(device, n_rays, |i| hits[i].is_hit());
                let live_rays = gather(device, &live, &rays);
                let live_hits = gather(device, &live, &hits);
                (live, live_rays, live_hits)
            } else {
                ((0..n_rays as u32).collect(), rays, hits)
            }
        });
        let full = cfg.workload == Workload::Full;
        let (n_live, n_lights) = (live.len(), shading.lights.len());
        let occlusion = if full && cfg.ao_samples > 0 {
            let s = cfg.ao_samples as usize;
            phases.run("ambient_occlusion", (n_live * s) as u64, || {
                let occ_hits = ao_stage(device, geom, bvh, cfg, &live, &live_rays, &live_hits);
                ao_factors_stage(device, &occ_hits, n_live, s)
            })
        } else {
            vec![1.0f32; n_live]
        };
        let light_vis = if full {
            phases.run("shadows", (n_live * n_lights) as u64, || {
                shadows_stage(device, geom, bvh, shading, &live_rays, &live_hits)
            })
        } else {
            vec![true; n_live * n_lights]
        };
        let colors = phases.run("shade", n_live as u64, || {
            let (rays, hits, occ, vis) = (&live_rays, &live_hits, &occlusion, &light_vis);
            shade_stage(device, geom, bvh, cfg, shading, colormap, rays, hits, occ, vis)
        });
        drop((live_rays, occlusion, light_vis));
        phases.run("anti_alias", (width * height) as u64, || {
            let frame =
                resolve_stage(device, &live, &live_hits, &colors, &order, width, height, ss);
            let active = count_if(device, frame.num_pixels(), |i| frame.color[i].a > 0.0);
            (frame, active)
        })
    };

    let secondary = phases.work_of("ambient_occlusion") + phases.work_of("shadows");
    RenderOutput {
        stats: RenderStats {
            objects: geom.num_tris() as f64,
            active_pixels: active_pixels as f64,
            rays_traced: n_rays as u64 + secondary,
            render_seconds: phases.total_seconds(),
            ..RenderStats::default()
        },
        frame,
        phases,
    }
}

/// Primary-ray pixel visitation order (identity or Morton-sorted).
fn pixel_order_stage(device: &Device, cfg: &RtConfig, rw: u32, rh: u32) -> Vec<u32> {
    let n_rays = (rw * rh) as usize;
    if cfg.morton_sort_rays {
        let mut codes: Vec<u64> = (0..n_rays as u32).map(|i| morton2(i % rw, i / rw)).collect();
        let mut order: Vec<u32> = (0..n_rays as u32).collect();
        dpp::sort::sort_pairs_u64(device, &mut codes, &mut order);
        order
    } else {
        (0..n_rays as u32).collect()
    }
}

/// Primary-ray generation (map over pixels in `pixel_order`).
fn ray_gen_stage(
    device: &Device,
    camera: &Camera,
    pixel_order: &[u32],
    rw: u32,
    rh: u32,
) -> Vec<Ray> {
    let rays = camera.pixel_rays(rw, rh);
    map(device, pixel_order.len(), |i| {
        let p = pixel_order[i];
        rays.ray(p % rw, p / rw, 0.5, 0.5)
    })
}

/// BVH traversal + closest-hit intersection (map over rays).
fn intersect_stage(device: &Device, geom: &TriGeometry, bvh: &Bvh, rays: &[Ray]) -> Vec<Hit> {
    map(device, rays.len(), |i| bvh.closest_hit(geom, &rays[i]))
}

/// WORKLOAD1 depth-image assembly from raw hits.
fn depth_assemble_stage(
    hits: &[Hit],
    pixel_order: &[u32],
    width: u32,
    height: u32,
    rw: u32,
    ss: u32,
) -> Framebuffer {
    let mut frame = Framebuffer::new(width, height);
    for (i, h) in hits.iter().enumerate() {
        if h.is_hit() {
            let p = pixel_order[i];
            let (px, py) = (p % rw / ss, p / rw / ss);
            let ix = frame.index(px, py);
            if h.t < frame.depth[ix] {
                frame.depth[ix] = h.t;
                frame.color[ix] = Color::WHITE;
            }
        }
    }
    frame
}

/// AO ray maximum distance as a fraction of the scene diagonal.
const AO_DISTANCE: f32 = 0.05;

/// Ambient-occlusion sample rays (map over live hits x samples).
fn ao_stage(
    device: &Device,
    geom: &TriGeometry,
    bvh: &Bvh,
    cfg: &RtConfig,
    live: &[u32],
    live_rays: &[Ray],
    live_hits: &[Hit],
) -> Vec<bool> {
    let s = cfg.ao_samples as usize;
    let max_dist = geom.bounds.diagonal() * AO_DISTANCE;
    let n_occ = live.len() * s;
    map(device, n_occ, |j| {
        let li = j / s;
        let si = (j % s) as u32;
        let h = &live_hits[li];
        if !h.is_hit() {
            return false;
        }
        let ray = &live_rays[li];
        let p = ray.at(h.t);
        let n = geom.interpolate_normal(h.prim as usize, h.u, h.v);
        let n = if n.dot(ray.dir) > 0.0 { -n } else { n };
        let (u1, u2) = hash_rand2(live[li], si);
        let dir = hemisphere_dir(n, u1, u2);
        let occ_ray = Ray::new(p + n * 1e-4, dir);
        bvh.any_hit(geom, &occ_ray, max_dist)
    })
}

/// Reduce per-sample AO hits to per-hit occlusion factors.
fn ao_factors_stage(device: &Device, occ_hits: &[bool], n_live: usize, s: usize) -> Vec<f32> {
    map(device, n_live, |li| {
        let blocked: u32 = (0..s).map(|si| occ_hits[li * s + si] as u32).sum();
        1.0 - blocked as f32 / s as f32
    })
}

/// Shadow rays (map over live hits x lights).
fn shadows_stage(
    device: &Device,
    geom: &TriGeometry,
    bvh: &Bvh,
    shading: &ShadingParams,
    live_rays: &[Ray],
    live_hits: &[Hit],
) -> Vec<bool> {
    let n_lights = shading.lights.len();
    let n_sh = live_hits.len() * n_lights;
    map(device, n_sh, |j| {
        let li = j / n_lights;
        let light = &shading.lights[j % n_lights];
        let h = &live_hits[li];
        if !h.is_hit() {
            return true;
        }
        let ray = &live_rays[li];
        let p = ray.at(h.t);
        let n = geom.interpolate_normal(h.prim as usize, h.u, h.v);
        let n = if n.dot(ray.dir) > 0.0 { -n } else { n };
        let to_light = light.position - (p + n * 1e-4);
        let dist = to_light.length();
        let sray = Ray::new(p + n * 1e-4, to_light / dist);
        !bvh.any_hit(geom, &sray, dist)
    })
}

/// Blinn-Phong shading with AO darkening and optional reflections.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn shade_stage(
    device: &Device,
    geom: &TriGeometry,
    bvh: &Bvh,
    cfg: &RtConfig,
    shading: &ShadingParams,
    colormap: &TransferFunction,
    live_rays: &[Ray],
    live_hits: &[Hit],
    occlusion: &[f32],
    light_vis: &[bool],
) -> Vec<Color> {
    let n_lights = shading.lights.len();
    map(device, live_hits.len(), |li| {
        let h = &live_hits[li];
        if !h.is_hit() {
            return Color::TRANSPARENT;
        }
        let ray = &live_rays[li];
        shade_hit(
            geom,
            bvh,
            ray,
            h,
            shading,
            colormap,
            occlusion[li],
            &light_vis[li * n_lights..(li + 1) * n_lights],
            cfg.max_reflections,
        )
    })
}

/// Box-filter the shaded sub-pixels into the output frame, one output
/// pixel per `map` item: a slot table maps each sub-pixel to its live ray,
/// and each pixel gathers its `ss²` sub-samples through it.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn resolve_stage(
    device: &Device,
    live: &[u32],
    live_hits: &[Hit],
    colors: &[Color],
    pixel_order: &[u32],
    width: u32,
    height: u32,
    ss: u32,
) -> Framebuffer {
    #[cfg(test)] // the oracle's switch, never compiled into the library
    if tests::REFERENCE_RESOLVE.with(|on| on.get()) {
        return tests::resolve_stage_reference(
            live,
            live_hits,
            colors,
            pixel_order,
            width,
            height,
            ss,
        );
    }
    const NO_RAY: u32 = u32::MAX;
    let rw = width * ss;
    let mut slot = vec![NO_RAY; (rw * height * ss) as usize];
    for (li, &src) in live.iter().enumerate() {
        slot[pixel_order[src as usize] as usize] = li as u32;
    }
    let aa = (ss * ss) as f32;
    let pixels = map(device, (width * height) as usize, |ix| {
        let (px, py) = (ix as u32 % width, ix as u32 / width);
        let mut c = Color::TRANSPARENT;
        let mut d = f32::INFINITY;
        let mut any = false;
        for sy in 0..ss {
            for sx in 0..ss {
                let (color, depth) = match slot[((py * ss + sy) * rw + px * ss + sx) as usize] {
                    NO_RAY => (Color::TRANSPARENT, f32::INFINITY),
                    li => (colors[li as usize], live_hits[li as usize].t),
                };
                c = c.add(color.premultiplied());
                if depth < d {
                    d = depth;
                }
                any |= color.a > 0.0;
            }
        }
        if any {
            (c.scale(1.0 / aa).unpremultiplied(), d)
        } else {
            (Color::TRANSPARENT, f32::INFINITY)
        }
    });
    drop(slot);
    let (color, depth) = pixels.into_iter().unzip();
    Framebuffer { width, height, color, depth }
}

/// Shade one hit, optionally recursing along the specular reflection.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn shade_hit(
    geom: &TriGeometry,
    bvh: &Bvh,
    ray: &Ray,
    hit: &Hit,
    shading: &ShadingParams,
    colormap: &TransferFunction,
    occlusion: f32,
    light_vis: &[bool],
    bounces_left: u32,
) -> Color {
    let p = ray.at(hit.t);
    let n = geom.interpolate_normal(hit.prim as usize, hit.u, hit.v);
    let scalar = geom.interpolate_scalar(hit.prim as usize, hit.u, hit.v);
    let base = colormap.sample(scalar);
    let view = -ray.dir;
    let mut c = blinn_phong(shading, p, n, view, base, light_vis);
    // Ambient-occlusion darkening.
    c = Color::new(c.r * occlusion, c.g * occlusion, c.b * occlusion, c.a);
    if bounces_left > 0 && shading.material.specular > 0.0 {
        let n_oriented = if n.dot(ray.dir) > 0.0 { -n } else { n };
        let rdir = ray.dir.reflect(n_oriented);
        let rray = Ray::new(p + n_oriented * 1e-4, rdir);
        let rhit = bvh.closest_hit(geom, &rray);
        if rhit.is_hit() {
            let rcol = shade_hit(
                geom,
                bvh,
                &rray,
                &rhit,
                shading,
                colormap,
                1.0,
                &vec![true; shading.lights.len()],
                bounces_left - 1,
            );
            let k = shading.material.specular * 0.5;
            c = Color::new(
                c.r * (1.0 - k) + rcol.r * k,
                c.g * (1.0 - k) + rcol.g * k,
                c.b * (1.0 - k) + rcol.b * k,
                c.a,
            );
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;
    use std::cell::Cell;

    thread_local! {
        /// While set, this thread's `resolve_stage` calls run the serial
        /// oracle below instead.
        pub(super) static REFERENCE_RESOLVE: Cell<bool> = const { Cell::new(false) };
    }

    /// The serial `resolve_stage` that the per-pixel `map` replaced, kept
    /// verbatim as its oracle: scatter shaded colors into the supersampled
    /// buffer, then box-filter into the output frame.
    pub(super) fn resolve_stage_reference(
        live: &[u32],
        live_hits: &[Hit],
        colors: &[Color],
        pixel_order: &[u32],
        width: u32,
        height: u32,
        ss: u32,
    ) -> Framebuffer {
        let rw = width * ss;
        let rh = height * ss;
        let mut frame = Framebuffer::new(width, height);
        let aa = (ss * ss) as f32;
        let mut accum: Vec<Color> = vec![Color::TRANSPARENT; (rw * rh) as usize];
        let mut depth_ss: Vec<f32> = vec![f32::INFINITY; (rw * rh) as usize];
        for (li, &src) in live.iter().enumerate() {
            let p = pixel_order[src as usize] as usize;
            accum[p] = colors[li];
            depth_ss[p] = live_hits[li].t;
        }
        for py in 0..height {
            for px in 0..width {
                let mut c = Color::TRANSPARENT;
                let mut d = f32::INFINITY;
                let mut any = false;
                for sy in 0..ss {
                    for sx in 0..ss {
                        let sp = ((py * ss + sy) * rw + px * ss + sx) as usize;
                        c = c.add(accum[sp].premultiplied());
                        if depth_ss[sp] < d {
                            d = depth_ss[sp];
                        }
                        any |= accum[sp].a > 0.0;
                    }
                }
                if any {
                    let ix = frame.index(px, py);
                    frame.color[ix] = c.scale(1.0 / aa).unpremultiplied();
                    frame.depth[ix] = d;
                }
            }
        }
        frame
    }

    /// The per-pixel resolve gives the serial oracle's colour and depth bit
    /// for bit on the benchmark's close and far 288² views of LULESH(24),
    /// steps 0 and 31 (debug builds: step 0): WORKLOAD2, WORKLOAD3 (2×2
    /// supersampling, compaction) and Morton-sorted WORKLOAD2, on the serial
    /// and the parallel device.
    #[test]
    fn per_pixel_resolve_is_the_serial_resolve() {
        let side = 288;
        let mut sim = sims::Lulesh::new(24);
        let mut morton = RtConfig::workload2();
        morton.morton_sort_rays = true;
        let configs = [RtConfig::workload2(), RtConfig::workload3(), morton];
        let bits = |f: &Framebuffer| -> Vec<u32> {
            let color = f.color.iter().flat_map(|c| [c.r, c.g, c.b, c.a]);
            color.chain(f.depth.iter().copied()).map(f32::to_bits).collect()
        };
        let last_step = if cfg!(debug_assertions) { 0 } else { 31 };
        for step in 0..=last_step {
            if step > 0 {
                sims::ProxySim::step(&mut sim);
            }
            if step != 0 && step != last_step {
                continue;
            }
            let hexes = sim.hex_mesh();
            let tris = mesh::external_faces::external_faces_hex(&hexes, Some("e_p"));
            let bounds = hexes.bounds();
            for device in [Device::Serial, Device::parallel()] {
                let rt = RayTracer::new(device, TriGeometry::from_mesh(&tris));
                for cam in [Camera::close_view(&bounds), Camera::far_view(&bounds)] {
                    for cfg in &configs {
                        let frame = |reference: bool| {
                            REFERENCE_RESOLVE.with(|on| on.set(reference));
                            let out = rt.render(&cam, side, side, cfg);
                            REFERENCE_RESOLVE.with(|on| on.set(false));
                            out
                        };
                        let (got, want) = (frame(false), frame(true));
                        assert!(want.stats.active_pixels > 1000.0, "the view should see the mesh");
                        assert_eq!(got.stats.active_pixels, want.stats.active_pixels);
                        assert!(
                            bits(&got.frame) == bits(&want.frame),
                            "step {step}, {:?}, {cfg:?}: frames differ",
                            rt.device
                        );
                    }
                }
            }
        }
    }

    fn tracer(device: Device) -> RayTracer {
        let g = field_grid(FieldKind::ShockShell, [20, 20, 20]);
        let m = isosurface(&g, "scalar", 0.5, Some("elevation"));
        RayTracer::new(device, TriGeometry::from_mesh(&m))
    }

    #[test]
    fn workload1_produces_depth_hits() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        let out = rt.render(&cam, 64, 64, &RtConfig::workload1());
        assert!(out.stats.active_pixels > 200.0, "{}", out.stats.active_pixels);
        assert_eq!(out.stats.rays_traced, 64 * 64);
        assert!(out.stats.objects > 0.0);
    }

    #[test]
    fn workload2_shades_hit_pixels() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        let out = rt.render(&cam, 48, 48, &RtConfig::workload2());
        assert!(out.stats.active_pixels > 100.0);
        let c = out.frame.color[out.frame.index(24, 24)];
        assert!(c.a > 0.0 && (c.r + c.g + c.b) > 0.0);
    }

    #[test]
    fn workloads_without_secondary_rays_record_no_zero_work_phase() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        for cfg in [RtConfig::workload1(), RtConfig::workload2()] {
            let out = rt.render(&cam, 32, 32, &cfg);
            for p in &out.phases.phases {
                assert!(p.work_units > 0, "{:?}: phase {} did no work", cfg.workload, p.name);
                assert!(p.name != "ambient_occlusion" && p.name != "shadows");
            }
            assert_eq!(out.stats.rays_traced, 32 * 32);
        }
    }

    #[test]
    fn workload3_runs_all_stages() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        let out = rt.render(&cam, 32, 32, &RtConfig::workload3());
        let names: Vec<_> = out.phases.phases.iter().map(|p| p.name).collect();
        for expect in [
            "ray_gen",
            "intersect",
            "compaction",
            "ambient_occlusion",
            "shadows",
            "shade",
            "anti_alias",
        ] {
            assert!(names.contains(&expect), "missing phase {expect}: {names:?}");
        }
        assert!(out.stats.rays_traced > 4 * 32 * 32);
    }

    #[test]
    fn devices_agree_on_the_image() {
        let serial = tracer(Device::Serial);
        let parallel = tracer(Device::parallel());
        let cam = Camera::close_view(&serial.geom.bounds);
        let cfg = RtConfig::workload2();
        let a = serial.render(&cam, 40, 40, &cfg);
        let b = parallel.render(&cam, 40, 40, &cfg);
        assert!(
            a.frame.mean_abs_diff(&b.frame) < 1e-4,
            "devices diverge: {}",
            a.frame.mean_abs_diff(&b.frame)
        );
    }

    #[test]
    fn morton_sorted_rays_same_image() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        let mut cfg = RtConfig::workload2();
        let a = rt.render(&cam, 40, 40, &cfg);
        cfg.morton_sort_rays = true;
        let b = rt.render(&cam, 40, 40, &cfg);
        assert!(a.frame.mean_abs_diff(&b.frame) < 1e-4);
    }

    #[test]
    fn compaction_does_not_change_image() {
        let rt = tracer(Device::Serial);
        let cam = Camera::far_view(&rt.geom.bounds); // many misses
        let mut cfg = RtConfig::workload2();
        cfg.compaction = false;
        let a = rt.render(&cam, 40, 40, &cfg);
        cfg.compaction = true;
        let b = rt.render(&cam, 40, 40, &cfg);
        assert!(a.frame.mean_abs_diff(&b.frame) < 1e-4);
    }

    #[test]
    fn ao_darkens_on_average() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        let mut no_ao = RtConfig::workload3();
        no_ao.ao_samples = 0;
        no_ao.antialias = false;
        let mut ao = RtConfig::workload3();
        ao.ao_samples = 8;
        ao.antialias = false;
        let a = rt.render(&cam, 32, 32, &no_ao);
        let b = rt.render(&cam, 32, 32, &ao);
        let lum = |f: &Framebuffer| -> f32 { f.color.iter().map(|c| c.r + c.g + c.b).sum() };
        assert!(lum(&b.frame) <= lum(&a.frame) + 1e-3);
    }

    #[test]
    fn split_bvh_tracer_matches_lbvh_tracer() {
        let g = field_grid(FieldKind::ShockShell, [20, 20, 20]);
        let m = isosurface(&g, "scalar", 0.5, Some("elevation"));
        let geom = TriGeometry::from_mesh(&m);
        let a = RayTracer::new(Device::Serial, geom.clone());
        let b = RayTracer::new_with_split_bvh(Device::Serial, geom, 1e-6);
        let cam = Camera::close_view(&a.geom.bounds);
        let fa = a.render(&cam, 48, 48, &RtConfig::workload2());
        let fb = b.render(&cam, 48, 48, &RtConfig::workload2());
        assert!(fa.frame.mean_abs_diff(&fb.frame) < 1e-4);
        assert_eq!(fa.stats.active_pixels, fb.stats.active_pixels);
    }

    #[test]
    fn reflections_change_the_image() {
        let rt = tracer(Device::Serial);
        let cam = Camera::close_view(&rt.geom.bounds);
        let mut cfg = RtConfig::workload2();
        let a = rt.render(&cam, 32, 32, &cfg);
        cfg.max_reflections = 2;
        let b = rt.render(&cam, 32, 32, &cfg);
        assert!(a.frame.mean_abs_diff(&b.frame) > 0.0);
    }
}
