//! Structured volume rendering: a ray caster over regular grids (the
//! renderer modeled by `T_VR = c0*(AP*CS) + c1*(AP*SPR) + c2` in Chapter V).
//!
//! Each pixel's ray is clipped against the grid bounds, then marched cell by
//! cell with a 3D DDA. Entering a cell performs the *cell-frequency* work
//! (locate the cell, load its 8 corner scalars, set up interpolation
//! constants — the `AP*CS` term); each sample inside the cell performs the
//! *sample-frequency* work (trilinear interpolation + transfer function +
//! front-to-back compositing — the `AP*SPR` term).

use crate::counters::{PhaseTimer, RenderOutput, RenderStats};
use crate::framebuffer::Framebuffer;
use dpp::{map, Device};
use mesh::UniformGrid;
use vecmath::{over, Aabb, Camera, Color, TransferFunction, Vec3};

/// Configuration for the structured volume renderer.
#[derive(Debug, Clone)]
pub struct SvrConfig {
    /// Nominal number of samples along a ray that fully crosses the volume
    /// (the study's default buffer depth is on the order of hundreds).
    pub samples_per_ray: u32,
    /// Early ray termination opacity threshold.
    pub early_termination: f32,
}

impl Default for SvrConfig {
    fn default() -> Self {
        SvrConfig { samples_per_ray: 373, early_termination: 0.98 }
    }
}

/// Failure modes, mirroring [`crate::volume_unstructured::UvrError`]. All are
/// checked before the raycast starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvrError {
    MissingField(String),
    /// An axis has fewer than 2 points, so the grid has no cells to march.
    DegenerateGrid([usize; 3]),
    /// The field does not hold one value per grid point.
    FieldLength {
        name: String,
        expected: usize,
        found: usize,
    },
    /// `samples_per_ray` is 0, which leaves no sample spacing.
    NoSamples,
    /// `samples_per_ray` spaces samples closer than an `f32` ray parameter
    /// can step at the far side of the grid, where `sample_t += dt` would
    /// leave `sample_t` where it was and the march would never end.
    SpacingBelowPrecision(u32),
}

impl std::fmt::Display for SvrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvrError::MissingField(n) => write!(f, "no point field named {n}"),
            SvrError::DegenerateGrid(d) => {
                write!(f, "grid of {}x{}x{} points has an axis with no cells", d[0], d[1], d[2])
            }
            SvrError::FieldLength { name, expected, found } => {
                write!(f, "point field {name} has {found} values for {expected} points")
            }
            SvrError::NoSamples => write!(f, "samples_per_ray must be at least 1"),
            SvrError::SpacingBelowPrecision(n) => write!(
                f,
                "samples_per_ray {n} spaces samples below the precision of the ray parameter"
            ),
        }
    }
}

impl std::error::Error for SvrError {}

/// Per-ray work tally returned from the kernel.
#[derive(Clone, Copy, Default)]
struct RayWork {
    samples: u32,
    cells: u32,
}

/// Render `field_name` of `grid` through `camera`: the structured volume
/// renderer's one driver, timed as two phases (`raycast`, `assemble`).
#[allow(clippy::too_many_arguments, reason = "mirrors the paper's kernel signature")]
pub fn render_structured(
    device: &Device,
    grid: &UniformGrid,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &SvrConfig,
) -> Result<RenderOutput, SvrError> {
    let field = &grid
        .field(field_name)
        .ok_or_else(|| SvrError::MissingField(field_name.to_string()))?
        .values;
    if grid.dims.iter().any(|&d| d < 2) {
        return Err(SvrError::DegenerateGrid(grid.dims));
    }
    if field.len() != grid.num_points() {
        return Err(SvrError::FieldLength {
            name: field_name.to_string(),
            expected: grid.num_points(),
            found: field.len(),
        });
    }
    if cfg.samples_per_ray == 0 {
        return Err(SvrError::NoSamples);
    }
    let bounds = grid.bounds();
    if !advances_to(sample_spacing(&bounds, cfg), farthest_corner(&bounds, camera.position)) {
        return Err(SvrError::SpacingBelowPrecision(cfg.samples_per_ray));
    }
    let n_px = (width * height) as u64;

    let mut phases = PhaseTimer::new();
    let results = phases.run("raycast", n_px, || {
        raycast_stage(device, grid, field, camera, width, height, tf, cfg)
    });
    let (frame, active, total_samples, total_cells) =
        phases.run("assemble", n_px, || assemble_stage(&results, width, height));

    Ok(RenderOutput {
        stats: RenderStats {
            objects: grid.num_cells() as f64,
            active_pixels: active as f64,
            samples_per_ray: if active > 0 { total_samples as f64 / active as f64 } else { 0.0 },
            cells_spanned: if active > 0 { total_cells as f64 / active as f64 } else { 0.0 },
            render_seconds: phases.total_seconds(),
            ..RenderStats::default()
        },
        frame,
        phases,
    })
}

/// The raycast stage: one DDA march per pixel.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn raycast_stage(
    device: &Device,
    grid: &UniformGrid,
    field: &[f32],
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &SvrConfig,
) -> Vec<(Color, RayWork)> {
    let bounds = grid.bounds();
    let dt = sample_spacing(&bounds, cfg);
    let n_px = (width * height) as usize;
    let rays = camera.pixel_rays(width, height);
    map(device, n_px, |i| {
        let ray = rays.ray(i as u32 % width, i as u32 / width, 0.5, 0.5);
        let Some((t_in, t_out)) = bounds.intersect_ray(&ray, camera.near, f32::INFINITY) else {
            return (Color::TRANSPARENT, RayWork::default());
        };
        march_ray(grid, field, &ray, t_in, t_out, dt, tf, cfg.early_termination)
    })
}

/// The distance between consecutive samples of a ray.
fn sample_spacing(bounds: &Aabb, cfg: &SvrConfig) -> f32 {
    bounds.diagonal() / cfg.samples_per_ray as f32
}

/// The distance from `eye` to the farthest corner of `bounds`: no ray from
/// `eye` leaves the box farther along its (unit) direction.
fn farthest_corner(bounds: &Aabb, eye: Vec3) -> f32 {
    (bounds.min - eye).abs().max((bounds.max - eye).abs()).length()
}

/// True when `t += dt` moves every `t` in `[0, t_far]`, with a margin for
/// the rounding of the slab test's exit: `dt` is more than half an ulp at
/// the top of the binade that holds the margined `t_far`.
fn advances_to(dt: f32, t_far: f32) -> bool {
    let binade = f32::from_bits((t_far * (1.0 + 1.0 / 1024.0)).to_bits() & 0x7f80_0000);
    dt > binade * (f32::EPSILON / 2.0)
}

/// The frame-assembly stage: fold per-ray results into a framebuffer plus
/// the model-input tallies (active pixels, samples, cells).
fn assemble_stage(
    results: &[(Color, RayWork)],
    width: u32,
    height: u32,
) -> (Framebuffer, usize, u64, u64) {
    let mut frame = Framebuffer::new(width, height);
    let mut active = 0usize;
    let mut total_samples = 0u64;
    let mut total_cells = 0u64;
    for (i, (c, work)) in results.iter().enumerate() {
        if work.cells > 0 {
            active += 1;
            total_samples += work.samples as u64;
            total_cells += work.cells as u64;
            if c.a > 0.0 {
                frame.color[i] = c.unpremultiplied();
                frame.depth[i] = 0.0;
            }
        }
    }
    (frame, active, total_samples, total_cells)
}

/// Samples taken per batch, and the width of the batch's lane loop. The
/// loop from position to TF table position has a fixed trip count and no
/// exit, so it runs in SIMD lanes; only the table gather and the composite
/// wait on each other.
const SAMPLE_BATCH: usize = 8;

/// March one ray through the grid with a cell-stepping DDA; returns the
/// premultiplied accumulated color and the work tally.
#[allow(clippy::too_many_arguments, reason = "a stage takes each of its inputs by name")]
fn march_ray(
    grid: &UniformGrid,
    field: &[f32],
    ray: &vecmath::Ray,
    t_in: f32,
    t_out: f32,
    dt: f32,
    tf: &TransferFunction,
    early_term: f32,
) -> (Color, RayWork) {
    let cdims = grid.cell_dims();
    let inv_sp = grid.spacing.recip();
    // Point-index strides along j and k (along i it is 1).
    let (sj, sk) = (grid.dims[0], grid.dims[0] * grid.dims[1]);
    let mut acc = Color::TRANSPARENT;
    let mut work = RayWork::default();

    // Enter slightly inside to get a valid starting cell.
    let eps = dt * 1e-3;
    let mut t = t_in + eps;
    let start = ray.at(t);
    let local = (start - grid.origin) * inv_sp;
    let mut ci = (local.x.floor() as i64).clamp(0, cdims[0] as i64 - 1);
    let mut cj = (local.y.floor() as i64).clamp(0, cdims[1] as i64 - 1);
    let mut ck = (local.z.floor() as i64).clamp(0, cdims[2] as i64 - 1);

    // DDA setup: t to next crossing per axis and per-axis step.
    let step = [
        if ray.dir.x > 0.0 { 1i64 } else { -1 },
        if ray.dir.y > 0.0 { 1 } else { -1 },
        if ray.dir.z > 0.0 { 1 } else { -1 },
    ];
    let next_boundary = |c: i64, axis: usize| -> f32 {
        let base = match axis {
            0 => grid.origin.x + grid.spacing.x * (c + (step[0] > 0) as i64) as f32,
            1 => grid.origin.y + grid.spacing.y * (c + (step[1] > 0) as i64) as f32,
            _ => grid.origin.z + grid.spacing.z * (c + (step[2] > 0) as i64) as f32,
        };
        match axis {
            0 => (base - ray.origin.x) * ray.inv_dir.x,
            1 => (base - ray.origin.y) * ray.inv_dir.y,
            _ => (base - ray.origin.z) * ray.inv_dir.z,
        }
    };
    let mut t_max = [next_boundary(ci, 0), next_boundary(cj, 1), next_boundary(ck, 2)];

    // Sample positions are globally spaced at multiples of dt from t_in so
    // sampling density is view-independent.
    let mut sample_t = t;

    while t < t_out {
        // --- Cell-frequency work: load the 8 corners of this cell. ---
        work.cells += 1;
        let (i, j, k) = (ci as usize, cj as usize, ck as usize);
        let b = grid.point_index(i, j, k);
        let c = [
            field[b],
            field[b + 1],
            field[b + sj],
            field[b + sj + 1],
            field[b + sk],
            field[b + sk + 1],
            field[b + sk + sj],
            field[b + sk + sj + 1],
        ];
        let cell_min = Vec3::new(
            grid.origin.x + grid.spacing.x * i as f32,
            grid.origin.y + grid.spacing.y * j as f32,
            grid.origin.z + grid.spacing.z * k as f32,
        );

        // Cell exit parameter.
        let t_exit = t_max[0].min(t_max[1]).min(t_max[2]).min(t_out);

        // --- Sample-frequency work inside [t, t_exit), a batch at a time:
        // positions by the same serial `+= dt`; then, in lanes, each
        // position's value and TF table position (lanes past `n` are
        // computed and discarded); then the gather and the composite in
        // order with the per-sample early-termination test, so only the
        // samples composited are counted. ---
        while sample_t < t_exit {
            let mut ts = [0.0f32; SAMPLE_BATCH];
            let mut n = 0;
            while n < SAMPLE_BATCH && sample_t < t_exit {
                ts[n] = sample_t;
                sample_t += dt;
                n += 1;
            }
            let mut at = [(0u32, 0.0f32); SAMPLE_BATCH];
            for (at, &st) in at.iter_mut().zip(&ts) {
                let f = (ray.at(st) - cell_min) * inv_sp;
                let fx = f.x.clamp(0.0, 1.0);
                let fy = f.y.clamp(0.0, 1.0);
                let fz = f.z.clamp(0.0, 1.0);
                let c00 = c[0] * (1.0 - fx) + c[1] * fx;
                let c10 = c[2] * (1.0 - fx) + c[3] * fx;
                let c01 = c[4] * (1.0 - fx) + c[5] * fx;
                let c11 = c[6] * (1.0 - fx) + c[7] * fx;
                let v =
                    (c00 * (1.0 - fy) + c10 * fy) * (1.0 - fz) + (c01 * (1.0 - fy) + c11 * fy) * fz;
                *at = tf.locate(v);
            }
            for &at in &at[..n] {
                let col = tf.entry(at);
                if col.a > 0.0 {
                    acc = over(acc, col.premultiplied());
                }
                work.samples += 1;
                if acc.a >= early_term {
                    return (acc, work);
                }
            }
        }

        // Advance DDA to the next cell.
        if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
            t = t_max[0];
            ci += step[0];
            if ci < 0 || ci >= cdims[0] as i64 {
                break;
            }
            t_max[0] = next_boundary(ci, 0);
        } else if t_max[1] <= t_max[2] {
            t = t_max[1];
            cj += step[1];
            if cj < 0 || cj >= cdims[1] as i64 {
                break;
            }
            t_max[1] = next_boundary(cj, 1);
        } else {
            t = t_max[2];
            ck += step[2];
            if ck < 0 || ck >= cdims[2] as i64 {
                break;
            }
            t_max[2] = next_boundary(ck, 2);
        }
    }
    (acc, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{field_grid, FieldKind};

    fn volume() -> UniformGrid {
        field_grid(FieldKind::ShockShell, [24, 24, 24])
    }

    fn tfn(grid: &UniformGrid) -> TransferFunction {
        let range = grid.field("scalar").unwrap().range().unwrap();
        TransferFunction::sparse_features(range)
    }

    /// The per-sample march `march_ray` replaced, kept verbatim as its oracle:
    /// corners by eight `point_index` calls, `spacing.recip()` per cell, and one
    /// sample's lookup and composite at a time.
    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle keeps the signature of the code it replaced"
    )]
    fn march_ray_reference(
        grid: &UniformGrid,
        field: &[f32],
        ray: &vecmath::Ray,
        t_in: f32,
        t_out: f32,
        dt: f32,
        tf: &TransferFunction,
        early_term: f32,
    ) -> (Color, RayWork) {
        let cdims = grid.cell_dims();
        let mut acc = Color::TRANSPARENT;
        let mut work = RayWork::default();

        // Enter slightly inside to get a valid starting cell.
        let eps = dt * 1e-3;
        let mut t = t_in + eps;
        let start = ray.at(t);
        let local = (start - grid.origin) * grid.spacing.recip();
        let mut ci = (local.x.floor() as i64).clamp(0, cdims[0] as i64 - 1);
        let mut cj = (local.y.floor() as i64).clamp(0, cdims[1] as i64 - 1);
        let mut ck = (local.z.floor() as i64).clamp(0, cdims[2] as i64 - 1);

        // DDA setup: t to next crossing per axis and per-axis step.
        let step = [
            if ray.dir.x > 0.0 { 1i64 } else { -1 },
            if ray.dir.y > 0.0 { 1 } else { -1 },
            if ray.dir.z > 0.0 { 1 } else { -1 },
        ];
        let next_boundary = |c: i64, axis: usize| -> f32 {
            let base = match axis {
                0 => grid.origin.x + grid.spacing.x * (c + (step[0] > 0) as i64) as f32,
                1 => grid.origin.y + grid.spacing.y * (c + (step[1] > 0) as i64) as f32,
                _ => grid.origin.z + grid.spacing.z * (c + (step[2] > 0) as i64) as f32,
            };
            match axis {
                0 => (base - ray.origin.x) * ray.inv_dir.x,
                1 => (base - ray.origin.y) * ray.inv_dir.y,
                _ => (base - ray.origin.z) * ray.inv_dir.z,
            }
        };
        let mut t_max = [next_boundary(ci, 0), next_boundary(cj, 1), next_boundary(ck, 2)];

        // Sample positions are globally spaced at multiples of dt from t_in so
        // sampling density is view-independent.
        let mut sample_t = t;

        while t < t_out {
            // --- Cell-frequency work: load the 8 corners of this cell. ---
            work.cells += 1;
            let (i, j, k) = (ci as usize, cj as usize, ck as usize);
            let c = [
                field[grid.point_index(i, j, k)],
                field[grid.point_index(i + 1, j, k)],
                field[grid.point_index(i, j + 1, k)],
                field[grid.point_index(i + 1, j + 1, k)],
                field[grid.point_index(i, j, k + 1)],
                field[grid.point_index(i + 1, j, k + 1)],
                field[grid.point_index(i, j + 1, k + 1)],
                field[grid.point_index(i + 1, j + 1, k + 1)],
            ];
            let cell_min = Vec3::new(
                grid.origin.x + grid.spacing.x * i as f32,
                grid.origin.y + grid.spacing.y * j as f32,
                grid.origin.z + grid.spacing.z * k as f32,
            );
            let inv_sp = grid.spacing.recip();

            // Cell exit parameter.
            let t_exit = t_max[0].min(t_max[1]).min(t_max[2]).min(t_out);

            // --- Sample-frequency work inside [t, t_exit). ---
            while sample_t < t_exit {
                let p = ray.at(sample_t);
                let f = (p - cell_min) * inv_sp;
                let fx = f.x.clamp(0.0, 1.0);
                let fy = f.y.clamp(0.0, 1.0);
                let fz = f.z.clamp(0.0, 1.0);
                let c00 = c[0] * (1.0 - fx) + c[1] * fx;
                let c10 = c[2] * (1.0 - fx) + c[3] * fx;
                let c01 = c[4] * (1.0 - fx) + c[5] * fx;
                let c11 = c[6] * (1.0 - fx) + c[7] * fx;
                let v =
                    (c00 * (1.0 - fy) + c10 * fy) * (1.0 - fz) + (c01 * (1.0 - fy) + c11 * fy) * fz;
                let col = tf.sample(v);
                if col.a > 0.0 {
                    acc = over(acc, col.premultiplied());
                }
                work.samples += 1;
                sample_t += dt;
                if acc.a >= early_term {
                    return (acc, work);
                }
            }

            // Advance DDA to the next cell.
            if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
                t = t_max[0];
                ci += step[0];
                if ci < 0 || ci >= cdims[0] as i64 {
                    break;
                }
                t_max[0] = next_boundary(ci, 0);
            } else if t_max[1] <= t_max[2] {
                t = t_max[1];
                cj += step[1];
                if cj < 0 || cj >= cdims[1] as i64 {
                    break;
                }
                t_max[1] = next_boundary(cj, 1);
            } else {
                t = t_max[2];
                ck += step[2];
                if ck < 0 || ck >= cdims[2] as i64 {
                    break;
                }
                t_max[2] = next_boundary(ck, 2);
            }
        }
        (acc, work)
    }

    #[test]
    fn renders_visible_shell() {
        let g = volume();
        let cam = Camera::close_view(&g.bounds());
        let out = render_structured(
            &Device::Serial,
            &g,
            "scalar",
            &cam,
            48,
            48,
            &tfn(&g),
            &SvrConfig::default(),
        )
        .unwrap();
        assert!(out.stats.active_pixels > 500.0, "{}", out.stats.active_pixels);
        assert!(out.stats.samples_per_ray > 10.0);
        assert!(out.stats.cells_spanned > 5.0);
        // Shell should color center pixels.
        let c = out.frame.color[out.frame.index(24, 24)];
        assert!(c.a > 0.0);
    }

    #[test]
    fn devices_agree() {
        let g = volume();
        let cam = Camera::close_view(&g.bounds());
        let cfg = SvrConfig::default();
        let tf = tfn(&g);
        let a = render_structured(&Device::Serial, &g, "scalar", &cam, 32, 32, &tf, &cfg).unwrap();
        let b =
            render_structured(&Device::parallel(), &g, "scalar", &cam, 32, 32, &tf, &cfg).unwrap();
        assert!(a.frame.mean_abs_diff(&b.frame) < 1e-5);
        assert_eq!(a.stats.active_pixels, b.stats.active_pixels);
    }

    #[test]
    fn cells_spanned_scales_with_grid_resolution() {
        let small = field_grid(FieldKind::ShockShell, [16, 16, 16]);
        let big = field_grid(FieldKind::ShockShell, [32, 32, 32]);
        let cfg = SvrConfig { samples_per_ray: 128, early_termination: 1.1 }; // no early out
        let tf = TransferFunction::cool_warm((0.0, 1.0)).with_opacity_scale(0.01);
        let cam_s = Camera::close_view(&small.bounds());
        let cam_b = Camera::close_view(&big.bounds());
        let a = render_structured(&Device::Serial, &small, "scalar", &cam_s, 24, 24, &tf, &cfg)
            .unwrap();
        let b =
            render_structured(&Device::Serial, &big, "scalar", &cam_b, 24, 24, &tf, &cfg).unwrap();
        // CS ~ N: doubling the grid should roughly double cells spanned.
        let ratio = b.stats.cells_spanned / a.stats.cells_spanned;
        assert!(ratio > 1.5 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn early_termination_reduces_samples() {
        let g = volume();
        let cam = Camera::close_view(&g.bounds());
        let tf = tfn(&g).with_opacity_scale(4.0); // very opaque
        let with = SvrConfig { early_termination: 0.6, ..Default::default() };
        let without = SvrConfig { early_termination: 1.1, ..Default::default() };
        let a = render_structured(&Device::Serial, &g, "scalar", &cam, 32, 32, &tf, &with).unwrap();
        let b =
            render_structured(&Device::Serial, &g, "scalar", &cam, 32, 32, &tf, &without).unwrap();
        assert!(a.stats.samples_per_ray < b.stats.samples_per_ray);
    }

    #[test]
    fn miss_rays_do_no_work() {
        let g = volume();
        // Camera pointing away from the data.
        let mut cam = Camera::close_view(&g.bounds());
        cam.look_at = cam.position + (cam.position - g.bounds().center());
        let out = render_structured(
            &Device::Serial,
            &g,
            "scalar",
            &cam,
            16,
            16,
            &tfn(&g),
            &SvrConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.active_pixels, 0.0);
        assert_eq!(out.stats.samples_per_ray, 0.0);
    }

    fn ray_bits((c, w): (Color, RayWork)) -> ([u32; 4], u32, u32) {
        ([c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits()], w.samples, w.cells)
    }

    /// `march_ray` is the per-sample march, bit for bit: every pixel's
    /// premultiplied RGBA and every ray's samples and cells, through
    /// `raycast_stage` on both devices, on the frame `insitu_volume_structured`
    /// renders (CloverLeaf(32) `density_p`, `sparse_features`, close view) at
    /// sim steps 0–47, reduced to 96². A second TF with opacity ×4 stops most
    /// rays early, at any sample of a batch. Debug builds check every eighth
    /// step at 48².
    #[test]
    fn batched_march_is_the_per_sample_march_on_the_volume_workload() {
        let (step_stride, side) = if cfg!(debug_assertions) { (8, 48) } else { (1, 96) };
        let cfg = SvrConfig::default();
        let devices = [Device::Serial, Device::parallel()];
        let mut sim = sims::Cloverleaf::new(32);
        let mut terminated = 0usize;
        for step in 0..48 {
            if step > 0 {
                sims::ProxySim::step(&mut sim);
            }
            if step % step_stride != 0 && step != 47 {
                continue;
            }
            let grid = sim.grid().to_uniform();
            let field = grid.field("density_p").unwrap();
            let tf = TransferFunction::sparse_features(field.range().unwrap());
            let bounds = grid.bounds();
            let cam = Camera::close_view(&bounds);
            let dt = bounds.diagonal() / cfg.samples_per_ray as f32;
            let rays = cam.pixel_rays(side, side);
            for tf in [tf.clone(), tf.with_opacity_scale(4.0)] {
                let reference: Vec<_> = (0..side * side)
                    .map(|i| {
                        let ray = rays.ray(i % side, i / side, 0.5, 0.5);
                        ray_bits(match bounds.intersect_ray(&ray, cam.near, f32::INFINITY) {
                            Some((t_in, t_out)) => march_ray_reference(
                                &grid,
                                &field.values,
                                &ray,
                                t_in,
                                t_out,
                                dt,
                                &tf,
                                cfg.early_termination,
                            ),
                            None => (Color::TRANSPARENT, RayWork::default()),
                        })
                    })
                    .collect();
                for (d, device) in devices.iter().enumerate() {
                    let batched =
                        raycast_stage(device, &grid, &field.values, &cam, side, side, &tf, &cfg);
                    for (px, (got, want)) in batched.into_iter().zip(&reference).enumerate() {
                        assert_eq!(ray_bits(got), *want, "step {step}, pixel {px}, device {d}");
                    }
                }
                terminated += reference
                    .iter()
                    .filter(|(c, ..)| f32::from_bits(c[3]) >= cfg.early_termination)
                    .count();
            }
        }
        assert!(terminated > 100, "only {terminated} rays terminated early");
    }

    /// Every pixel of a `side`² close view of `field` of `grid`, through
    /// `raycast_stage` on both devices, against `march_ray_reference`: RGBA
    /// bits, samples and cells. Returns how many rays terminated early.
    fn assert_march_is_the_reference(
        grid: &UniformGrid,
        field: &str,
        tf: &TransferFunction,
        side: u32,
        what: &str,
    ) -> usize {
        let cfg = SvrConfig::default();
        let values = &grid.field(field).unwrap().values;
        let bounds = grid.bounds();
        let cam = Camera::close_view(&bounds);
        let dt = bounds.diagonal() / cfg.samples_per_ray as f32;
        let rays = cam.pixel_rays(side, side);
        let reference: Vec<_> = (0..side * side)
            .map(|i| {
                let ray = rays.ray(i % side, i / side, 0.5, 0.5);
                ray_bits(match bounds.intersect_ray(&ray, cam.near, f32::INFINITY) {
                    Some((t_in, t_out)) => march_ray_reference(
                        grid,
                        values,
                        &ray,
                        t_in,
                        t_out,
                        dt,
                        tf,
                        cfg.early_termination,
                    ),
                    None => (Color::TRANSPARENT, RayWork::default()),
                })
            })
            .collect();
        for (d, device) in [Device::Serial, Device::parallel()].iter().enumerate() {
            let lanes = raycast_stage(device, grid, values, &cam, side, side, tf, &cfg);
            for (px, (got, want)) in lanes.into_iter().zip(&reference).enumerate() {
                assert_eq!(ray_bits(got), *want, "{what}, pixel {px}, device {d}");
            }
        }
        reference.iter().filter(|(c, ..)| f32::from_bits(c[3]) >= cfg.early_termination).count()
    }

    /// The grid of a CloverLeaf run with `dims` cells, as
    /// `insitu_volume_structured` renders it (`dims` = 32³), at each sim
    /// step in `steps`, with its `sparse_features` TF.
    fn cloverleaf_frames(
        dims: [usize; 3],
        steps: &[usize],
    ) -> Vec<(usize, UniformGrid, TransferFunction)> {
        let mut sim = sims::Cloverleaf::with_dims(dims);
        let mut frames = Vec::new();
        for step in 0..=steps.iter().copied().max().unwrap_or(0) {
            if step > 0 {
                sims::ProxySim::step(&mut sim);
            }
            if steps.contains(&step) {
                let grid = sim.grid().to_uniform();
                let range = grid.field("density_p").unwrap().range().unwrap();
                frames.push((step, grid, TransferFunction::sparse_features(range)));
            }
        }
        frames
    }

    /// The lane march on the benchmark's own frame size, 320², at the first
    /// and last sim steps the 96² oracle covers, with the benchmark's TF and
    /// with its opacity ×4. Release only: debug checks step 0 at 160².
    #[test]
    fn batched_march_is_the_per_sample_march_on_the_benchmark_frame() {
        let (steps, side): (&[usize], u32) =
            if cfg!(debug_assertions) { (&[0], 160) } else { (&[0, 47], 320) };
        let mut terminated = 0;
        for (step, grid, tf) in cloverleaf_frames([32; 3], steps) {
            for tf in [tf.clone(), tf.with_opacity_scale(4.0)] {
                let what = format!("step {step} at {side}²");
                terminated += assert_march_is_the_reference(&grid, "density_p", &tf, side, &what);
            }
        }
        assert!(terminated > 1000, "only {terminated} rays terminated early");
    }

    /// A grid with a different cell count on each axis, so the corner
    /// strides along j and k differ from a cube's and rays cross cells of
    /// each axis at different rates.
    #[test]
    fn batched_march_is_the_per_sample_march_on_a_stretched_grid() {
        let side = if cfg!(debug_assertions) { 48 } else { 128 };
        for (step, grid, tf) in cloverleaf_frames([48, 32, 24], &[0, 15]) {
            assert_eq!(grid.dims, [49, 33, 25]);
            for tf in [tf.clone(), tf.with_opacity_scale(4.0)] {
                let what = format!("48x32x24, step {step}");
                assert_march_is_the_reference(&grid, "density_p", &tf, side, &what);
            }
        }
    }

    /// A TF whose range is one value (`hi == lo`): every lane takes the
    /// mid-table branch of `locate`, so each sample has the same colour.
    #[test]
    fn batched_march_is_the_per_sample_march_under_a_one_value_range() {
        let side = if cfg!(debug_assertions) { 48 } else { 96 };
        for (step, grid, tf) in cloverleaf_frames([32; 3], &[0, 31]) {
            let lo = tf.range.0;
            for tf in [
                TransferFunction::sparse_features((lo, lo)),
                TransferFunction::cool_warm((lo, lo)).with_opacity_scale(4.0),
            ] {
                let what = format!("range ({lo}, {lo}), step {step}");
                assert_march_is_the_reference(&grid, "density_p", &tf, side, &what);
            }
        }
    }

    /// The error `render_structured` returns for `field` of `g` under `cfg`.
    fn render_error(g: &UniformGrid, field: &str, cfg: &SvrConfig) -> SvrError {
        let cam = Camera::close_view(&g.bounds());
        render_structured(&Device::Serial, g, field, &cam, 16, 16, &tfn(g), cfg)
            .map(|out| out.stats.active_pixels)
            .unwrap_err()
    }

    #[test]
    fn a_one_point_axis_is_an_error() {
        let mut g = volume();
        g.dims[2] = 1;
        g.fields[0].values.truncate(25 * 25);
        let err = render_error(&g, "scalar", &SvrConfig::default());
        assert_eq!(err, SvrError::DegenerateGrid([25, 25, 1]));
    }

    #[test]
    fn a_short_point_field_is_an_error() {
        let mut g = volume();
        g.fields[0].values.pop();
        let err = render_error(&g, "scalar", &SvrConfig::default());
        let (name, expected, found) = ("scalar".to_string(), 25 * 25 * 25, 25 * 25 * 25 - 1);
        assert_eq!(err, SvrError::FieldLength { name, expected, found });
    }

    #[test]
    fn zero_samples_per_ray_is_an_error() {
        let cfg = SvrConfig { samples_per_ray: 0, ..SvrConfig::default() };
        assert_eq!(render_error(&volume(), "scalar", &cfg), SvrError::NoSamples);
    }

    /// A sample spacing below half an ulp of the ray parameter is refused
    /// before the raycast, where the march would spin on a `sample_t` that
    /// `+= dt` no longer moves. On a 2×2 frame of an 8³ grid (rays reach
    /// t ≈ 4.7, where half an ulp is 2.4e-7), 10⁷ samples per ray
    /// (dt ≈ 3.5e-7) still renders.
    #[test]
    fn a_spacing_the_ray_cannot_step_is_an_error() {
        let g = field_grid(FieldKind::ShockShell, [8, 8, 8]);
        let cam = Camera::close_view(&g.bounds());
        let render = |samples_per_ray| {
            let cfg = SvrConfig { samples_per_ray, ..SvrConfig::default() };
            render_structured(&Device::Serial, &g, "scalar", &cam, 2, 2, &tfn(&g), &cfg)
        };
        let out = render(10_000_000).unwrap();
        assert_eq!(out.stats.active_pixels, 4.0);
        for n in [100_000_000, u32::MAX] {
            let err = render(n).map(|out| out.stats.active_pixels).unwrap_err();
            assert_eq!(err, SvrError::SpacingBelowPrecision(n));
        }
    }

    #[test]
    fn missing_field_is_an_error() {
        let err = render_error(&volume(), "nope", &SvrConfig::default());
        assert_eq!(err, SvrError::MissingField("nope".into()));
    }
}
