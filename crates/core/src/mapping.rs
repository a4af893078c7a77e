//! Mapping rendering configurations to model inputs (Section 5.8).
//!
//! Domain scientists think in terms of (grid size per task, image size, MPI
//! tasks, renderer); the models want (O, AP, VO, PPT, SPR, CS). The paper's
//! mapping — reproduced here — provides conservative estimates whose
//! overestimates safely inflate predictions (all coefficients are
//! non-negative):
//!
//! * `O = 12 N^2` (external-face triangles) or `N^3` (volume cells)
//! * `AP = fill * Pixels / tasks^(1/3)`
//! * `VO = min(AP, O)`
//! * pixels considered `= ppt_factor * AP`, so `PPT = ppt_factor * AP / VO`
//! * `SPR = spr_base / tasks^(1/3)`
//! * `CS = N`

use crate::sample::{RenderSample, RendererKind};
use render::RenderStats;

/// A user-level rendering configuration.
#[derive(Debug, Clone, Copy)]
pub struct RenderConfig {
    /// Which renderer to run.
    pub renderer: RendererKind,
    /// Cells per axis per task (N of an N^3 block).
    pub cells_per_task: usize,
    /// Total image pixels (width * height).
    pub pixels: usize,
    /// MPI tasks.
    pub tasks: usize,
}

/// Calibration constants of the mapping. The defaults are the paper's
/// (0.55 screen fill, 4 pixels of overdraw per active pixel, 373-sample
/// rays); [`MappingConstants::calibrated`] re-derives fill and SPR base for
/// this repo's cameras and samplers from a probe render, and
/// [`MappingConstants::recalibrated`] re-derives them from later renders.
#[derive(Debug, Clone, Copy)]
pub struct MappingConstants {
    /// Fraction of image pixels active for one task.
    pub ap_fill: f64,
    /// Pixels considered per active pixel during rasterization.
    pub ppt_factor: f64,
    /// Samples per ray at one task.
    pub spr_base: f64,
}

impl Default for MappingConstants {
    fn default() -> Self {
        MappingConstants { ap_fill: 0.55, ppt_factor: 4.0, spr_base: 373.0 }
    }
}

impl MappingConstants {
    /// Derive fill and SPR constants from observed samples (one per renderer
    /// at `tasks = 1`), keeping the paper's functional form.
    pub fn calibrated(observed: &[RenderSample]) -> MappingConstants {
        MappingConstants::default().recalibrated(observed)
    }

    /// These constants with each one `observed` has samples for re-derived
    /// from them (the mean over those samples); the others are kept.
    pub fn recalibrated(&self, observed: &[RenderSample]) -> MappingConstants {
        let mut c = *self;
        let fills: Vec<f64> = observed
            .iter()
            .filter(|s| s.pixels > 0.0)
            .map(|s| s.stats.active_pixels / s.pixels * (s.tasks as f64).cbrt())
            .collect();
        if !fills.is_empty() {
            c.ap_fill = fills.iter().sum::<f64>() / fills.len() as f64;
        }
        let sprs: Vec<f64> = observed
            .iter()
            .filter(|s| {
                s.renderer == RendererKind::VolumeRendering && s.stats.samples_per_ray > 0.0
            })
            .map(|s| s.stats.samples_per_ray * (s.tasks as f64).cbrt())
            .collect();
        if !sprs.is_empty() {
            c.spr_base = sprs.iter().sum::<f64>() / sprs.len() as f64;
        }
        let ppts: Vec<f64> = observed
            .iter()
            .filter(|s| {
                s.renderer == RendererKind::Rasterization
                    && s.stats.visible_objects > 0.0
                    && s.stats.active_pixels > 0.0
            })
            .map(|s| s.stats.pixels_per_triangle * s.stats.visible_objects / s.stats.active_pixels)
            .collect();
        if !ppts.is_empty() {
            c.ppt_factor = ppts.iter().sum::<f64>() / ppts.len() as f64;
        }
        c
    }
}

/// Produce a synthetic [`RenderSample`] (inputs only, zero times) from a
/// configuration — the row the models predict on.
pub fn map_inputs(cfg: &RenderConfig, k: &MappingConstants) -> RenderSample {
    let n = cfg.cells_per_task as f64;
    let tasks_scale = (cfg.tasks as f64).cbrt();
    let objects = match cfg.renderer {
        RendererKind::VolumeRendering => n * n * n,
        _ => 12.0 * n * n,
    };
    let ap = k.ap_fill * cfg.pixels as f64 / tasks_scale;
    let vo = ap.min(objects);
    let ppt = if vo > 0.0 { k.ppt_factor * ap / vo } else { 0.0 };
    RenderSample {
        renderer: cfg.renderer,
        device: "",
        source: "mapping",
        stats: RenderStats {
            objects,
            active_pixels: ap,
            visible_objects: vo,
            pixels_per_triangle: ppt,
            samples_per_ray: k.spr_base / tasks_scale,
            cells_spanned: n,
            ..RenderStats::default()
        },
        pixels: cfg.pixels as f64,
        tasks: cfg.tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formulas_hold() {
        let k = MappingConstants::default();
        let cfg = RenderConfig {
            renderer: RendererKind::Rasterization,
            cells_per_task: 185,
            pixels: 1712 * 1712,
            tasks: 8,
        };
        let m = map_inputs(&cfg, &k);
        assert!((m.stats.objects - 12.0 * 185.0 * 185.0).abs() < 1.0);
        // AP = 0.55 * P / 2 for 8 tasks.
        assert!((m.stats.active_pixels - 0.55 * (1712.0f64 * 1712.0) / 2.0).abs() < 1.0);
        assert_eq!(m.stats.visible_objects, m.stats.objects.min(m.stats.active_pixels));
        // PPT ~ 7.9 (the paper's Table 16 value for this config).
        assert!(
            (m.stats.pixels_per_triangle - 7.94).abs() < 0.3,
            "{}",
            m.stats.pixels_per_triangle
        );
        assert!((m.stats.cells_spanned - 185.0).abs() < 1e-9);
    }

    #[test]
    fn volume_uses_cubed_objects() {
        let k = MappingConstants::default();
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 100,
            pixels: 1 << 20,
            tasks: 1,
        };
        let m = map_inputs(&cfg, &k);
        assert_eq!(m.stats.objects, 1e6);
        assert_eq!(m.stats.samples_per_ray, 373.0);
        assert_eq!(m.stats.cells_spanned, 100.0);
    }

    #[test]
    fn calibration_recovers_fill() {
        let mut s = map_inputs(
            &RenderConfig {
                renderer: RendererKind::VolumeRendering,
                cells_per_task: 50,
                pixels: 10_000,
                tasks: 1,
            },
            &MappingConstants::default(),
        );
        s.stats.active_pixels = 4_000.0; // observed 40% fill
        s.stats.samples_per_ray = 200.0;
        let c = MappingConstants::calibrated(&[s]);
        assert!((c.ap_fill - 0.4).abs() < 1e-9);
        assert!((c.spr_base - 200.0).abs() < 1e-9);
    }

    #[test]
    fn more_tasks_shrink_per_task_work() {
        let k = MappingConstants::default();
        let mk = |tasks| {
            map_inputs(
                &RenderConfig {
                    renderer: RendererKind::RayTracing,
                    cells_per_task: 100,
                    pixels: 1 << 20,
                    tasks,
                },
                &k,
            )
        };
        assert!(mk(8).stats.active_pixels < mk(1).stats.active_pixels);
        assert!((mk(8).stats.active_pixels * 2.0 - mk(1).stats.active_pixels).abs() < 1.0);
    }
}
