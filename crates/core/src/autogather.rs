//! Automated model creation from hierarchical timing annotations —
//! Chapter VI's "Data Gathering Infrastructure".
//!
//! The dissertation's models were developed offline: run tests, pick terms,
//! fit, iterate. Section 6.2 proposes instead that *"if we create
//! hierarchical annotations for timings gathered within an algorithm, we
//! could automate model creation"*, refining models on-line as the corpus
//! grows. This module implements that: renderers already annotate every
//! phase with `(name, seconds, work_units)` via [`render::PhaseTimer`]-style
//! records; [`PhaseModelBuilder`] accumulates them across renders and fits a
//! per-phase linear model `t = c0 * work + c1` automatically, flagging
//! phases whose cost the work annotation fails to explain (the candidates
//! for a better model term).

use crate::regression::LinearRegression;
use std::collections::BTreeMap;

/// One deposited observation for a phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseObservation {
    /// Measured seconds for the phase.
    pub seconds: f64,
    /// Work units the phase reported.
    pub work_units: f64,
}

/// A per-phase fitted model with quality diagnostics.
#[derive(Debug, Clone)]
pub struct PhaseModel {
    /// Phase name the model was fitted for.
    pub phase: String,
    /// The fitted `t = c0 * work + c1` regression.
    pub fit: LinearRegression,
    /// Observations backing the fit.
    pub observations: usize,
    /// Mean seconds across observations (for ranking phases by cost).
    pub mean_seconds: f64,
}

impl PhaseModel {
    /// Predicted seconds for a given work size.
    pub fn predict(&self, work_units: f64) -> f64 {
        self.fit.predict(&[work_units, 1.0]).max(0.0)
    }

    /// Whether the work annotation explains this phase's cost well enough
    /// for on-line use (the builder's "done" criterion).
    pub fn is_explained(&self, r2_threshold: f64) -> bool {
        self.fit.r_squared >= r2_threshold
    }
}

/// Accumulates phase observations across renders and fits models on demand.
/// This is the database Section 6.2 sketches: seeded sparse, growing as
/// algorithms "deposit small amounts of information every time they run".
#[derive(Debug, Default)]
pub struct PhaseModelBuilder {
    observations: BTreeMap<String, Vec<PhaseObservation>>,
}

impl PhaseModelBuilder {
    /// An empty builder.
    pub fn new() -> PhaseModelBuilder {
        PhaseModelBuilder::default()
    }

    /// Deposit one phase observation.
    pub fn deposit(&mut self, phase: &str, seconds: f64, work_units: u64) {
        self.observations
            .entry(phase.to_string())
            .or_default()
            .push(PhaseObservation { seconds, work_units: work_units as f64 });
    }

    /// Deposit every record of a completed render's phase timer.
    pub fn deposit_timer(&mut self, timer: &render::PhaseTimer) {
        for p in &timer.phases {
            self.deposit(p.name, p.seconds, p.work_units);
        }
    }

    /// Number of observations for a phase.
    pub fn count(&self, phase: &str) -> usize {
        self.observations.get(phase).map_or(0, |v| v.len())
    }

    /// Fit one phase's model (needs >= 3 observations).
    pub fn fit_phase(&self, phase: &str) -> Option<PhaseModel> {
        let obs = self.observations.get(phase)?;
        if obs.len() < 3 {
            return None;
        }
        let xs: Vec<Vec<f64>> = obs.iter().map(|o| vec![o.work_units, 1.0]).collect();
        let ys: Vec<f64> = obs.iter().map(|o| o.seconds).collect();
        let mean_seconds = ys.iter().sum::<f64>() / ys.len() as f64;
        Some(PhaseModel {
            phase: phase.to_string(),
            fit: LinearRegression::fit(&xs, &ys),
            observations: obs.len(),
            mean_seconds,
        })
    }

    /// Fit every phase with enough data, ranked by mean cost (the phases the
    /// visualization community should "focus their effort" on, per §6.2).
    pub fn fit_all(&self) -> Vec<PhaseModel> {
        let mut out: Vec<PhaseModel> =
            self.observations.keys().filter_map(|p| self.fit_phase(p)).collect();
        out.sort_by(|a, b| b.mean_seconds.total_cmp(&a.mean_seconds));
        out
    }

    /// Predict a whole render's time from per-phase work estimates; phases
    /// without a usable model contribute their observed mean.
    pub fn predict_total(&self, work_estimates: &[(&str, f64)]) -> f64 {
        work_estimates
            .iter()
            .map(|(phase, work)| match self.fit_phase(phase) {
                Some(m) => m.predict(*work),
                None => self.observations.get(*phase).map_or(0.0, |obs| {
                    obs.iter().map(|o| o.seconds).sum::<f64>() / obs.len().max(1) as f64
                }),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_builder() -> PhaseModelBuilder {
        let mut b = PhaseModelBuilder::new();
        // sampling: 2e-6 s/unit + 1e-3; compositing: 5e-7 s/unit + 5e-4.
        for i in 1..20u64 {
            let w1 = i * 1000;
            let w2 = i * 700 + (i * i) % 500;
            b.deposit("sampling", 2e-6 * w1 as f64 + 1e-3, w1);
            b.deposit("compositing", 5e-7 * w2 as f64 + 5e-4, w2);
        }
        b
    }

    #[test]
    fn fits_planted_phase_laws() {
        let b = planted_builder();
        let s = b.fit_phase("sampling").unwrap();
        assert!(s.is_explained(0.999));
        assert!((s.fit.coeffs[0] - 2e-6).abs() < 1e-9);
        assert!((s.predict(50_000.0) - (2e-6 * 50_000.0 + 1e-3)).abs() < 1e-6);
        assert_eq!(s.observations, 19);
    }

    #[test]
    fn ranking_orders_by_cost() {
        let b = planted_builder();
        let all = b.fit_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].phase, "sampling"); // costlier phase first
        assert!(all[0].mean_seconds > all[1].mean_seconds);
    }

    #[test]
    fn needs_three_observations() {
        let mut b = PhaseModelBuilder::new();
        b.deposit("x", 1.0, 10);
        b.deposit("x", 2.0, 20);
        assert!(b.fit_phase("x").is_none());
        b.deposit("x", 3.0, 30);
        assert!(b.fit_phase("x").is_some());
        assert!(b.fit_phase("missing").is_none());
        assert_eq!(b.count("x"), 3);
    }

    #[test]
    fn total_prediction_sums_phases() {
        let b = planted_builder();
        let total = b.predict_total(&[("sampling", 10_000.0), ("compositing", 5_000.0)]);
        let expect = (2e-6 * 10_000.0 + 1e-3) + (5e-7 * 5_000.0 + 5e-4);
        assert!((total - expect).abs() < 1e-6, "{total} vs {expect}");
    }

    #[test]
    fn on_line_refinement_improves_fit() {
        // Noisy start; fit R^2 improves as the corpus grows (the §6.2
        // "model accuracy increasing as the corpus grows" behaviour).
        let mut b = PhaseModelBuilder::new();
        let noise = |i: u64| (((i * 2654435761) % 100) as f64 / 100.0 - 0.5) * 2e-3;
        for i in 1..5u64 {
            b.deposit("p", 1e-6 * (i * 1000) as f64 + noise(i), i * 1000);
        }
        let early = b.fit_phase("p").unwrap().fit.r_squared;
        for i in 5..200u64 {
            b.deposit("p", 1e-6 * (i * 1000) as f64 + noise(i), i * 1000);
        }
        let late = b.fit_phase("p").unwrap().fit.r_squared;
        assert!(late >= early * 0.99, "late {late} vs early {early}");
        assert!(late > 0.95);
    }

    #[test]
    fn deposits_from_real_render_timers() {
        use dpp::Device;
        use mesh::datasets::{FieldKind, TetDatasetSpec};
        use render::volume_unstructured::{render_unstructured, UvrConfig};
        use vecmath::{Camera, TransferFunction};

        let tets =
            TetDatasetSpec { name: "t", cells: [8, 8, 8], kind: FieldKind::ShockShell }.build(1.0);
        let tf = TransferFunction::sparse_features(tets.field("scalar").unwrap().range().unwrap());
        let mut b = PhaseModelBuilder::new();
        for side in [24u32, 32, 40, 48] {
            let cam = Camera::close_view(&tets.bounds());
            let out = render_unstructured(
                &Device::Serial,
                &tets,
                "scalar",
                &cam,
                side,
                side,
                &tf,
                &UvrConfig { depth_samples: 48, ..Default::default() },
            )
            .unwrap();
            b.deposit_timer(&out.phases);
        }
        let models = b.fit_all();
        assert!(models.iter().any(|m| m.phase == "sampling"));
        assert!(models.iter().any(|m| m.phase == "compositing"));
        for m in &models {
            assert!(m.observations >= 4);
        }
    }
}
