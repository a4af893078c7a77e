//! Integration: the modeling pipeline end to end — run a (small) study,
//! fit models, cross-validate, map configurations, and answer feasibility
//! questions, asserting the paper's qualitative claims hold.

use dpp::Device;
use mpirt::NetModel;
use perfmodel::crossval::k_fold_accuracy;
use perfmodel::feasibility::{images_in_budget, rt_vs_rast_map, ModelSet};
use perfmodel::mapping::{map_inputs, MappingConstants, RenderConfig};
use perfmodel::models::Family;
use perfmodel::sample::RendererKind;
use perfmodel::study::{
    run_composite_study, run_one, run_render_study, run_render_study_simulated, StudyConfig,
};

fn small_study() -> StudyConfig {
    StudyConfig {
        tests: 9,
        data_cells: (14, 36),
        image_side: (48, 144),
        fill: (0.5, 1.0),
        seed: 99,
    }
}

#[test]
fn models_fit_and_cross_validate_on_the_simulated_clock() {
    // This test is about *fit quality*, not about the wall clock: the study
    // runs the real renderers for their deterministic observed inputs, then
    // prices each test on the `mpirt::event::EventWorld` simulated clock.
    // One attempt, strict thresholds — nothing here can absorb scheduler
    // contention, so there is no retry loop to hide behind.
    let device = Device::parallel();
    let vr =
        run_render_study_simulated(&device, RendererKind::VolumeRendering, &small_study()).unwrap();
    let fit = Family::Vr.fit(&vr);
    let xs: Vec<Vec<f64>> = vr.iter().map(|s| Family::Vr.features(s)).collect();
    let ys: Vec<f64> = vr.iter().map(|s| s.stats.render_seconds).collect();
    let acc = k_fold_accuracy(&xs, &ys, 3);
    assert!(fit.r_squared() > 0.95, "R^2 = {}", fit.r_squared());
    assert!(acc.within_50 >= 90.0, "CV within-50 = {}", acc.within_50);
}

/// Opt-in wall-clock smoke test (`cargo test -- --ignored`): one unretried
/// real-measurement study must still fit on a quiet machine. This preserves
/// the original end-to-end claim without letting machine load flake the
/// default suite.
#[test]
#[ignore = "wall-clock timing; run explicitly with --ignored on a quiet machine"]
fn models_fit_on_real_wall_clock_measurements_smoke() {
    let device = Device::parallel();
    let vr = run_render_study(&device, RendererKind::VolumeRendering, &small_study()).unwrap();
    let fit = Family::Vr.fit(&vr);
    let xs: Vec<Vec<f64>> = vr.iter().map(|s| Family::Vr.features(s)).collect();
    let ys: Vec<f64> = vr.iter().map(|s| s.stats.render_seconds).collect();
    let acc = k_fold_accuracy(&xs, &ys, 3);
    assert!(fit.r_squared() > 0.6, "R^2 = {}", fit.r_squared());
    assert!(acc.within_50 >= 60.0, "CV within-50 = {}", acc.within_50);
}

#[test]
fn rt_build_scales_with_objects() {
    let device = Device::parallel();
    let small = run_one(&device, RendererKind::RayTracing, 16, 64, 0.9).unwrap();
    let big = run_one(&device, RendererKind::RayTracing, 48, 64, 0.9).unwrap();
    assert!(big.stats.objects > small.stats.objects * 4.0);
    assert!(
        big.stats.build_seconds > small.stats.build_seconds,
        "bigger BVH must take longer: {} vs {}",
        big.stats.build_seconds,
        small.stats.build_seconds
    );
}

#[test]
fn mapping_predicts_observed_inputs_within_bounds() {
    let device = Device::parallel();
    // Calibrate from one observation per renderer.
    let obs = vec![
        run_one(&device, RendererKind::VolumeRendering, 24, 96, 0.9).unwrap(),
        run_one(&device, RendererKind::Rasterization, 24, 96, 0.9).unwrap(),
    ];
    let k = MappingConstants::calibrated(&obs);
    // Validate on a different configuration.
    let test = run_one(&device, RendererKind::VolumeRendering, 32, 128, 0.9).unwrap();
    let mapped = map_inputs(
        &RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 32,
            pixels: 128 * 128,
            tasks: 1,
        },
        &k,
    );
    // Active pixels within 2x, SPR within 2x, CS exact by construction.
    let ap_ratio = mapped.stats.active_pixels / test.stats.active_pixels;
    assert!((0.5..=2.0).contains(&ap_ratio), "AP ratio {ap_ratio}");
    let spr_ratio = mapped.stats.samples_per_ray / test.stats.samples_per_ray;
    assert!((0.5..=2.0).contains(&spr_ratio), "SPR ratio {spr_ratio}");
    assert_eq!(mapped.stats.cells_spanned, 32.0);
}

#[test]
fn feasibility_answers_have_the_papers_shape() {
    // Simulated-clock studies: the paper-shape assertions below are about
    // the fitted models' structure, and the simulated laws preserve the
    // paper's regimes while making every fit deterministic.
    let device = Device::parallel();
    let cfg = small_study();
    let rt = run_render_study_simulated(&device, RendererKind::RayTracing, &cfg).unwrap();
    let ra = run_render_study_simulated(&device, RendererKind::Rasterization, &cfg).unwrap();
    let vr = run_render_study_simulated(&device, RendererKind::VolumeRendering, &cfg).unwrap();
    let comp = run_composite_study(NetModel::cluster(), &[1, 4, 16], &[64, 192], 3).unwrap();
    let set = ModelSet::new(
        "parallel",
        [
            Family::Rt.fit(&rt),
            Family::RtBuild.fit(&rt),
            Family::Rast.fit(&ra),
            Family::Vr.fit(&vr),
            Family::Comp.fit(&comp),
        ],
    );
    let mut all = rt;
    all.extend(ra);
    all.extend(vr);
    let k = MappingConstants::calibrated(&all);

    // Figure 14 shape: more pixels -> fewer images in the budget.
    let curve = images_in_budget(
        &set,
        &k,
        RendererKind::RayTracing,
        100,
        32,
        &[512, 1024, 2048, 4096],
        60.0,
    );
    for w in curve.windows(2) {
        assert!(
            w[1].1 <= w[0].1 * 1.001,
            "images-in-budget must not increase with image size: {curve:?}"
        );
    }

    // Figure 15 shape: ray tracing is *relatively* stronger with more
    // geometry and fewer pixels.
    let map = rt_vs_rast_map(&set, &k, 32, 100, &[384, 4096], &[64, 400]);
    let get = |side: u32, n: usize| {
        map.iter().find(|c| c.image_side == side && c.cells_per_task == n).unwrap().rt_over_rast
    };
    assert!(
        get(384, 400) < get(4096, 64),
        "regime ordering: {} !< {}",
        get(384, 400),
        get(4096, 64)
    );
}
