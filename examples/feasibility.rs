//! Answer the paper's feasibility question end-to-end:
//! *is it possible to perform X1 rendering tasks while devoting no more than
//! X2 time to them?*
//!
//! Runs a quick performance study, fits the six single-node models plus the
//! compositing model, and uses them to answer the two Section 5.9 questions.

use dpp::Device;
use mpirt::NetModel;
use perfmodel::feasibility::{images_in_budget, rt_vs_rast_map, ModelSet};
use perfmodel::mapping::MappingConstants;
use perfmodel::models::Family;
use perfmodel::sample::RendererKind;
use perfmodel::study::{run_composite_study, run_render_study, StudyConfig};

fn main() {
    println!("running the quick performance study (this renders ~70 test frames)...");
    let study = StudyConfig::quick();
    let device = Device::parallel();
    let rt = run_render_study(&device, RendererKind::RayTracing, &study).unwrap();
    let ra = run_render_study(&device, RendererKind::Rasterization, &study).unwrap();
    let vr = run_render_study(&device, RendererKind::VolumeRendering, &study).unwrap();
    let comp = run_composite_study(NetModel::cluster(), &[1, 2, 4, 8, 16, 32], &[128, 256, 512], 7)
        .unwrap();

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
    let fits: Vec<String> =
        set.models().map(|m| format!("{} R^2={:.3}", m.name(), m.r_squared())).collect();
    println!("model fits: {}", fits.join("  "));

    let mut all = rt.clone();
    all.extend(ra.clone());
    all.extend(vr.clone());
    let k = MappingConstants::calibrated(&all);
    println!(
        "mapping constants: fill={:.2}  ppt={:.1}  spr_base={:.0}\n",
        k.ap_fill, k.ppt_factor, k.spr_base
    );

    // Question 1 (Figure 14): how many images fit in a 60-second budget?
    println!("Q1: images renderable in 60 s (32 tasks, 200^3 cells/task):");
    println!("{:>10}  {:>12} {:>12} {:>12}", "image", "raytrace", "rasterize", "volume");
    let sides = [512u32, 1024, 2048, 4096];
    let per: Vec<Vec<(u32, f64)>> =
        [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
            .iter()
            .map(|&r| images_in_budget(&set, &k, r, 200, 32, &sides, 60.0))
            .collect();
    for (i, &side) in sides.iter().enumerate() {
        println!(
            "{:>8}^2  {:>12.0} {:>12.0} {:>12.0}",
            side, per[0][i].1, per[1][i].1, per[2][i].1
        );
    }

    // Question 2 (Figure 15): when does ray tracing beat rasterization?
    println!("\nQ2: T_RT / T_RAST for 100 renders (<1 = ray tracing wins):");
    let sides = [384u32, 1024, 2048, 4096];
    let datas = [100usize, 250, 500];
    let map = rt_vs_rast_map(&set, &k, 32, 100, &sides, &datas);
    print!("{:>12}", "cells\\image");
    for s in sides {
        print!(" {s:>9}^2");
    }
    println!();
    for n in datas {
        print!("{:>11}^3", n);
        for s in sides {
            let cell = map.iter().find(|c| c.image_side == s && c.cells_per_task == n).unwrap();
            print!(" {:>11.2}", cell.rt_over_rast);
        }
        println!();
    }
    println!("\n(expect ray tracing to win toward the bottom-left: heavy geometry, few pixels)");
}
