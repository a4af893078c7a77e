//! The benchmark's vocabulary: the names of the workloads and of every metric
//! a run prints, with units. `BENCHMARK.json` at the repo root is the contract
//! (it adds the direction and bound of each metric and why each workload
//! exists); a unit test holds the names and units here equal to it. A metric
//! that is not in these tables is never printed.

/// The names `workloads::build` knows.
pub const WORKLOADS: [&str; 5] = [
    "insitu_surface",
    "insitu_volume_structured",
    "insitu_volume_unstructured",
    "sortlast_composite",
    "feasd_serve",
];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cycle_s_p50", "s"),
    ("delivered_per_s", "1/s"),
    ("cpu_s_per_cycle", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, grouped by the crate they measure. A
/// name ending in `_s` is busy seconds per call (median over cycles or
/// repeats); `_ms`, `_us`, `_ns` are per call or per item. A workload's
/// traced run reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 99] = [
    // sims (context only: the step is not part of any cycle time)
    ("sims.step_s", "s"),
    // conduit
    ("conduit.describe_s", "s"),
    ("conduit.json_parse_us", "us"),
    // strawman
    ("strawman.publish_s", "s"),
    ("strawman.execute_s", "s"),
    ("strawman.render_s", "s"),
    ("strawman.save_s", "s"),
    ("strawman.png_encode_s", "s"),
    ("strawman.unattributed_frac", "ratio"),
    ("strawman.composite_rk_z_s", "s"),
    ("strawman.composite_rk_a_s", "s"),
    ("strawman.composite_dfb_z_s", "s"),
    ("strawman.composite_dfb_a_s", "s"),
    ("strawman.rank_image_convert_s", "s"),
    // mesh
    ("mesh.external_faces_s", "s"),
    ("mesh.hex_to_tets_s", "s"),
    ("mesh.partition_bisect_s", "s"),
    ("mesh.partitioned_tris_s", "s"),
    // render: ray tracer
    ("render.rt.geometry_s", "s"),
    ("render.rt.bvh_build_s", "s"),
    ("render.rt.trace_close_s", "s"),
    ("render.rt.trace_far_s", "s"),
    ("render.rt.ray_gen_s", "s"),
    ("render.rt.intersect_s", "s"),
    ("render.rt.shade_s", "s"),
    ("render.rt.rays_traced", "count"),
    ("render.rt.active_pixels_close", "count"),
    ("render.rt.active_pixels_far", "count"),
    ("render.rt.mrays_per_s", "Mrays/s"),
    // render: rasterizer
    ("render.raster.total_s", "s"),
    ("render.raster.transform_cull_s", "s"),
    ("render.raster.bin_fill_s", "s"),
    ("render.raster.sample_fill_s", "s"),
    // render: structured volume
    ("render.svr.raycast_s", "s"),
    ("render.svr.samples", "count"),
    // render: unstructured volume
    ("render.uvr.total_s", "s"),
    ("render.uvr.initialization_s", "s"),
    ("render.uvr.pass_selection_s", "s"),
    ("render.uvr.screen_space_s", "s"),
    ("render.uvr.sampling_s", "s"),
    ("render.uvr.compositing_s", "s"),
    // render: frame graph (not on the in situ path today; the baseline the
    // "one render path" change must beat)
    ("render.graph.rt_cold_s", "s"),
    ("render.graph.rt_warm_s", "s"),
    ("render.graph.cache_hit_frac", "ratio"),
    ("render.graph.peak_live_frac", "ratio"),
    // dpp primitives, n = 2^20, on the workload's device
    ("dpp.map_s", "s"),
    ("dpp.gather_s", "s"),
    ("dpp.scatter_s", "s"),
    ("dpp.reduce_s", "s"),
    ("dpp.exclusive_scan_s", "s"),
    ("dpp.compact_s", "s"),
    ("dpp.sort_pairs_u64_s", "s"),
    ("dpp.parallel_speedup", "ratio"),
    ("dpp.par_min_len", "count"),
    ("dpp.fold_grain", "count"),
    ("dpp.overpartition", "count"),
    // compositing, direct calls on the 32-rank fragment sets
    ("compositing.radix_k_z_s", "s"),
    ("compositing.radix_k_a_s", "s"),
    ("compositing.binary_swap_z_s", "s"),
    ("compositing.binary_swap_a_s", "s"),
    ("compositing.direct_send_z_s", "s"),
    ("compositing.direct_send_a_s", "s"),
    ("compositing.dfb_z_s", "s"),
    ("compositing.dfb_a_s", "s"),
    ("compositing.radix_k_dense_z_s", "s"),
    ("compositing.rle_encode_s", "s"),
    ("compositing.rle_merge_s", "s"),
    ("compositing.wire_bytes_rk", "bytes"),
    ("compositing.wire_bytes_dfb", "bytes"),
    ("compositing.compression_ratio", "ratio"),
    ("compositing.rounds", "count"),
    ("compositing.sim_seconds_rk", "s"),
    ("compositing.sim_seconds_dfb", "s"),
    // mpirt
    ("mpirt.event_msg_ns", "ns"),
    ("mpirt.lockstep_round_us", "us"),
    // perfmodel
    ("perfmodel.fstable_probe_ns", "ns"),
    ("perfmodel.predict_batch_ns", "ns"),
    ("perfmodel.precompute_s", "s"),
    ("perfmodel.fit_ms", "ms"),
    ("perfmodel.fst_encode_ms", "ms"),
    ("perfmodel.fst_decode_ms", "ms"),
    ("perfmodel.persist_roundtrip_ms", "ms"),
    // sched
    ("sched.admit_us", "us"),
    ("sched.observe_us", "us"),
    ("sched.end_cycle_us", "us"),
    ("sched.pred_abs_rel_err_p50", "ratio"),
    // feasd
    ("feasd.submit_ns", "ns"),
    ("feasd.pump_batch_us", "us"),
    ("feasd.install_models_ms", "ms"),
    ("feasd.wire_parse_us", "us"),
    ("feasd.wire_format_us", "us"),
    ("feasd.hit_frac", "ratio"),
    ("feasd.shed_frac", "ratio"),
    ("feasd.generations", "count"),
    // harness
    ("harness.cycle_s_p90", "s"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.calibration_ms", "raw_ms"),
    ("harness.threads", "count"),
    ("harness.cores", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let metrics = END_TO_END.iter().chain(&PER_LAYER);
        for name in WORKLOADS.into_iter().chain(metrics.clone().map(|m| m.0)) {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, unit) in metrics {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// `BENCHMARK.json` and these tables list the same names and units.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = spec.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
        let list = |key: &str| spec.get(key).unwrap().as_arr().to_vec();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        for w in list("workloads") {
            let why = field(&w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let pairs = |key: &str| -> Vec<(String, String)> {
            list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(pairs("end_to_end"), owned(&END_TO_END));
        assert_eq!(pairs("per_layer"), owned(&PER_LAYER));
        for m in list("end_to_end").iter().chain(&list("per_layer")) {
            assert!(matches!(field(m, "better").as_str(), "lower" | "higher"));
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound out of range", field(&m, "name"));
        }
        let paths: Vec<String> =
            list("paths").iter().filter_map(|p| p.as_str().map(String::from)).collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
