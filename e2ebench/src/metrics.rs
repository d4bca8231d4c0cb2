//! The metric catalogue, mirrored by `BENCHMARK.json` at the repository
//! root (a test keeps the two in step).

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics (`--trace 0`), host time unless stated.
pub const END_TO_END: [Def; 12] = [
    def("wall_s", "s", "lower"),
    def("wall_s_w2", "s", "lower"),
    def("events_per_s", "1/s", "higher"),
    def("points_per_s", "1/s", "higher"),
    def("jobs_per_s", "1/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("job_p50_ms", "ms", "lower"),
    def("job_p95_ms", "ms", "lower"),
    def("cold_p50_ms", "ms", "lower"),
    def("mem_hit_p50_ms", "ms", "lower"),
    def("disk_hit_p50_ms", "ms", "lower"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: [Def; 57] = [
    def("host.calibration_ns", "ns", "lower"),
    def("host.nproc", "count", "higher"),
    def("core.validate_ms", "ms", "lower"),
    def("core.spec_codec_us", "us", "lower"),
    def("core.digest_us", "us", "lower"),
    def("core.net_config_ms", "ms", "lower"),
    def("core.driver_ms", "ms", "lower"),
    def("core.presets_failed", "count", "lower"),
    def("workload.program_ms", "ms", "lower"),
    def("fault.compile_ms", "ms", "lower"),
    def("fault.compiles", "count", "lower"),
    def("modular.build_ms", "ms", "lower"),
    def("modular.builds", "count", "lower"),
    def("net.sim_ms", "ms", "lower"),
    def("net.events", "count", "lower"),
    def("net.ns_per_event", "ns", "lower"),
    def("net.makespan_us_sum", "us", "lower"),
    def("net.stalls", "count", "lower"),
    def("net.points", "count", "higher"),
    def("sweep.overhead_ms", "ms", "lower"),
    def("sweep.point_ms_p50", "ms", "lower"),
    def("sweep.point_ms_max", "ms", "lower"),
    def("sweep.scaling_eff", "ratio", "higher"),
    def("sweep.emit_ms", "ms", "lower"),
    def("sweep.record_codec_ms", "ms", "lower"),
    def("serve.store_ms", "ms", "lower"),
    def("serve.load_ms", "ms", "lower"),
    def("serve.overhead_ms", "ms", "lower"),
    def("serve.hit_ratio", "ratio", "higher"),
    def("serve.submitted", "count", "higher"),
    def("serve.rejected", "count", "lower"),
    def("serve.computed", "count", "lower"),
    def("serve.hits.memory", "count", "higher"),
    def("serve.hits.disk", "count", "higher"),
    def("serve.coalesced", "count", "higher"),
    def("serve.failed", "count", "lower"),
    def("serve.cancelled", "count", "lower"),
    def("serve.cache.errors", "count", "lower"),
    def("trace.wall_s", "s", "lower"),
    def("trace.traced_s", "s", "lower"),
    def("trace.gap_frac", "ratio", "lower"),
    def("trace.spans", "count", "lower"),
    def("trace.passes", "count", "higher"),
    def("core.preset_wall_s.fig10", "s", "lower"),
    def("core.preset_wall_s.fig11", "s", "lower"),
    def("core.preset_wall_s.fig12", "s", "lower"),
    def("core.preset_wall_s.fig16", "s", "lower"),
    def("core.preset_wall_s.topology_faceoff", "s", "lower"),
    def("core.preset_wall_s.qft_torus", "s", "lower"),
    def("core.preset_wall_s.qft_hypercube", "s", "lower"),
    def("core.preset_wall_s.shor_kernel", "s", "lower"),
    def("core.preset_wall_s.synthetic_stress", "s", "lower"),
    def("core.preset_wall_s.resilience_sweep", "s", "lower"),
    def("core.preset_wall_s.degraded_faceoff", "s", "lower"),
    def("core.preset_wall_s.modular_faceoff", "s", "lower"),
    def("core.preset_wall_s.cost_fidelity_pareto", "s", "lower"),
    def("core.preset_wall_s.design_space", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use qic::sweep::json::{get, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let fields = doc.obj_of("BENCHMARK.json").unwrap();
        get(fields, key, "BENCHMARK.json")
            .unwrap()
            .arr_of(key)
            .unwrap()
            .iter()
            .map(|m| {
                let f = m.obj_of(key).unwrap();
                let s = |k: &str| get(f, k, key).unwrap().str_of(k).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn every_registry_preset_has_a_wall_time_metric() {
        let timed: Vec<&str> = PER_LAYER
            .iter()
            .filter_map(|d| d.name.strip_prefix("core.preset_wall_s."))
            .collect();
        let registry: Vec<&str> = qic::core::scenario::ScenarioRegistry::builtin()
            .entries()
            .iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(timed, registry);
    }
}
