//! The metric catalog: every name the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step). A run reports every end-to-end metric with `--trace 0` and every
//! per-layer metric with `--trace 1`; a per-layer metric reads 0 on a
//! workload that does not exercise its layer (no engine phases on the
//! serve workloads, no server counters on the simulation workloads).

use pytorchsim::common::json::Json;
use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, in report order.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_ms", "ms"), ("ops_per_s", "1/s"), ("sim_mcycles_per_s", "Mcycle/s")];

/// `(name, unit)` of the per-layer metrics, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    // togsim: the engine's own phase counters on one traced rep.
    ("togsim.issue_share", "share"),
    ("togsim.dram_advance_share", "share"),
    ("togsim.noc_advance_share", "share"),
    ("togsim.collect_share", "share"),
    ("togsim.issue_ns_per_event", "ns"),
    ("togsim.host_ns_per_event", "ns"),
    ("togsim.iterations", "count"),
    ("togsim.events_drained", "count"),
    ("togsim.cores_woken", "count"),
    ("togsim.parallel2_ratio", "ratio"),
    ("togsim.reference_ratio", "ratio"),
    // dram
    ("dram.host_ns_per_tx", "ns"),
    ("dram.ns_per_tx_stream", "ns"),
    ("dram.ns_per_tx_scatter", "ns"),
    ("dram.ns_per_tx_fcfs", "ns"),
    ("dram.transactions", "count"),
    ("dram.row_hits", "count"),
    ("dram.row_conflicts", "count"),
    ("dram.mean_latency_cycles", "cycles"),
    // noc
    ("noc.host_ns_per_msg", "ns"),
    ("noc.ns_per_msg_crossbar", "ns"),
    ("noc.ns_per_msg_simple", "ns"),
    ("noc.messages", "count"),
    ("noc.mean_latency_cycles", "cycles"),
    // event
    ("event.sched_step_ns", "ns"),
    ("event.queue_push_pop_ns", "ns"),
    // models, compiler, timingsim, funcsim
    ("models.build_ms", "ms"),
    ("compiler.capture_ms", "ms"),
    ("compiler.plan_ms", "ms"),
    ("compiler.emit_cold_ms", "ms"),
    ("compiler.emit_warm_ms", "ms"),
    ("compiler.kernels_measured", "count"),
    ("compiler.tog_nodes", "count"),
    ("timingsim.measure_us_per_kernel", "us"),
    ("timingsim.ns_per_instr", "ns"),
    ("funcsim.run_us_per_kernel", "us"),
    ("funcsim.ns_per_instr", "ns"),
    // obs, trace
    ("obs.counters_on_ratio", "ratio"),
    ("obs.wall_profiled_ms", "ms"),
    ("obs.record_dram_tx_ns", "ns"),
    ("obs.attribute_ms", "ms"),
    ("trace.tracer_on_ratio", "ratio"),
    // core
    ("core.compile_ms", "ms"),
    ("core.run_self_ms", "ms"),
    ("core.compile_cache_hit_ns", "ns"),
    ("core.runspec_parse_ns", "ns"),
    ("core.sweep_j2_speedup_x", "x"),
    // serve, common
    ("serve.http_parse_ns", "ns"),
    ("serve.response_write_ns", "ns"),
    ("serve.rescache_get_ns", "ns"),
    ("serve.rescache_insert_ns", "ns"),
    ("serve.report_json_ns", "ns"),
    ("common.json_parse_ns_per_kb", "ns"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.run_us_p50", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.coalesced", "count"),
    ("serve.result_cache_hit_rate", "share"),
    ("serve.compile_cache_hit_rate", "share"),
    ("serve.conc2_req_per_s", "1/s"),
    // allocator and memory, accuracy, tracing overhead
    ("alloc.count_per_kevent", "count"),
    ("alloc.bytes_per_rep", "bytes"),
    ("mem.peak_rss_mb", "MiB"),
    ("accuracy.tls_err_pct", "%"),
    ("trace_overhead_ratio", "ratio"),
];

/// Per-layer metrics that are deterministic: simulated work counts and the
/// simulated accuracy figure. Two runs of one commit must agree on them
/// exactly, so a later change may rest a claim on them as counts.
pub const EXACT: &[&str] = &[
    "togsim.iterations",
    "togsim.events_drained",
    "togsim.cores_woken",
    "dram.transactions",
    "dram.row_hits",
    "dram.row_conflicts",
    "noc.messages",
    "compiler.kernels_measured",
    "compiler.tog_nodes",
    "accuracy.tls_err_pct",
];

/// The values of one run, for one of the two catalogs.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalog: &'static [(&'static str, &'static str)],
    /// End-to-end values must all be set and positive; per-layer ones
    /// default to 0.
    required: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty end-to-end set; every metric must be set before rendering.
    pub fn end_to_end() -> Self {
        Metrics { catalog: END_TO_END, required: true, values: BTreeMap::new() }
    }

    /// A per-layer set; metrics never set read 0.
    pub fn per_layer() -> Self {
        Metrics { catalog: PER_LAYER, required: false, values: BTreeMap::new() }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in this set's catalog — a typo in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .catalog
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.values.insert(key, value);
    }

    /// `(name, value, unit)` in catalog order; unset values read 0.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.catalog
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// End-to-end metrics that were never set or are not positive finite
    /// numbers (the contract wants them never 0).
    pub fn missing(&self) -> Vec<&'static str> {
        if !self.required {
            return Vec::new();
        }
        self.catalog
            .iter()
            .filter(|(name, _)| !self.values.get(name).is_some_and(|v| v.is_finite() && *v > 0.0))
            .map(|(name, _)| *name)
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> Json {
        self.rows().into_iter().fold(Json::obj(), |j, (name, value, unit)| {
            j.set(name, Json::obj().set("value", Json::num(value)).set("unit", Json::str(unit)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytorchsim::common::json::parse_json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(ok(name, "_.-", 64) && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "unit {unit:?} of {name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|(n, _)| n == e)));
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics (names and units) this binary reports.
    #[test]
    fn benchmark_json_declares_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| (m.req_str("name").unwrap().into(), m.req_str("unit").unwrap().into()))
                .collect();
            let ours: Vec<(String, String)> =
                catalog.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.req_str("name").unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn unset_per_layer_reads_zero_and_unset_end_to_end_is_missing() {
        let mut m = Metrics::per_layer();
        m.set("dram.transactions", 5.0);
        let rows = m.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("dram.transactions", 5.0, "count")));
        assert!(rows.contains(&("noc.messages", 0.0, "count")));
        assert!(m.missing().is_empty());
        let mut e = Metrics::end_to_end();
        e.set("setup_s", 1.5);
        e.set("p50_ms", 0.0);
        assert!(!e.missing().contains(&"setup_s"));
        assert!(e.missing().contains(&"p50_ms") && e.missing().contains(&"ops_per_s"));
        let parsed = parse_json(&e.to_json().render()).unwrap();
        assert_eq!(parsed.get("setup_s").unwrap().req_num("value").unwrap(), 1.5);
        assert_eq!(parsed.get("setup_s").unwrap().req_str("unit").unwrap(), "s");
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn setting_an_unknown_metric_panics() {
        Metrics::per_layer().set("dram.typo", 1.0);
    }
}
