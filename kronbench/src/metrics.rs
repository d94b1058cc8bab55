//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root carries the
//! same tables (plus the regression bounds); a unit test keeps the two
//! in step.

use crate::workloads::{EndToEnd, Observed};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better)` of the end-to-end metrics, reported by every
/// workload's untraced run.
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("setup_s", "s", Lower),
    ("ops_per_s", "1/s", Higher),
    ("p50_us", "us", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("bytes_per_entry", "B", Lower),
];

pub fn end_to_end_values(e: &EndToEnd) -> [f64; 5] {
    [
        e.setup_s,
        e.ops_per_s,
        e.p50_us,
        e.peak_rss_mb,
        e.bytes_per_entry,
    ]
}

/// Per-layer metrics counted on the traced workload itself. A layer the
/// workload does not have reads 0 (no cache on `point_http`, no router
/// outside `cluster_routed`).
pub const OBSERVED: [(&str, &str, Better); 14] = [
    ("wl.tail_us", "us", Lower),
    ("wl.tail_percentile", "count", Higher),
    ("wl.samples_per_slice", "count", Higher),
    ("wl.units", "count", Higher),
    ("wl.cache_hit_rate", "ratio", Higher),
    ("wl.remote_fetches_per_op", "count", Lower),
    ("wl.router_failovers", "count", Lower),
    ("wl.router_forward_errors", "count", Lower),
    ("wl.verify_entries_per_s", "1/s", Higher),
    ("wl.open_s", "s", Lower),
    ("proc.cpu_us_per_unit", "us", Lower),
    ("proc.peak_rss_mb", "MB", Lower),
    ("trace.overhead_frac", "ratio", Lower),
    ("trace.spans", "count", Higher),
];

pub fn observed_values(o: &Observed, peak_rss_mb: f64, spans: usize) -> [f64; 14] {
    [
        o.tail_us,
        o.tail_pct as f64,
        o.samples_per_slice as f64,
        o.units as f64,
        o.cache_hit_rate,
        o.remote_fetches_per_op,
        o.router_failovers as f64,
        o.router_forward_errors as f64,
        o.verify_entries_per_s,
        o.open_s,
        o.cpu_us_per_unit,
        peak_rss_mb,
        o.trace_overhead_frac,
        spans as f64,
    ]
}

/// Per-layer metrics measured on the probe rig (`probes.rs`): the same
/// fixed-size inputs whatever workload is being traced, so each reads
/// the same thing in all six traced runs.
pub const PROBES: [(&str, &str, Better); 61] = [
    ("proc.cores", "count", Higher),
    ("core.row_iter_ns_per_entry", "ns", Lower),
    ("core.plan_s", "s", Lower),
    ("core.closed_form_tri_ns", "ns", Lower),
    ("stream.driver.count_entries_per_s", "1/s", Higher),
    ("stream.driver.shard_skew", "ratio", Lower),
    ("stream.driver.threads_speedup", "ratio", Higher),
    ("stream.sink.csr2_ns_per_entry", "ns", Lower),
    ("stream.sink.csr_v1_entries_per_s", "1/s", Higher),
    ("stream.csr.encode_vd_ns_per_entry", "ns", Lower),
    ("stream.csr.decode_vd_ns_per_entry", "ns", Lower),
    ("stream.verify.rehash_s", "s", Lower),
    ("stream.open.verified_s", "s", Lower),
    ("stream.open.unverified_s", "s", Lower),
    ("stream.compact.entries_per_s", "1/s", Higher),
    ("serve.http.parse_ns", "ns", Lower),
    ("serve.http.encode_ns", "ns", Lower),
    ("serve.http.query_parse_ns", "ns", Lower),
    ("serve.http.healthz_us_p50", "us", Lower),
    ("serve.http.handler_us_p50", "us", Lower),
    ("serve.event_loop.overhead_us", "us", Lower),
    ("serve.event_loop.qps_conns2", "1/s", Higher),
    ("serve.engine.degree_ns", "ns", Lower),
    ("serve.engine.neighbors_ns", "ns", Lower),
    ("serve.engine.has_edge_ns", "ns", Lower),
    ("serve.engine.tri_edge_ns", "ns", Lower),
    ("serve.engine.tri_vertex_ns", "ns", Lower),
    ("serve.engine.degree_v1_ns", "ns", Lower),
    ("serve.engine.neighbors_v1_ns", "ns", Lower),
    ("serve.engine.has_edge_v1_ns", "ns", Lower),
    ("serve.engine.tri_edge_v1_ns", "ns", Lower),
    ("serve.engine.tri_vertex_v1_ns", "ns", Lower),
    ("serve.engine.wedge_checks_per_tri_vertex", "count", Lower),
    ("triangles.intersect_ns_per_elem", "ns", Lower),
    ("serve.batch.lines_per_s", "1/s", Higher),
    ("serve.cache.hit_rate", "ratio", Higher),
    ("serve.cache.get_ns", "ns", Lower),
    ("serve.cache.insert_ns", "ns", Lower),
    ("serve.cache.speedup_hot", "ratio", Higher),
    ("serve.cluster.remote_fetches_per_query", "count", Lower),
    ("serve.cluster.row_wire_bytes_per_row", "B", Lower),
    ("serve.cluster.row_fetch_us_p50", "us", Lower),
    ("serve.router.hop_us", "us", Lower),
    ("serve.router.failovers", "count", Lower),
    ("serve.router.forward_errors", "count", Lower),
    ("serve.path.path_us_p50", "us", Lower),
    ("serve.path.khop_us_p50", "us", Lower),
    ("serve.path.rows_per_path", "count", Lower),
    ("serve.jobs.entries_per_s", "1/s", Higher),
    ("serve.jobs.submit_us", "us", Lower),
    ("serve.jobs.query_p50_under_job_us", "us", Lower),
    ("serve.jobs.query_p99_under_job_us", "us", Lower),
    ("serve.jobs.entries_per_s_under_load", "1/s", Higher),
    ("serve.oracle.load_s", "s", Lower),
    ("serve.oracle.tri_vertex_ns", "ns", Lower),
    ("analyze.bfs_s", "s", Lower),
    ("analyze.cc_s", "s", Lower),
    ("analyze.pagerank_s_per_iter", "s", Lower),
    ("analyze.census_s", "s", Lower),
    ("analyze.threads_speedup", "ratio", Higher),
    ("probe.total_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use kron_stream::json::Json;

    /// Every per-layer metric, in the order the traced run prints them.
    fn per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
        OBSERVED.into_iter().chain(PROBES)
    }

    fn as_str(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The contract file and the code must name the same metrics and
    /// workloads, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let rows = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
        let field = |row: &Json, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();
        let check = |key: &str, table: Vec<(&str, &str, Better)>, bounded: bool| {
            let rows = rows(key);
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, (name, unit, better)) in rows.iter().zip(table) {
                assert!(name_ok(name), "{name}");
                assert!(unit.len() <= 16);
                assert_eq!(field(row, "name"), name);
                assert_eq!(field(row, "unit"), unit, "{name}");
                assert_eq!(field(row, "better"), as_str(better), "{name}");
                let bound = row.get("bound").and_then(Json::as_f64);
                assert_eq!(bound.is_some(), bounded, "{name}");
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{name}");
            }
        };
        check("end_to_end", END_TO_END.to_vec(), true);
        check("per_layer", per_layer().collect(), false);
        assert!(per_layer().count() <= 128);

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (row, (name, why)) in workloads.iter().zip(crate::workloads::WORKLOADS) {
            assert!(name_ok(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "why"), why);
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(per_layer().map(|m| m.0))
            .collect();
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
