//! The metric catalog: every end-to-end and per-layer metric a run
//! prints, with its unit. `BENCHMARK.json` at the repository root lists
//! the same names (checked by the test below).

use crate::matrix::SUTS;
use crate::workload::CLASSES;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them (see NOTES.md for how each is measured per workload).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_ops_s", "1/s"),
    ("read_p99_us", "us"),
    ("point_lookup_p50_us", "us"),
    ("one_hop_p50_us", "us"),
    ("two_hop_p50_us", "us"),
    ("shortest_path_p50_us", "us"),
    ("short_read_p50_us", "us"),
    ("complex_read_p50_us", "us"),
    ("update_ops_s", "1/s"),
];

/// Per-layer metrics: `(name, unit, better)`. A traced run reports all
/// of them; a layer its workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add =
        |name: String, unit: &'static str, better: &'static str| v.push((name, unit, better));
    for sut in SUTS {
        for class in CLASSES {
            add(format!("adapter.{sut}.{class}_mean_us"), "us", "lower");
        }
    }
    for sut in SUTS {
        add(format!("adapter.{sut}.load_s"), "s", "lower");
        add(format!("adapter.{sut}.warmup_s"), "s", "lower");
    }
    add("datagen.generate_s".into(), "s", "lower");
    add("native.setup_folds".into(), "count", "lower");
    for k in ["foaf_posts", "mutual_friends", "recent_messages"] {
        add(format!("complex.kernel.{k}_mean_us"), "us", "lower");
    }
    for sut in ["cypher", "pg_sql", "virt_sql"] {
        add(format!("cache.adapter.{sut}.hit_rate"), "ratio", "higher");
    }
    for sut in ["cypher", "pg_sql"] {
        add(
            format!("cache.adapter.{sut}.stale_evicted"),
            "count",
            "lower",
        );
    }
    for class in CLASSES {
        for rung in ["tcp", "server", "exec", "store"] {
            add(format!("ladder.{class}.{rung}_us"), "us", "lower");
        }
        add(
            format!("ladder.{class}.store_calls_per_op"),
            "count",
            "lower",
        );
    }
    add("cache.reactor.hit_rate".into(), "ratio", "higher");
    add("cache.reactor.bypass".into(), "count", "lower");
    add("cache.reactor.stale_served".into(), "count", "lower");
    for sut in ["cypher", "pg_sql"] {
        add(format!("ingest.{sut}.batch_apply_mean_us"), "us", "lower");
        add(format!("ingest.{sut}.batch_apply_p99_us"), "us", "lower");
        add(format!("ingest.{sut}.batches"), "count", "lower");
        add(format!("ingest.{sut}.errors"), "count", "lower");
        add(format!("ingest.{sut}.drain_s"), "s", "lower");
        add(format!("ingest.{sut}.short_read_mean_us"), "us", "lower");
        add(format!("ingest.{sut}.complex_read_mean_us"), "us", "lower");
    }
    add("native.drain_csr_folds".into(), "count", "lower");
    add("native.drain_fold_lock_sessions".into(), "count", "lower");
    add("native.drain_write_seq".into(), "count", "higher");
    add("harness.sched_late_p99_us".into(), "us", "lower");
    add("harness.sched_read_p99_us".into(), "us", "lower");
    add("harness.trace_overhead_pct".into(), "%", "lower");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_fits_the_contract_and_matches_benchmark_json() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(layers.iter().map(|(n, _, _)| n.as_str()));
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (n, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{unit}\"")),
                "{n}"
            );
        }
        for (n, unit, better) in &layers {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{n}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
                )),
                "{n}"
            );
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            names.len() + 3,
            "3 workloads + every metric"
        );
    }
}
