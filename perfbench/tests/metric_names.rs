//! Metric names are well formed and agree with `BENCHMARK.json`.

use advm::wire::JsonValue;
use advm_perfbench::workloads::{TraceRun, PER_LAYER};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| m.str_field("name").unwrap().to_owned())
        .collect()
}

#[test]
fn every_metric_name_matches_the_pattern() {
    let layer = TraceRun::default().layer_metrics();
    assert_eq!(
        layer.len(),
        33,
        "the per-layer table covers every layer metric"
    );
    for name in layer.iter().map(|m| m.name).chain(PER_LAYER) {
        assert!(well_formed(name), "`{name}`");
    }
    let doc = benchmark();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&doc, key) {
            assert!(well_formed(&name), "`{name}` in {key}");
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let doc = benchmark();
    assert_eq!(names(&doc, "per_layer"), PER_LAYER);
    assert_eq!(
        names(&doc, "workloads"),
        advm_perfbench::workloads::WORKLOADS
    );
    assert_eq!(
        names(&doc, "end_to_end"),
        [
            "runs_per_s",
            "request_ms_p50",
            "request_ms_p90",
            "sim_insns_per_s",
            "setup_s",
            "peak_rss_mb"
        ]
    );
    let layer = TraceRun::default().layer_metrics();
    for name in PER_LAYER {
        assert!(
            layer.iter().any(|m| m.name == name),
            "`{name}` is never measured"
        );
    }
}
