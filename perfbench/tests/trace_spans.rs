//! Spans recorded around layer calls nest, and self times add up.

use advm::presets;
use advm_perfbench::replay::{self, Counts, StoreModel};
use advm_perfbench::trace::Tracer;
use advm_soc::PlatformId;

#[test]
fn replayed_campaign_spans_nest_with_nonnegative_self_times() {
    let envs = vec![presets::crc_env(presets::default_config())];
    let mut tracer = Tracer::new();
    tracer.set_request(7);
    let root = tracer.open("replay");
    let (verdict, violations) = replay::campaign(
        &mut tracer,
        &envs,
        &[PlatformId::GoldenModel, PlatformId::RtlSim],
        &mut StoreModel::default(),
        &[],
        &mut Counts::default(),
    )
    .unwrap();
    tracer.close(root);
    assert_eq!((verdict.runs, verdict.failed, violations), (4, 0, 0));
    tracer.check_nesting().unwrap();

    let spans = tracer.spans();
    assert!(spans.iter().all(|s| s.request == 7));
    assert!(spans[1..].iter().all(|s| s.parent.is_some()), "one root");
    let own = tracer.self_ns();
    let table = tracer.table();
    assert!(table
        .values()
        .all(|row| row.self_ms >= 0.0 && row.self_ms <= row.total_ms + 1e-9));
    // Self times partition the root's wall exactly.
    assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    for layer in [
        "asm.preprocess",
        "asm.parse",
        "asm.encode",
        "sim.run",
        "sim.compare",
    ] {
        assert!(table.contains_key(layer), "no `{layer}` span");
    }
}

#[test]
fn chrome_trace_carries_every_span_with_its_parent_and_request() {
    let mut tracer = Tracer::new();
    tracer.set_request(3);
    let outer = tracer.open("request");
    tracer.leaf("asm.parse", || std::hint::black_box(1 + 1));
    tracer.close(outer);
    tracer.check_nesting().unwrap();
    let json = tracer.chrome_json();
    let doc = advm::wire::JsonValue::parse(&json).unwrap();
    let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert_eq!(events.len(), 2);
    let child = &events[1];
    assert_eq!(child.str_field("name").unwrap(), "asm.parse");
    assert_eq!(child.str_field("ph").unwrap(), "X");
    let args = child.get("args").unwrap();
    assert_eq!(args.u64_field("parent").unwrap(), 0);
    assert_eq!(args.u64_field("request").unwrap(), 3);
}

#[test]
fn misnested_spans_are_rejected() {
    let mut tracer = Tracer::new();
    let open = tracer.open("request");
    assert!(
        tracer.check_nesting().is_err(),
        "an open span is not a finished trace"
    );
    tracer.close(open);
    tracer.check_nesting().unwrap();
}
