//! The measured finding behind `serve_warm`'s sizing: a fuzz `--mine`
//! job whose plan exceeds the daemon's 256-slot store gets no artifact
//! hits when resubmitted unchanged (LRU scan thrash), while one under
//! capacity hits on every image. Slow in a debug build; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.

use advm::wire::JsonValue;
use advm_serve::{Daemon, DaemonConfig, JobSpec};

/// `(unique_builds, artifact_hits)` of the second of two identical
/// submissions of a `programs`-program fuzz --mine job.
fn resubmitted(programs: u64) -> (u64, u64) {
    let daemon = Daemon::start(DaemonConfig::default());
    let spec = JobSpec::Fuzz {
        programs: Some(programs),
        seed: Some(0xADF0_2004),
        mine: true,
        platforms: Vec::new(),
        all_platforms: true,
        workers: None,
        fuel: None,
    };
    let mut last = (0, 0);
    for _ in 0..2 {
        let id = daemon.submit(spec.clone());
        let done = daemon.job(id).unwrap().wait();
        let value = JsonValue::parse(&done).unwrap();
        let campaign = value.get("report").and_then(|r| r.get("campaign")).unwrap();
        last = (
            campaign
                .get("cache")
                .unwrap()
                .u64_field("unique_builds")
                .unwrap(),
            campaign
                .get("perf")
                .unwrap()
                .u64_field("artifact_hits")
                .unwrap(),
        );
    }
    daemon.join();
    last
}

#[test]
#[ignore = "runs two 64-program fuzz jobs; use --release -- --ignored"]
fn over_capacity_fuzz_job_thrashes_the_store() {
    assert_eq!(resubmitted(64), (320, 0));
    assert_eq!(resubmitted(32), (160, 160));
}
