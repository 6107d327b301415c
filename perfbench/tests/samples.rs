//! A run too short to leave ten samples beyond p90 is an error.

use advm_perfbench::stats::{latency, MIN_TAIL};
use advm_perfbench::workloads::{self, Args};

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=99).map(f64::from).collect();
    let err = latency(&samples).unwrap_err();
    assert!(err.contains("beyond p90"), "{err}");
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let lat = latency(&samples).unwrap();
    assert_eq!((lat.p50, lat.p90, lat.samples), (50.0, 90.0, 100));
    assert_eq!(MIN_TAIL, 10);
}

#[test]
fn a_one_second_run_is_refused_rather_than_reported() {
    let args = Args {
        workload: "port_cold".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
    };
    let err = workloads::run(&args).unwrap_err();
    assert!(err.contains("beyond p90"), "{err}");
}
