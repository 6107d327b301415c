//! A seed the reference was not produced from yields the same verdicts:
//! the seed varies order, names and data, never the work a request does.

use std::collections::BTreeSet;

use advm::env::EnvConfig;
use advm::porting::port_env;
use advm::Campaign;
use advm_perfbench::inputs::{self, ServeRequest};
use advm_perfbench::verdict::{Reference, Verdict};
use advm_perfbench::workloads::exec_long;
use advm_soc::PlatformId;

const HELD_OUT: u64 = 0x5EED_0FF5;

#[test]
fn exec_long_cells_keep_their_verdicts_under_a_held_out_seed() {
    let reference = Reference::committed("exec_long").unwrap();
    let envs = inputs::exec_long(HELD_OUT);
    let keys: BTreeSet<&str> = envs.iter().map(exec_long::key).collect();
    assert_eq!(keys.len(), reference.requests.len());
    let default = inputs::exec_long(1);
    assert_ne!(
        envs[0].cells()[0].source(),
        default
            .iter()
            .find(|e| e.name() == envs[0].name())
            .unwrap()
            .cells()[0]
            .source(),
        "the seed changes the cell data"
    );
    for env in &envs {
        let report = Campaign::new()
            .env(env.clone())
            .platforms(PlatformId::ALL)
            .run()
            .unwrap();
        reference
            .check(exec_long::key(env), &Verdict::of_report(&report, 0))
            .unwrap();
    }
}

#[test]
fn port_cold_keeps_its_verdict_under_a_held_out_seed() {
    let reference = Reference::committed("port_cold").unwrap();
    let (envs, cycle) = inputs::port_cold(HELD_OUT);
    let derivatives: BTreeSet<&str> = cycle.iter().map(|r| r.derivative.name()).collect();
    assert_eq!(derivatives.len(), reference.requests.len());
    let request = cycle.last().unwrap();
    let ported: Vec<_> = request
        .order
        .iter()
        .map(|&i| {
            port_env(
                &envs[i],
                EnvConfig::new(request.derivative, envs[i].config().platform),
            )
            .env
        })
        .collect();
    let report = Campaign::new()
        .envs(ported)
        .platforms(PlatformId::ALL)
        .run()
        .unwrap();
    reference
        .check(request.derivative.name(), &Verdict::of_report(&report, 0))
        .unwrap();
}

#[test]
fn serve_warm_cycle_has_the_same_shape_under_a_held_out_seed() {
    let reference = Reference::committed("serve_warm").unwrap();
    let (_, cycle) = inputs::serve_warm(HELD_OUT);
    assert_eq!(cycle.len(), 10);
    for half in cycle.chunks(5) {
        let fuzz = half.iter().filter(|r| **r == ServeRequest::Fuzz).count();
        assert_eq!(fuzz, 1, "4:1 regress:fuzz in every half-cycle");
    }
    let keys: BTreeSet<String> = cycle.iter().map(ServeRequest::key).collect();
    let expected: BTreeSet<String> = reference.requests.keys().cloned().collect();
    assert_eq!(keys, expected, "every request has a reference verdict");
    assert_ne!(cycle, inputs::serve_warm(1).1, "the seed changes the order");
}
