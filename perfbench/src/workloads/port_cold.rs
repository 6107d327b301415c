//! `port_cold`: the paper's porting use case, cold.
//!
//! The eight-environment standard system (30 cells), written to disk and
//! read back, is ported to each of the four derivatives in turn. One
//! request ports every environment to one derivative and runs the
//! campaign on all six platforms (180 runs, 151 unique images) against
//! its own empty artifact store, then renders the report document. A
//! cycle makes every derivative's request under each of several seeded
//! environment orders.
//! About 66 instructions retire per run, so the front-end and machine
//! set-up do the work.

use std::time::Instant;

use advm::env::{EnvConfig, ModuleTestEnv};
use advm::porting::port_env;
use advm_soc::DerivativeId;

use super::{
    closed_loop, cold_request, end_to_end, timed_setup, traced_cold_request, Args, Outcome, Tally,
    TraceRun,
};
use crate::inputs::{self, PortRequest, WorkDir};
use crate::verdict::Reference;

/// Images every port_cold request plans (the exact-count check).
pub const UNIQUE_BUILDS: usize = 151;

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Requests in the traced run: the first two environment orders of the
/// cycle, every derivative under each.
const TRACED: usize = 8;

/// Layers that should carry most of the replay's self time.
const DESIGNATED: [&str; 6] = [
    "asm",
    "soc",
    "core.build",
    "core.env",
    "sim.decode",
    "sim.machine_setup",
];

struct Inputs {
    envs: Vec<ModuleTestEnv>,
    cycle: Vec<PortRequest>,
    _work: WorkDir,
}

/// Generates the inputs, writes the env trees and reads them back.
fn setup(seed: u64) -> Result<Inputs, String> {
    let (envs, cycle) = inputs::port_cold(seed);
    let (work, envs) = inputs::round_trip("port_cold", seed, &envs)?;
    Ok(Inputs {
        envs,
        cycle,
        _work: work,
    })
}

/// [`setup`] plus one warm-up request per derivative, verdicts checked
/// into `warm`.
fn warmed_setup(seed: u64, reference: &Reference, warm: &mut Tally) -> Result<Inputs, String> {
    let inputs = setup(seed)?;
    for request in &inputs.cycle[..DerivativeId::ALL.len()] {
        warm.record(
            reference,
            request.derivative.name(),
            cold_request(port(&inputs.envs, request)),
        );
    }
    Ok(inputs)
}

fn port(envs: &[ModuleTestEnv], request: &PortRequest) -> Vec<ModuleTestEnv> {
    request
        .order
        .iter()
        .map(|&i| {
            let env = &envs[i];
            port_env(
                env,
                EnvConfig::new(request.derivative, env.config().platform),
            )
            .env
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures and runs too short to report p90.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let reference = Reference::committed("port_cold")?;
    if args.trace {
        return traced(args, &reference);
    }
    let mut warm = Tally::default();
    let (inputs, setup_s) = timed_setup(SETUPS, || warmed_setup(args.seed, &reference, &mut warm))?;
    let mut tally = Tally::default();
    closed_loop(args.seconds, &inputs.cycle, &mut tally, |request, tally| {
        let key = request.derivative.name();
        tally.record(&reference, key, cold_request(port(&inputs.envs, request)));
    });
    tally.merge_checks(warm);
    end_to_end(&tally, setup_s)
}

fn traced(args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let inputs = setup(args.seed)?;
    let requests = &inputs.cycle[..TRACED];
    let mut tally = Tally::default();
    let mut run = TraceRun::default();

    let started = Instant::now();
    for request in requests {
        let key = request.derivative.name();
        tally.record(reference, key, cold_request(port(&inputs.envs, request)));
    }
    run.untraced_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for (id, request) in requests.iter().enumerate() {
        let key = request.derivative.name();
        run.tracer.set_request(id as u64);
        let open = run.tracer.open("request");
        let ported = run
            .tracer
            .leaf("core.porting.port_env", || port(&inputs.envs, request));
        let report = traced_cold_request(&mut run, &mut tally, reference, key, ported)?;
        run.tracer.close(open);
        if let Some(report) = report.filter(|r| r.unique_builds() != UNIQUE_BUILDS) {
            run.fail(format!(
                "{key} planned {} unique builds, expected {UNIQUE_BUILDS}",
                report.unique_builds()
            ));
        }
    }
    run.traced_s = started.elapsed().as_secs_f64();
    run.requests = requests.len() as u64;

    let share = run.replay_share(&DESIGNATED);
    eprintln!(
        "perfbench: front-end + machine set-up carry {:.1}% of replay self time",
        share * 100.0
    );
    if share <= 0.5 {
        run.fail(format!(
            "front-end + machine set-up carry only {:.1}% of port_cold's replay self time",
            share * 100.0
        ));
    }
    Ok(run.finish("port_cold", args.seed, &tally))
}
