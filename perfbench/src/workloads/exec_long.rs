//! `exec_long`: execution-bound directed tests.
//!
//! A dozen long self-checking cells (10⁵–10⁶ retired instructions per
//! run) on all six platforms, each request one cell's campaign on a
//! fresh store. ALU and RAM loops stay on the superblock tier;
//! timer, UART and CRC loops poll MMIO on the per-word path. The
//! simulator does most of the work and the front-end almost none.

use std::time::Instant;

use advm::env::ModuleTestEnv;

use super::{
    closed_loop, cold_request, end_to_end, timed_setup, traced_cold_request, Args, Outcome, Tally,
    TraceRun,
};
use crate::inputs;
use crate::verdict::Reference;

/// Set-ups per measured run (inputs on disk plus one warm-up cycle);
/// `setup_s` is their median.
const SETUPS: usize = 5;

/// The verdict-reference key of a long env (`LONG_ALU_LCG` → `ALU_LCG`).
pub fn key(env: &ModuleTestEnv) -> &str {
    env.name().trim_start_matches("LONG_")
}

fn request(env: &ModuleTestEnv) -> Result<crate::verdict::Verdict, String> {
    cold_request(vec![env.clone()])
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures and runs too short to report p90.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let reference = Reference::committed("exec_long")?;
    if args.trace {
        return traced(args, &reference);
    }
    let mut warm = Tally::default();
    let ((_work, envs), setup_s) = timed_setup(SETUPS, || {
        let (work, envs) =
            inputs::round_trip("exec_long", args.seed, &inputs::exec_long(args.seed))?;
        for env in &envs {
            warm.record(&reference, key(env), request(env));
        }
        Ok((work, envs))
    })?;
    let mut tally = Tally::default();
    closed_loop(args.seconds, &envs, &mut tally, |env, tally| {
        tally.record(&reference, key(env), request(env));
    });
    tally.merge_checks(warm);
    end_to_end(&tally, setup_s)
}

fn traced(args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let (_work, envs) = inputs::round_trip("exec_long", args.seed, &inputs::exec_long(args.seed))?;
    let mut tally = Tally::default();
    let mut run = TraceRun::default();

    let started = Instant::now();
    for env in &envs {
        tally.record(reference, key(env), request(env));
    }
    run.untraced_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for (id, env) in envs.iter().enumerate() {
        run.tracer.set_request(id as u64);
        let open = run.tracer.open("request");
        traced_cold_request(&mut run, &mut tally, reference, key(env), vec![env.clone()])?;
        run.tracer.close(open);
    }
    run.traced_s = started.elapsed().as_secs_f64();
    run.requests = envs.len() as u64;

    let share = run.replay_share(&["sim.run"]);
    eprintln!(
        "perfbench: sim.run carries {:.1}% of replay self time",
        share * 100.0
    );
    if share <= 0.5 {
        run.fail(format!(
            "sim.run carries only {:.1}% of exec_long's replay self time",
            share * 100.0
        ));
    }
    Ok(run.finish("exec_long", args.seed, &tally))
}
