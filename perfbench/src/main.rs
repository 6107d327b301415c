//! `perfbench` — the ADVM reproduction's benchmark command.
//!
//! ```text
//! perfbench --workload <port_cold|serve_warm|exec_long> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --write-reference
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); diagnostics, the
//! per-layer table and the tracing overhead go to standard error.

use std::process::ExitCode;

use advm_perfbench::workloads::{self, Args};
use advm_perfbench::{refgen, verdict::Reference};

const USAGE: &str = "usage: perfbench --workload <port_cold|serve_warm|exec_long> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = argv.next() {
        if flag == "--write-reference" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn write_references() -> Result<(), String> {
    for workload in workloads::WORKLOADS {
        let reference: Reference = refgen::generate(workload)?;
        let path = format!("perfbench/reference/{workload}.json");
        std::fs::write(&path, reference.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "perfbench: wrote {path} ({} requests)",
            reference.requests.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => workloads::run(&args).map(|outcome| println!("{}", outcome.to_json())),
        Ok(None) => write_references(),
        Err(error) => Err(format!("{error}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
