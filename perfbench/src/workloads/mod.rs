//! The three workloads and what they share: the closed request loop,
//! set-up timing, the end-to-end metrics and the traced run's
//! per-layer metrics.

pub mod exec_long;
pub mod port_cold;
pub mod serve_warm;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use advm::campaign::CampaignReport;
use advm::env::ModuleTestEnv;
use advm::{ArtifactStore, ArtifactStoreStats, Campaign, DEFAULT_ARTIFACT_CAPACITY};
use advm_soc::PlatformId;

use crate::replay::{self, Counts, StoreModel};
use crate::stats::{latency, median};
use crate::trace::{layer_matches, Tracer};
use crate::verdict::{Reference, Verdict};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["port_cold", "serve_warm", "exec_long"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (whole request cycles, at least this long).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the measured run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every verdict matched the reference and every check passed.
    pub correct: bool,
    /// Requests made.
    pub attempted: u64,
    /// Requests whose verdict differed from the reference (or failed).
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// Set-up failures, unknown workloads and runs too short to report p90.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "port_cold" => port_cold::run(args),
        "serve_warm" => serve_warm::run(args),
        "exec_long" => exec_long::run(args),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Verdict bookkeeping over a run's requests.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-request latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Scenario runs completed.
    pub runs: u64,
    /// Simulated instructions retired.
    pub insns: u64,
    /// Requests made.
    pub attempted: u64,
    /// Requests whose verdict differed from the reference.
    pub failed: u64,
    /// The first few mismatch descriptions.
    pub errors: Vec<String>,
    /// Per-cycle totals of the measured window.
    pub cycles: Vec<Cycle>,
}

/// One measured request cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    /// Wall time, s.
    pub wall_s: f64,
    /// Scenario runs completed.
    pub runs: u64,
    /// Simulated instructions retired.
    pub insns: u64,
}

impl Tally {
    /// Records one request's outcome, checked against the reference.
    pub fn record(&mut self, reference: &Reference, key: &str, got: Result<Verdict, String>) {
        self.attempted += 1;
        let checked = got.and_then(|verdict| {
            self.runs += verdict.runs;
            self.insns += verdict.insns;
            reference.check(key, &verdict)
        });
        if let Err(error) = checked {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(error);
            }
        }
    }

    /// Folds in the verdict checks of requests made outside the
    /// measured window (warm-up), without their runs or latencies.
    pub fn merge_checks(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// Prints the mismatches to stderr.
    pub fn report_errors(&self) {
        for error in &self.errors {
            eprintln!("perfbench: verdict mismatch: {error}");
        }
    }
}

/// Runs `cycle` round-robin as one closed-loop client until `seconds`
/// have passed, finishing the cycle in progress so the request mix is
/// exact. Records each cycle's wall, runs and instructions.
pub fn closed_loop<R>(
    seconds: f64,
    cycle: &[R],
    tally: &mut Tally,
    mut request: impl FnMut(&R, &mut Tally),
) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let (runs, insns) = (tally.runs, tally.insns);
        let cycle_started = Instant::now();
        for item in cycle {
            let t = Instant::now();
            request(item, tally);
            tally.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        tally.cycles.push(Cycle {
            wall_s: cycle_started.elapsed().as_secs_f64(),
            runs: tally.runs - runs,
            insns: tally.insns - insns,
        });
    }
}

/// Performs set-up `reps` times (tearing down all but the last) and
/// returns the kept state with the median set-up time, s.
///
/// # Errors
///
/// The first set-up failure.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a measured run. Throughputs are the
/// median over request cycles, so a burst of interference on the host
/// moves them no more than it moves the latency percentiles.
///
/// # Errors
///
/// A run too short to leave ten samples beyond p90.
pub fn end_to_end(tally: &Tally, setup_s: f64) -> Result<Outcome, String> {
    tally.report_errors();
    let lat = latency(&tally.latencies_ms)?;
    let rate = |count: fn(&Cycle) -> u64| {
        let rates: Vec<f64> = tally
            .cycles
            .iter()
            .map(|c| count(c) as f64 / c.wall_s)
            .collect();
        median(&rates)
    };
    let wall_s: f64 = tally.cycles.iter().map(|c| c.wall_s).sum();
    eprintln!(
        "perfbench: {} requests in {} cycles, {} runs in {wall_s:.3} s; failed_frac {}",
        lat.samples,
        tally.cycles.len(),
        tally.runs,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("runs_per_s", rate(|c| c.runs), "1/s"),
            metric("request_ms_p50", lat.p50, "ms"),
            metric("request_ms_p90", lat.p90, "ms"),
            metric("sim_insns_per_s", rate(|c| c.insns), "1/s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the real (untraced-program) side of a traced run observed.
#[derive(Debug, Clone, Default)]
pub struct Real {
    /// Summed campaign build-phase wall, ms.
    pub build_wall_ms: f64,
    /// Summed campaign execution-phase wall, ms.
    pub exec_wall_ms: f64,
    /// Summed campaign report-sealing wall, ms.
    pub report_wall_ms: f64,
    /// Summed planned unique builds.
    pub unique_builds: u64,
    /// Summed scenario runs.
    pub runs: u64,
    /// Summed images actually assembled (unique builds the store did
    /// not already hold).
    pub assembled: u64,
    /// Artifact-store lookups that hit.
    pub store_hits: u64,
    /// Artifact-store lookups that missed.
    pub store_misses: u64,
    /// Artifact-store evictions.
    pub evictions: u64,
    /// Serve requests observed.
    pub serve_requests: u64,
    /// Summed daemon event lines.
    pub serve_events: u64,
    /// Fuzz jobs observed.
    pub fuzz_jobs: u64,
}

impl Real {
    /// Folds one in-process campaign report in.
    pub fn absorb_report(&mut self, report: &CampaignReport) {
        let perf = report.perf();
        self.build_wall_ms += perf.build_wall.as_secs_f64() * 1e3;
        self.exec_wall_ms += perf.exec_wall.as_secs_f64() * 1e3;
        self.report_wall_ms += perf.report_wall.as_secs_f64() * 1e3;
        self.unique_builds += report.unique_builds() as u64;
        self.runs += report.total() as u64;
        self.assembled += (report.unique_builds() as u64).saturating_sub(perf.artifact_hits);
    }
}

/// A traced run's recordings.
#[derive(Debug, Default)]
pub struct TraceRun {
    /// The spans.
    pub tracer: Tracer,
    /// Replay work counters.
    pub counts: Counts,
    /// Real-side observations.
    pub real: Real,
    /// Requests traced.
    pub requests: u64,
    /// Wall of the untraced pass over the same requests, s.
    pub untraced_s: f64,
    /// Wall of the traced pass, s.
    pub traced_s: f64,
    /// Failed exact-count and attribution checks.
    pub failures: Vec<String>,
}

impl TraceRun {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        eprintln!("perfbench: check failed: {message}");
        self.failures.push(message);
    }

    /// Self time per span name, ms, over spans inside a span named
    /// `root` (the replay of each request).
    pub fn self_ms_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let spans = self.tracer.spans();
        let own = self.tracer.self_ns();
        let mut inside = vec![false; spans.len()];
        let mut table = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            inside[i] = span.name == root || span.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                *table.entry(span.name).or_insert(0.0) += own[i] as f64 / 1e6;
            }
        }
        table
    }

    /// Share of the replay's self time spent in the given layers.
    pub fn replay_share(&self, layers: &[&str]) -> f64 {
        let table = self.self_ms_under("replay");
        let total: f64 = table.values().sum();
        let part: f64 = table
            .iter()
            .filter(|(name, _)| layers.iter().any(|l| layer_matches(name, l)))
            .map(|(_, ms)| ms)
            .sum();
        if total > 0.0 {
            part / total
        } else {
            0.0
        }
    }

    /// Every per-layer metric, per traced request where a sum.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let n = self.requests.max(1) as f64;
        let table = self.tracer.table();
        let ms = |name: &str| table.get(name).map_or(0.0, |row| row.self_ms) / n;
        let c = &self.counts;
        let r = &self.real;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            metric("asm.preprocess_ms", ms("asm.preprocess"), "ms"),
            metric("asm.parse_ms", ms("asm.parse"), "ms"),
            metric("asm.encode_ms", ms("asm.encode"), "ms"),
            metric("asm.units", c.units as f64 / n, "count"),
            metric(
                "asm.preprocess_lines",
                c.preprocess_lines as f64 / n,
                "count",
            ),
            metric("soc.globals_render_ms", ms("soc.globals_render"), "ms"),
            metric("soc.globals_renders", c.globals_renders as f64 / n, "count"),
            metric("soc.es_rom_ms", ms("soc.es_rom"), "ms"),
            metric(
                "core.build.unit_sources_ms",
                ms("core.build.unit_sources"),
                "ms",
            ),
            metric("core.build.link_ms", ms("core.build.link"), "ms"),
            metric("sim.decode_ms", ms("sim.decode"), "ms"),
            metric("core.env.reconfigure_ms", ms("core.env.reconfigure"), "ms"),
            metric("core.campaign.build_wall_ms", r.build_wall_ms / n, "ms"),
            metric(
                "core.campaign.report_json_ms",
                ms("core.campaign.report_json"),
                "ms",
            ),
            metric(
                "core.artifacts.hit_ratio",
                ratio(r.store_hits, r.store_hits + r.store_misses),
                "ratio",
            ),
            metric("sim.compare_ms", ms("sim.compare"), "ms"),
            metric("sim.machine_setup_ms", ms("sim.machine_setup"), "ms"),
            metric("sim.machines", c.machines as f64 / n, "count"),
            metric("sim.run_ms", ms("sim.run"), "ms"),
            metric("sim.insns", c.insns as f64 / n, "count"),
            metric(
                "sim.block_insn_frac",
                ratio(c.block_insns, c.insns),
                "ratio",
            ),
            metric(
                "sim.decode_hit_rate",
                ratio(c.decode_hits, c.decode_hits + c.decode_misses),
                "ratio",
            ),
            metric("fuzz.generate_ms", ms("fuzz.generate"), "ms"),
            metric("fuzz.mine_ms", ms("fuzz.mine"), "ms"),
            metric("fuzz.mined_checkers", ratio(c.mined, r.fuzz_jobs), "count"),
            metric("serve.queue_wait_ms", ms("serve.queue_wait"), "ms"),
            metric("serve.job_run_ms", ms("serve.job_run"), "ms"),
            metric(
                "serve.events",
                ratio(r.serve_events, r.serve_requests),
                "count",
            ),
            metric("core.campaign.exec_wall_ms", r.exec_wall_ms / n, "ms"),
            metric("core.campaign.report_wall_ms", r.report_wall_ms / n, "ms"),
            metric(
                "core.campaign.unique_builds",
                r.unique_builds as f64 / n,
                "count",
            ),
            metric(
                "core.campaign.cache_hit_ratio",
                ratio(r.runs - r.assembled, r.runs),
                "ratio",
            ),
            metric("core.artifacts.evictions", r.evictions as f64, "count"),
        ]
    }

    /// The per-layer self-time table, as text.
    pub fn table_text(&self, workload: &str, seed: u64) -> String {
        let n = self.requests.max(1) as f64;
        let replay_total: f64 = self.self_ms_under("replay").values().sum();
        let mut out = format!(
            "perfbench traced run: workload {workload}, seed {seed}, {} requests\n\
             untraced wall {:.1} ms, traced wall {:.1} ms, tracing overhead {:.1} ms \
             (traced minus untraced: spans plus the serial layer replay)\n\n\
             {:<30} {:>12} {:>12} {:>10} {:>9}\n",
            self.requests,
            self.untraced_s * 1e3,
            self.traced_s * 1e3,
            (self.traced_s - self.untraced_s) * 1e3,
            "span",
            "self ms/req",
            "wall ms/req",
            "calls/req",
            "replay %"
        );
        let under = self.self_ms_under("replay");
        for (name, row) in self.tracer.table() {
            let share = under
                .get(name)
                .filter(|_| replay_total > 0.0)
                .map_or(String::from("-"), |ms| {
                    format!("{:.1}", 100.0 * ms / replay_total)
                });
            let _ = writeln!(
                out,
                "{name:<30} {:>12.3} {:>12.3} {:>10.1} {share:>9}",
                row.self_ms / n,
                row.total_ms / n,
                row.calls as f64 / n
            );
        }
        out.push_str("\nper-layer metrics (per traced request where a sum)\n");
        for m in self.layer_metrics() {
            let _ = writeln!(out, "{:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// Checks span nesting, writes the Chrome trace and the table under
    /// the output directory, prints the table to stderr, and seals the
    /// outcome with the per-layer metrics `BENCHMARK.json` lists.
    pub fn finish(mut self, workload: &str, seed: u64, tally: &Tally) -> Outcome {
        if let Err(error) = self.tracer.check_nesting() {
            self.fail(format!("span nesting: {error}"));
        }
        let table = self.table_text(workload, seed);
        eprint!("{table}");
        let dir = std::path::Path::new(crate::OUT_DIR);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("trace-{workload}-{seed}.json")),
                    self.tracer.chrome_json(),
                )
            })
            .and_then(|()| {
                std::fs::write(dir.join(format!("layers-{workload}-{seed}.txt")), &table)
            });
        if let Err(error) = written {
            self.fail(format!("writing trace output: {error}"));
        }
        tally.report_errors();
        let metrics = self
            .layer_metrics()
            .into_iter()
            .filter(|m| PER_LAYER.contains(&m.name))
            .collect();
        Outcome {
            correct: tally.failed == 0 && self.failures.is_empty(),
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        }
    }
}

/// The per-layer metrics `BENCHMARK.json` lists: every layer metric
/// except the five times that are structurally zero on some workload
/// (`sim.decode_ms` on `serve_warm`, whose images are all warm; the
/// fuzz and serve times on the two workloads without a daemon). Those
/// five still appear in the traced run's table.
pub const PER_LAYER: [&str; 28] = [
    "asm.preprocess_ms",
    "asm.parse_ms",
    "asm.encode_ms",
    "asm.units",
    "asm.preprocess_lines",
    "soc.globals_render_ms",
    "soc.globals_renders",
    "soc.es_rom_ms",
    "core.build.unit_sources_ms",
    "core.build.link_ms",
    "core.env.reconfigure_ms",
    "core.campaign.build_wall_ms",
    "core.campaign.report_json_ms",
    "core.artifacts.hit_ratio",
    "sim.compare_ms",
    "sim.machine_setup_ms",
    "sim.machines",
    "sim.run_ms",
    "sim.insns",
    "sim.block_insn_frac",
    "sim.decode_hit_rate",
    "fuzz.mined_checkers",
    "serve.events",
    "core.campaign.exec_wall_ms",
    "core.campaign.report_wall_ms",
    "core.campaign.unique_builds",
    "core.campaign.cache_hit_ratio",
    "core.artifacts.evictions",
];

/// Checks a replayed request against the real one: the replay must do
/// the same runs with the same outcomes and retire the same
/// instructions (its own dedupe differs, so `unique_builds` is not
/// compared).
pub fn check_replay(run: &mut TraceRun, key: &str, real: &Verdict, replayed: &Verdict) {
    let replayed = Verdict {
        unique_builds: real.unique_builds,
        ..*replayed
    };
    if replayed != *real {
        run.fail(format!(
            "replay of `{key}` disagrees with the real request: {} vs {}",
            replayed.to_json(),
            real.to_json()
        ));
    }
}

/// A campaign over `envs` on all six platforms against its own empty
/// artifact store: how `port_cold` and `exec_long` requests run.
///
/// # Errors
///
/// The campaign's build error.
pub fn cold_campaign(
    envs: Vec<ModuleTestEnv>,
) -> Result<(CampaignReport, ArtifactStoreStats), String> {
    let store = Arc::new(ArtifactStore::new(DEFAULT_ARTIFACT_CAPACITY));
    let report = Campaign::new()
        .envs(envs)
        .platforms(PlatformId::ALL)
        .artifact_store(Arc::clone(&store))
        .run()
        .map_err(|e| e.to_string())?;
    Ok((report, store.stats()))
}

/// One untraced `port_cold`/`exec_long` request: the cold campaign and
/// the rendering of its report document.
///
/// # Errors
///
/// The campaign's build error.
pub fn cold_request(envs: Vec<ModuleTestEnv>) -> Result<Verdict, String> {
    let (report, _) = cold_campaign(envs)?;
    std::hint::black_box(report.to_json());
    Ok(Verdict::of_report(&report, 0))
}

/// The traced form of [`cold_request`], inside the caller's open
/// request span: the real campaign, its report rendering, then the
/// serial replay of the same envs, checked against the real verdict.
/// Returns the real report (`None` when the campaign failed, which is
/// recorded in `tally`).
///
/// # Errors
///
/// A replayed layer call that fails.
pub fn traced_cold_request(
    run: &mut TraceRun,
    tally: &mut Tally,
    reference: &Reference,
    key: &str,
    envs: Vec<ModuleTestEnv>,
) -> Result<Option<CampaignReport>, String> {
    let tr = &mut run.tracer;
    let (report, stats) = match tr.leaf("core.campaign.run", || cold_campaign(envs.clone())) {
        Ok(real) => real,
        Err(error) => {
            tally.record(reference, key, Err(error));
            return Ok(None);
        }
    };
    std::hint::black_box(tr.leaf("core.campaign.report_json", || report.to_json()));
    let replay_span = tr.open("replay");
    let (replayed, _) = replay::campaign(
        tr,
        &envs,
        &PlatformId::ALL,
        &mut StoreModel::default(),
        &[],
        &mut run.counts,
    )
    .map_err(|e| format!("replaying `{key}`: {e}"))?;
    tr.close(replay_span);

    run.real.absorb_report(&report);
    run.real.store_hits += stats.hits;
    run.real.store_misses += stats.misses;
    run.real.evictions += stats.evictions;
    let verdict = Verdict::of_report(&report, 0);
    check_replay(run, key, &verdict, &replayed);
    tally.record(reference, key, Ok(verdict));
    Ok(Some(report))
}
