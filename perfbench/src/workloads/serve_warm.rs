//! `serve_warm`: continuous resubmission to a resident daemon.
//!
//! An in-process `advm_serve::Server` over a `Daemon` with the default
//! configuration (2 workers, 256-slot store), reached over a Unix socket
//! by one `Client` in a closed loop. The client resubmits, in a 4:1 mix,
//! regress jobs over the eight standard env trees (all platforms) and
//! one 16-program `fuzz --mine` job. After set-up has populated the
//! store (~231 images, under capacity) every image is a hit, so the
//! warm path — materialise, render, fingerprint, execute, report JSON —
//! mining and the serve layer show; the regress jobs assemble nothing.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use advm::env::ModuleTestEnv;
use advm::wire::JsonValue;
use advm::{ArtifactStore, Campaign, DEFAULT_ARTIFACT_CAPACITY};
use advm_serve::{Client, Daemon, DaemonConfig, JobSpec, Server};
use advm_soc::PlatformId;

use super::{check_replay, closed_loop, end_to_end, timed_setup, Args, Outcome, Tally, TraceRun};
use crate::inputs::{self, ServeRequest, WorkDir, FUZZ_PROGRAMS, FUZZ_SEED};
use crate::replay::{self, Counts, StoreModel};
use crate::trace::Tracer;
use crate::verdict::{Reference, Verdict};

/// Set-ups per measured run (trees, daemon start, store population);
/// `setup_s` is their median.
const SETUPS: usize = 5;

/// A running daemon behind its socket, with one connected client.
struct Service {
    client: Client,
    server: Option<JoinHandle<io::Result<()>>>,
    trees: PathBuf,
    _work: WorkDir,
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// What one finished job reported.
struct Job {
    verdict: Verdict,
    ok: bool,
    submitted: Instant,
    first_line: Instant,
    events: u64,
    build_wall_ms: f64,
    exec_wall_ms: f64,
    report_wall_ms: f64,
    artifact_hits: u64,
}

fn spec(trees: &Path, request: &ServeRequest) -> JobSpec {
    match request {
        ServeRequest::Regress(env) => JobSpec::Regress {
            dir: trees.display().to_string(),
            env: env.clone(),
            platforms: Vec::new(),
            all_platforms: true,
            workers: None,
            fuel: None,
        },
        ServeRequest::Fuzz => JobSpec::Fuzz {
            programs: Some(FUZZ_PROGRAMS),
            seed: Some(FUZZ_SEED),
            mine: true,
            platforms: Vec::new(),
            all_platforms: true,
            workers: None,
            fuel: None,
        },
    }
}

fn number(value: &JsonValue, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("report lacks `{key}`"))
}

/// Submits one job and watches it to its final `done` line.
fn submit(client: &mut Client, trees: &Path, request: &ServeRequest) -> Result<Job, String> {
    let id = client
        .submit(spec(trees, request))
        .map_err(|e| format!("submit: {e}"))?;
    let submitted = Instant::now();
    let mut first_line = None;
    let mut events = 0;
    let done = client
        .watch(id, |_| {
            events += 1;
            first_line.get_or_insert_with(Instant::now);
        })
        .map_err(|e| format!("watch: {e}"))?;
    let done_at = Instant::now();
    let value = JsonValue::parse(&done).map_err(|e| format!("done line: {e}"))?;
    let report = value
        .get("report")
        .ok_or_else(|| format!("job {id} failed: {done}"))?;
    let (campaign, mined) = match request {
        ServeRequest::Regress(_) => (report, 0),
        ServeRequest::Fuzz => (
            report
                .get("campaign")
                .ok_or("fuzz report lacks `campaign`")?,
            report
                .get("mined")
                .and_then(JsonValue::as_array)
                .ok_or("fuzz report lacks `mined`")?
                .len() as u64,
        ),
    };
    let perf = campaign.get("perf").ok_or("report lacks `perf`")?;
    Ok(Job {
        verdict: Verdict::of_campaign_json(campaign, mined)?,
        ok: value.bool_field("ok").map_err(|e| e.to_string())?,
        submitted,
        first_line: first_line.unwrap_or(done_at),
        events,
        build_wall_ms: number(perf, "build_wall_ms")?,
        exec_wall_ms: number(perf, "exec_wall_ms")?,
        report_wall_ms: number(perf, "report_wall_ms")?,
        artifact_hits: perf.u64_field("artifact_hits").map_err(|e| e.to_string())?,
    })
}

/// A job's verdict, with a clean verdict that the daemon nevertheless
/// reported not-ok (a mined-checker violation) turned into an error.
fn verdict_of(job: Result<Job, String>) -> Result<Verdict, String> {
    let job = job?;
    if !job.ok && job.verdict.failed == 0 && job.verdict.divergences == 0 {
        return Err("job reported ok:false with every run passing (checker violation)".into());
    }
    Ok(job.verdict)
}

/// Writes the env trees, starts the daemon and populates its store by
/// running one cycle of requests.
fn setup(
    seed: u64,
    cycle: &[ServeRequest],
    envs: &[ModuleTestEnv],
    reference: &Reference,
) -> Result<Service, String> {
    let (work, trees) = inputs::write_envs("serve_warm", seed, envs)?;
    let socket = work.path().join("daemon.sock");
    let server = Server::bind(Daemon::start(DaemonConfig::default()), &socket)
        .map_err(|e| format!("binding {}: {e}", socket.display()))?;
    let server = std::thread::spawn(move || server.run());
    let client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => {
            // Nothing else can stop the accept loop; leave the thread to
            // process exit.
            return Err(format!("connecting to {}: {e}", socket.display()));
        }
    };
    let mut service = Service {
        client,
        server: Some(server),
        trees,
        _work: work,
    };
    for request in cycle {
        let verdict = verdict_of(submit(&mut service.client, &service.trees, request))?;
        reference.check(&request.key(), &verdict)?;
    }
    Ok(service)
}

/// The artifact store's `(hits, misses, evictions)` from `status`.
fn store_stats(client: &mut Client) -> Result<(u64, u64, u64), String> {
    let status = client.status().map_err(|e| format!("status: {e}"))?;
    let value = JsonValue::parse(&status).map_err(|e| format!("status line: {e}"))?;
    let artifacts = value.get("artifacts").ok_or("status lacks `artifacts`")?;
    let field = |key: &str| artifacts.u64_field(key).map_err(|e| e.to_string());
    Ok((field("hits")?, field("misses")?, field("evictions")?))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures and runs too short to report p90.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let reference = Reference::committed("serve_warm")?;
    let (envs, cycle) = inputs::serve_warm(args.seed);
    if args.trace {
        return traced(args, &reference, &envs, &cycle);
    }
    let (mut service, setup_s) =
        timed_setup(SETUPS, || setup(args.seed, &cycle, &envs, &reference))?;
    let mut tally = Tally::default();
    let Service { client, trees, .. } = &mut service;
    closed_loop(args.seconds, &cycle, &mut tally, |request, tally| {
        tally.record(
            &reference,
            &request.key(),
            verdict_of(submit(client, trees, request)),
        );
    });
    end_to_end(&tally, setup_s)
}

fn mirror_campaign(
    env: ModuleTestEnv,
    store: &Arc<ArtifactStore>,
) -> Result<advm::CampaignReport, String> {
    Campaign::new()
        .env(env)
        .bisect(true)
        .artifact_store(Arc::clone(store))
        .platforms(PlatformId::ALL)
        .run()
        .map_err(|e| e.to_string())
}

fn traced(
    args: &Args,
    reference: &Reference,
    envs: &[ModuleTestEnv],
    cycle: &[ServeRequest],
) -> Result<Outcome, String> {
    let mut service = setup(args.seed, cycle, envs, reference)?;
    let mut tally = Tally::default();
    let mut run = TraceRun::default();

    // The traced side's own warm state: an in-process mirror store for
    // the report-rendering measurement and the replay's image store.
    let mirror = Arc::new(ArtifactStore::new(DEFAULT_ARTIFACT_CAPACITY));
    let mut model = StoreModel::default();
    let (mut scratch, mut scratch_counts) = (Tracer::new(), Counts::default());
    let programs: Vec<ModuleTestEnv> =
        replay::fuzz_generate(&mut scratch, FUZZ_SEED, FUZZ_PROGRAMS as usize)?
            .iter()
            .map(advm::fuzz::program_env)
            .collect();
    for env in envs {
        mirror_campaign(env.clone(), &mirror)?;
        replay::campaign(
            &mut scratch,
            std::slice::from_ref(env),
            &PlatformId::ALL,
            &mut model,
            &[],
            &mut scratch_counts,
        )?;
    }
    replay::campaign(
        &mut scratch,
        &programs,
        &PlatformId::ALL,
        &mut model,
        &[],
        &mut scratch_counts,
    )?;

    let Service { client, trees, .. } = &mut service;
    let started = Instant::now();
    for request in cycle {
        tally.record(
            reference,
            &request.key(),
            verdict_of(submit(client, trees, request)),
        );
    }
    run.untraced_s = started.elapsed().as_secs_f64();

    let (hits0, misses0, _) = store_stats(client)?;
    let started = Instant::now();
    for (id, request) in cycle.iter().enumerate() {
        let key = request.key();
        let tr = &mut run.tracer;
        tr.set_request(id as u64);
        let open = tr.open("request");
        let sent = Instant::now();
        let job = submit(client, trees, request);
        let done = Instant::now();
        let job = match job {
            Ok(job) => job,
            Err(error) => {
                tally.record(reference, &key, Err(error));
                tr.close(open);
                continue;
            }
        };
        tr.record("serve.submit", sent, job.submitted);
        tr.record("serve.queue_wait", job.submitted, job.first_line);
        tr.record("serve.job_run", job.first_line, done);
        let units_before = run.counts.units;
        let replay_span;
        let replayed = match request {
            ServeRequest::Regress(name) => {
                let env = tr.leaf("core.fsio.read_tree", || {
                    inputs::read_envs(trees, std::slice::from_ref(name))
                })?;
                let report = tr.leaf("core.campaign.run", || {
                    mirror_campaign(env[0].clone(), &mirror)
                })?;
                std::hint::black_box(tr.leaf("core.campaign.report_json", || report.to_json()));
                replay_span = tr.open("replay");
                replay::campaign(tr, &env, &PlatformId::ALL, &mut model, &[], &mut run.counts)?.0
            }
            ServeRequest::Fuzz => {
                replay_span = tr.open("replay");
                let batch = replay::fuzz_generate(tr, FUZZ_SEED, FUZZ_PROGRAMS as usize)?;
                let programs: Vec<ModuleTestEnv> =
                    batch.iter().map(advm::fuzz::program_env).collect();
                let mined = replay::fuzz_mine(tr, &programs, &PlatformId::ALL, &mut run.counts)?;
                let (verdict, violations) = replay::campaign(
                    tr,
                    &programs,
                    &PlatformId::ALL,
                    &mut model,
                    &mined,
                    &mut run.counts,
                )?;
                if violations > 0 {
                    run.fail(format!(
                        "replayed fuzz job raised {violations} checker violations"
                    ));
                }
                run.real.fuzz_jobs += 1;
                verdict
            }
        };
        run.tracer.close(replay_span);
        run.tracer.close(open);

        run.real.serve_requests += 1;
        run.real.serve_events += job.events;
        run.real.build_wall_ms += job.build_wall_ms;
        run.real.exec_wall_ms += job.exec_wall_ms;
        run.real.report_wall_ms += job.report_wall_ms;
        run.real.unique_builds += job.verdict.unique_builds;
        run.real.runs += job.verdict.runs;
        let assembled = job.verdict.unique_builds.saturating_sub(job.artifact_hits);
        run.real.assembled += assembled;
        if let ServeRequest::Regress(_) = request {
            let replay_units = run.counts.units - units_before;
            if assembled != 0 || replay_units != 0 {
                run.fail(format!(
                    "warm regress job `{key}` assembled {assembled} images \
                     ({replay_units} in the replay), expected 0"
                ));
            }
        }
        check_replay(&mut run, &key, &job.verdict, &replayed);
        tally.record(reference, &key, verdict_of(Ok(job)));
    }
    run.traced_s = started.elapsed().as_secs_f64();
    run.requests = cycle.len() as u64;

    let (hits1, misses1, evictions) = store_stats(client)?;
    run.real.store_hits = hits1 - hits0;
    run.real.store_misses = misses1 - misses0;
    run.real.evictions = evictions;
    if evictions != 0 {
        run.fail(format!(
            "the daemon's store evicted {evictions} images, expected 0"
        ));
    }
    drop(service);
    Ok(run.finish("serve_warm", args.seed, &tally))
}
