//! Serial layer replay: one request re-done call by call through each
//! layer's public functions, every call inside a span.
//!
//! The program keeps its layers behind `Campaign::run` and the daemon,
//! so attribution happens from outside: the traced run first makes the
//! real request (for its report, counters and latency), then replays the
//! same work serially — materialise, render, assemble, link, decode,
//! set up machines, run, compare — the way the campaign and the fuzz
//! runner sequence it. The replay is checked against the real request's
//! verdict, so it cannot drift from the work it attributes.
//!
//! Two deliberate simplifications, both conservative:
//! * the replay's image store keys images by their full source text, so
//!   it dedupes only byte-identical units (the campaign's content key
//!   also merges units that differ only in unreferenced defines);
//! * it parses and encodes through the public `ParsedUnit` split, which
//!   keeps the listing the campaign's lean path skips.

use std::collections::HashMap;
use std::sync::Arc;

use advm::build::{es_rom_source, link_programs, unit_sources, UNIT_FILE};
use advm::env::{EnvConfig, ModuleTestEnv};
use advm::DEFAULT_MONITOR_CAPACITY;
use advm_asm::{preprocess, Image, ParsedUnit, Program, SourceSet};
use advm_fuzz::{FuzzProgram, ProgramSource, TraceAssertion};
use advm_sim::{compare, DecodedProgram, MmioTrace, Platform, RunResult, DEFAULT_FUEL};
use advm_soc::{Derivative, GlobalsSpec, PlatformId};

use crate::trace::Tracer;
use crate::verdict::Verdict;

/// Where the fuzz runner places programs for its encode round-trip
/// check (`advm::fuzz`'s generation step).
const FUZZ_ENCODE_CHECK_BASE: u32 = 0x0_0400;

/// Work the replay counted, summed over every replayed request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Units (and ES ROMs) the asm layer assembled.
    pub units: u64,
    /// Logical lines the preprocessor emitted.
    pub preprocess_lines: u64,
    /// `Globals.inc` renders.
    pub globals_renders: u64,
    /// Machines constructed.
    pub machines: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Instructions retired inside superblock dispatches.
    pub block_insns: u64,
    /// Decode-cache hits.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// Checkers mined.
    pub mined: u64,
}

/// One built image and its predecode artifact.
struct Prebuilt {
    image: Image,
    decoded: DecodedProgram,
}

/// The replay's artifact store: built images and ES ROMs, keyed by the
/// FNV-1a hash of their full source text.
#[derive(Default)]
pub struct StoreModel {
    images: HashMap<u64, Arc<Prebuilt>>,
    es: HashMap<u64, Arc<Program>>,
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn sources_key(sources: &SourceSet, seed: u64) -> u64 {
    sources.iter().fold(seed, |hash, (name, text)| {
        fnv1a(fnv1a(fnv1a(hash, name.as_bytes()), b"\0"), text.as_bytes())
    })
}

/// Replays one assembly: preprocess, parse, encode.
fn assemble(
    tr: &mut Tracer,
    entry: &str,
    sources: &SourceSet,
    counts: &mut Counts,
) -> Result<Program, String> {
    let pre = tr
        .leaf("asm.preprocess", || preprocess(entry, sources))
        .map_err(|e| e.to_string())?;
    counts.units += 1;
    counts.preprocess_lines += pre.lines.len() as u64;
    let parsed = tr
        .leaf("asm.parse", || ParsedUnit::from_preprocessed(&pre))
        .map_err(|e| e.to_string())?;
    tr.leaf("asm.encode", || parsed.encode())
        .map_err(|e| e.to_string())
}

/// The env's ES ROM: generated by the soc layer, assembled on a store
/// miss (or always, without a store — the fuzz runner's mining builds).
fn es_program(
    tr: &mut Tracer,
    env: &ModuleTestEnv,
    store: Option<&mut StoreModel>,
    counts: &mut Counts,
) -> Result<Arc<Program>, String> {
    let open = tr.open("soc.es_rom");
    let source = es_rom_source(env);
    let key = fnv1a(0, source.as_bytes());
    let cached = store.as_ref().and_then(|s| s.es.get(&key).cloned());
    let program = match cached {
        Some(program) => program,
        None => {
            let sources = SourceSet::new().with("<input>", source);
            let program = Arc::new(assemble(tr, "<input>", &sources, counts)?);
            if let Some(store) = store {
                store.es.insert(key, Arc::clone(&program));
            }
            program
        }
    };
    tr.close(open);
    Ok(program)
}

/// Re-targets an env to one platform: the reconfigure the campaign
/// planner does, then the `Globals.inc` render it implies, checked
/// against the text the env carries.
fn retarget(
    tr: &mut Tracer,
    env: &ModuleTestEnv,
    platform: PlatformId,
    counts: &mut Counts,
) -> Result<ModuleTestEnv, String> {
    let config = EnvConfig {
        platform,
        ..env.config()
    };
    let ported = tr.leaf("core.env.reconfigure", || {
        let mut ported = env.clone();
        ported.reconfigure(config);
        ported
    });
    let text = tr.leaf("soc.globals_render", || {
        GlobalsSpec::new(Derivative::from_id(config.derivative), platform)
            .with_es_version(config.es_version)
            .with_generated_test_pages(env.cells().len().max(2))
            .render()
            .text()
    });
    counts.globals_renders += 1;
    if text != ported.globals_text() {
        return Err(format!(
            "replayed Globals.inc render of {} on {platform} differs from the env's",
            env.name()
        ));
    }
    Ok(ported)
}

/// Builds (or fetches) one cell's linked, predecoded image.
fn image(
    tr: &mut Tracer,
    env: &ModuleTestEnv,
    cell_id: &str,
    es: &Program,
    es_key: u64,
    store: &mut StoreModel,
    counts: &mut Counts,
) -> Result<Arc<Prebuilt>, String> {
    let sources = tr
        .leaf("core.build.unit_sources", || unit_sources(env, cell_id))
        .map_err(|e| e.to_string())?;
    let key = sources_key(&sources, es_key);
    if let Some(hit) = store.images.get(&key) {
        return Ok(Arc::clone(hit));
    }
    let unit = assemble(tr, UNIT_FILE, &sources, counts)?;
    let image = tr
        .leaf("core.build.link", || link_programs(&unit, es))
        .map_err(|e| e.to_string())?;
    let decoded = tr.leaf("sim.decode", || DecodedProgram::from_image(&image));
    let built = Arc::new(Prebuilt { image, decoded });
    store.images.insert(key, Arc::clone(&built));
    Ok(built)
}

fn absorb_run(counts: &mut Counts, result: &RunResult) {
    counts.insns += result.insns;
    counts.block_insns += result.decode.block_insns;
    counts.decode_hits += result.decode.hits;
    counts.decode_misses += result.decode.misses;
}

/// Replays one campaign over `envs` × `platforms` against `store`, with
/// `checkers` armed when non-empty. Returns the replay's verdict
/// (`unique_builds` is left 0: the replay's dedupe is not the
/// campaign's) and the number of checker violations.
///
/// # Errors
///
/// Any layer call that fails.
pub fn campaign(
    tr: &mut Tracer,
    envs: &[ModuleTestEnv],
    platforms: &[PlatformId],
    store: &mut StoreModel,
    checkers: &[TraceAssertion],
    counts: &mut Counts,
) -> Result<(Verdict, u64), String> {
    let mut verdict = Verdict {
        mined: checkers.len() as u64,
        ..Verdict::default()
    };
    let mut violations = 0;
    for env in envs {
        let derivative = Derivative::from_id(env.config().derivative);
        let es = es_program(tr, env, Some(store), counts)?;
        let es_key = fnv1a(0, es_rom_source(env).as_bytes());
        let mut by_cell: Vec<Vec<RunResult>> = vec![Vec::new(); env.cells().len()];
        for &platform in platforms {
            let ported = retarget(tr, env, platform, counts)?;
            for (cell, results) in ported.cells().iter().zip(by_cell.iter_mut()) {
                let built = image(tr, &ported, cell.id(), &es, es_key, store, counts)?;
                let mut machine =
                    tr.leaf("sim.machine_setup", || Platform::new(platform, &derivative));
                counts.machines += 1;
                let result = tr.leaf("sim.run", || {
                    machine.set_fuel(DEFAULT_FUEL);
                    if !checkers.is_empty() {
                        machine.enable_mmio_trace(DEFAULT_MONITOR_CAPACITY);
                    }
                    machine.load_prebuilt(&built.image, &built.decoded);
                    machine.run()
                });
                if let Some(trace) = machine.mmio_trace() {
                    violations += tr.leaf("fuzz.check", || {
                        checkers
                            .iter()
                            .map(|c| c.check(trace).len() as u64)
                            .sum::<u64>()
                    });
                }
                absorb_run(counts, &result);
                verdict.runs += 1;
                verdict.insns += result.insns;
                if result.passed() {
                    verdict.passed += 1;
                } else {
                    verdict.failed += 1;
                }
                results.push(result);
            }
        }
        for results in by_cell.iter().filter(|r| r.len() > 1) {
            let report = tr
                .leaf("sim.compare", || compare(results))
                .map_err(|e| e.to_string())?;
            verdict.divergences += u64::from(!report.consistent);
        }
    }
    Ok((verdict, violations))
}

/// Replays the fuzz runner's generation step: draw the batch and check
/// every instruction's encode round-trip.
///
/// # Errors
///
/// A program whose encoding does not round-trip.
pub fn fuzz_generate(
    tr: &mut Tracer,
    seed: u64,
    programs: usize,
) -> Result<Vec<FuzzProgram>, String> {
    tr.leaf("fuzz.generate", || {
        let batch = ProgramSource::new(seed).generate(programs);
        for program in &batch {
            program.check_encoding(FUZZ_ENCODE_CHECK_BASE)?;
        }
        Ok(batch)
    })
}

/// Replays the fuzz runner's mining step: one monitored, fault-free run
/// of every program on every platform, built from scratch as the runner
/// does, then assertion mining over the captured MMIO traces.
///
/// # Errors
///
/// Any layer call that fails.
pub fn fuzz_mine(
    tr: &mut Tracer,
    envs: &[ModuleTestEnv],
    platforms: &[PlatformId],
    counts: &mut Counts,
) -> Result<Vec<TraceAssertion>, String> {
    let open = tr.open("fuzz.mine");
    let mut traces: Vec<MmioTrace> = Vec::new();
    for env in envs {
        let derivative = Derivative::from_id(env.config().derivative);
        for &platform in platforms {
            let ported = retarget(tr, env, platform, counts)?;
            let cell_id = ported.cells()[0].id().to_owned();
            let sources = tr
                .leaf("core.build.unit_sources", || {
                    unit_sources(&ported, &cell_id)
                })
                .map_err(|e| e.to_string())?;
            let unit = assemble(tr, UNIT_FILE, &sources, counts)?;
            let es = es_program(tr, &ported, None, counts)?;
            let image = tr
                .leaf("core.build.link", || link_programs(&unit, &es))
                .map_err(|e| e.to_string())?;
            let mut machine = tr.leaf("sim.machine_setup", || Platform::new(platform, &derivative));
            counts.machines += 1;
            let result = tr.leaf("sim.run", || {
                machine.set_fuel(DEFAULT_FUEL);
                machine.enable_mmio_trace(DEFAULT_MONITOR_CAPACITY);
                machine.load_image(&image);
                machine.run()
            });
            absorb_run(counts, &result);
            traces.push(
                machine
                    .mmio_trace()
                    .cloned()
                    .ok_or("monitor was not armed")?,
            );
        }
    }
    let refs: Vec<&MmioTrace> = traces.iter().collect();
    let mined = advm_fuzz::mine(&refs);
    counts.mined += mined.len() as u64;
    tr.close(open);
    Ok(mined)
}
