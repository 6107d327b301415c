//! Produces the verdict reference on the simulator's slow reference
//! tier: no build cache, no decode cache, no superblocks, one worker.
//! Each verdict is cross-checked against the default fast tier, whose
//! build plan also supplies `unique_builds` (the slow tier disables the
//! build cache, so it plans one build per job).

use std::collections::BTreeMap;
use std::sync::Arc;

use advm::env::{EnvConfig, ModuleTestEnv};
use advm::fuzz::{program_env, Fuzz};
use advm::porting::port_env;
use advm::{
    presets, ArtifactStore, Campaign, CampaignReport, DEFAULT_ARTIFACT_CAPACITY,
    DEFAULT_MONITOR_CAPACITY,
};
use advm_fuzz::{ProgramSource, TraceAssertion};
use advm_sim::{MmioTrace, Platform, DEFAULT_FUEL};
use advm_soc::{Derivative, DerivativeId, PlatformId};

use crate::inputs::{self, LongKind, Rng, ServeRequest, FUZZ_PROGRAMS, FUZZ_SEED};
use crate::verdict::{Reference, Verdict};

fn slow(campaign: Campaign) -> Campaign {
    campaign
        .cache(false)
        .decode_cache(false)
        .superblocks(false)
        .workers(1)
}

fn run(campaign: Campaign) -> Result<CampaignReport, String> {
    campaign.run().map_err(|e| e.to_string())
}

/// The slow-tier verdict of `campaign`, with `unique_builds` from the
/// fast tier's plan, after checking both tiers agree.
fn verdict(key: &str, campaign: impl Fn() -> Campaign, mined: usize) -> Result<Verdict, String> {
    let reference = Verdict::of_report(&run(slow(campaign()))?, mined);
    let fast = Verdict::of_report(
        &run(campaign().artifact_store(Arc::new(ArtifactStore::new(DEFAULT_ARTIFACT_CAPACITY))))?,
        mined,
    );
    let reference = Verdict {
        unique_builds: fast.unique_builds,
        ..reference
    };
    if reference != fast {
        return Err(format!(
            "`{key}`: slow tier {} disagrees with fast tier {}",
            reference.to_json(),
            fast.to_json()
        ));
    }
    Ok(reference)
}

/// Mines checkers the way the fuzz runner does, on the slow tier.
fn mine_slow(envs: &[ModuleTestEnv]) -> Result<Vec<TraceAssertion>, String> {
    let mut traces: Vec<MmioTrace> = Vec::new();
    for env in envs {
        for platform in PlatformId::ALL {
            let mut ported = env.clone();
            ported.reconfigure(EnvConfig {
                platform,
                ..env.config()
            });
            let cell = ported.cells()[0].id().to_owned();
            let image = advm::build::build_cell(&ported, &cell).map_err(|e| e.to_string())?;
            let mut machine =
                Platform::new(platform, &Derivative::from_id(env.config().derivative));
            machine.set_decode_cache(false);
            machine.set_superblocks(false);
            machine.set_fuel(DEFAULT_FUEL);
            machine.enable_mmio_trace(DEFAULT_MONITOR_CAPACITY);
            machine.load_image(&image);
            machine.run();
            traces.push(
                machine
                    .mmio_trace()
                    .cloned()
                    .ok_or("monitor was not armed")?,
            );
        }
    }
    let refs: Vec<&MmioTrace> = traces.iter().collect();
    Ok(advm_fuzz::mine(&refs))
}

/// Generates one workload's reference.
///
/// # Errors
///
/// A failing build, or tiers that disagree.
pub fn generate(workload: &str) -> Result<Reference, String> {
    let mut requests = BTreeMap::new();
    match workload {
        "port_cold" => {
            let envs = presets::standard_system(presets::default_config());
            for d in DerivativeId::ALL {
                let ported: Vec<ModuleTestEnv> = envs
                    .iter()
                    .map(|e| port_env(e, EnvConfig::new(d, e.config().platform)).env)
                    .collect();
                let campaign = || {
                    Campaign::new()
                        .envs(ported.clone())
                        .platforms(PlatformId::ALL)
                };
                requests.insert(d.name().to_owned(), verdict(d.name(), campaign, 0)?);
            }
        }
        "serve_warm" => {
            for env in presets::standard_system(presets::default_config()) {
                let key = ServeRequest::Regress(env.name().to_owned()).key();
                let campaign = || {
                    Campaign::new()
                        .env(env.clone())
                        .bisect(true)
                        .platforms(PlatformId::ALL)
                };
                requests.insert(key.clone(), verdict(&key, campaign, 0)?);
            }
            let programs = ProgramSource::new(FUZZ_SEED).generate(FUZZ_PROGRAMS as usize);
            let envs: Vec<ModuleTestEnv> = programs.iter().map(program_env).collect();
            let mined = mine_slow(&envs)?;
            let key = ServeRequest::Fuzz.key();
            let campaign = || {
                let mut campaign = Campaign::new()
                    .platforms(PlatformId::ALL)
                    .checkers(mined.iter().copied())
                    .monitor_capacity(DEFAULT_MONITOR_CAPACITY);
                for program in &programs {
                    campaign =
                        campaign.env_with_meta(program_env(program), program.scenario_meta());
                }
                campaign
            };
            let reference = verdict(&key, campaign, mined.len())?;
            let fast = Fuzz::new()
                .programs(FUZZ_PROGRAMS as usize)
                .seed(FUZZ_SEED)
                .mine(true)
                .run()
                .map_err(|e| e.to_string())?;
            let fast_verdict = Verdict::of_report(fast.campaign(), fast.mined().len());
            if fast_verdict != reference || !fast.ok() {
                return Err(format!(
                    "`{key}`: the fuzz runner reports {} (ok {}), the slow tier {}",
                    fast_verdict.to_json(),
                    fast.ok(),
                    reference.to_json()
                ));
            }
            requests.insert(key, reference);
        }
        "exec_long" => {
            // Two data seeds: the cells' trip counts are fixed, so the
            // verdict must not depend on the seeded data.
            for kind in LongKind::ALL {
                let mut got = Vec::new();
                for seed in [1, 2] {
                    let env = inputs::long_env(kind, &mut Rng::new(seed, 3));
                    let campaign = || Campaign::new().env(env.clone()).platforms(PlatformId::ALL);
                    got.push(verdict(kind.name(), campaign, 0)?);
                }
                if got[0] != got[1] {
                    return Err(format!(
                        "`{}`: verdict depends on the data seed",
                        kind.name()
                    ));
                }
                requests.insert(kind.name().to_owned(), got[0]);
            }
        }
        other => return Err(format!("no reference for workload `{other}`")),
    }
    Ok(Reference {
        workload: workload.to_owned(),
        requests,
    })
}
