//! Building and running test cells.
//!
//! A *unit* is one test cell compiled with its environment's abstraction
//! layer and the global libraries, laid out per the SC88 runtime
//! contract: vector table at 0, startup stub at the reset PC, then trap
//! handlers, base functions and the test. The embedded-software ROM is
//! assembled separately (it is global-layer code delivered by another
//! team) and merged at image level — overlap is a build error.

use std::collections::HashMap;

use advm_asm::{assemble, AsmError, Image, ParsedUnit, Prelude, Program, SourceSet};
use advm_sim::{Platform, PlatformFault, RunResult};
use advm_soc::{Derivative, EsRom, MemoryMap, RegionKind};

use crate::env::{ModuleTestEnv, BASE_FUNCTIONS_FILE, GLOBALS_FILE, TEST_SOURCE_FILE};
use crate::runtime::{
    startup_stub, trap_handlers, vector_table, TRAP_HANDLERS_FILE, VECTOR_TABLE_FILE,
};

/// Name of the synthesized unit entry file.
pub const UNIT_FILE: &str = "__unit.asm";

/// Builds the flat source set for assembling one cell of an environment.
///
/// The set uses the short file names the paper's listings use
/// (`Globals.inc`, `Base_Functions.asm`), mapped from the environment's
/// tree.
///
/// # Errors
///
/// Returns an error if the cell does not exist.
pub fn unit_sources(env: &ModuleTestEnv, cell_id: &str) -> Result<SourceSet, AsmError> {
    let cell = env.cell(cell_id).ok_or_else(|| {
        AsmError::general(format!(
            "no test cell `{cell_id}` in environment `{}`",
            env.name()
        ))
    })?;
    Ok(shared_sources(env, &format!("{}/{cell_id}", env.name()))
        .with(TEST_SOURCE_FILE, cell.source()))
}

/// Every file of a unit except the test, with the wrapper's header
/// comment naming `label`.
fn shared_sources(env: &ModuleTestEnv, label: &str) -> SourceSet {
    let unit = format!(
        "\
;; {UNIT_FILE} — generated build wrapper for {label}
.INCLUDE {GLOBALS_FILE}
.ORG 0x0
.INCLUDE {VECTOR_TABLE_FILE}
.ORG 0x100
{stub}
.INCLUDE {TRAP_HANDLERS_FILE}
.INCLUDE {BASE_FUNCTIONS_FILE}
.INCLUDE {TEST_SOURCE_FILE}
",
        stub = startup_stub(),
    );
    SourceSet::new()
        .with(UNIT_FILE, unit)
        .with(GLOBALS_FILE, env.globals_text())
        .with(BASE_FUNCTIONS_FILE, env.base_functions_text())
        .with(VECTOR_TABLE_FILE, vector_table())
        .with(TRAP_HANDLERS_FILE, trap_handlers())
}

/// The unit files every cell of `env` shares: [`unit_sources`] without
/// the test. They depend on nothing but `env`'s `Globals.inc` and
/// `Base_Functions.asm` (the wrapper's header comment names no cell).
pub(crate) fn prelude_sources(env: &ModuleTestEnv) -> SourceSet {
    shared_sources(env, "every cell")
}

/// The unit preludes of a batch of builds (a campaign's build phase, a
/// fuzz run's mining pass): the sources of one slot per distinct set of
/// prelude inputs. The batch's builder parses a slot's [`Prelude`] where
/// it needs one and owns it. A campaign worker claims every build of
/// one slot together, parses the prelude once for them and drops it
/// when the group is done. Every build of a slot then preprocesses and
/// parses only its test.
#[derive(Default)]
pub(crate) struct Preludes {
    /// [`Preludes::key`] → slot index.
    by_key: HashMap<u64, usize>,
    sources: Vec<SourceSet>,
}

impl Preludes {
    /// The hash of `env`'s prelude inputs (`Globals.inc` and
    /// `Base_Functions.asm`): envs with equal keys share a prelude.
    pub(crate) fn key(env: &ModuleTestEnv) -> u64 {
        [env.globals_text(), env.base_functions_text()]
            .iter()
            .fold(0, |hash, text| {
                crate::campaign::fnv1a(crate::campaign::fnv1a(hash, text.as_bytes()), b"\0")
            })
    }

    /// The slot for prelude inputs hashing to `key`, shared with every
    /// earlier caller of the same key. `sources` supplies the slot's
    /// [`prelude_sources`] when the key is new.
    pub(crate) fn shared(&mut self, key: u64, sources: impl FnOnce() -> SourceSet) -> usize {
        match self.by_key.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = self.fresh(sources());
                self.by_key.insert(key, slot);
                slot
            }
        }
    }

    /// A slot of its own, shared with nobody (the uncached build).
    pub(crate) fn fresh(&mut self, sources: SourceSet) -> usize {
        self.sources.push(sources);
        self.sources.len() - 1
    }

    /// Slots planned so far.
    pub(crate) fn len(&self) -> usize {
        self.sources.len()
    }

    /// Preprocesses and parses `slot`'s prelude.
    pub(crate) fn parse(&self, slot: usize) -> Prelude {
        Prelude::new(UNIT_FILE, &self.sources[slot], TEST_SOURCE_FILE)
    }
}

/// Assembles a standalone source, as [`advm_asm::assemble_str`] does,
/// without building the listing.
pub(crate) fn assemble_lean(text: &str) -> Result<Program, AsmError> {
    let sources = SourceSet::new().with("<input>", text);
    ParsedUnit::parse_lean("<input>", &sources)?.encode()
}

/// Assembles one cell into its unit program.
///
/// # Errors
///
/// Propagates assembly errors, located in the offending source file.
pub fn assemble_cell(env: &ModuleTestEnv, cell_id: &str) -> Result<Program, AsmError> {
    let sources = unit_sources(env, cell_id)?;
    assemble(UNIT_FILE, &sources)
}

/// Generates the source of the embedded-software ROM the environment's
/// configuration expects.
pub fn es_rom_source(env: &ModuleTestEnv) -> String {
    let derivative = Derivative::from_id(env.config().derivative);
    EsRom::generate(&derivative, env.config().es_version)
        .source()
        .to_owned()
}

/// Assembles the embedded-software ROM the environment's configuration
/// expects.
///
/// # Errors
///
/// Propagates assembly errors (a failure here indicates a broken ES
/// generator, but the error is surfaced rather than panicking because the
/// experiments deliberately build historical/mismatched configurations).
pub fn assemble_es_rom(env: &ModuleTestEnv) -> Result<Program, AsmError> {
    advm_asm::assemble_str(&es_rom_source(env))
}

/// Links an assembled unit and ES ROM into one loadable image.
///
/// This is the final stage of the [`crate::campaign::Campaign`] worker
/// hot path; exposing it separately lets the campaign's build cache
/// assemble the (campaign-wide identical) ES ROM once and re-link it
/// against many units.
///
/// # Errors
///
/// Propagates image-overlap link errors, and rejects an image with a
/// byte outside the SC88 map's loadable memory (ROM, RAM, NVM): no
/// platform could load it.
pub fn link_programs(unit: &Program, es: &Program) -> Result<Image, AsmError> {
    let mut image = Image::new();
    image
        .load_program(unit)
        .map_err(|e| AsmError::general(format!("unit link failed: {e}")))?;
    image
        .load_program(es)
        .map_err(|e| AsmError::general(format!("ES ROM link failed: {e}")))?;
    check_loadable(&image)?;
    Ok(image)
}

/// Fails on the first image byte outside ROM, RAM and NVM.
fn check_loadable(image: &Image) -> Result<(), AsmError> {
    let map = MemoryMap::sc88();
    for (base, bytes) in image.runs() {
        let end = u64::from(base) + bytes.len() as u64;
        let mut addr = base;
        while u64::from(addr) < end {
            match map.region_at(addr) {
                Some(region)
                    if matches!(
                        region.kind(),
                        RegionKind::Rom | RegionKind::Ram | RegionKind::Nvm
                    ) =>
                {
                    addr = region.end();
                }
                _ => {
                    return Err(AsmError::general(format!(
                        "link failed: image byte at {addr:#07x} lies outside loadable memory"
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Assembles and links one full image from pre-generated inputs: the
/// cell's unit source set plus the ES ROM source.
///
/// # Errors
///
/// Propagates assembly errors and image-overlap link errors.
pub fn build_from_sources(sources: &SourceSet, es_source: &str) -> Result<Image, AsmError> {
    let unit = assemble(UNIT_FILE, sources)?;
    let es = advm_asm::assemble_str(es_source)?;
    link_programs(&unit, &es)
}

/// Builds the full loadable image for one cell: unit + ES ROM.
///
/// # Errors
///
/// Propagates assembly errors and image-overlap link errors.
pub fn build_cell(env: &ModuleTestEnv, cell_id: &str) -> Result<Image, AsmError> {
    let sources = unit_sources(env, cell_id)?;
    build_from_sources(&sources, &es_rom_source(env))
}

/// Builds and runs one cell on the environment's configured platform.
///
/// # Errors
///
/// Propagates build errors; execution problems are reported inside the
/// [`RunResult`], not as `Err`.
pub fn run_cell(env: &ModuleTestEnv, cell_id: &str) -> Result<RunResult, AsmError> {
    run_cell_with_fault(env, cell_id, PlatformFault::None)
}

/// Like [`run_cell`], with a hardware fault injected into the platform.
///
/// # Errors
///
/// Propagates build errors.
pub fn run_cell_with_fault(
    env: &ModuleTestEnv,
    cell_id: &str,
    fault: PlatformFault,
) -> Result<RunResult, AsmError> {
    let image = build_cell(env, cell_id)?;
    let derivative = Derivative::from_id(env.config().derivative);
    let mut platform = Platform::with_fault(env.config().platform, &derivative, fault);
    platform.load_image(&image);
    Ok(platform.run())
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, PlatformId};

    use crate::env::{EnvConfig, TestCell};

    use super::*;

    fn env_with(source: &str) -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![TestCell::new("TEST_ONE", "demo", source)],
        )
    }

    #[test]
    fn shared_preludes_assemble_every_standard_unit_like_whole_units() {
        let mut units = 0;
        for derivative in DerivativeId::ALL {
            let config = EnvConfig::new(derivative, PlatformId::GoldenModel);
            let mut preludes = Preludes::default();
            let mut parsed = HashMap::new();
            for env in crate::presets::standard_system(config) {
                for platform in PlatformId::ALL {
                    let mut ported = env.clone();
                    ported.reconfigure(EnvConfig {
                        platform,
                        ..env.config()
                    });
                    let slot = preludes.shared(Preludes::key(&ported), || prelude_sources(&ported));
                    let prelude = parsed.entry(slot).or_insert_with(|| preludes.parse(slot));
                    for cell in ported.cells() {
                        let sources = unit_sources(&ported, cell.id()).unwrap();
                        let whole = ParsedUnit::parse_lean(UNIT_FILE, &sources)
                            .and_then(|unit| unit.encode())
                            .unwrap();
                        let shared = prelude.assemble(cell.source()).unwrap();
                        assert_eq!(shared, whole, "{}/{} on {platform}", env.name(), cell.id());
                        units += 1;
                    }
                }
            }
            assert!(parsed.len() < 48, "preludes are shared across envs");
        }
        assert_eq!(units, 720);
    }

    #[test]
    fn minimal_passing_cell_builds_and_passes() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Report_Pass
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn paper_figure6_cell_passes_end_to_end() {
        // The Figure 6 test, completed with the check-and-report epilogue:
        // build the page value with INSERT under globals control, write
        // it, and verify the hardware took it.
        let env = env_with(
            "\
;; Code for test 1
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST1_TARGET_PAGE
_main:
    CALL Base_Init_Register
    MOVI d14, #0
    INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    OR d14, d14, #PAGE_ENABLE_MASK
    STORE [PAGE_CTRL_ADDR], d14
    LOAD ArgA, #TEST_PAGE
    CALL Base_Check_Active_Page
    CMP RetVal, #0
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn figure7_wrapped_es_call_works() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Init_Register
    LOAD d1, [PAGE_CTRL_ADDR]
    AND d1, d1, #PAGE_ENABLE_MASK
    CMP d1, #0
    JEQ t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #2
    CALL Base_Report_Fail
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn image_bytes_outside_memory_fail_the_link() {
        for addr in ["0x70000", "0xE0100"] {
            let env = env_with(&format!(
                ".INCLUDE Globals.inc\n_main:\n    RETURN\n.ORG {addr}\n.WORD 1\n"
            ));
            let err = run_cell(&env, "TEST_ONE").unwrap_err().to_string();
            assert!(err.contains(&addr.to_lowercase()), "{err}");
        }
    }

    #[test]
    fn missing_cell_reports_error() {
        let env = env_with("_main:\n    RETURN\n");
        assert!(run_cell(&env, "TEST_MISSING").is_err());
    }

    #[test]
    fn returning_without_result_fails_with_no_result_code() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(!result.passed());
        assert_eq!(
            result.outcome,
            Some(advm_soc::TestOutcome::Fail {
                detail: crate::runtime::fail_codes::NO_RESULT as u16
            })
        );
    }

    #[test]
    fn stray_trap_fails_via_default_handler() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [0x70000]       ; unmapped: bus error trap
    CALL Base_Report_Pass
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(!result.passed());
        assert_eq!(
            result.outcome,
            Some(advm_soc::TestOutcome::Fail {
                detail: crate::runtime::fail_codes::BUS_ERROR as u16
            })
        );
    }

    #[test]
    fn check_eq_macro_works() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #7
    CHECK_EQ d1, #7, 10
    CHECK_EQ d1, #8, 11
    CALL Base_Report_Pass
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(!result.passed());
        assert_eq!(
            result.outcome,
            Some(advm_soc::TestOutcome::Fail { detail: 11 })
        );
    }

    #[test]
    fn same_cell_runs_on_every_platform() {
        let base = env_with(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Wdt_Init
    CALL Base_Wdt_Service
    CALL Base_Report_Pass
    RETURN
",
        );
        for platform in PlatformId::ALL {
            let mut env = base.clone();
            let config = EnvConfig::new(DerivativeId::Sc88A, platform);
            env.reconfigure(config);
            let result = run_cell(&env, "TEST_ONE").unwrap();
            assert!(result.passed(), "{platform}: {result}");
        }
    }
}
