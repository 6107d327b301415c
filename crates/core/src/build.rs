//! Building and running test cells.
//!
//! A *unit* is one test cell compiled with its environment's abstraction
//! layer and the global libraries, laid out per the SC88 runtime
//! contract: vector table at 0, startup stub at the reset PC, then trap
//! handlers, base functions and the test. The embedded-software ROM is
//! assembled separately (it is global-layer code delivered by another
//! team) and merged at image level — overlap is a build error.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use advm_asm::{assemble, AsmError, Image, ParsedUnit, Prelude, Program, SourceSet};
use advm_sim::{Platform, PlatformFault, RunResult};
use advm_soc::{Derivative, EsRom};
use parking_lot::Mutex;

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

/// Lazily parsed unit [`Prelude`]s, one slot per distinct set of
/// prelude inputs. A batch of builds (a campaign's build phase, a fuzz
/// run's mining pass) plans its slots up front; the first build that
/// needs a slot parses it, and every later build of the slot preprocesses
/// and parses only its test. A slot whose planned builds
/// ([`Preludes::expect`]) have all run drops its prelude.
#[derive(Default)]
pub(crate) struct Preludes {
    /// Hash of (`Globals.inc`, `Base_Functions.asm`) → slot index.
    by_inputs: HashMap<u64, usize>,
    slots: Vec<PreludeSlot>,
    parsed: AtomicUsize,
}

struct PreludeSlot {
    sources: SourceSet,
    prelude: Mutex<Option<Arc<Prelude>>>,
    /// Planned builds that have not run yet.
    pending: AtomicUsize,
}

impl Preludes {
    /// The slot for `env`'s prelude inputs, shared with every earlier
    /// env whose inputs are equal.
    pub(crate) fn shared(&mut self, env: &ModuleTestEnv) -> usize {
        let key = [env.globals_text(), env.base_functions_text()]
            .iter()
            .fold(0, |hash, text| {
                crate::campaign::fnv1a(crate::campaign::fnv1a(hash, text.as_bytes()), b"\0")
            });
        match self.by_inputs.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = self.fresh(env);
                self.by_inputs.insert(key, slot);
                slot
            }
        }
    }

    /// A slot of `env`'s own, shared with nobody (the uncached build).
    pub(crate) fn fresh(&mut self, env: &ModuleTestEnv) -> usize {
        self.slots.push(PreludeSlot {
            sources: prelude_sources(env),
            prelude: Mutex::new(None),
            pending: AtomicUsize::new(0),
        });
        self.slots.len() - 1
    }

    /// Plans one build on `slot`: the slot keeps its prelude until every
    /// planned build has run. Slots with no planned build keep theirs
    /// until the batch drops.
    pub(crate) fn expect(&self, slot: usize) {
        self.slots[slot].pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Assembles the unit of `slot`'s prelude and `test` without a
    /// listing: the same program and errors as assembling
    /// [`unit_sources`] whole.
    pub(crate) fn assemble(&self, slot: usize, test: &str) -> Result<Program, AsmError> {
        let slot = &self.slots[slot];
        let prelude = Arc::clone(slot.prelude.lock().get_or_insert_with(|| {
            self.parsed.fetch_add(1, Ordering::Relaxed);
            Arc::new(Prelude::new(UNIT_FILE, &slot.sources, TEST_SOURCE_FILE))
        }));
        let program = prelude.assemble(test);
        let last = slot
            .pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        if last == Ok(1) {
            *slot.prelude.lock() = None;
        }
        program
    }

    /// Preludes parsed so far.
    pub(crate) fn parsed(&self) -> usize {
        self.parsed.load(Ordering::Relaxed)
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
/// Propagates image-overlap link errors.
pub fn link_programs(unit: &Program, es: &Program) -> Result<Image, AsmError> {
    let mut image = Image::new();
    image
        .load_program(unit)
        .map_err(|e| AsmError::general(format!("unit link failed: {e}")))?;
    image
        .load_program(es)
        .map_err(|e| AsmError::general(format!("ES ROM link failed: {e}")))?;
    Ok(image)
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
            for env in crate::presets::standard_system(config) {
                for platform in PlatformId::ALL {
                    let mut ported = env.clone();
                    ported.reconfigure(EnvConfig {
                        platform,
                        ..env.config()
                    });
                    let slot = preludes.shared(&ported);
                    for cell in ported.cells() {
                        let sources = unit_sources(&ported, cell.id()).unwrap();
                        let whole = ParsedUnit::parse_lean(UNIT_FILE, &sources)
                            .and_then(|unit| unit.encode())
                            .unwrap();
                        let shared = preludes.assemble(slot, cell.source()).unwrap();
                        assert_eq!(shared, whole, "{}/{} on {platform}", env.name(), cell.id());
                        units += 1;
                    }
                }
            }
            assert!(preludes.parsed() < 48, "preludes are shared across envs");
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
