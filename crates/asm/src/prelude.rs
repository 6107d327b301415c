//! Unit preludes: the shared head of many units, preprocessed and parsed
//! once.
//!
//! An ADVM build unit is a fixed wrapper that pulls in the abstraction
//! layer (`Globals.inc`), the runtime (vector table, startup stub, trap
//! handlers) and `Base_Functions.asm`, and then, as its final line,
//! `.INCLUDE`s one test. Every test of an environment shares everything
//! before that line, and it is most of each unit. A [`Prelude`] runs the
//! preprocessor up to the test's include once, keeps the preprocessor's
//! state (constants, aliases and macros behind `Arc`s, open conditionals,
//! completed includes, the macro-expansion counter) and the parsed
//! statements, and resumes from there for each test.

use std::collections::BTreeMap;

use crate::assemble::{encode_unit, parse_statements, PStmt};
use crate::diag::AsmError;
use crate::preprocess::{preprocess_until, preprocess_with, resume, NoSplit, SplitState};
use crate::{ParsedUnit, Program, SourceSet};

/// The part of a unit that precedes its final `.INCLUDE` of a test file,
/// preprocessed and lean-parsed once and shared by every test built on
/// it.
///
/// [`Prelude::assemble`] is equivalent to [`ParsedUnit::parse_lean`] and
/// [`ParsedUnit::encode`] over the same sources plus the test file: the
/// [`Program`] is identical, and so is every error, including which of
/// two errors wins. A test's preprocessing
/// error still beats a statement-parse error in the prelude, as it does
/// when the whole unit is preprocessed before anything is parsed.
///
/// ```
/// use advm_asm::{ParsedUnit, Prelude, SourceSet};
///
/// # fn main() -> Result<(), advm_asm::AsmError> {
/// let shared = SourceSet::new()
///     .with("unit.asm", ".INCLUDE g.inc\n_start:\n    NOP\n.INCLUDE test.asm\n")
///     .with("g.inc", "LIMIT .EQU 7\n");
/// let prelude = Prelude::new("unit.asm", &shared, "test.asm");
/// for test in ["    HALT #LIMIT\n", "    HALT #1\n"] {
///     let full = shared.clone().with("test.asm", test);
///     assert_eq!(
///         prelude.assemble(test)?,
///         ParsedUnit::parse_lean("unit.asm", &full)?.encode()?
///     );
/// }
/// # Ok(())
/// # }
/// ```
pub struct Prelude {
    test_file: String,
    entry: String,
    sources: SourceSet,
    state: State,
}

enum State {
    /// Split at the test's include: the state to resume from, the
    /// prelude's statements (or its first statement-parse error) and
    /// its `.EQU` constants.
    Split {
        resume: Box<SplitState>,
        stmts: Result<Vec<PStmt>, AsmError>,
        equs: BTreeMap<String, i64>,
    },
    /// Preprocessing failed before the split, the same way for any test.
    Failed(AsmError),
    /// The shared part reads the test file itself: every unit is
    /// preprocessed whole.
    Dependent,
}

impl Prelude {
    /// Preprocesses and parses `entry` (resolving `.INCLUDE` against
    /// `sources`) up to its final `.INCLUDE test_file` line. `sources`
    /// need not contain `test_file`; [`Prelude::assemble`] supplies it.
    pub fn new(entry: &str, sources: &SourceSet, test_file: &str) -> Self {
        let state = match preprocess_until(entry, sources, test_file) {
            Ok((pre, resume)) => State::Split {
                resume: Box::new(resume),
                stmts: parse_statements(&pre.lines, false),
                equs: pre.equs.into_iter().collect(),
            },
            Err(NoSplit::Failed(e)) => State::Failed(e),
            Err(NoSplit::Dependent) => State::Dependent,
        };
        Self {
            test_file: test_file.to_owned(),
            entry: entry.to_owned(),
            sources: sources.clone(),
            state,
        }
    }

    /// Assembles the unit made of this prelude and `test` as the test
    /// file, without a listing. Only the test (and whatever follows its
    /// include in the entry) is preprocessed and parsed; encoding runs
    /// over the prelude's statements followed by the test's.
    ///
    /// # Errors
    ///
    /// The first preprocessing, statement-parse or encoding error of the
    /// whole unit, exactly as [`ParsedUnit::parse_lean`] and
    /// [`ParsedUnit::encode`] report it.
    pub fn assemble(&self, test: &str) -> Result<Program, AsmError> {
        let test = (self.test_file.as_str(), test);
        match &self.state {
            State::Split {
                resume: state,
                stmts,
                equs,
            } => {
                let tail = resume(state, &self.sources, test)?;
                let head = stmts.as_ref().map_err(Clone::clone)?;
                let stmts = parse_statements(&tail.lines, false)?;
                let mut equs = equs.clone();
                equs.extend(tail.equs);
                encode_unit([head, &stmts], equs, false)
            }
            State::Failed(e) => Err(e.clone()),
            State::Dependent => {
                let pre = preprocess_with(&self.entry, &self.sources, Some(test))?;
                ParsedUnit::from_lines(&pre, false)?.encode()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    const UNIT: &str = "__unit.asm";
    const TEST: &str = "test.asm";

    /// A unit shaped like the methodology's build wrapper: globals, a
    /// macro library, code, then the test's include as the last line.
    fn shared(unit: &str) -> SourceSet {
        SourceSet::new()
            .with(UNIT, unit)
            .with("Globals.inc", "LIMIT .EQU 7\n.DEFINE Ret d2\n")
            .with(
                "lib.asm",
                "\
.MACRO SPIN n
LOCAL_loop:
    ADDI d0, d0, #-1
    JNE LOCAL_loop
.ENDM
lib_entry:
    SPIN 1
    RETURN
",
            )
    }

    const WRAPPER: &str = "\
;; generated wrapper
.INCLUDE Globals.inc
.ORG 0x100
_start:
.INCLUDE lib.asm
.INCLUDE test.asm
";

    fn whole(sources: &SourceSet, test: &str) -> Result<Program, AsmError> {
        let full = sources.clone().with(TEST, test);
        ParsedUnit::parse_lean(UNIT, &full)?.encode()
    }

    fn split(sources: &SourceSet, test: &str) -> Result<Program, AsmError> {
        Prelude::new(UNIT, sources, TEST).assemble(test)
    }

    /// Asserts both paths agree on `test`, returning the shared result.
    fn agree(sources: &SourceSet, test: &str) -> Result<Program, AsmError> {
        let expected = whole(sources, test);
        assert_eq!(split(sources, test), expected, "test:\n{test}");
        expected
    }

    #[test]
    fn resumed_units_match_whole_assembly() {
        let sources = shared(WRAPPER);
        let prelude = Prelude::new(UNIT, &sources, TEST);
        for test in [
            "_main:\n    HALT #LIMIT\n",
            "TEST_PAGE .EQU LIMIT + 1\n_main:\n    MOV Ret, d1\n    HALT #TEST_PAGE\n",
        ] {
            let program = agree(&sources, test).unwrap();
            assert_eq!(prelude.assemble(test).unwrap(), program);
            assert_eq!(program.equ("LIMIT"), Some(7));
        }
    }

    #[test]
    fn test_may_re_include_globals() {
        let program = agree(
            &shared(WRAPPER),
            ".INCLUDE Globals.inc\n_main:\n    HALT #LIMIT\n",
        )
        .unwrap();
        assert_eq!(program.label("_main"), Some(0x100 + 12));
    }

    #[test]
    fn test_equ_colliding_with_a_prelude_label_fails_alike() {
        let err = agree(&shared(WRAPPER), "lib_entry .EQU 3\n").unwrap_err();
        assert!(err.to_string().contains("collides with an .EQU"), "{err}");
    }

    #[test]
    fn local_macro_labels_stay_unique_across_the_split() {
        let program = agree(&shared(WRAPPER), "_main:\n    SPIN 2\n    SPIN 3\n").unwrap();
        let spins = program
            .labels()
            .keys()
            .filter(|l| l.starts_with("LOCAL_loop__"))
            .count();
        assert_eq!(spins, 3, "{:?}", program.labels());
    }

    #[test]
    fn conditional_left_open_by_the_test_fails_alike() {
        let err = agree(&shared(WRAPPER), ".IF LIMIT\n    NOP\n").unwrap_err();
        assert!(
            err.to_string().contains("unterminated conditional"),
            "{err}"
        );
    }

    #[test]
    fn test_including_the_unit_is_a_cycle() {
        let err = agree(&shared(WRAPPER), ".INCLUDE __unit.asm\n").unwrap_err();
        assert!(err.to_string().contains("include cycle"), "{err}");
    }

    #[test]
    fn test_preprocess_error_beats_a_prelude_parse_error() {
        // Line 4 of the wrapper does not parse as a statement.
        let sources = shared(&WRAPPER.replace("_start:", "    FROB d0"));
        let parse = agree(&sources, "_main:\n    NOP\n").unwrap_err();
        assert_eq!(parse.to_string(), "__unit.asm:4: unknown mnemonic `FROB`");
        let pre = agree(&sources, "_main:\n.ERROR \"test broke\"\n").unwrap_err();
        assert_eq!(pre.to_string(), "test.asm:2: .ERROR: test broke");
    }

    #[test]
    fn prelude_preprocess_errors_repeat_for_every_test() {
        let sources = shared(&WRAPPER.replace("lib.asm", "missing.asm"));
        let err = agree(&sources, "_main:\n    NOP\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "__unit.asm:5: include file `missing.asm` not found"
        );
    }

    #[test]
    fn shared_files_that_include_the_test_fall_back_to_whole_units() {
        let sources = shared(WRAPPER).with("lib.asm", ".INCLUDE test.asm\n");
        let prelude = Prelude::new(UNIT, &sources, TEST);
        assert!(matches!(prelude.state, State::Dependent));
        let program = agree(&sources, "_main:\n    HALT #1\n").unwrap();
        assert_eq!(program.label("_main"), Some(0x100));
    }

    #[test]
    fn a_test_include_inside_an_inactive_branch_is_skipped_alike() {
        let sources = shared(&WRAPPER.replace(
            ".INCLUDE test.asm\n",
            ".IF LIMIT == 0\n.INCLUDE test.asm\n.ENDIF\n_tail:\n    NOP\n",
        ));
        let program = agree(&sources, "_main:\n    HALT #1\n").unwrap();
        assert_eq!(program.label("_main"), None);
    }
}
