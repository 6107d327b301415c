//! Decode-cache invalidation: every path that can change an executable
//! word must force a re-decode, and the cached instruction stream must
//! be byte-identical to the uncached one.
//!
//! Three mutation paths exist: self-modifying RAM stores, NVM-controller
//! programming, and the ES-ROM jump-table-skew fault (which redirects
//! fetches away from the predecoded slot). Each is exercised end to end
//! through guest code — no test reaches into the cache by hand.

use advm_asm::{assemble_str, Image};
use advm_isa::{encode, Insn};
use advm_sim::{DecodedProgram, Platform, PlatformFault, RunResult};
use advm_soc::{Derivative, PlatformId};

fn image(asm: &str) -> Image {
    let program = assemble_str(asm).unwrap_or_else(|e| panic!("{e}"));
    let mut image = Image::new();
    image.load_program(&program).unwrap();
    image
}

/// Counter-consistency invariants that must survive every invalidation
/// path. Every retired instruction is served by exactly one *counted*
/// fetch — a slot hit, a slot miss (including the disabled-cache,
/// MMIO-execute and ES-skew-bypass paths) or a superblock dispatch
/// (which counts one hit per executed instruction) — so the perf layer
/// can never report more hits than fetches, and invalidation can never
/// drop more blocks than were ever built.
fn assert_stats_consistent(result: &RunResult) {
    let d = &result.decode;
    assert!(
        d.hits + d.misses >= result.insns,
        "retired insns without a counted fetch: {d:?} vs {} insns",
        result.insns
    );
    assert!(
        d.block_insns <= d.hits,
        "block-dispatched insns are a subset of hits: {d:?}"
    );
    assert!(
        d.block_dispatches <= d.block_insns,
        "every dispatch retires at least one insn: {d:?}"
    );
    assert!(
        d.block_invalidations <= d.blocks_built,
        "cannot drop more blocks than were built: {d:?}"
    );
    let rate = d.hit_rate();
    assert!((0.0..=1.0).contains(&rate), "hit rate out of range: {d:?}");
}

/// Runs an image on the golden model four ways — decode cache enabled,
/// disabled, and enabled with a predecoded artifact, plus a traced
/// cached run — and asserts the architectural results are identical.
/// Returns the cached run for further assertions.
fn run_all_modes(img: &Image) -> RunResult {
    let derivative = Derivative::sc88a();
    let cached = {
        let mut p = Platform::new(PlatformId::GoldenModel, &derivative);
        p.load_image(img);
        p.run()
    };
    let uncached = {
        let mut p = Platform::new(PlatformId::GoldenModel, &derivative);
        p.set_decode_cache(false);
        p.load_image(img);
        p.run()
    };
    let preloaded = {
        let mut p = Platform::new(PlatformId::GoldenModel, &derivative);
        p.load_prebuilt(img, &DecodedProgram::from_image(img));
        p.run()
    };
    for other in [&uncached, &preloaded] {
        assert_eq!(cached.end, other.end);
        assert_eq!(cached.outcome, other.outcome);
        assert_eq!(cached.insns, other.insns);
        assert_eq!(cached.cycles, other.cycles);
        assert_eq!(cached.console, other.console);
    }
    assert_eq!(uncached.decode.hits, 0, "disabled cache never hits");
    for result in [&cached, &uncached, &preloaded] {
        assert_stats_consistent(result);
    }
    cached
}

#[test]
fn self_modifying_ram_write_forces_redecode() {
    // Copy a two-instruction routine (LOAD d5, #1; RETURN) into RAM,
    // call it, then overwrite the first word with LOAD d5, #2 and call
    // again. A stale decode slot would return 1 twice.
    let load1 = encode(&Insn::MovI {
        rd: advm_isa::DataReg::D5,
        imm: 1,
    });
    let load2 = encode(&Insn::MovI {
        rd: advm_isa::DataReg::D5,
        imm: 2,
    });
    let ret = encode(&Insn::Ret);
    let img = image(&format!(
        "\
RAM_CODE .EQU 0x50000
_main:
    LOAD a4, #RAM_CODE
    LOAD d1, #0x{load1:X}
    STORE [a4], d1
    LOAD d1, #0x{ret:X}
    STORE [a4 + 4], d1
    CALL a4
    MOV d10, d5              ; first call: 1
    LOAD d1, #0x{load2:X}
    STORE [a4], d1           ; self-modify the RAM routine
    CALL a4
    MOV d11, d5              ; second call: 2
    HALT #0
"
    ));
    let derivative = Derivative::sc88a();
    let mut platform = Platform::new(PlatformId::GoldenModel, &derivative);
    platform.load_image(&img);
    let result = platform.run();
    assert_eq!(result.end, advm_sim::EndReason::Halt(0));
    assert_eq!(platform.cpu().d(advm_isa::DataReg::D10), 1);
    assert_eq!(
        platform.cpu().d(advm_isa::DataReg::D11),
        2,
        "stale decode slot served the old instruction"
    );
    assert!(
        result.decode.invalidations > 0,
        "RAM stores over executed code must invalidate: {:?}",
        result.decode
    );
    assert_stats_consistent(&result);
    run_all_modes(&img);
}

#[test]
fn nvmc_programming_forces_redecode() {
    // Program `LOAD d5, #7; RETURN` into NVM through the controller,
    // call it, then reprogram the first word (erase + write) to
    // `LOAD d5, #9` and call again. The NVM commit happens inside
    // `SocBus::advance`, which must invalidate the decoded words.
    let load7 = encode(&Insn::MovI {
        rd: advm_isa::DataReg::D5,
        imm: 7,
    });
    let load9 = encode(&Insn::MovI {
        rd: advm_isa::DataReg::D5,
        imm: 9,
    });
    let ret = encode(&Insn::Ret);
    let img = image(&format!(
        "\
NVMC .EQU 0xE0500
NVM_BASE .EQU 0x80000
_main:
    CALL unlock
    LOAD d1, #0              ; offset 0
    LOAD d2, #0x{load7:X}
    CALL program
    LOAD d1, #4
    LOAD d2, #0x{ret:X}
    CALL program
    LOAD a4, #NVM_BASE
    CALL a4
    MOV d10, d5              ; first call: 7
    CALL unlock
    LOAD d1, #0
    STORE [NVMC + 0x08], d1
    LOAD d1, #2              ; CMD_ERASE (page 0)
    STORE [NVMC + 0x14], d1
    CALL wait
    CALL unlock
    LOAD d1, #0
    LOAD d2, #0x{load9:X}
    CALL program
    LOAD d1, #4
    LOAD d2, #0x{ret:X}
    CALL program
    CALL a4
    MOV d11, d5              ; second call: 9
    HALT #0
unlock:
    LOAD d1, #0x55
    STORE [NVMC], d1
    LOAD d1, #0xAA
    STORE [NVMC], d1
    RETURN
program:                     ; d1 = offset, d2 = word
    STORE [NVMC + 0x08], d1
    STORE [NVMC + 0x0C], d2
    LOAD d3, #1              ; CMD_WRITE
    STORE [NVMC + 0x14], d3
wait:
    LOAD d3, [NVMC + 0x10]   ; STATUS
    ANDI d3, d3, #1          ; BUSY
    CMP d3, #0
    JNE wait
    RETURN
"
    ));
    let derivative = Derivative::sc88a();
    let mut platform = Platform::new(PlatformId::GoldenModel, &derivative);
    platform.load_image(&img);
    let result = platform.run();
    assert_eq!(result.end, advm_sim::EndReason::Halt(0), "{result}");
    assert_eq!(platform.cpu().d(advm_isa::DataReg::D10), 7);
    assert_eq!(
        platform.cpu().d(advm_isa::DataReg::D11),
        9,
        "NVM reprogram must invalidate the decoded slots"
    );
    assert!(
        result.decode.invalidations > 0,
        "NVM commits over executed code must invalidate: {:?}",
        result.decode
    );
    assert_stats_consistent(&result);
    run_all_modes(&img);
}

#[test]
fn es_jump_table_skew_bypasses_preloaded_decode() {
    // Eight distinct HALT codes across the seven-slot ES jump table plus
    // one word after it. On the skewed platform a jump into slot 0 must
    // execute slot 1's word — even when the decode cache was preloaded
    // from the *clean* image, which predecodes slot 0's own word at that
    // address.
    let img = image(
        "\
.ORG 0x30000
    HALT #1
    HALT #2
    HALT #3
    HALT #4
    HALT #5
    HALT #6
    HALT #7
    HALT #8
_main:
    JMP 0x30000
",
    );
    let derivative = Derivative::sc88a();
    let run_with = |fault: PlatformFault, preload: bool| {
        let mut p = Platform::with_fault(PlatformId::GoldenModel, &derivative, fault);
        if preload {
            p.load_prebuilt(&img, &DecodedProgram::from_image(&img));
        } else {
            p.load_image(&img);
        }
        p.run()
    };
    let clean = run_with(PlatformFault::None, true);
    assert_eq!(clean.end, advm_sim::EndReason::Halt(1));
    assert_stats_consistent(&clean);

    for preload in [false, true] {
        let skewed = run_with(PlatformFault::EsDispatchSkewed, preload);
        assert_eq!(
            skewed.end,
            advm_sim::EndReason::Halt(2),
            "skew must redirect the table fetch (preload={preload})"
        );
        assert_stats_consistent(&skewed);
        assert!(
            skewed.decode.misses > 0,
            "the skew bypass counts its re-decodes as misses (preload={preload}): {:?}",
            skewed.decode
        );
    }
}

#[test]
fn decode_stats_reflect_loop_reuse() {
    // A 100-iteration countdown: ~5 distinct words execute ~500 times.
    // The cache must serve the overwhelming majority from hits.
    let img = image(
        "\
_main:
    LOAD d1, #100
loop:
    SUB d1, d1, #1
    CMP d1, #0
    JNE loop
    HALT #0
",
    );
    let result = run_all_modes(&img);
    assert!(
        result.decode.hits > 10 * result.decode.misses,
        "loop fetches must hit: {:?}",
        result.decode
    );
    assert!(result.decode.hit_rate() > 0.9, "{:?}", result.decode);
    // The countdown body (SUB / CMP / JNE) is one straight-line
    // superblock: the default platform must run it as block dispatches.
    assert!(
        result.decode.blocks_built > 0,
        "loop body must form a superblock: {:?}",
        result.decode
    );
    assert!(
        result.decode.block_dispatches > result.decode.blocks_built,
        "a hot loop re-dispatches its block: {:?}",
        result.decode
    );
}

#[test]
fn preloaded_artifact_starts_hot() {
    let img = image("_main:\n    NOP\n    NOP\n    HALT #0\n");
    let decoded = DecodedProgram::from_image(&img);
    assert_eq!(decoded.words(), 3);
    let derivative = Derivative::sc88a();
    let mut platform = Platform::new(PlatformId::GoldenModel, &derivative);
    platform.load_prebuilt(&img, &decoded);
    let result = platform.run();
    assert_eq!(result.decode.misses, 0, "{:?}", result.decode);
    assert_eq!(result.decode.preloaded, 3);
    assert_eq!(result.decode.hits, result.insns);
    assert_stats_consistent(&result);
}

/// How one run configures the decode tiers.
#[derive(Debug, Clone, Copy)]
struct Tiers {
    cache: bool,
    blocks: bool,
}

const TIERS: [Tiers; 3] = [
    Tiers {
        cache: true,
        blocks: true,
    },
    Tiers {
        cache: true,
        blocks: false,
    },
    Tiers {
        cache: false,
        blocks: false,
    },
];

/// Loads `img` the way a campaign worker does: with its predecode
/// artifact when the cache is on, bare when it is off.
fn load_with(platform: &mut Platform, img: &Image, tiers: Tiers) {
    platform.set_fuel(20_000);
    platform.set_decode_cache(tiers.cache);
    platform.set_superblocks(tiers.blocks);
    if tiers.cache {
        platform.load_prebuilt(img, &DecodedProgram::from_image(img));
    } else {
        platform.load_image(img);
    }
}

#[test]
fn reused_machine_decodes_like_a_fresh_one() {
    // A: a hot loop (one superblock), a routine it writes into RAM at
    // run time (decoded on a miss), a block alone in its 64-word chunk
    // at 0x10F8, a HALT alone in its chunk at 0x1200 (a failed block
    // build) and a routine at the start of NVM. B: smaller, the same
    // loop with a different count and step (overlapping words that
    // differ, and words that agree), then a call into that RAM, a jump
    // to 0x10F8 and a call into NVM, all of which B leaves pristine
    // (zero, zero, erased), and a block of its own at 0x1200. A stale
    // slot or block from A would run A's code there instead, and a
    // stale failed build would keep B's block from forming.
    let load7 = encode(&Insn::MovI {
        rd: advm_isa::DataReg::D7,
        imm: 7,
    });
    let ret = encode(&Insn::Ret);
    let a = image(&format!(
        "\
RAM_CODE .EQU 0x50000
_main:
    LOAD d1, #100
loop:
    SUB d1, d1, #1
    CMP d1, #0
    JNE loop
    LOAD a4, #RAM_CODE
    LOAD d1, #0x{load7:X}
    STORE [a4], d1
    LOAD d1, #0x{ret:X}
    STORE [a4 + 4], d1
    CALL a4
    CALL side
    JMP far
.ORG 0x10F8
far:
    LOAD d2, #5
    JMP done
.ORG 0x1200
done:
    HALT #0
.ORG 0x80000
side:
    LOAD d7, #7
    RETURN
"
    ));
    let b = image(
        "\
RAM_CODE .EQU 0x50000
FAR .EQU 0x10F8
DONE .EQU 0x1200
SIDE .EQU 0x80000
_main:
    LOAD d1, #4
loop:
    SUB d1, d1, #2
    CMP d1, #0
    JNE loop
    LOAD a4, #RAM_CODE
    CALL a4
    JMP FAR
.ORG 0x1100
    JMP DONE
.ORG 0x1200
    LOAD d3, #1
    CALL SIDE
    HALT #1
.ORG 0x50008
    RETURN
",
    );
    let derivative = Derivative::sc88a();
    for id in PlatformId::ALL {
        for a_tiers in TIERS {
            for b_tiers in TIERS {
                let mut fresh = Platform::new(id, &derivative);
                load_with(&mut fresh, &b, b_tiers);
                let expected = fresh.run();

                let mut reused = Platform::new(id, &derivative);
                let pristine = reused.snapshot();
                load_with(&mut reused, &a, a_tiers);
                let first = reused.run();
                if a_tiers.blocks {
                    assert!(first.decode.blocks_built > 0, "{id}: {:?}", first.decode);
                }
                reused.restore_pristine(&pristine).unwrap();
                load_with(&mut reused, &b, b_tiers);
                let second = reused.run();
                let case = format!("{id}: A {a_tiers:?}, then B {b_tiers:?}");
                assert_eq!(second, expected, "{case}");
                assert_eq!(reused.state_digest(), fresh.state_digest(), "{case}");
                if b_tiers.cache && !b_tiers.blocks {
                    // The erased NVM word is outside B's artifact: its
                    // fetch decodes from memory. (With blocks on, the
                    // failed block build decodes it silently first.)
                    assert!(second.decode.misses > 0, "{case}: {:?}", second.decode);
                }
                assert_stats_consistent(&second);
            }
        }
    }
}
