//! Seeded input generation.
//!
//! Every workload draws its inputs from `--seed` through [`Rng`]; the
//! program under test only ever sees the generated artefacts (env trees
//! on disk, job specs, cell sources). What the seed varies is chosen so
//! the *amount* of work per run is the same for every seed — request
//! order, on-disk names and data values, never trip counts — which keeps
//! seed-to-seed spread down to measurement noise, and keeps every
//! request's verdict checkable against the committed reference.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use advm::env::{EnvConfig, ModuleTestEnv, TestCell};
use advm::presets;
use advm_soc::{DerivativeId, PlatformId};

/// SplitMix64: tiny, seedable, and identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and one purpose (`stream` separates the
    /// draws of different workloads made from the same seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Hex tag derived from the seed: the name of the directory the env
/// trees are written under, so the on-disk paths vary with the seed.
pub fn seed_tag(seed: u64) -> String {
    format!("{:08x}", Rng::new(seed, 0x7A6).next_u32())
}

/// Writes every environment's Figure 3 tree into a fresh work
/// directory, under a seed-tagged root. Returns the directory (removed
/// on drop) and the root.
///
/// # Errors
///
/// A message naming what could not be written.
pub fn write_envs(
    workload: &str,
    seed: u64,
    envs: &[ModuleTestEnv],
) -> Result<(WorkDir, PathBuf), String> {
    let work = WorkDir::create(workload).map_err(|e| format!("work dir: {e}"))?;
    let root = work.path().join(seed_tag(seed));
    for env in envs {
        advm::fsio::write_tree(&root, &env.tree())
            .map_err(|e| format!("writing {}: {e}", env.name()))?;
    }
    Ok((work, root))
}

/// Reads environments back from their on-disk trees, as `advm-cli`
/// and the daemon do.
///
/// # Errors
///
/// A message naming the environment that failed to load.
pub fn read_envs(root: &Path, names: &[String]) -> Result<Vec<ModuleTestEnv>, String> {
    let tree: BTreeMap<String, String> =
        advm::fsio::read_tree(root).map_err(|e| format!("reading {}: {e}", root.display()))?;
    names
        .iter()
        .map(|name| ModuleTestEnv::from_tree(name, &tree))
        .collect()
}

/// Writes the envs to disk and reads them back: the inputs a workload's
/// requests then see.
///
/// # Errors
///
/// Filesystem and parse failures.
pub fn round_trip(
    workload: &str,
    seed: u64,
    envs: &[ModuleTestEnv],
) -> Result<(WorkDir, Vec<ModuleTestEnv>), String> {
    let (work, root) = write_envs(workload, seed, envs)?;
    let names: Vec<String> = envs.iter().map(|e| e.name().to_owned()).collect();
    let envs = read_envs(&root, &names)?;
    Ok((work, envs))
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_out/work-<tag>` (relative, so Unix socket paths
    /// stay short wherever the checkout lives).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(tag: &str) -> io::Result<Self> {
        let path = PathBuf::from(crate::OUT_DIR).join(format!("work-{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Environment orders in one `port_cold` request cycle. The campaign's
/// throughput depends on the order its plan lists environments in (it
/// sets how jobs fall into the workers' claim chunks), so a cycle
/// averages over several seeded orders instead of pinning one per seed.
pub const PORT_ORDERS: usize = 8;

/// One `port_cold` request: port the environments, in `order`, to
/// `derivative`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortRequest {
    /// Target derivative.
    pub derivative: DerivativeId,
    /// Indices into the environment list, in plan order.
    pub order: Vec<usize>,
}

/// The `port_cold` inputs: the standard system on SC88-A / golden, and
/// one request cycle — every derivative under each of [`PORT_ORDERS`]
/// seeded environment orders.
pub fn port_cold(seed: u64) -> (Vec<ModuleTestEnv>, Vec<PortRequest>) {
    let mut rng = Rng::new(seed, 1);
    let envs = presets::standard_system(presets::default_config());
    let mut cycle = Vec::with_capacity(PORT_ORDERS * DerivativeId::ALL.len());
    for _ in 0..PORT_ORDERS {
        let mut order: Vec<usize> = (0..envs.len()).collect();
        rng.shuffle(&mut order);
        let mut derivatives = DerivativeId::ALL;
        rng.shuffle(&mut derivatives);
        cycle.extend(derivatives.into_iter().map(|derivative| PortRequest {
            derivative,
            order: order.clone(),
        }));
    }
    (envs, cycle)
}

/// The `serve_warm` inputs: the standard system's env trees and the
/// seeded request cycle — ten requests, eight regress jobs (each env
/// once) and two resubmissions of the fuzz job, in a seeded order that
/// keeps the 4:1 mix inside every half-cycle.
pub fn serve_warm(seed: u64) -> (Vec<ModuleTestEnv>, Vec<ServeRequest>) {
    let mut rng = Rng::new(seed, 2);
    let envs = presets::standard_system(presets::default_config());
    let mut names: Vec<String> = envs.iter().map(|e| e.name().to_owned()).collect();
    rng.shuffle(&mut names);
    let mut cycle = Vec::with_capacity(10);
    for half in names.chunks(4) {
        let mut block: Vec<ServeRequest> = half
            .iter()
            .map(|n| ServeRequest::Regress(n.clone()))
            .collect();
        block.insert(rng.below(5), ServeRequest::Fuzz);
        cycle.extend(block);
    }
    (envs, cycle)
}

/// One `serve_warm` request kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeRequest {
    /// A regress job over one env tree, all platforms.
    Regress(String),
    /// The workload's fuzz `--mine` job.
    Fuzz,
}

impl ServeRequest {
    /// The verdict-reference key.
    pub fn key(&self) -> String {
        match self {
            ServeRequest::Regress(env) => format!("regress:{env}"),
            ServeRequest::Fuzz => format!("fuzz:{FUZZ_SEED}"),
        }
    }
}

/// Programs in the `serve_warm` fuzz job: 16 × 6 platforms = 96 runs,
/// 80 distinct images, so regress (151) + fuzz stays under the daemon's
/// 256-slot store.
pub const FUZZ_PROGRAMS: u64 = 16;

/// Master seed of the `serve_warm` fuzz job. Fixed, so the job is the
/// same resubmission in every run (a warm working set) and its verdict
/// is pinned by the reference.
pub const FUZZ_SEED: u64 = 0xADF0_2004;

/// One long directed cell kind of `exec_long`: fixed trip counts (so the
/// retired-instruction count is the same for every seed), seeded data,
/// and a self-check against a value the generator computes on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LongKind {
    /// xorshift32 accumulate — pure ALU, straight-line superblocks.
    AluXorshift,
    /// Linear congruential multiply-accumulate.
    AluLcg,
    /// Fibonacci-style add/shift mixing.
    AluMix,
    /// Fill a RAM buffer, read it back and sum.
    RamFillSum,
    /// Fill, copy through the ES ROM memcpy, checksum through the ES.
    RamEsCopy,
    /// Repeated read-modify-write passes over a RAM buffer.
    RamRmw,
    /// One-shot timer re-armed and polled to expiry, short period.
    TimerShort,
    /// The same with a long period (more polls per round).
    TimerLong,
    /// UART loopback echo of seeded bytes.
    UartEcho,
    /// UART loopback with a longer burst.
    UartBurst,
    /// CRC-32 over a seeded word stream.
    CrcStream,
    /// Several CRC messages with re-init between them.
    CrcMessages,
}

impl LongKind {
    /// Every kind, in catalogue order.
    pub const ALL: [LongKind; 12] = [
        LongKind::AluXorshift,
        LongKind::AluLcg,
        LongKind::AluMix,
        LongKind::RamFillSum,
        LongKind::RamEsCopy,
        LongKind::RamRmw,
        LongKind::TimerShort,
        LongKind::TimerLong,
        LongKind::UartEcho,
        LongKind::UartBurst,
        LongKind::CrcStream,
        LongKind::CrcMessages,
    ];

    /// Stable name: the env is `LONG_<name>`, the cell `TEST_<name>`,
    /// and the verdict-reference key is the name.
    pub fn name(self) -> &'static str {
        match self {
            LongKind::AluXorshift => "ALU_XORSHIFT",
            LongKind::AluLcg => "ALU_LCG",
            LongKind::AluMix => "ALU_MIX",
            LongKind::RamFillSum => "RAM_FILL_SUM",
            LongKind::RamEsCopy => "RAM_ES_COPY",
            LongKind::RamRmw => "RAM_RMW",
            LongKind::TimerShort => "TIMER_SHORT",
            LongKind::TimerLong => "TIMER_LONG",
            LongKind::UartEcho => "UART_ECHO",
            LongKind::UartBurst => "UART_BURST",
            LongKind::CrcStream => "CRC_STREAM",
            LongKind::CrcMessages => "CRC_MESSAGES",
        }
    }
}

const EPILOGUE: &str = "\
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
";

const LCG_A: u32 = 1_664_525;
const LCG_C: u32 = 1_013_904_223;

fn lcg(x: u32) -> u32 {
    x.wrapping_mul(LCG_A).wrapping_add(LCG_C)
}

/// The LCG stream's next `n` values after `x`, and the last of them.
fn lcg_fill(mut x: u32, n: u32) -> (u32, Vec<u32>) {
    let words = (0..n)
        .map(|_| {
            x = lcg(x);
            x
        })
        .collect();
    (x, words)
}

fn wrapping_sum(words: &[u32]) -> u32 {
    words.iter().fold(0u32, |acc, &w| acc.wrapping_add(w))
}

fn crc_of(words: &[u32]) -> u32 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    advm_sim::periph::crc::crc32(&bytes)
}

/// Assembly that advances the LCG in `d6` (constants in `d10`/`d11`).
const LCG_STEP: &str = "    MUL d6, d6, d10\n    ADD d6, d6, d11\n";
/// Assembly that seeds the LCG state `d6` and loads its constants into
/// `d10`/`d11`.
fn lcg_setup(seed: u32) -> String {
    format!("    LOAD d6, #0x{seed:08X}\n    LOAD d10, #{LCG_A}\n    LOAD d11, #{LCG_C}\n")
}

/// Assembly filling `n` words at `TEST_DATA_BASE` from the LCG.
fn fill_loop(label: &str, n: u32) -> String {
    format!(
        "\
    LOAD a4, #TEST_DATA_BASE
    LOAD d7, #{n}
{label}:
{LCG_STEP}    STORE [a4], d6
    ADDA a4, #4
    SUB d7, d7, #1
    CMP d7, #0
    JNE {label}
"
    )
}

/// Assembly adding the `n` words at `base` into `d8`.
fn sum_loop(label: &str, base: &str, n: u32) -> String {
    format!(
        "\
    LOAD a4, #{base}
    LOAD d7, #{n}
{label}:
    LOAD d9, [a4]
    ADD d8, d8, d9
    ADDA a4, #4
    SUB d7, d7, #1
    CMP d7, #0
    JNE {label}
"
    )
}

/// The final self-check: `reg` must equal `expected`.
fn check(reg: &str, expected: u32) -> String {
    format!("    LOAD d9, #0x{expected:08X}\n    CMP {reg}, d9\n    JNE t_fail\n")
}

/// The assembly body of one long cell, with seeded data drawn from
/// `rng` and the expected result computed here on the host.
fn long_source(kind: LongKind, rng: &mut Rng) -> String {
    let seed = rng.next_u32() | 1;
    let extra = rng.next_u32();
    match kind {
        LongKind::AluXorshift => {
            const TRIPS: u32 = 80_000;
            let (mut x, mut sum) = (seed, 0u32);
            for _ in 0..TRIPS {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                sum = sum.wrapping_add(x);
            }
            format!(
                "\
    LOAD d6, #0x{seed:08X}
    LOAD d7, #{TRIPS}
    MOVI d8, #0
t_loop:
    SHL d9, d6, #13
    XOR d6, d6, d9
    SHR d9, d6, #17
    XOR d6, d6, d9
    SHL d9, d6, #5
    XOR d6, d6, d9
    ADD d8, d8, d6
    SUB d7, d7, #1
    CMP d7, #0
    JNE t_loop
{}",
                check("d8", sum)
            )
        }
        LongKind::AluLcg => {
            const TRIPS: u32 = 120_000;
            let (mut x, mut acc) = (seed, 0u32);
            for _ in 0..TRIPS {
                x = lcg(x);
                acc ^= x;
                acc = acc.wrapping_add(acc << 1);
            }
            format!(
                "\
{}    LOAD d7, #{TRIPS}
    MOVI d8, #0
t_loop:
{LCG_STEP}    XOR d8, d8, d6
    SHL d9, d8, #1
    ADD d8, d8, d9
    SUB d7, d7, #1
    CMP d7, #0
    JNE t_loop
{}",
                lcg_setup(seed),
                check("d8", acc)
            )
        }
        LongKind::AluMix => {
            const TRIPS: u32 = 100_000;
            let (mut a, mut b) = (seed, extra);
            for _ in 0..TRIPS {
                let t = a.wrapping_add(b);
                a = b;
                b = t ^ (t >> 3);
            }
            format!(
                "\
    LOAD d6, #0x{seed:08X}
    LOAD d7, #0x{extra:08X}
    LOAD d13, #{TRIPS}
t_loop:
    ADD d8, d6, d7
    MOV d6, d7
    SHR d9, d8, #3
    XOR d7, d8, d9
    SUB d13, d13, #1
    CMP d13, #0
    JNE t_loop
{}",
                check("d7", b)
            )
        }
        LongKind::RamFillSum => {
            const WORDS: u32 = 2048;
            const PASSES: u32 = 16;
            let (mut x, mut sum) = (seed, 0u32);
            for _ in 0..PASSES {
                let (last, words) = lcg_fill(x, WORDS);
                x = last;
                sum = sum.wrapping_add(wrapping_sum(&words));
            }
            format!(
                "\
{}    MOVI d8, #0
    LOAD d13, #{PASSES}
t_pass:
{}{}    SUB d13, d13, #1
    CMP d13, #0
    JNE t_pass
{}",
                lcg_setup(seed),
                fill_loop("t_fill", WORDS),
                sum_loop("t_sum", "TEST_DATA_BASE", WORDS),
                check("d8", sum)
            )
        }
        LongKind::RamEsCopy => {
            const WORDS: u32 = 2048;
            const PASSES: u32 = 12;
            let (mut x, mut sum) = (seed, 0u32);
            for _ in 0..PASSES {
                let (last, words) = lcg_fill(x, WORDS);
                x = last;
                sum = sum.wrapping_add(wrapping_sum(&words));
            }
            format!(
                "\
COPY_DST .EQU TEST_DATA_BASE + 0x4000
{}    MOVI d8, #0
    LOAD d13, #{PASSES}
t_pass:
{}    LOAD a4, #COPY_DST
    LOAD a5, #TEST_DATA_BASE
    LOAD ArgA, #{WORDS}
    CALL Base_Memcpy
    LOAD a4, #COPY_DST
    LOAD ArgA, #{WORDS}
    CALL Base_Checksum
    ADD d8, d8, RetVal
    SUB d13, d13, #1
    CMP d13, #0
    JNE t_pass
{}",
                lcg_setup(seed),
                fill_loop("t_fill", WORDS),
                check("d8", sum)
            )
        }
        LongKind::RamRmw => {
            const WORDS: u32 = 2048;
            const PASSES: u32 = 20;
            let (_, mut words) = lcg_fill(seed, WORDS);
            for _ in 0..PASSES {
                for w in &mut words {
                    *w = w.wrapping_mul(3).wrapping_add(extra);
                }
            }
            let sum = wrapping_sum(&words);
            format!(
                "\
{}{}    LOAD d10, #3
    LOAD d11, #0x{extra:08X}
    MOVI d8, #0
    LOAD d13, #{PASSES}
t_pass:
    LOAD a4, #TEST_DATA_BASE
    LOAD d7, #{WORDS}
t_rmw:
    LOAD d9, [a4]
    MUL d9, d9, d10
    ADD d9, d9, d11
    STORE [a4], d9
    ADDA a4, #4
    SUB d7, d7, #1
    CMP d7, #0
    JNE t_rmw
    SUB d13, d13, #1
    CMP d13, #0
    JNE t_pass
{}{}",
                lcg_setup(seed),
                fill_loop("t_fill", WORDS),
                sum_loop("t_sum", "TEST_DATA_BASE", WORDS),
                check("d8", sum)
            )
        }
        LongKind::TimerShort | LongKind::TimerLong => {
            let (rounds, period) = if kind == LongKind::TimerShort {
                (3_000u32, 40u32)
            } else {
                (800, 400)
            };
            let total = seed.wrapping_mul(rounds);
            format!(
                "\
    LOAD d6, #0x{seed:08X}
    MOVI d8, #0
    LOAD d7, #{rounds}
t_round:
    MOVI d9, #0
    STORE [TIMER_CTRL_ADDR], d9
    LOAD ArgA, #{period}
    LOAD ArgB, #1
    CALL Base_Timer_Start
    LOAD d13, #POLL_LIMIT
t_wait:
    CMP d13, #0
    JEQ t_fail
    SUB d13, d13, #1
    LOAD d9, [TIMER_STATUS_ADDR]
    AND d9, d9, #TIMER_EXPIRED_MASK
    CMP d9, #0
    JEQ t_wait
    CALL Base_Timer_Clear_Expired
    ADD d8, d8, d6
    SUB d7, d7, #1
    CMP d7, #0
    JNE t_round
{}",
                check("d8", total)
            )
        }
        LongKind::UartEcho | LongKind::UartBurst => {
            let bytes = if kind == LongKind::UartEcho {
                3_000u32
            } else {
                8_000
            };
            let (_, words) = lcg_fill(seed, bytes);
            let sum = words.iter().fold(0u32, |acc, w| acc.wrapping_add(w >> 24));
            format!(
                "\
    CALL Base_Uart_Init_Loopback
{}    MOVI d8, #0
    LOAD d7, #{bytes}
t_loop:
{LCG_STEP}    SHR d9, d6, #24
    MOV ArgA, d9
    CALL Base_Uart_Send
    CALL Base_Uart_Recv
    CMP RetVal, d9
    JNE t_fail
    ADD d8, d8, RetVal
    SUB d7, d7, #1
    CMP d7, #0
    JNE t_loop
{}",
                lcg_setup(seed),
                check("d8", sum)
            )
        }
        LongKind::CrcStream | LongKind::CrcMessages => {
            let (messages, words_per) = if kind == LongKind::CrcStream {
                (1u32, 40_000u32)
            } else {
                (80, 400)
            };
            let mut x = seed;
            let mut folded = 0u32;
            for _ in 0..messages {
                let (last, words) = lcg_fill(x, words_per);
                x = last;
                folded ^= crc_of(&words);
            }
            format!(
                "\
{}    MOVI d8, #0
    LOAD d13, #{messages}
t_msg:
    CALL Base_Crc_Init
    LOAD d7, #{words_per}
t_word:
{LCG_STEP}    MOV ArgA, d6
    CALL Base_Crc_Add
    SUB d7, d7, #1
    CMP d7, #0
    JNE t_word
    CALL Base_Crc_Result
    XOR d8, d8, RetVal
    SUB d13, d13, #1
    CMP d13, #0
    JNE t_msg
{}",
                lcg_setup(seed),
                check("d8", folded)
            )
        }
    }
}

/// Builds the `exec_long` request catalogue: one single-cell env per
/// kind, sources seeded from `seed`, in a seeded order.
pub fn exec_long(seed: u64) -> Vec<ModuleTestEnv> {
    let mut rng = Rng::new(seed, 3);
    let mut kinds = LongKind::ALL.to_vec();
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|kind| long_env(kind, &mut rng))
        .collect()
}

/// One exec_long env with its seeded cell.
pub fn long_env(kind: LongKind, rng: &mut Rng) -> ModuleTestEnv {
    let source = format!(
        ".INCLUDE Globals.inc\n_main:\n{}{EPILOGUE}",
        long_source(kind, rng)
    );
    ModuleTestEnv::new(
        format!("LONG_{}", kind.name()),
        EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
        vec![TestCell::new(
            format!("TEST_{}", kind.name()),
            "long directed cell",
            source,
        )],
    )
}
