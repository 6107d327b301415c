//! Predecoded instruction artifacts — decode once, dispatch many.
//!
//! The execution hot path used to re-fetch and re-decode every word
//! through the full bus match on every step. This module provides the
//! two halves of the cure:
//!
//! * [`DecodedProgram`] — an immutable, shareable predecode of a loaded
//!   [`Image`]: every word the image covers, already run through
//!   [`advm_isa::decode`]. Campaigns build one per *deduplicated* image
//!   (behind the content-keyed build cache) and seed every worker's
//!   platform from the same `Arc`, so a cell targeted at six platforms
//!   decodes once, not six times.
//! * `DecodeCache` (crate-internal) — the per-bus mutable cache the CPU
//!   fetches through. Slots memoise `(word, decode(word))` per aligned word of
//!   ROM, RAM and NVM; they are invalidated *precisely*: a RAM store
//!   clears the word it hits (self-modifying code), an NVM-controller
//!   program/erase clears the words it commits, and the ES-ROM
//!   jump-table-skew fault bypasses the cache for redirected fetches —
//!   so fault-audit matrices and golden traces are byte-identical with
//!   the cache on or off.
//!
//! On top of the word slots sits the *superblock* tier: straight-line
//! runs of bus-free decoded instructions (optionally ending in a
//! bus-free jump) are chained into immutable `Superblock`s
//! (crate-internal), shared via `Arc` and executed whole by the
//! batched CPU run loop — one
//! fuel/sim-end/async/timing check per block instead of per
//! instruction. Blocks are invalidated through the same precise hooks
//! as the slots beneath them, so the architectural stream is
//! byte-identical with blocks on or off.
//!
//! [`DecodeStats`] reports hits/misses/invalidations/preloads plus the
//! block-tier counters; the campaign layer aggregates them into its
//! `perf` block.

use std::sync::Arc;

use advm_asm::Image;
use advm_isa::{decode, Insn};
use advm_soc::memmap::{NVM_SIZE, NVM_START, RAM_SIZE, RAM_START, ROM_SIZE, ROM_START};

/// One predecoded word slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Not decoded yet, or invalidated by a write.
    Unknown,
    /// The word decodes to an instruction.
    Insn {
        /// The raw fetched word.
        word: u32,
        /// Its decoding.
        insn: Insn,
    },
    /// The word does not decode (illegal instruction).
    Illegal {
        /// The raw fetched word.
        word: u32,
    },
}

impl Slot {
    fn of(word: u32) -> Self {
        match decode(word) {
            Ok(insn) => Slot::Insn { word, insn },
            Err(_) => Slot::Illegal { word },
        }
    }
}

/// Decode-cache counters for one run.
///
/// The four word-slot counters (`hits`/`misses`/`invalidations`/
/// `preloaded`) are serialized into snapshots; the block-tier counters
/// are runtime telemetry only — the snapshot byte format predates the
/// superblock tier and stays frozen, so a restored machine restarts its
/// block counters from zero (the blocks themselves are rebuilt lazily
/// either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Fetches served from a live slot. Instructions dispatched through
    /// a superblock count here too — one hit per retired instruction —
    /// so `hits + misses` remains the total fetch count regardless of
    /// dispatch tier.
    pub hits: u64,
    /// Fetches that had to decode (cold slot, invalidated slot, cache
    /// disabled, or a skew-redirected / non-cacheable address).
    pub misses: u64,
    /// Slots cleared by writes (self-modifying RAM stores, NVM
    /// programming, image loads).
    pub invalidations: u64,
    /// Slots seeded from a shared [`DecodedProgram`] artifact.
    pub preloaded: u64,
    /// Superblocks constructed.
    pub blocks_built: u64,
    /// Superblocks dropped because a write touched a word they cover.
    pub block_invalidations: u64,
    /// Whole-block dispatches taken by the batched run loop.
    pub block_dispatches: u64,
    /// Instructions retired through block dispatch (each also counted
    /// in `hits`).
    pub block_insns: u64,
}

impl DecodeStats {
    /// Hit rate in `0.0..=1.0` (1.0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Longest superblock, in words (terminator included). Bounds both the
/// build walk and the invalidation back-scan: a write at word `i` can
/// only be covered by blocks starting in `(i - MAX_BLOCK_WORDS, i]`.
pub(crate) const MAX_BLOCK_WORDS: usize = 64;

/// An immutable straight-line run of decoded instructions.
///
/// Every instruction in a block is *bus-free*: pure register/PSW
/// operations, plus at most one trailing `JMP`/`Jcc` (which computes its
/// target without touching the bus). Because nothing inside a block can
/// read or write the bus, raise an interrupt, end the simulation or
/// fault, the batched run loop may execute the whole block between two
/// boundary checks and advance time once by the summed cycle cost —
/// byte-identical to stepping it.
#[derive(Debug)]
pub(crate) struct Superblock {
    insns: Box<[Insn]>,
}

impl Superblock {
    /// Instructions (= words) the block covers.
    pub(crate) fn len(&self) -> usize {
        self.insns.len()
    }

    /// The decoded instructions, in execution order.
    pub(crate) fn insns(&self) -> &[Insn] {
        &self.insns
    }
}

/// How an instruction participates in superblock formation.
enum BlockRole {
    /// Bus-free, falls through: may appear anywhere in a block.
    Pure,
    /// Bus-free control flow: may end a block (`JMP`, `Jcc`).
    Terminator,
    /// Touches the bus, retires specially, or traps: never in a block.
    Stop,
}

fn block_role(insn: &Insn) -> BlockRole {
    // Exhaustive on purpose: a new instruction variant must make an
    // explicit block-eligibility decision here.
    match insn {
        Insn::Nop
        | Insn::Dbg { .. }
        | Insn::MovI { .. }
        | Insn::MovHi { .. }
        | Insn::Mov { .. }
        | Insn::MovDa { .. }
        | Insn::MovAd { .. }
        | Insn::MovAa { .. }
        | Insn::Lea { .. }
        | Insn::Add { .. }
        | Insn::AddI { .. }
        | Insn::Sub { .. }
        | Insn::Mul { .. }
        | Insn::And { .. }
        | Insn::AndI { .. }
        | Insn::Or { .. }
        | Insn::OrI { .. }
        | Insn::Xor { .. }
        | Insn::XorI { .. }
        | Insn::Shl { .. }
        | Insn::ShlI { .. }
        | Insn::Shr { .. }
        | Insn::ShrI { .. }
        | Insn::SarI { .. }
        | Insn::Not { .. }
        | Insn::Neg { .. }
        | Insn::Cmp { .. }
        | Insn::CmpI { .. }
        | Insn::Insert { .. }
        | Insn::Extract { .. }
        | Insn::Ei
        | Insn::Di
        | Insn::AddA { .. } => BlockRole::Pure,
        Insn::Jmp { .. } | Insn::J { .. } => BlockRole::Terminator,
        Insn::Halt { .. }
        | Insn::Trap { .. }
        | Insn::Ld { .. }
        | Insn::LdB { .. }
        | Insn::St { .. }
        | Insn::StB { .. }
        | Insn::LdAbs { .. }
        | Insn::StAbs { .. }
        | Insn::Call { .. }
        | Insn::CallR { .. }
        | Insn::Ret
        | Insn::RetI
        | Insn::Push { .. }
        | Insn::Pop { .. }
        | Insn::PushA { .. }
        | Insn::PopA { .. } => BlockRole::Stop,
    }
}

/// An immutable predecode of every word an [`Image`] covers.
///
/// Built once per distinct image (the campaign layer keys it by the same
/// content hash that dedupes builds) and shared across workers and
/// platforms via `Arc`; [`crate::Platform::load_prebuilt`] seeds a
/// platform's decode cache from it.
#[derive(Debug, Clone, Default)]
pub struct DecodedProgram {
    /// `(word address, slot)` pairs, address-ascending.
    entries: Vec<(u32, Slot)>,
}

impl DecodedProgram {
    /// Predecodes every aligned word the image covers.
    ///
    /// Partially covered words are filled with the backing region's
    /// reset byte (`0xFF` for NVM, `0` elsewhere) so the predecoded word
    /// equals exactly what the bus would fetch after
    /// [`crate::SocBus::load_image`]. Bytes outside ROM/RAM/NVM are
    /// skipped (they are not executable memory).
    pub fn from_image(image: &Image) -> Self {
        let mut entries = Vec::with_capacity(image.len() / 4 + 1);
        // A partially covered word waits here: the next run may fill
        // more of it.
        let mut partial: Option<(u32, [u8; 4])> = None;
        for (base, bytes) in image.runs() {
            let mut addr = base;
            let mut rest = bytes;
            while !rest.is_empty() {
                let word_addr = addr & !3;
                let lane = (addr & 3) as usize;
                let take = rest.len().min(4 - lane);
                let (head, tail) = rest.split_at(take);
                // Region boundaries are word-aligned, so a word lies
                // wholly inside or outside executable memory.
                if let Some((region, _)) = ExecRegion::classify(word_addr) {
                    match &mut partial {
                        Some((at, word)) if *at == word_addr => {
                            word[lane..lane + take].copy_from_slice(head);
                        }
                        _ => {
                            if let Some((at, word)) = partial.take() {
                                entries.push((at, Slot::of(u32::from_le_bytes(word))));
                            }
                            let fill = if region == ExecRegion::Nvm { 0xFF } else { 0 };
                            let mut word = [fill; 4];
                            word[lane..lane + take].copy_from_slice(head);
                            if take == 4 {
                                entries.push((word_addr, Slot::of(u32::from_le_bytes(word))));
                            } else {
                                partial = Some((word_addr, word));
                            }
                        }
                    }
                }
                addr += take as u32;
                rest = tail;
            }
        }
        if let Some((at, word)) = partial {
            entries.push((at, Slot::of(u32::from_le_bytes(word))));
        }
        Self { entries }
    }

    /// Number of predecoded words.
    pub fn words(&self) -> usize {
        self.entries.len()
    }

    /// Whether the artifact is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn entries(&self) -> &[(u32, Slot)] {
        &self.entries
    }
}

const ROM_WORDS: usize = (ROM_SIZE / 4) as usize;
const RAM_WORDS: usize = (RAM_SIZE / 4) as usize;
const NVM_WORDS: usize = (NVM_SIZE / 4) as usize;

/// Block-map sentinel: no block-build attempt recorded for this word.
const BLOCK_UNKNOWN: u32 = 0;
/// Block-map sentinel: a build was attempted and produced no block
/// (negative cache — the word is illegal or starts with a bus-touching
/// instruction). Entries ≥ [`BLOCK_BASE`] are arena ids plus the base.
const BLOCK_NONE: u32 = 1;
const BLOCK_BASE: u32 = 2;

/// Entries per reset chunk of a [`RegionTable`].
const RESET_CHUNK: usize = 64;

/// One region's slot table or block map. It is allocated on first use
/// and then kept for the life of the cache: a reset refills only the
/// [`RESET_CHUNK`]-entry chunks written since the last reset, so an
/// image load costs what the previous run touched, not the region size.
#[derive(Debug, Clone)]
struct RegionTable<T> {
    entries: Vec<T>,
    /// One bit per chunk that may hold an entry other than the empty
    /// value. Hits never write, so they never mark.
    written: Vec<u64>,
    /// Whether the table was opened since the last reset. A cold region
    /// counts no invalidation and has no blocks to scan.
    live: bool,
}

impl<T> Default for RegionTable<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            written: Vec::new(),
            live: false,
        }
    }
}

impl<T: Copy> RegionTable<T> {
    /// Makes the table live, allocating `len` `empty` entries on first
    /// use.
    fn open(&mut self, len: usize, empty: T) {
        if !self.live {
            if self.entries.is_empty() {
                self.entries = vec![empty; len];
                self.written = vec![0; len.div_ceil(RESET_CHUNK * 64)];
            }
            self.live = true;
        }
    }

    /// Writes one entry of a live table, marking its chunk.
    fn set(&mut self, idx: usize, value: T) {
        self.entries[idx] = value;
        let chunk = idx / RESET_CHUNK;
        self.written[chunk / 64] |= 1 << (chunk % 64);
    }

    /// Refills every written chunk with `empty`; the table goes cold.
    fn reset(&mut self, empty: T) {
        for (word, bits) in self.written.iter_mut().enumerate() {
            while *bits != 0 {
                let chunk = word * 64 + bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                let start = chunk * RESET_CHUNK;
                let end = (start + RESET_CHUNK).min(self.entries.len());
                self.entries[start..end].fill(empty);
            }
        }
        self.live = false;
    }
}

/// The per-bus decode cache: one slot table per executable region, the
/// superblock tier built over those slots, plus the run's
/// [`DecodeStats`].
///
/// Every table is allocated on first use and kept across image loads,
/// restores and enable toggles; those reset only the chunks a run
/// wrote. The counters do not see the difference: a region counts as
/// live from its first use until the next reset, exactly as when each
/// reset freed the tables.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    /// Word slots, indexed by [`ExecRegion`].
    slots: [RegionTable<Slot>; 3],
    /// Block maps, indexed by [`ExecRegion`] and then by start word:
    /// [`BLOCK_UNKNOWN`]/[`BLOCK_NONE`] sentinels or an arena id +
    /// [`BLOCK_BASE`].
    block_maps: [RegionTable<u32>; 3],
    /// Shared-ownership block storage; freed ids are recycled.
    arena: Vec<Option<Arc<Superblock>>>,
    free: Vec<u32>,
    /// Bumped whenever any block may have been dropped; the run loop's
    /// one-entry block cache revalidates against it, so a cached `Arc`
    /// can never outlive an invalidation.
    generation: u64,
    enabled: bool,
    /// Whether the superblock tier is active (requires `enabled` too).
    blocks: bool,
    pub(crate) stats: DecodeStats,
}

impl Default for DecodeCache {
    fn default() -> Self {
        Self {
            slots: Default::default(),
            block_maps: Default::default(),
            arena: Vec::new(),
            free: Vec::new(),
            generation: 0,
            enabled: true,
            blocks: true,
            stats: DecodeStats::default(),
        }
    }
}

/// Which executable region a cached fetch targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecRegion {
    /// Read-only program memory.
    Rom,
    /// Volatile memory (self-modifying code lives here).
    Ram,
    /// Non-volatile memory (reprogrammed through the NVM controller).
    Nvm,
}

impl ExecRegion {
    /// Classifies an address, returning the region and its word index.
    pub(crate) fn classify(addr: u32) -> Option<(Self, usize)> {
        if addr < ROM_START + ROM_SIZE {
            Some((ExecRegion::Rom, ((addr - ROM_START) >> 2) as usize))
        } else if (RAM_START..RAM_START + RAM_SIZE).contains(&addr) {
            Some((ExecRegion::Ram, ((addr - RAM_START) >> 2) as usize))
        } else if (NVM_START..NVM_START + NVM_SIZE).contains(&addr) {
            Some((ExecRegion::Nvm, ((addr - NVM_START) >> 2) as usize))
        } else {
            None
        }
    }

    /// The region's size in words.
    fn words(self) -> usize {
        match self {
            ExecRegion::Rom => ROM_WORDS,
            ExecRegion::Ram => RAM_WORDS,
            ExecRegion::Nvm => NVM_WORDS,
        }
    }
}

impl DecodeCache {
    /// Enables or disables memoisation. Disabled, every fetch decodes
    /// fresh (the pre-refactor baseline the benches compare against) and
    /// the superblock tier — built over the slots — goes dormant too.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            for slots in &mut self.slots {
                slots.reset(Slot::Unknown);
            }
            self.drop_all_blocks();
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the superblock tier (default: enabled).
    /// Orthogonal to [`DecodeCache::set_enabled`]: with blocks off the
    /// per-word slot path still memoises, which is the PR 5 predecoded
    /// baseline the block tier is benchmarked against.
    pub(crate) fn set_blocks(&mut self, enabled: bool) {
        self.blocks = enabled;
        if !enabled {
            self.drop_all_blocks();
        }
    }

    pub(crate) fn blocks_enabled(&self) -> bool {
        self.blocks
    }

    fn drop_all_blocks(&mut self) {
        for map in &mut self.block_maps {
            map.reset(BLOCK_UNKNOWN);
        }
        self.arena.clear();
        self.free.clear();
        self.generation = self.generation.wrapping_add(1);
    }

    /// Monotonic block-invalidation epoch: bumped whenever any block may
    /// have been dropped. A `(pc, generation)`-keyed dispatch cache is
    /// valid exactly while this is unchanged.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Fetches through the cache: `mem` is the region's backing array,
    /// `idx` the word index within it. Returns the raw word and its
    /// decoding (`None` = illegal).
    pub(crate) fn fetch(
        &mut self,
        region: ExecRegion,
        mem: &[u8],
        idx: usize,
    ) -> (u32, Option<Insn>) {
        if !self.enabled {
            self.stats.misses += 1;
            let word = word_at(mem, idx);
            return (word, decode(word).ok());
        }
        let slots = &mut self.slots[region as usize];
        slots.open(region.words(), Slot::Unknown);
        let slot = match slots.entries[idx] {
            Slot::Unknown => {
                let fresh = Slot::of(word_at(mem, idx));
                slots.set(idx, fresh);
                self.stats.misses += 1;
                fresh
            }
            live => {
                self.stats.hits += 1;
                live
            }
        };
        match slot {
            Slot::Insn { word, insn } => (word, Some(insn)),
            Slot::Illegal { word } => (word, None),
            Slot::Unknown => unreachable!("slot was just filled"),
        }
    }

    /// Looks up — or builds — the superblock starting at word `idx` of
    /// `region`. Returns `None` when the tier is off, the start word
    /// lies in `excluded` (the ES-skew jump table, whose fetches must
    /// take the per-word bypass), or no bus-free run begins there (a
    /// negative result, cached until a write disturbs the
    /// neighbourhood).
    pub(crate) fn superblock(
        &mut self,
        region: ExecRegion,
        mem: &[u8],
        idx: usize,
        excluded: Option<(usize, usize)>,
    ) -> Option<Arc<Superblock>> {
        if !self.enabled || !self.blocks {
            return None;
        }
        if excluded.is_some_and(|(lo, hi)| idx >= lo && idx < hi) {
            return None;
        }
        let words = region.words();
        let map = &mut self.block_maps[region as usize];
        map.open(words, BLOCK_UNKNOWN);
        match map.entries[idx] {
            BLOCK_UNKNOWN => {}
            BLOCK_NONE => return None,
            id => return self.arena[(id - BLOCK_BASE) as usize].clone(),
        }
        // Cold start: chain forward over the decoded slots, filling
        // cold ones silently — the dispatch accounts the fetches, the
        // build only materialises the chain.
        let mut insns: Vec<Insn> = Vec::new();
        let slots = &mut self.slots[region as usize];
        slots.open(words, Slot::Unknown);
        let mut cap = (idx + MAX_BLOCK_WORDS).min(words);
        if let Some((lo, _)) = excluded {
            if idx < lo {
                cap = cap.min(lo);
            }
        }
        for at in idx..cap {
            let mut slot = slots.entries[at];
            if slot == Slot::Unknown {
                slot = Slot::of(word_at(mem, at));
                slots.set(at, slot);
            }
            let Slot::Insn { insn, .. } = slot else {
                break;
            };
            match block_role(&insn) {
                BlockRole::Pure => insns.push(insn),
                BlockRole::Terminator => {
                    insns.push(insn);
                    break;
                }
                BlockRole::Stop => break,
            }
        }
        let map = &mut self.block_maps[region as usize];
        if insns.is_empty() {
            map.set(idx, BLOCK_NONE);
            return None;
        }
        let block = Arc::new(Superblock {
            insns: insns.into_boxed_slice(),
        });
        let id = match self.free.pop() {
            Some(id) => {
                self.arena[id as usize] = Some(Arc::clone(&block));
                id
            }
            None => {
                self.arena.push(Some(Arc::clone(&block)));
                (self.arena.len() - 1) as u32
            }
        };
        self.stats.blocks_built += 1;
        map.set(idx, id + BLOCK_BASE);
        Some(block)
    }

    /// Accounts one whole-block dispatch of `insns` retired
    /// instructions: each counts as a fetch hit (so `hits + misses`
    /// stays the total fetch count across dispatch tiers) plus the
    /// block-tier counters.
    pub(crate) fn note_block_dispatch(&mut self, insns: u64) {
        self.stats.hits += insns;
        self.stats.block_insns += insns;
        self.stats.block_dispatches += 1;
    }

    /// Drops every block that covers a word in `[start, end)`, plus any
    /// negative-cache entry a changed word could now upgrade to a block.
    /// A block starting at `j` covers at most `j + MAX_BLOCK_WORDS`
    /// words, so the back-scan window is bounded.
    fn drop_blocks_touching(&mut self, region: ExecRegion, start: usize, end: usize) {
        let map = &mut self.block_maps[region as usize];
        if !map.live {
            return;
        }
        self.generation = self.generation.wrapping_add(1);
        let lo = start.saturating_sub(MAX_BLOCK_WORDS - 1);
        let hi = end.min(map.entries.len());
        for (j, entry) in map.entries.iter_mut().enumerate().take(hi).skip(lo) {
            if *entry == BLOCK_UNKNOWN {
                continue;
            }
            if *entry == BLOCK_NONE {
                // The written word may turn this start into a viable
                // block — retry the build next time it is dispatched.
                *entry = BLOCK_UNKNOWN;
                continue;
            }
            let id = (*entry - BLOCK_BASE) as usize;
            if self.arena[id].as_ref().is_some_and(|b| j + b.len() > start) {
                self.arena[id] = None;
                self.free.push(*entry - BLOCK_BASE);
                *entry = BLOCK_UNKNOWN;
                self.stats.block_invalidations += 1;
            }
        }
    }

    /// Invalidates one word slot (no-op while the region is cold).
    fn invalidate_word_slot(&mut self, region: ExecRegion, idx: usize) {
        let slots = &mut self.slots[region as usize];
        if slots.live && slots.entries[idx] != Slot::Unknown {
            slots.entries[idx] = Slot::Unknown;
            self.stats.invalidations += 1;
        }
    }

    /// Invalidates one word: its slot, and every block covering it.
    pub(crate) fn invalidate_word(&mut self, region: ExecRegion, idx: usize) {
        self.invalidate_word_slot(region, idx);
        self.drop_blocks_touching(region, idx, idx + 1);
    }

    /// Invalidates a word range (NVM page erase): the slots, and every
    /// block touching the range.
    pub(crate) fn invalidate_range(&mut self, region: ExecRegion, idx: usize, words: usize) {
        for i in idx..idx + words {
            self.invalidate_word_slot(region, i);
        }
        self.drop_blocks_touching(region, idx, idx + words);
    }

    /// Drops every slot and block (image load replaces backing memory
    /// wholesale). Counts one invalidation per live region.
    pub(crate) fn invalidate_all(&mut self) {
        for slots in &mut self.slots {
            if slots.live {
                self.stats.invalidations += 1;
                slots.reset(Slot::Unknown);
            }
        }
        let live = self.arena.iter().filter(|e| e.is_some()).count() as u64;
        self.stats.block_invalidations += live;
        self.drop_all_blocks();
    }

    /// Serializes the cache's dynamic state: the enabled flag and the
    /// four word-slot counters. Slot contents and superblocks are *not*
    /// serialized — they are a pure memoisation over backing memory,
    /// lazily re-derived after restore — and the block-tier counters
    /// stay out too: the v1 byte format is frozen, so a restored run
    /// restarts them from zero.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        crate::savestate::put_bool(out, self.enabled);
        crate::savestate::put_u64(out, self.stats.hits);
        crate::savestate::put_u64(out, self.stats.misses);
        crate::savestate::put_u64(out, self.stats.invalidations);
        crate::savestate::put_u64(out, self.stats.preloaded);
    }

    /// Restores the cache's dynamic state, dropping any live slots (they
    /// may describe different backing memory). Stats are restored last:
    /// clearing the slots must not perturb the serialized counters.
    pub(crate) fn apply_state(
        &mut self,
        r: &mut crate::savestate::SaveReader<'_>,
    ) -> Result<(), crate::savestate::SaveStateError> {
        let enabled = r.take_bool()?;
        let stats = DecodeStats {
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            invalidations: r.take_u64()?,
            preloaded: r.take_u64()?,
            ..DecodeStats::default()
        };
        self.set_enabled(enabled);
        self.invalidate_all();
        self.stats = stats;
        Ok(())
    }

    /// Seeds slots from a shared predecode artifact.
    pub(crate) fn preload(&mut self, program: &DecodedProgram) {
        if !self.enabled {
            return;
        }
        for &(addr, slot) in program.entries() {
            let Some((region, idx)) = ExecRegion::classify(addr) else {
                continue;
            };
            let slots = &mut self.slots[region as usize];
            slots.open(region.words(), Slot::Unknown);
            slots.set(idx, slot);
            self.stats.preloaded += 1;
        }
    }
}

fn word_at(mem: &[u8], idx: usize) -> u32 {
    let o = idx * 4;
    u32::from_le_bytes([mem[o], mem[o + 1], mem[o + 2], mem[o + 3]])
}

#[cfg(test)]
mod tests {
    use advm_isa::encode;

    use super::*;

    #[test]
    fn from_image_predecodes_loaded_words() {
        let program = advm_asm::assemble_str("_main:\n    NOP\n    HALT #3\n").unwrap();
        let mut image = Image::new();
        image.load_program(&program).unwrap();
        let decoded = DecodedProgram::from_image(&image);
        assert_eq!(decoded.words(), 2);
        let (addr, slot) = decoded.entries()[0];
        assert_eq!(addr, 0x100, "reset PC word first");
        assert_eq!(
            slot,
            Slot::Insn {
                word: encode(&Insn::Nop),
                insn: Insn::Nop
            }
        );
    }

    /// The byte-at-a-time walk `from_image` replaced: one region lookup
    /// per loaded byte.
    fn from_image_bytewise(image: &Image) -> Vec<(u32, Slot)> {
        use advm_soc::memmap::MemoryMap;
        use advm_soc::RegionKind;
        let map = MemoryMap::sc88();
        let mut entries = Vec::new();
        let mut current: Option<(u32, [u8; 4])> = None;
        for (addr, byte) in image.iter() {
            let kind = match map.region_at(addr).map(|r| r.kind()) {
                Some(kind @ (RegionKind::Rom | RegionKind::Ram | RegionKind::Nvm)) => kind,
                _ => continue,
            };
            match &mut current {
                Some((word_addr, bytes)) if *word_addr == addr & !3 => {
                    bytes[(addr & 3) as usize] = byte;
                }
                _ => {
                    if let Some((at, bytes)) = current.take() {
                        entries.push((at, Slot::of(u32::from_le_bytes(bytes))));
                    }
                    let fill = if kind == RegionKind::Nvm { 0xFF } else { 0 };
                    let mut bytes = [fill; 4];
                    bytes[(addr & 3) as usize] = byte;
                    current = Some((addr & !3, bytes));
                }
            }
        }
        if let Some((at, bytes)) = current {
            entries.push((at, Slot::of(u32::from_le_bytes(bytes))));
        }
        entries
    }

    /// An image with one separately loaded program per run.
    fn image_of(runs: &[(u32, &[u8])]) -> Image {
        let mut image = Image::new();
        for &(base, bytes) in runs {
            let list: Vec<String> = bytes.iter().map(u8::to_string).collect();
            let source = format!(".ORG 0x{base:X}\n.BYTE {}\n", list.join(", "));
            image
                .load_program(&advm_asm::assemble_str(&source).unwrap())
                .unwrap();
        }
        image
    }

    #[test]
    fn word_walk_predecodes_like_the_byte_walk() {
        let nop = encode(&Insn::Nop).to_le_bytes();
        let halt = encode(&Insn::Halt { code: 3 }).to_le_bytes();
        let code: Vec<u8> = nop.iter().chain(&halt).chain(&nop).copied().collect();
        let cases: Vec<Vec<(u32, &[u8])>> = vec![
            // Aligned whole words.
            vec![(0x100, &code)],
            // Unaligned start and end.
            vec![(0x101, &code), (0x4_0003, &code[..6])],
            // Two runs sharing one word: bytes 0..2 and 3 of 0x200.
            vec![(0x200, &halt[..2]), (0x203, &halt[3..])],
            // A run ending mid-word, the next starting in the word after.
            vec![(0x300, &code[..5]), (0x306, &code[..3])],
            // Partial NVM words: the missing bytes read erased (0xFF).
            vec![(NVM_START + 1, &[0x01]), (NVM_START + 6, &nop[..1])],
            // A run crossing from ROM into RAM.
            vec![(ROM_START + ROM_SIZE - 6, &code)],
            // Bytes outside executable memory (the RAM/NVM gap, MMIO) are
            // skipped, also inside a run that starts in RAM.
            vec![(RAM_START + RAM_SIZE - 2, &code), (0xE_0100, &code)],
            vec![(NVM_START + NVM_SIZE - 3, &code)],
        ];
        for runs in cases {
            let image = image_of(&runs);
            assert_eq!(
                DecodedProgram::from_image(&image).entries(),
                from_image_bytewise(&image).as_slice(),
                "{runs:x?}"
            );
        }
        // And a whole assembled unit with its ES ROM segment.
        let program = advm_asm::assemble_str(
            "_main:\n    NOP\n    HALT #3\n.ORG 0x2001\n.BYTE 7\n.ORG 0x40000\n.WORD 5\n",
        )
        .unwrap();
        let mut image = Image::new();
        image.load_program(&program).unwrap();
        assert_eq!(
            DecodedProgram::from_image(&image).entries(),
            from_image_bytewise(&image).as_slice()
        );
    }

    #[test]
    fn nvm_fill_matches_erased_state() {
        // One byte loaded into an NVM word: the other three must read as
        // erased (0xFF), exactly what the bus fetch would return.
        let mut image = Image::new();
        let program = advm_asm::assemble_str(&format!(".ORG 0x{NVM_START:X}\n.BYTE 1\n")).unwrap();
        image.load_program(&program).unwrap();
        let decoded = DecodedProgram::from_image(&image);
        assert_eq!(decoded.words(), 1);
        let (_, slot) = decoded.entries()[0];
        let word = match slot {
            Slot::Insn { word, .. } | Slot::Illegal { word } => word,
            Slot::Unknown => panic!("loaded word must be decoded"),
        };
        assert_eq!(word, 0xFFFF_FF01);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = DecodeCache::default();
        let mem = encode(&Insn::Nop).to_le_bytes().to_vec();
        let (word, insn) = cache.fetch(ExecRegion::Rom, &mem, 0);
        assert_eq!(word, encode(&Insn::Nop));
        assert_eq!(insn, Some(Insn::Nop));
        assert_eq!(cache.stats.misses, 1);
        cache.fetch(ExecRegion::Rom, &mem, 0);
        assert_eq!(cache.stats.hits, 1);
    }

    #[test]
    fn invalidation_forces_redecode() {
        let mut cache = DecodeCache::default();
        let mut mem = encode(&Insn::Nop).to_le_bytes().to_vec();
        cache.fetch(ExecRegion::Ram, &mem, 0);
        mem.copy_from_slice(&encode(&Insn::Halt { code: 7 }).to_le_bytes());
        // Stale without invalidation…
        let (_, insn) = cache.fetch(ExecRegion::Ram, &mem, 0);
        assert_eq!(insn, Some(Insn::Nop));
        // …fresh after it.
        cache.invalidate_word(ExecRegion::Ram, 0);
        assert_eq!(cache.stats.invalidations, 1);
        let (_, insn) = cache.fetch(ExecRegion::Ram, &mem, 0);
        assert_eq!(insn, Some(Insn::Halt { code: 7 }));
    }

    #[test]
    fn disabled_cache_always_decodes() {
        let mut cache = DecodeCache::default();
        cache.set_enabled(false);
        let mem = encode(&Insn::Nop).to_le_bytes().to_vec();
        cache.fetch(ExecRegion::Rom, &mem, 0);
        cache.fetch(ExecRegion::Rom, &mem, 0);
        assert_eq!(cache.stats.hits, 0);
        assert_eq!(cache.stats.misses, 2);
    }

    #[test]
    fn preload_seeds_slots_as_hits() {
        let program = advm_asm::assemble_str("_main:\n    NOP\n    HALT #0\n").unwrap();
        let mut image = Image::new();
        image.load_program(&program).unwrap();
        let decoded = DecodedProgram::from_image(&image);
        let mut cache = DecodeCache::default();
        cache.preload(&decoded);
        assert_eq!(cache.stats.preloaded, 2);
        let mem = vec![0u8; 0x200];
        let (_, insn) = cache.fetch(ExecRegion::Rom, &mem, 0x100 / 4);
        assert_eq!(insn, Some(Insn::Nop));
        assert_eq!(cache.stats.hits, 1);
        assert_eq!(cache.stats.misses, 0);
    }

    #[test]
    fn stats_hit_rate() {
        let stats = DecodeStats {
            hits: 3,
            misses: 1,
            ..DecodeStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(DecodeStats::default().hit_rate(), 1.0);
    }
}
