//! Shared golden-prefix pool — snapshot-based run forking for campaigns.
//!
//! Every run of the same deduplicated image on the same platform retires
//! an identical instruction prefix: reset, the ES ROM's dispatch
//! preamble, the test's own setup. A [`PrefixPool`] executes that prefix
//! **once** per `(content key, platform)` on a fault-free machine,
//! snapshots it ([`advm_sim::Platform::snapshot`]), and lets every later
//! run of the campaign — including fault-injected ones — fork from the
//! snapshot instead of re-executing from reset.
//!
//! Forking is only taken when it is provably byte-identical to running
//! from reset ([`advm_sim::Platform::fork_safe`]): the prefix must have
//! ended by exhausting its budget (not by halting), and the injected
//! fault's module must be untouched by the prefix's MMIO coverage.
//! Otherwise the run silently falls back to from-reset execution —
//! verdicts never depend on whether a fork happened.
//!
//! The pool is shared: [`crate::audit::FaultAudit`] hands one pool to
//! all of its faulted campaigns, so the whole fault × platform matrix
//! pays for each image's prefix exactly once.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use advm_sim::{PlatformFault, SaveState};
use advm_soc::PlatformId;
use parking_lot::Mutex;

/// Default prefix budget: instructions executed before the snapshot
/// point. Long enough to cover reset plus the ES ROM preamble, short
/// enough that the snapshot lands before typical tests start touching
/// the peripheral under test.
pub const DEFAULT_PREFIX_BUDGET: u64 = 64;

/// One captured prefix: the machine snapshot plus the run-local
/// observations a forked continuation must inherit.
pub(crate) struct PrefixEntry {
    /// The machine at the snapshot point.
    pub(crate) state: SaveState,
    /// Instructions the prefix retired (what each fork skips).
    pub(crate) retired: u64,
    /// `DBG` markers the prefix emitted; markers are collected per
    /// `run()` call, so forked continuations prepend these.
    pub(crate) dbg_markers: Vec<u8>,
    /// Per-fault fork-safety verdicts captured from the live prefix
    /// machine (bit `i` = `PlatformFault::ALL[i]` forks safely), so an
    /// unsafe fork is rejected without deserializing the snapshot.
    fork_safe_mask: u16,
}

impl PrefixEntry {
    /// Seals a prefix captured on the live `platform` machine.
    pub(crate) fn capture(
        platform: &advm_sim::Platform,
        retired: u64,
        dbg_markers: Vec<u8>,
    ) -> Self {
        let fork_safe_mask = PlatformFault::ALL
            .iter()
            .enumerate()
            .fold(0u16, |mask, (i, &fault)| {
                mask | (u16::from(platform.fork_safe(fault)) << i)
            });
        Self {
            state: platform.snapshot(),
            retired,
            dbg_markers,
            fork_safe_mask,
        }
    }

    /// Whether forking a `fault`-carrying run from this prefix is
    /// provably byte-identical to running it from reset. Equals what
    /// the restored machine's `fork_safe` would answer — MMIO coverage
    /// round-trips through the snapshot — but costs a bit test instead
    /// of a deserialization.
    pub(crate) fn fork_safe(&self, fault: PlatformFault) -> bool {
        match PlatformFault::ALL.iter().position(|&f| f == fault) {
            Some(i) => self.fork_safe_mask & (1 << i) != 0,
            // Fault-free forks of a live prefix are always safe.
            None => true,
        }
    }
}

/// The shared once-slot for one `(content key, platform)` prefix: the
/// first worker to arrive initializes it; `None` marks an image whose
/// prefix cannot be forked (it halted inside the budget).
pub(crate) type PrefixSlot = Arc<OnceLock<Option<PrefixEntry>>>;

/// A concurrent pool of shared fault-free prefix snapshots, keyed by
/// `(image content key, platform)`.
///
/// Attach one to a [`Campaign`](crate::campaign::Campaign) with
/// [`Campaign::prefix_pool`](crate::campaign::Campaign::prefix_pool);
/// share one `Arc` across several campaigns to share the prefixes too.
pub struct PrefixPool {
    budget: u64,
    entries: Mutex<HashMap<(u64, PlatformId), PrefixSlot>>,
}

impl std::fmt::Debug for PrefixPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixPool")
            .field("budget", &self.budget)
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

impl PrefixPool {
    /// A pool whose prefixes run `budget` instructions before the
    /// snapshot point (clamped to each campaign's fuel at use).
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The configured prefix instruction budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of distinct `(content key, platform)` prefixes captured
    /// (or attempted) so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether no prefix has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().len() == 0
    }

    /// The shared once-slot for one `(content key, platform)` prefix.
    /// The first worker to arrive runs the prefix; everyone else reuses
    /// the captured entry (or the `None` marker for unforkable images).
    pub(crate) fn slot(&self, content_key: u64, platform: PlatformId) -> PrefixSlot {
        Arc::clone(
            self.entries
                .lock()
                .entry((content_key, platform))
                .or_default(),
        )
    }
}

impl Default for PrefixPool {
    fn default() -> Self {
        Self::new(DEFAULT_PREFIX_BUDGET)
    }
}
