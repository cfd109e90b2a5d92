//! The engine's cache policy: every epoch-keyed LRU the engine keeps,
//! the one lookup rule they share, and the lifetime hit/miss counters.
//!
//! Every cached value is a deterministic function of its key, and every
//! key carries the epoch it was computed at, so an epoch-`e` query can
//! only *hit* epoch-`e` entries. On a miss, [`Lru::lookup`] hands back
//! the newest strictly-older entry the key can be upgraded from (points
//! and centers are append-only, so it covers a prefix of the current
//! epoch); the caller extends it through the ingest deltas instead of
//! recomputing from scratch, and counts that as an upgrade, never as a
//! hit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mdbscan_covertree::CoverTreeSkeleton;
use mdbscan_kcenter::CenterAdjacency;

use crate::approx::ApproxArtifacts;
use crate::candidates::Candidates;
use crate::engine::CandidateIndex;
use crate::steps::StepArtifacts;

/// Default number of fragment-artifact entries the engine retains.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 16;

/// Entries the `ε`-keyed center-adjacency cache retains. The adjacency
/// depends on `ε` only (not `MinPts`), so `(ε, MinPts)` sweeps share one
/// entry per `ε` value; a handful covers any realistic sweep.
const ADJACENCY_CACHE_CAPACITY: usize = 8;

/// Whole-input cover-tree skeletons retained (one per recently queried
/// epoch; older epochs grow into newer ones by insertion).
const COVERTREE_CACHE_CAPACITY: usize = 4;

/// Ingest deltas retained for incremental artifact upgrades. A cached
/// artifact older than this many epochs falls back to a full recompute.
pub(crate) const DELTA_HISTORY: usize = 128;

/// Per-epoch grid indexes retained (one per recently queried
/// `(epoch, cell)` pair; older epochs extend into newer ones).
const GRID_CACHE_CAPACITY: usize = 4;

/// Per-epoch random-projection indexes retained. The RP index is
/// ε-independent (one per epoch covers every parameter probe), so a
/// couple of epochs suffice; older epochs extend into newer ones.
const RP_CACHE_CAPACITY: usize = 2;

/// A cache capacity that follows the fragment cache: `0` disables every
/// cache at once.
fn gated(frag_capacity: usize, capacity: usize) -> usize {
    if frag_capacity == 0 {
        0
    } else {
        capacity
    }
}

/// Capacity of the candidate-index LRU for an engine on `index`.
pub(crate) fn index_capacity(frag_capacity: usize, index: CandidateIndex) -> usize {
    gated(
        frag_capacity,
        match index {
            CandidateIndex::Grid => GRID_CACHE_CAPACITY,
            CandidateIndex::RandomProjection(_) => RP_CACHE_CAPACITY,
            CandidateIndex::Generic => 0,
        },
    )
}

/// Which pipeline a cached fragment partition belongs to. The §3.1 and
/// §3.2 pipelines derive different nets, so their artifacts must never
/// collide even at equal `(ε, MinPts)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetKind {
    Gonzalez,
    CoverTree,
}

/// A cache key that carries its epoch.
pub(crate) trait EpochKey: PartialEq {
    fn epoch(&self) -> u64;

    /// Whether an entry cached under `older` (an earlier epoch) can be
    /// upgraded into this key through the ingest deltas.
    fn upgrades_from(&self, older: &Self) -> bool;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub(crate) kind: NetKind,
    /// Epoch the artifacts were computed at: an epoch-`e` query can only
    /// hit epoch-`e` entries, so stale artifacts are invalidated by
    /// construction.
    pub(crate) epoch: u64,
    pub(crate) eps_bits: u64,
    pub(crate) min_pts: usize,
    /// `Some(ρ bits)` for Algorithm-2 summaries, `None` for the exact
    /// pipelines — the two artifact families never collide even at equal
    /// `(ε, MinPts)`.
    pub(crate) rho_bits: Option<u64>,
}

impl EpochKey for CacheKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Only exact Step-1/2 artifacts over the Gonzalez-kind net upgrade:
    /// cover-tree nets change wholesale per epoch, and summaries are
    /// recomputed.
    fn upgrades_from(&self, older: &Self) -> bool {
        self.kind == NetKind::Gonzalez
            && self.rho_bits.is_none()
            && *self
                == CacheKey {
                    epoch: self.epoch,
                    ..*older
                }
    }
}

/// Key of the `ε`-only center-adjacency cache: the adjacency is a pure
/// function of (epoch, net, threshold, screening mode) — `MinPts` and
/// `ρ` never enter. Cover-tree nets differ per level, so the level
/// joins the key there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdjKey {
    pub(crate) kind: NetKind,
    pub(crate) epoch: u64,
    pub(crate) level: i32,
    pub(crate) threshold_bits: u64,
    /// The per-edge bounds differ between screened and unscreened
    /// builds (membership does not), so the two never share an entry.
    pub(crate) pruned: bool,
}

impl EpochKey for AdjKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Gonzalez-kind centers are append-only, so an older adjacency
    /// extends by the new-center rows.
    fn upgrades_from(&self, older: &Self) -> bool {
        self.kind == NetKind::Gonzalez
            && *self
                == AdjKey {
                    epoch: self.epoch,
                    ..*older
                }
    }
}

/// Key of the candidate-index cache. An index is a pure function of the
/// epoch's points and, for the grid, the cell side: the net never
/// enters, so every solver shares entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexKey {
    pub(crate) epoch: u64,
    /// Bits of the grid cell side `ε/√d` — each probed `ε` gets its own
    /// aligned grid. `0` for the ε-independent random-projection index.
    pub(crate) cell_bits: u64,
}

impl EpochKey for IndexKey {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn upgrades_from(&self, older: &Self) -> bool {
        self.cell_bits == older.cell_bits
    }
}

/// The whole-input cover tree is keyed by epoch alone.
impl EpochKey for u64 {
    fn epoch(&self) -> u64 {
        *self
    }

    fn upgrades_from(&self, _: &Self) -> bool {
        true
    }
}

/// A cached per-parameter artifact: the exact pipelines store Step-1/2
/// outputs, the approximate pipeline its merged summary.
#[derive(Clone)]
pub(crate) enum CachedArtifacts {
    Steps(Arc<StepArtifacts>),
    Approx(Arc<ApproxArtifacts>),
}

impl CachedArtifacts {
    fn heap_bytes(&self) -> usize {
        match self {
            CachedArtifacts::Steps(a) => a.heap_bytes(),
            CachedArtifacts::Approx(a) => a.heap_bytes(),
        }
    }
}

/// What [`Lru::lookup`] found.
pub(crate) enum Lookup<V> {
    /// A same-epoch entry (promoted to most recent).
    Hit(V),
    /// No same-epoch entry, but this one from the given older epoch can
    /// be upgraded.
    Base(u64, V),
    Miss,
}

/// A tiny exact-scan most-recent-first LRU: the working set is a
/// handful of parameter probes, so a `Vec` scanned linearly beats any
/// hash scheme. Capacity 0 disables insertion entirely.
pub(crate) struct Lru<K, V> {
    pub(crate) capacity: usize,
    pub(crate) entries: Vec<(K, V)>,
}

impl<K: EpochKey, V: Clone> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Looks up `key`, promoting a hit to most-recent.
    pub(crate) fn promote(&mut self, key: &K) -> Option<V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(self.entries[0].1.clone())
    }

    /// The same-epoch entry for `key`, else the newest strictly-older
    /// entry `key` upgrades from.
    pub(crate) fn lookup(&mut self, key: &K) -> Lookup<V> {
        if let Some(v) = self.promote(key) {
            return Lookup::Hit(v);
        }
        self.entries
            .iter()
            .filter(|(k, _)| k.epoch() < key.epoch() && key.upgrades_from(k))
            .max_by_key(|(k, _)| k.epoch())
            .map_or(Lookup::Miss, |(k, v)| Lookup::Base(k.epoch(), v.clone()))
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.entries.retain(|(k, _)| k != &key);
        self.entries.insert(0, (key, value));
        self.entries.truncate(self.capacity);
    }
}

/// One published epoch's delta: which cover sets gained members, and
/// how many points existed before — everything an incremental artifact
/// upgrade needs.
pub(crate) struct EpochDelta {
    pub(crate) epoch: u64,
    pub(crate) old_num_points: usize,
    pub(crate) dirty_balls: Vec<u32>,
}

pub(crate) struct EngineCache {
    pub(crate) fragments: Lru<CacheKey, CachedArtifacts>,
    pub(crate) adjacency: Lru<AdjKey, Arc<CenterAdjacency>>,
    pub(crate) covertree: Lru<u64, Arc<CoverTreeSkeleton>>,
    /// Per-epoch candidate indexes of the engine's one configured kind
    /// (grid or random projection; never `Candidates::Generic`).
    pub(crate) index: Lru<IndexKey, Candidates>,
    /// Published ingest deltas, ascending by epoch, bounded by
    /// [`DELTA_HISTORY`].
    pub(crate) deltas: VecDeque<EpochDelta>,
}

impl EngineCache {
    /// Empty caches sized from the fragment capacity (`0` disables
    /// caching entirely).
    pub(crate) fn new(frag_capacity: usize, index: CandidateIndex) -> Self {
        Self {
            fragments: Lru::new(frag_capacity),
            adjacency: Lru::new(gated(frag_capacity, ADJACENCY_CACHE_CAPACITY)),
            covertree: Lru::new(gated(frag_capacity, COVERTREE_CACHE_CAPACITY)),
            index: Lru::new(index_capacity(frag_capacity, index)),
            deltas: VecDeque::new(),
        }
    }

    /// Drops every cached artifact; the delta history stays.
    pub(crate) fn clear(&mut self) {
        self.fragments.entries.clear();
        self.adjacency.entries.clear();
        self.covertree.entries.clear();
        self.index.entries.clear();
    }

    /// Total heap bytes retained by the fragment cache (diagnostic).
    pub(crate) fn fragment_heap_bytes(&self) -> usize {
        self.fragments
            .entries
            .iter()
            .map(|(_, a)| a.heap_bytes())
            .sum()
    }

    /// The union of dirty balls across epochs `(from, to]`, or `None`
    /// when the delta history no longer covers that span (→ full
    /// recompute). `old_n` sanity-checks that the upgrade base really
    /// describes the point prefix present at `from`.
    pub(crate) fn dirty_since(&self, from: u64, to: u64, old_n: usize) -> Option<Vec<u32>> {
        let mut needed = from + 1;
        let mut dirty: Vec<u32> = Vec::new();
        for d in &self.deltas {
            if d.epoch < needed {
                continue;
            }
            if d.epoch != needed {
                return None; // pruned history or a gap
            }
            if needed == from + 1 && d.old_num_points != old_n {
                return None;
            }
            dirty.extend_from_slice(&d.dirty_balls);
            if d.epoch == to {
                dirty.sort_unstable();
                dirty.dedup();
                return Some(dirty);
            }
            needed += 1;
        }
        None
    }
}

/// A lifetime hit/miss counter pair (relaxed atomics: counters, not
/// synchronization).
#[derive(Default)]
pub(crate) struct HitMiss {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl HitMiss {
    pub(crate) fn new(hits: u64, misses: u64) -> Self {
        Self {
            hits: AtomicU64::new(hits),
            misses: AtomicU64::new(misses),
        }
    }

    pub(crate) fn count(&self, hit: bool) {
        let c = if hit { &self.hits } else { &self.misses };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses)`.
    pub(crate) fn get(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}
