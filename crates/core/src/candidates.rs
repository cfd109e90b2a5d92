//! The solvers' one candidate-source seam.
//!
//! Every ε-ball scan of the exact and approximate solvers — the center
//! adjacency, the `≥ MinPts` core test, and the nearest-core /
//! nearest-summary labeling scan — draws its candidates from one
//! [`Candidates`] value, resolved once per query by
//! [`EngineSnapshot::resolve_candidates`]:
//!
//! * [`Candidates::Generic`] — the paper's neighbor cover sets
//!   `∪_{e' ∈ A_e} C_{e'}` (Lemma 2), with net-anchored
//!   triangle-inequality pruning. Works for every metric.
//! * [`Candidates::Grid`] — ring cells of an ε-aligned grid over the
//!   points' coordinates. Changes only which pairs are examined, never
//!   what an examined pair evaluates to, so labels are bit-identical to
//!   the generic source.
//! * [`Candidates::Rp`] — seeded random-projection lists. Deterministic
//!   for a fixed seed, but a candidate miss is a quality trade-off, so
//!   only the approximate solvers may use it.
//!
//! The source is matched once per point (or center), never per
//! candidate pair, so every inner loop stays monomorphic. Each worker
//! chunk carries one [`Probe`]: its scratch buffers and the [`Ledger`]
//! of pruning and candidate counters, merged in chunk order.

use std::sync::Arc;
use std::time::Instant;

use mdbscan_grid::{CandidateStats, GridIndex, GRID_MAX_DIM};
use mdbscan_kcenter::CenterAdjacency;
use mdbscan_metric::{BatchMetric, PruneStats, PruningConfig};
use mdbscan_obs::Phase;
use mdbscan_parallel::{par_map_ranges, split_even, worker_count, ParallelConfig};
use mdbscan_rp::{RpIndex, RpStats};

use crate::cache::{IndexKey, Lookup};
use crate::engine::{AlgorithmKind, CandidateIndex, EngineSnapshot};
use crate::netview::NetView;

/// Where one query's ε-ball candidates come from (see the module docs).
#[derive(Clone, Default)]
pub(crate) enum Candidates {
    #[default]
    Generic,
    Grid(Arc<GridIndex>),
    Rp(Arc<RpIndex>),
}

impl Candidates {
    fn len(&self) -> usize {
        match self {
            Candidates::Generic => 0,
            Candidates::Grid(g) => g.len(),
            Candidates::Rp(r) => r.len(),
        }
    }

    /// The same index over `new_coords` appended — bit-identical to a
    /// fresh build over the concatenated points.
    fn extend(&self, new_coords: &[f64]) -> Self {
        match self {
            Candidates::Generic => Candidates::Generic,
            Candidates::Grid(g) => Candidates::Grid(Arc::new(g.extend(new_coords))),
            Candidates::Rp(r) => Candidates::Rp(Arc::new(r.extend(new_coords))),
        }
    }

    /// The center adjacency at `threshold`: `cached` when the caller
    /// has one, else ring cells over the center coordinates (grid) or
    /// the pivot-screened pair sweep. Both builds yield the same edge
    /// set; only the counters they charge to `ledger` differ.
    #[allow(clippy::too_many_arguments)] // one call per solver run
    pub(crate) fn center_adjacency<P: Sync, M: BatchMetric<P> + Sync>(
        &self,
        cached: Option<Arc<CenterAdjacency>>,
        points: &[P],
        metric: &M,
        net: &NetView<'_>,
        threshold: f64,
        parallel: &ParallelConfig,
        pruning: &PruningConfig,
        ledger: &mut Ledger,
    ) -> Arc<CenterAdjacency> {
        if let Some(adj) = cached {
            debug_assert_eq!(adj.threshold, threshold, "adjacency cache mixup");
            return adj;
        }
        Arc::new(match self {
            Candidates::Grid(g) => {
                let coords = net
                    .centers
                    .iter()
                    .flat_map(|&c| g.point_coords(c))
                    .copied()
                    .collect();
                let (built, stats) = CenterAdjacency::build_grid(
                    points,
                    metric,
                    net.centers,
                    threshold,
                    parallel,
                    g.dim(),
                    coords,
                );
                ledger.grid.merge(&stats);
                built
            }
            _ => {
                let built = CenterAdjacency::build_pruned(
                    points,
                    metric,
                    net.centers,
                    threshold,
                    parallel,
                    pruning,
                );
                ledger.pruning.merge(&built.pruning);
                built
            }
        })
    }
}

/// The work counters of candidate generation, one per source family:
/// net-anchored pruning, grid cells, and projection lists.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ledger {
    pub(crate) pruning: PruneStats,
    pub(crate) grid: CandidateStats,
    pub(crate) rp: RpStats,
}

impl Ledger {
    pub(crate) fn merge(&mut self, other: &Ledger) {
        self.pruning.merge(&other.pruning);
        self.grid.merge(&other.grid);
        self.rp.merge(&other.rp);
    }
}

/// Per-worker probe state: the chunk's ledger and reusable buffers.
#[derive(Default)]
pub(crate) struct Probe {
    pub(crate) ledger: Ledger,
    /// Grid boundary cells, or random-projection candidate ids.
    ids: Vec<u32>,
    anchors: AnchorScratch,
}

/// Maps `f` over `0..n` in contiguous chunks (at least `min_per_thread`
/// items each, at most `threads` of them), one [`Probe`] per chunk.
/// Outputs come back in index order and the ledgers merged in chunk
/// order, so both are identical for every thread count.
pub(crate) fn par_probe<T: Send>(
    threads: usize,
    n: usize,
    min_per_thread: usize,
    f: impl Fn(usize, &mut Probe) -> T + Sync,
) -> (Vec<T>, Ledger) {
    let w = worker_count(threads, n, min_per_thread);
    let chunks = par_map_ranges(split_even(n, w), |r| {
        let mut probe = Probe::default();
        let out: Vec<T> = r.map(|i| f(i, &mut probe)).collect();
        (out, probe.ledger)
    });
    let mut out = Vec::with_capacity(n);
    let mut ledger = Ledger::default();
    for (chunk, l) in chunks {
        out.extend(chunk);
        ledger.merge(&l);
    }
    (out, ledger)
}

/// Everything one query's ε-ball scans read: the points, the metric,
/// the net with its center adjacency, the pruning policy, and the
/// candidate source.
#[derive(Clone, Copy)]
pub(crate) struct Scan<'a, P, M> {
    pub(crate) points: &'a [P],
    pub(crate) metric: &'a M,
    pub(crate) net: NetView<'a>,
    pub(crate) adj: &'a CenterAdjacency,
    pub(crate) pruning: &'a PruningConfig,
    pub(crate) source: &'a Candidates,
}

impl<P, M: BatchMetric<P>> Scan<'_, P, M> {
    /// `|B(p, ε)| ≥ MinPts` for point `p` of ball `e` — the Step-1 and
    /// Algorithm-2 core test. The generic and grid sources see the same
    /// ε-ball, so their verdicts are identical; random projections count
    /// only inside the candidate set, so a miss can undercount, never
    /// overcount.
    pub(crate) fn is_core(
        &self,
        p: usize,
        e: usize,
        eps: f64,
        min_pts: usize,
        probe: &mut Probe,
    ) -> bool {
        let (points, metric) = (self.points, self.metric);
        let within = |q: u32| metric.within(&points[p], &points[q as usize], eps);
        match self.source {
            Candidates::Generic => {
                self.count_capped(e, p, eps, min_pts, &mut probe.ledger.pruning) >= min_pts
            }
            // Whole in-range cells count for free; only boundary-cell
            // members consult the metric.
            Candidates::Grid(g) => {
                g.count_within_capped(
                    g.point_coords(p),
                    eps,
                    min_pts,
                    &mut probe.ids,
                    &mut probe.ledger.grid,
                    within,
                ) >= min_pts
            }
            Candidates::Rp(r) => {
                r.candidates_for(p as u32, &mut probe.ids, &mut probe.ledger.rp);
                probe
                    .ids
                    .iter()
                    .filter(|&&q| within(q))
                    .take(min_pts)
                    .count()
                    >= min_pts
            }
        }
    }

    /// The key of the nearest candidate to `p` within `radius`, among
    /// candidates `q` with `key(q) = Some(_)`, minimizing `(distance,
    /// key)` lexicographically. That is exactly the optimum a generic
    /// scan over ascending adjacency rows with a strict `<` converges
    /// to, and every distance comes from the same metric arithmetic, so
    /// the grid's answer matches the generic one bit-for-bit. The
    /// generic source runs `generic` instead.
    ///
    /// Grid cells whose lower bound exceeds the current best cannot beat
    /// *or tie* it (`lb ≤ d` holds in f64 for every member), so skipping
    /// them never changes the winner. Projection candidates without a
    /// key are charged to [`RpStats::candidates_rejected`].
    pub(crate) fn nearest(
        &self,
        p: usize,
        radius: f64,
        key: impl Fn(u32) -> Option<u32>,
        probe: &mut Probe,
        generic: impl FnOnce(&mut Probe) -> Option<u32>,
    ) -> Option<u32> {
        let offer = |best: &mut Option<(f64, u32)>, q: u32, k: u32| {
            let bound = best.map_or(radius, |(d, _)| d);
            let d = self
                .metric
                .distance_leq(&self.points[p], &self.points[q as usize], bound);
            if let Some(d) = d {
                if best.is_none_or(|(bd, bk)| d < bd || (d == bd && k < bk)) {
                    *best = Some((d, k));
                }
            }
        };
        let mut best: Option<(f64, u32)> = None;
        match self.source {
            Candidates::Generic => return generic(probe),
            Candidates::Grid(g) => {
                let (mut emitted, mut rejected) = (0u64, 0u64);
                g.for_each_candidate_cell(
                    g.point_coords(p),
                    radius,
                    &mut probe.ledger.grid,
                    |members, cell_lb, _| {
                        if best.is_some_and(|(d, _)| cell_lb > d) {
                            rejected += members.len() as u64;
                            return;
                        }
                        for &q in members {
                            if let Some(k) = key(q) {
                                emitted += 1;
                                offer(&mut best, q, k);
                            }
                        }
                    },
                );
                probe.ledger.grid.candidates_emitted += emitted;
                probe.ledger.grid.candidates_rejected += rejected;
            }
            Candidates::Rp(r) => {
                r.candidates_for(p as u32, &mut probe.ids, &mut probe.ledger.rp);
                for &q in &probe.ids {
                    match key(q) {
                        Some(k) => offer(&mut best, q, k),
                        None => probe.ledger.rp.candidates_rejected += 1,
                    }
                }
            }
        }
        best.map(|(_, k)| k)
    }

    /// `|B(p, ε) ∩ X|`, counted over the neighbor cover sets of `p`'s
    /// center `e` and capped at `cap` (early termination — only the
    /// `≥ MinPts` predicate is needed).
    ///
    /// With pruning, one anchor evaluation `dis(p, c_{e'})` per
    /// sufficiently large neighbor ball sandwiches each member's
    /// distance: `dis(p, q) ∈ [|a − dis(q, c)|, a + dis(q, c)]`, so most
    /// members are counted (upper bound within `ε`) or discarded (lower
    /// bound beyond `ε`) without an evaluation. Anchors are paid
    /// **lazily, per ball** — a scan that reaches `cap` in its first
    /// ball never anchors the rest — and the point's own ball reuses the
    /// net's stored `dis(p, c_p)` for free. The returned count may
    /// exceed `cap` by a group-accept, but the `≥ cap` predicate — the
    /// only thing callers read — is exact.
    fn count_capped(&self, e: usize, p: usize, eps: f64, cap: usize, ps: &mut PruneStats) -> usize {
        let (points, metric, net, pruning) = (self.points, self.metric, &self.net, self.pruning);
        let mut count = 0usize;
        for &e2 in self.adj.neighbors.row(e) {
            let e2 = e2 as usize;
            let cover = net.cover_sets.row(e2);
            let anchor = if pruning.enabled && cover.len() >= pruning.min_anchor_group {
                Some(match net.dist_to_center {
                    // The own ball's anchor is already on record.
                    Some(d2c) if e2 == e => d2c[p],
                    _ => {
                        ps.anchor_evals += 1;
                        metric.distance(&points[p], &points[net.centers[e2]])
                    }
                })
            } else {
                None
            };
            match (anchor, net.dist_to_center) {
                (Some(a), Some(d2c)) => {
                    for &q in cover {
                        let dq = d2c[q as usize];
                        if a + dq <= eps {
                            ps.bound_accepts += 1;
                            count += 1;
                        } else if (a - dq).abs() > eps {
                            ps.bound_rejects += 1;
                        } else if metric.within(&points[p], &points[q as usize], eps) {
                            count += 1;
                        }
                        if count >= cap {
                            return count;
                        }
                    }
                }
                (Some(a), None) => {
                    // Only the covering radius bounds dis(q, c): whole-group
                    // decisions at `r̄` granularity.
                    if a + net.rbar <= eps {
                        ps.bound_accepts += cover.len() as u64;
                        count += cover.len();
                        if count >= cap {
                            return count;
                        }
                    } else if a - net.rbar > eps {
                        ps.bound_rejects += cover.len() as u64;
                    } else {
                        for &q in cover {
                            if metric.within(&points[p], &points[q as usize], eps) {
                                count += 1;
                                if count >= cap {
                                    return count;
                                }
                            }
                        }
                    }
                }
                (None, _) => {
                    for &q in cover {
                        if metric.within(&points[p], &points[q as usize], eps) {
                            count += 1;
                            if count >= cap {
                                return count;
                            }
                        }
                    }
                }
            }
        }
        count
    }

    /// The anchors of `p`'s generic labeling scan: one batched
    /// [`BatchMetric::dist_many`] call evaluating `dis(p, c_{e'})` for
    /// every neighbor center `e'` of `p`'s ball whose group (as reported
    /// by `group_len`) passes the anchoring gate; the point's **own**
    /// center reuses the net's stored `dis(p, c_p)`. The caller walks
    /// the same row with the same gate, consuming the returned anchors
    /// in order — none at all when pruning is off.
    pub(crate) fn anchor_row<'s>(
        &self,
        probe: &'s mut Probe,
        p: usize,
        group_len: impl Fn(usize) -> usize,
    ) -> &'s [f64] {
        let s = &mut probe.anchors;
        s.ids.clear();
        s.own_slots.clear();
        s.anchors.clear();
        if !self.pruning.enabled {
            return &s.anchors;
        }
        let e = self.net.assignment[p];
        let own = self.net.dist_to_center.map(|d2c| d2c[p]);
        for &e2 in self.adj.neighbors.row(e as usize) {
            if group_len(e2 as usize) >= self.pruning.min_anchor_group {
                let is_own = own.is_some() && e2 == e;
                s.own_slots.push(is_own);
                if !is_own {
                    s.ids.push(self.net.centers[e2 as usize] as u32);
                }
            }
        }
        if s.ids.is_empty() {
            s.evals.clear();
        } else {
            self.metric
                .dist_many(self.points, &self.points[p], &s.ids, &mut s.evals);
            probe.ledger.pruning.anchor_evals += s.ids.len() as u64;
        }
        let mut evals = s.evals.iter();
        for &is_own in &s.own_slots {
            let a = if is_own {
                own.expect("own slot recorded")
            } else {
                *evals.next().expect("one evaluation per non-own slot")
            };
            s.anchors.push(a);
        }
        &s.anchors
    }
}

/// Reusable per-worker buffers for [`Scan::anchor_row`]: the neighbor
/// centers selected for anchoring, their batched distances, the
/// own-center substitution slots, and the resulting anchors.
#[derive(Default)]
struct AnchorScratch {
    ids: Vec<u32>,
    evals: Vec<f64>,
    own_slots: Vec<bool>,
    anchors: Vec<f64>,
}

impl<P: Clone + Sync, M: BatchMetric<P>> EngineSnapshot<'_, P, M> {
    /// The candidate source for one `solver` query at `eps` — the one
    /// place the engine decides it.
    ///
    /// The engine must have opted into an index
    /// ([`crate::MetricDbscanBuilder::candidate_index`]), the solver
    /// must accept it, and the metric must expose a coordinate view: of
    /// dimension `1..=GRID_MAX_DIM` for the grid, any dimension for
    /// random projections. The grid keeps labels bit-identical, so every
    /// net-based solver takes it; random projections approximate, so
    /// the exact solvers never do. Everything else stays generic.
    ///
    /// A same-epoch cached index is a hit; otherwise the newest
    /// older-epoch index of the same kind (and, for the grid, cell side)
    /// is *extended* by the appended points' coordinates, counted as an
    /// upgrade. Either way the resolution performs **zero distance
    /// evaluations** — coordinate extraction, binning and projection
    /// never consult the metric.
    pub(crate) fn resolve_candidates(&self, eps: f64, solver: AlgorithmKind) -> Candidates {
        let engine = self.engine;
        let grid = match (engine.candidate_index, solver) {
            (CandidateIndex::Grid, AlgorithmKind::Streaming) => return Candidates::Generic,
            (CandidateIndex::Grid, _) => true,
            (
                CandidateIndex::RandomProjection(_),
                AlgorithmKind::Approx | AlgorithmKind::Streaming,
            ) => false,
            _ => return Candidates::Generic,
        };
        let dim = match engine.metric.grid_coords(&[], &mut Vec::new()) {
            Some(d) if d > 0 && (!grid || d <= GRID_MAX_DIM) => d,
            _ => return Candidates::Generic,
        };
        let cell = eps / (dim as f64).sqrt();
        let key = IndexKey {
            epoch: self.state.epoch,
            cell_bits: if grid { cell.to_bits() } else { 0 },
        };
        let started = engine.recorder.as_ref().map(|_| Instant::now());
        let found = engine.cache_lock().index.lookup(&key);
        engine.count_lookup(&engine.index_lookups, matches!(found, Lookup::Hit(_)));
        let source = match found {
            Lookup::Hit(source) => source,
            found => {
                let points: &[P] = &self.state.points;
                let base = match found {
                    Lookup::Base(_, base) => Some(base),
                    _ => None,
                };
                let from = base.as_ref().map_or(0, Candidates::len);
                let mut coords = Vec::with_capacity((points.len() - from) * dim);
                engine.metric.grid_coords(&points[from..], &mut coords);
                let built = match (base, engine.candidate_index) {
                    (Some(base), _) => {
                        engine.count_upgrade();
                        base.extend(&coords)
                    }
                    (None, CandidateIndex::RandomProjection(cfg)) => {
                        Candidates::Rp(Arc::new(RpIndex::build(dim, &coords, cfg)))
                    }
                    (None, _) => Candidates::Grid(Arc::new(GridIndex::build(dim, cell, coords))),
                };
                engine.cache_lock().index.insert(key, built.clone());
                built
            }
        };
        if let (Some(rec), Some(t)) = (&engine.recorder, started) {
            rec.phase(Phase::CandidateProbe, t.elapsed());
        }
        source
    }
}
