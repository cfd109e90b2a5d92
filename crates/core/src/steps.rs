//! The three steps of exact metric DBSCAN (§3.1), shared by the
//! Algorithm 1 pipeline ([`crate::MetricDbscan::exact`]) and the
//! cover-tree pipeline of §3.2 ([`crate::exact_dbscan_covertree`]).
//!
//! * **Step 1** — label core points. Points in *dense* balls
//!   (`|C_e| ≥ MinPts`) are core for free because the ball has diameter
//!   `≤ 2r̄ ≤ ε` (this is where `r̄ ≤ ε/2` is needed); points in sparse
//!   balls count their `ε`-neighborhood inside `∪_{e' ∈ A_e} C_{e'}`
//!   (sound by Lemma 2), stopping at `MinPts`. Amortized `O(n·z·t_dis)`
//!   (Lemma 4).
//! * **Step 2** — merge core groups. All core points inside one ball are
//!   pairwise within `2r̄ ≤ ε`, hence one cluster fragment; fragments
//!   `C̃_e, C̃_{e'}` of neighboring balls merge iff their bichromatic
//!   closest pair is `≤ ε`, decided by a cover tree per fragment with
//!   early termination on the first witness pair. `O(n·z·log(ε/δ)·t_dis)`
//!   (Lemma 5).
//! * **Step 3** — borders vs outliers. Each non-core point looks for its
//!   nearest core point inside `∪_{e' ∈ A_e} C̃_{e'}`; within `ε` → border
//!   of that core's cluster, else noise. `O(n·z·t_dis)` (Lemma 6).
//!
//! # Net-anchored pruning
//!
//! Every phase additionally exploits the distances the net already
//! knows ([`mdbscan_metric::PruningConfig`], on by default): each point
//! carries `dis(p, c_p)`, so one *anchor* evaluation `dis(q, c)` per
//! (query, neighbor-center) pair sandwiches every pair distance in that
//! center's group by the triangle inequality — most Step-1 candidates
//! are counted or discarded, Step-2 fragment pairs merged, and Step-3
//! fragments skipped **without evaluating their distances**. Decisions
//! agree exactly with the evaluated predicates, so labels are
//! bit-identical with pruning on or off; [`StepsStats::pruning`]
//! reports the ledger.
//!
//! # Threading
//!
//! Every phase is parallel over its natural unit and deterministic for
//! any thread count ([`ExactConfig::parallel`]):
//!
//! * the adjacency parallelizes over upper-triangle center rows;
//! * Step 1 over points (each point's core test is independent), with
//!   pruning counters reduced per worker chunk;
//! * Step 2 builds the per-fragment cover trees in parallel (weighted
//!   by fragment size), unions the distance-free merges, and runs the
//!   remaining BCP tests through the in-order merge of `parmerge`: the
//!   tests run in parallel, yet they are exactly the ones the
//!   sequential loop makes, so the labels and the test counts are the
//!   same for every thread count;
//! * Step 3 over points again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mdbscan_covertree::{CoverTree, CoverTreeSkeleton};
use mdbscan_grid::CandidateStats;
use mdbscan_kcenter::CenterAdjacency;
use mdbscan_metric::{BatchMetric, CountingMetric, PruneStats, PruningConfig};
use mdbscan_parallel::{par_map_ranges, split_weighted, Csr, ParallelConfig};

use crate::candidates::{par_probe, Candidates, Ledger, Probe, Scan};
use crate::labels::PointLabel;
use crate::netview::NetView;
use crate::params::DbscanParams;
use crate::parmerge::merge_in_order;
use crate::unionfind::UnionFind;

/// Points per worker below which Step 1/3 stay sequential.
const STEP_MIN_PER_THREAD: usize = 512;

/// Toggles for the implementation refinements of the exact pipeline —
/// the ablation benches flip these to measure what each buys.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Step 1: label every point of a ball with `|C_e| ≥ MinPts` core
    /// without any distance computation (the paper's dense/sparse split,
    /// Lemma 4 / §3.3). Off = every point counts its neighborhood.
    pub dense_shortcut: bool,
    /// Step 2/3: answer BCP and nearest-core queries with per-fragment
    /// cover trees (the paper's design). Off = brute-force scans over the
    /// fragment pairs (still A-restricted).
    pub cover_tree_merge: bool,
    /// Step 2: stop a BCP test at the first witness pair `≤ ε` and skip
    /// tests between fragments already merged transitively. Off = every
    /// neighboring pair computes its full BCP and no pair is skipped as
    /// connected, at every thread count — note that `pruning` must
    /// *also* be off for textbook BCP counts, since distance-free merge
    /// accepts bypass [`StepsStats::bcp_tests`] entirely.
    pub early_termination: bool,
    /// Net-anchored triangle-inequality pruning across the adjacency and
    /// Steps 1–3 (see the module docs). Labels are identical with it on
    /// or off; only the number of distance evaluations changes. On by
    /// default.
    pub pruning: PruningConfig,
    /// Worker threads for the adjacency and Steps 1–3. The labels are
    /// identical for every setting; only wall-clock changes. Defaults to
    /// the machine's available parallelism.
    pub parallel: ParallelConfig,
    /// Count distance evaluations into [`StepsStats::distance_evals`]
    /// (and the per-phase `*_evals` fields). Off by default: the counter
    /// is one shared atomic, whose contention is measurable next to
    /// cheap metrics (e.g. 2-d Euclidean) — enable it for work
    /// accounting, not for wall-clock runs.
    pub count_distance_evals: bool,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            dense_shortcut: true,
            cover_tree_merge: true,
            early_termination: true,
            pruning: PruningConfig::default(),
            parallel: ParallelConfig::default(),
            count_distance_evals: false,
        }
    }
}

/// Phase timings and counters of one exact run (harness fodder: Table 2
/// reports the Algorithm-1 share, the ablations report the step shares).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepsStats {
    /// Centers in the net.
    pub n_centers: usize,
    /// Mean `|A_e|` over centers (paper Lemma 3 bounds this by
    /// `O((ε/r̄)^D) + z`).
    pub mean_adjacency_degree: f64,
    /// Seconds computing the center adjacency.
    pub adjacency_secs: f64,
    /// Seconds in Step 1.
    pub label_secs: f64,
    /// Seconds in Step 2 (including fragment cover-tree construction).
    pub merge_secs: f64,
    /// Seconds in Step 3.
    pub assign_secs: f64,
    /// Number of points labeled core by the dense-ball shortcut.
    pub dense_cores: usize,
    /// Fragment pairs whose BCP was tested. Distance-free merges are
    /// unioned before any test, then the remaining pairs are tested in
    /// candidate order, skipping pairs already connected; parallel runs
    /// make exactly the same tests, so this count is the same for every
    /// thread count.
    pub bcp_tests: u64,
    /// Fragment pairs found connected (distance-free accepts included).
    pub bcp_connected: u64,
    /// Triangle-inequality pruning ledger across the adjacency and
    /// Steps 1–3. `bound_*` counters are in candidate *pairs*; for
    /// tree-backed groups a skipped group counts all its pairs even
    /// though the tree would have evaluated fewer, so
    /// [`PruneStats::distance_evals_saved`] is an upper estimate there.
    /// These are work counters: the same for every thread count, but a
    /// cache hit skips the work it replays.
    pub pruning: PruneStats,
    /// Distance evaluations across all phases (adjacency + Steps 1–3),
    /// in units of the paper's `t_dis`. Zero unless
    /// [`ExactConfig::count_distance_evals`] is set.
    pub distance_evals: u64,
    /// Distance evaluations spent in the adjacency build (zero when the
    /// adjacency came from the engine cache, or when not counting).
    pub adjacency_evals: u64,
    /// Distance evaluations spent in Step 1 (zero on a fragment-cache
    /// hit, or when not counting).
    pub label_evals: u64,
    /// Distance evaluations spent in Step 2 (when counting).
    pub merge_evals: u64,
    /// Distance evaluations spent in Step 3 (when counting).
    pub assign_evals: u64,
    /// Grid candidate-generation ledger across the adjacency build and
    /// Steps 1/3 — all zeros on the generic path. Like [`Self::pruning`]
    /// these are *work* counters: labels are bit-identical with the grid
    /// on or off; only where the candidates come from changes.
    pub candidates: CandidateStats,
}

/// The `(ε, MinPts)`-dependent intermediates of Steps 1–2 that an engine
/// may cache across queries: the core flags, the fragment partition
/// `C̃_e` (with per-fragment anchor radii), and the per-fragment cover
/// trees as owned, borrow-free [`CoverTreeSkeleton`]s.
///
/// For a fixed net all of these are **deterministic functions of
/// `(ε, MinPts)`** — independent of thread count, of the pruning knob,
/// and of the ablation toggles under which they are cached (the
/// defaults: dense shortcut and cover-tree merge on) — so replaying
/// them yields bit-identical labels. Re-attaching a skeleton costs zero
/// distance evaluations, which is exactly the Step-2 construction cost
/// the cache amortizes.
pub(crate) struct StepArtifacts {
    pub(crate) is_core: Vec<bool>,
    pub(crate) dense_cores: usize,
    pub(crate) fragments: Csr,
    /// Per center: `max_{p ∈ C̃_e} dis(p, c_e)` (0 for empty fragments)
    /// — the anchor radius Step 2/3 pruning measures against.
    pub(crate) frag_radius: Vec<f64>,
    pub(crate) skeletons: Vec<Option<CoverTreeSkeleton>>,
}

impl StepArtifacts {
    /// Approximate heap footprint, for cache accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.is_core.len()
            + self.fragments.total_len() * std::mem::size_of::<u32>()
            + self.frag_radius.len() * std::mem::size_of::<f64>()
            + self
                .skeletons
                .iter()
                .flatten()
                .map(CoverTreeSkeleton::heap_bytes)
                .sum::<usize>()
    }
}

/// Per-fragment reuse verdict of an incremental upgrade: carry the
/// cached cover tree over, grow it by the fragment's added members, or
/// rebuild from scratch.
enum FragPlan {
    Reuse,
    Grow(Vec<u32>),
    Build,
}

/// An older epoch's artifacts plus the ingest delta separating it from
/// the current net — the input of the *incremental* Step-1/2
/// maintenance. Core flags are monotone under ingest (adding points
/// only grows `ε`-neighborhoods), so only points whose neighbor balls
/// gained members are re-verified, fragments only ever gain members,
/// and grown fragments extend their cached cover trees by insertion
/// instead of rebuilding.
#[derive(Clone, Copy)]
pub(crate) struct StepsUpgrade<'a> {
    /// Artifacts computed at the same `(ε, MinPts)` over a prefix of
    /// the current (append-only) point sequence, on the same net prefix.
    pub(crate) artifacts: &'a StepArtifacts,
    /// Ball positions (in the current net) whose cover sets gained
    /// members since those artifacts were computed, ascending; new
    /// centers included.
    pub(crate) dirty_balls: &'a [u32],
}

/// Cached inputs a caller may replay into [`run_exact_steps`]: Step-1/2
/// artifacts (same net, same `(ε, MinPts)`), an older epoch's artifacts
/// to upgrade incrementally (consulted only when `artifacts` is absent),
/// and/or a center adjacency (same net, same threshold — it depends on
/// `ε` only).
#[derive(Default)]
pub(crate) struct StepsReuse<'a> {
    pub(crate) artifacts: Option<&'a StepArtifacts>,
    pub(crate) upgrade: Option<StepsUpgrade<'a>>,
    pub(crate) adjacency: Option<Arc<CenterAdjacency>>,
    /// Where the adjacency build and Steps 1/3 draw their candidates
    /// from. Never [`Candidates::Rp`]: this pipeline stays exact.
    pub(crate) candidates: Candidates,
}

/// Everything one Steps-1–3 run produces: labels, stats, and the
/// freshly computed cacheables (`None`/`Err` sides mean "was reused or
/// not cacheable").
pub(crate) struct StepsOutcome {
    pub(crate) labels: Vec<PointLabel>,
    pub(crate) stats: StepsStats,
    /// Fresh artifacts for the caller to cache — `Some` only when
    /// nothing was reused and the configuration matches the cacheable
    /// defaults.
    pub(crate) fresh_artifacts: Option<StepArtifacts>,
    /// The adjacency this run used (freshly built or the replayed one).
    pub(crate) adjacency: Arc<CenterAdjacency>,
}

/// Runs Steps 1–3 over an arbitrary covering net. Caller must guarantee
/// `net.rbar ≤ params.eps() / 2` — that inequality is what makes the dense
/// shortcut and the fragment-merge radius sound.
pub(crate) fn run_exact_steps<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    params: &DbscanParams,
    cfg: &ExactConfig,
    reuse: StepsReuse<'_>,
) -> StepsOutcome {
    if cfg.count_distance_evals {
        let counting = CountingMetric::new(metric);
        let tick = || counting.count();
        let mut out = run_steps_inner(points, &counting, net, params, cfg, reuse, &tick);
        out.stats.distance_evals = counting.count();
        out
    } else {
        run_steps_inner(points, metric, net, params, cfg, reuse, &|| 0)
    }
}

#[allow(clippy::too_many_arguments)] // internal driver, mirrors run_exact_steps
fn run_steps_inner<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    params: &DbscanParams,
    cfg: &ExactConfig,
    reuse: StepsReuse<'_>,
    tick: &(dyn Fn() -> u64 + Sync),
) -> StepsOutcome {
    debug_assert!(net.rbar <= params.eps() / 2.0 * (1.0 + 1e-9));
    let eps = params.eps();
    let min_pts = params.min_pts();
    let n = net.num_points();
    let k = net.num_centers();
    let threads = cfg.parallel.threads();
    let mut stats = StepsStats {
        n_centers: k,
        ..Default::default()
    };

    // Neighbor-ball adjacency at 2r̄ + ε (definition (1)); Lemma 2 then
    // confines every ε-ball to its neighbor cover sets. An `ε`-matching
    // cached adjacency replays for free.
    debug_assert!(
        !matches!(reuse.candidates, Candidates::Rp(_)),
        "the exact pipeline never samples candidates"
    );
    let mut ledger = Ledger::default();
    let t = Instant::now();
    let evals_before = tick();
    let adj = reuse.candidates.center_adjacency(
        reuse.adjacency,
        points,
        metric,
        net,
        2.0 * net.rbar + eps,
        &cfg.parallel,
        &cfg.pruning,
        &mut ledger,
    );
    stats.adjacency_evals = tick() - evals_before;
    stats.adjacency_secs = t.elapsed().as_secs_f64();
    stats.mean_adjacency_degree = adj.mean_degree();
    let scan = Scan {
        points,
        metric,
        net: *net,
        adj: &adj,
        pruning: &cfg.pruning,
        source: &reuse.candidates,
    };

    // ---- Step 1: core labeling, parallel over points ----
    // With cached artifacts the whole step replays from the cache (the
    // core flags are a pure function of (net, ε, MinPts)). With an
    // older epoch's artifacts (`reuse.upgrade`) the step runs
    // *incrementally*: core flags are monotone under ingest, so only
    // new points — plus old non-core points in balls whose neighborhood
    // gained members — are (re-)verified.
    let t = Instant::now();
    let evals_before = tick();
    let upgrade = if reuse.artifacts.is_none() {
        reuse.upgrade
    } else {
        None
    };
    // Under an upgrade: a ball needs re-verification iff any ball of its
    // adjacency row is dirty — by Lemma 2 an untouched neighborhood
    // means an unchanged ε-ball for every member. (A ball's own row
    // contains itself, so dirty ⊆ affected.)
    let affected: Option<Vec<bool>> = upgrade.map(|u| {
        let mut dirty = vec![false; k];
        for &e in u.dirty_balls {
            if (e as usize) < k {
                dirty[e as usize] = true;
            }
        }
        (0..k)
            .map(|e| adj.neighbors.row(e).iter().any(|&e2| dirty[e2 as usize]))
            .collect()
    });
    let is_core_local: Option<Vec<bool>> = if reuse.artifacts.is_some() {
        None
    } else {
        let dense: Vec<bool> = (0..k)
            .map(|e| cfg.dense_shortcut && net.cover_sets.row_len(e) >= min_pts)
            .collect();
        stats.dense_cores = (0..k)
            .filter(|&e| dense[e])
            .map(|e| net.cover_sets.row_len(e))
            .sum();
        let (flags, step1) = par_probe(threads, n, STEP_MIN_PER_THREAD, |p, probe| {
            let e = net.assignment[p] as usize;
            if let (Some(u), Some(aff)) = (upgrade, affected.as_ref()) {
                if p < u.artifacts.is_core.len() {
                    if u.artifacts.is_core[p] {
                        return true; // cores stay core under ingest
                    }
                    if !aff[e] {
                        return false; // neighborhood untouched
                    }
                }
            }
            dense[e] || scan.is_core(p, e, eps, min_pts, probe)
        });
        ledger.merge(&step1);
        Some(flags)
    };
    let is_core: &[bool] = match reuse.artifacts {
        Some(a) => {
            stats.dense_cores = a.dense_cores;
            &a.is_core
        }
        None => is_core_local.as_deref().expect("computed above"),
    };
    stats.label_evals = tick() - evals_before;
    stats.label_secs = t.elapsed().as_secs_f64();

    // ---- Step 2: merge core fragments ----
    let t = Instant::now();
    let evals_before = tick();
    // C̃_e: the core points of each cover set, flattened like the cover
    // sets themselves, plus each fragment's anchor radius
    // max dis(p, c_e) — free to record, and what the distance-free
    // merge accepts measure against. Under an upgrade, every fragment
    // additionally gets a reuse plan: untouched rows keep their cached
    // skeleton, grown rows extend it by insertion, the rest rebuild.
    let mut frag_plans: Option<Vec<FragPlan>> = None;
    let frag_local: Option<(Csr, Vec<f64>)> = if reuse.artifacts.is_some() {
        None
    } else {
        let mut offsets = vec![0usize; k + 1];
        let mut values = Vec::new();
        let mut radius = Vec::with_capacity(k);
        let mut plans: Option<Vec<FragPlan>> = upgrade.map(|_| Vec::with_capacity(k));
        let old_k = upgrade.map_or(0, |u| u.artifacts.fragments.num_rows());
        for e in 0..k {
            if let (Some(u), Some(aff)) = (upgrade, affected.as_ref()) {
                if e < old_k && !aff[e] {
                    // Untouched ball: fragment row, anchor radius, and
                    // skeleton are all carried over verbatim.
                    values.extend_from_slice(u.artifacts.fragments.row(e));
                    offsets[e + 1] = values.len();
                    radius.push(u.artifacts.frag_radius[e]);
                    plans
                        .as_mut()
                        .expect("upgrade has plans")
                        .push(FragPlan::Reuse);
                    continue;
                }
            }
            let start = values.len();
            let mut r = 0.0f64;
            for &p in net.cover_sets.row(e) {
                if is_core[p as usize] {
                    values.push(p);
                    r = r.max(net.center_dist_ub(p as usize));
                }
            }
            offsets[e + 1] = values.len();
            radius.push(r);
            if let Some(plans) = plans.as_mut() {
                let u = upgrade.expect("plans imply upgrade");
                let new_row = &values[start..];
                let old_row: &[u32] = if e < old_k {
                    u.artifacts.fragments.row(e)
                } else {
                    &[]
                };
                let has_old_tree = e < old_k && u.artifacts.skeletons[e].is_some();
                plans.push(if new_row == old_row {
                    FragPlan::Reuse
                } else if has_old_tree {
                    // Flags are monotone and points append-only, so
                    // old ⊆ new: grow the cached tree by the difference.
                    let mut added = Vec::with_capacity(new_row.len() - old_row.len());
                    let mut oi = 0usize;
                    for &q in new_row {
                        if oi < old_row.len() && old_row[oi] == q {
                            oi += 1;
                        } else {
                            added.push(q);
                        }
                    }
                    debug_assert_eq!(oi, old_row.len(), "old fragment not a subset of new");
                    FragPlan::Grow(added)
                } else {
                    FragPlan::Build
                });
            }
        }
        frag_plans = plans;
        Some((Csr::from_parts(offsets, values), radius))
    };
    let (fragments, frag_radius): (&Csr, &[f64]) = match reuse.artifacts {
        Some(a) => (&a.fragments, &a.frag_radius),
        None => {
            let (f, r) = frag_local.as_ref().expect("computed above");
            (f, r)
        }
    };
    let trees: Vec<Option<CoverTree<'_, P, M>>> = if !cfg.cover_tree_merge {
        (0..k).map(|_| None).collect()
    } else if let Some(a) = reuse.artifacts {
        // Cache hit: re-attach the stored skeletons — zero distance
        // evaluations, just a structure clone per fragment.
        a.skeletons
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|sk| CoverTree::from_skeleton(points, metric, sk.clone()))
            })
            .collect()
    } else if let (Some(u), Some(plans)) = (upgrade, frag_plans.as_ref()) {
        // Incremental upgrade: unchanged fragments re-attach their
        // cached skeleton for free; fragments that only gained members
        // insert the difference into the cached tree (the whole point —
        // fragment construction is the Step-2 cost the epochs amortize);
        // only brand-new fragments build from scratch.
        (0..k)
            .map(|e| match &plans[e] {
                FragPlan::Reuse => u
                    .artifacts
                    .skeletons
                    .get(e)
                    .and_then(Option::as_ref)
                    .map(|sk| CoverTree::from_skeleton(points, metric, sk.clone())),
                FragPlan::Grow(added) => {
                    let sk = u.artifacts.skeletons[e]
                        .as_ref()
                        .expect("grow implies a tree");
                    let mut tree = CoverTree::from_skeleton(points, metric, sk.clone());
                    for &q in added {
                        tree.insert(q as usize);
                    }
                    Some(tree)
                }
                FragPlan::Build => {
                    let frag = fragments.row(e);
                    (!frag.is_empty()).then(|| {
                        CoverTree::from_indices(points, metric, frag.iter().map(|&p| p as usize))
                    })
                }
            })
            .collect()
    } else {
        // Parallel over centers, weighted by fragment size (construction
        // cost is superlinear in the fragment, so even splits by row
        // count would starve some workers). Small core sets build
        // sequentially — a few microseconds of tree work never pays for
        // a spawn.
        let tree_threads = if fragments.total_len() >= 2 * STEP_MIN_PER_THREAD {
            threads
        } else {
            1
        };
        let ranges = split_weighted(k, tree_threads, |e| fragments.row_len(e));
        par_map_ranges(ranges, |rows| {
            rows.map(|e| {
                let frag = fragments.row(e);
                (!frag.is_empty()).then(|| {
                    CoverTree::from_indices(points, metric, frag.iter().map(|&p| p as usize))
                })
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let mut uf = UnionFind::new(k);
    // Candidate fragment pairs in (e, e') lexicographic order, each
    // judged first by the adjacency's center-pair bounds:
    // `ub + r_e + r_e' ≤ ε` merges without a BCP test (every cross pair
    // is within ε), `lb − r_e − r_e' > ε` discards the candidate
    // entirely (no cross pair can reach ε). The distance-free merges are
    // unioned right away — the components do not depend on the order of
    // unions, only on which pairs pass. Survivors keep the edge's lower
    // bound: inside the BCP test it anchors each *probe point*
    // individually (its cached `dis(p, c_p)` sharpens the whole-fragment
    // slack), skipping tree queries for probes that provably cannot
    // reach any host member.
    let mut candidates: Vec<(u32, u32, f64)> = Vec::new();
    for e in 0..k {
        if fragments.row_len(e) == 0 {
            continue;
        }
        let row = adj.neighbors.row(e);
        let lbs = adj.lbound_row(e);
        let ubs = adj.ubound_row(e);
        for ((&e2, &lb), &ub) in row.iter().zip(lbs).zip(ubs) {
            let e2u = e2 as usize;
            if e2u <= e || fragments.row_len(e2u) == 0 {
                continue;
            }
            if cfg.pruning.enabled {
                let slack = frag_radius[e] + frag_radius[e2u];
                if lb - slack > eps {
                    ledger.pruning.bound_rejects += 1;
                    continue;
                }
                if ub + slack <= eps {
                    ledger.pruning.bound_accepts += 1;
                    if uf.union(e, e2u) || !cfg.early_termination {
                        stats.bcp_connected += 1;
                    }
                    continue;
                }
            }
            candidates.push((e as u32, e2, lb));
        }
    }
    // The remaining pairs in candidate order, tested exactly as the
    // sequential loop tests them (see `parmerge`).
    let probe_rejects = AtomicU64::new(0);
    let (tested, connected) = merge_in_order(
        &mut uf,
        threads,
        &candidates,
        cfg.early_termination,
        |&(e, e2, lb)| {
            bcp_within(
                points,
                metric,
                net,
                fragments,
                frag_radius,
                &trees,
                e as usize,
                e2 as usize,
                eps,
                lb,
                cfg,
                &probe_rejects,
            )
        },
    );
    stats.bcp_tests = tested;
    stats.bcp_connected += connected;
    ledger.pruning.probe_rejects += probe_rejects.load(Ordering::Relaxed);
    stats.merge_evals = tick() - evals_before;
    stats.merge_secs = t.elapsed().as_secs_f64();

    // ---- Step 3: borders and outliers, parallel over points ----
    let t = Instant::now();
    let evals_before = tick();
    let cluster_of_center = uf.component_ids();
    let (labels, step3) = par_probe(threads, n, STEP_MIN_PER_THREAD, |pi, probe| {
        if is_core[pi] {
            return PointLabel::Core(cluster_of_center[net.assignment[pi] as usize]);
        }
        let core_center = |q: u32| is_core[q as usize].then(|| net.assignment[q as usize]);
        scan.nearest(pi, eps, core_center, probe, |probe| {
            nearest_fragment(&scan, fragments, frag_radius, &trees, pi, eps, probe)
        })
        .map_or(PointLabel::Noise, |e2| {
            PointLabel::Border(cluster_of_center[e2 as usize])
        })
    });
    ledger.merge(&step3);
    stats.pruning = ledger.pruning;
    stats.candidates = ledger.grid;
    stats.assign_evals = tick() - evals_before;
    stats.assign_secs = t.elapsed().as_secs_f64();

    // Hand freshly computed artifacts back for caching — only when the
    // run matches the cacheable defaults (the dense shortcut keeps
    // `dense_cores` meaningful, the trees only exist under
    // `cover_tree_merge`).
    let fresh_artifacts = (reuse.artifacts.is_none() && cfg.dense_shortcut && cfg.cover_tree_merge)
        .then(|| {
            let (fragments, frag_radius) = frag_local.expect("computed when reuse is None");
            StepArtifacts {
                is_core: is_core_local.expect("computed when reuse is None"),
                dense_cores: stats.dense_cores,
                fragments,
                frag_radius,
                skeletons: trees
                    .into_iter()
                    .map(|t| t.map(CoverTree::into_skeleton))
                    .collect(),
            }
        });

    StepsOutcome {
        labels,
        stats,
        fresh_artifacts,
        adjacency: adj,
    }
}

/// Step 3's generic scan for one non-core point: the center of the
/// nearest core point among neighbor fragments; ties break toward the
/// earlier center (ascending adjacency rows + strict `<`). Anchored
/// fragments whose triangle lower bound exceeds the current best are
/// skipped without touching them.
fn nearest_fragment<P, M: BatchMetric<P>>(
    scan: &Scan<'_, P, M>,
    fragments: &Csr,
    frag_radius: &[f64],
    trees: &[Option<CoverTree<'_, P, M>>],
    pi: usize,
    eps: f64,
    probe: &mut Probe,
) -> Option<u32> {
    let (points, metric, pruning) = (scan.points, scan.metric, scan.pruning);
    let row = scan.adj.neighbors.row(scan.net.assignment[pi] as usize);
    let mut anchors = scan
        .anchor_row(probe, pi, |e2| fragments.row_len(e2))
        .iter()
        .copied();
    let mut rejects = 0u64;
    let mut best: Option<(f64, usize)> = None;
    for &e2 in row {
        let e2 = e2 as usize;
        let frag = fragments.row(e2);
        let anchor = (pruning.enabled && frag.len() >= pruning.min_anchor_group)
            .then(|| anchors.next())
            .flatten();
        if frag.is_empty() {
            continue;
        }
        let bound = best.map_or(eps, |(d, _)| d);
        if let Some(a) = anchor {
            // No fragment member can beat the current best: the anchor
            // minus the fragment's radius already exceeds it.
            if a - frag_radius[e2] > bound {
                rejects += frag.len() as u64;
                continue;
            }
        }
        if let Some(tree) = &trees[e2] {
            if let Some(nn) = tree.nearest_within(&points[pi], bound) {
                if best.is_none_or(|(d, _)| nn.distance < d) {
                    best = Some((nn.distance, e2));
                }
            }
        } else {
            let d2c = scan.net.dist_to_center;
            for &q in frag {
                if let (Some(a), Some(d2c)) = (anchor, d2c) {
                    let dq = d2c[q as usize];
                    if (a - dq).abs() > bound {
                        rejects += 1;
                        continue;
                    }
                }
                if let Some(d) = metric.distance_leq(&points[pi], &points[q as usize], bound) {
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, e2));
                    }
                }
            }
        }
    }
    probe.ledger.pruning.bound_rejects += rejects;
    best.map(|(_, e2)| e2 as u32)
}

/// Is `BCP(C̃_e, C̃_{e'}) ≤ eps`? Queries come from the smaller fragment
/// against the larger fragment's cover tree; early termination returns at
/// the first witness. Pure (no shared state beyond the relaxed
/// probe-reject counter), so the in-order merge may run it concurrently.
///
/// Each probe point `q` is anchored against the **host center** before
/// any tree query: with `lb` a sound lower bound on
/// `dis(c_probe, c_host)` (recorded by the adjacency), the triangle
/// inequality gives `dis(q, m) ≥ lb − dis(q, c_q) − r_host` for every
/// host member `m` — and both `dis(q, c_q)` (the net's stored anchor)
/// and `r_host` (the fragment radius) are already on record, so the
/// whole probe is skipped without a single evaluation when that bound
/// exceeds `eps`. Skipped probes provably contribute no witness pair,
/// so the BCP verdict — and the labels — are unchanged.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Step 2 signature
fn bcp_within<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    fragments: &Csr,
    frag_radius: &[f64],
    trees: &[Option<CoverTree<'_, P, M>>],
    e: usize,
    e2: usize,
    eps: f64,
    lb: f64,
    cfg: &ExactConfig,
    probe_rejects: &AtomicU64,
) -> bool {
    // Query from the smaller side.
    let (host, probe) = if fragments.row_len(e) >= fragments.row_len(e2) {
        (e, e2)
    } else {
        (e2, e)
    };
    let probe_row = fragments.row(probe);
    let d2c = if cfg.pruning.enabled {
        net.dist_to_center
    } else {
        None
    };
    let host_radius = frag_radius[host];
    let live = |q: u32| -> bool {
        if let Some(d2c) = d2c {
            if lb - d2c[q as usize] - host_radius > eps {
                probe_rejects.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        true
    };
    if let Some(tree) = &trees[host] {
        if cfg.early_termination {
            probe_row
                .iter()
                .any(|&q| live(q) && tree.any_within(&points[q as usize], eps).is_some())
        } else {
            // Full BCP via exact NN per probe point (ablation mode).
            // Anchored-out probes cannot reach eps, so dropping them
            // never flips the `bcp <= eps` verdict.
            let mut bcp = f64::INFINITY;
            for &q in probe_row {
                if !live(q) {
                    continue;
                }
                if let Some(nn) = tree.nearest(&points[q as usize]) {
                    bcp = bcp.min(nn.distance);
                }
            }
            bcp <= eps
        }
    } else if cfg.early_termination {
        probe_row.iter().any(|&q| {
            live(q)
                && fragments
                    .row(host)
                    .iter()
                    .any(|&r| metric.within(&points[q as usize], &points[r as usize], eps))
        })
    } else {
        let mut bcp = f64::INFINITY;
        for &q in probe_row {
            if !live(q) {
                continue;
            }
            for &r in fragments.row(host) {
                bcp = bcp.min(metric.distance(&points[q as usize], &points[r as usize]));
            }
        }
        bcp <= eps
    }
}
