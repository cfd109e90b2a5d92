//! The two batch workloads: a user builds an engine over a table and
//! runs each solver once, cold. `lowdim-blobs` is merge- and
//! dispatch-bound (a distance costs about a nanosecond); `highdim-embed`
//! is distance-bound (d = 128 embeddings). See `perfbench/README.md`.

use std::time::Instant;

use mdbscan_core::{
    ApproxParams, CandidateIndex, DbscanParams, ExactConfig, MetricDbscan, ParallelConfig,
    RpConfig, Run, RunDetail, RunReport,
};
use mdbscan_datagen::{highdim_embeddings, HighDimSpec};
use mdbscan_eval::adjusted_rand_index;
use mdbscan_kcenter::{BuildOptions, RadiusGuidedNet};
use mdbscan_metric::{BatchMetric, BlockScalar, CountingMetric, VectorBlock};
use rand::distr::standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{labels_hash, median, Report};
use crate::trace::Tracer;
use crate::THREADS;

const SOLVERS: [&str; 4] = ["exact", "approx", "covertree", "streaming"];
/// An untraced run builds the engine at least `SETUP_REPS` times and for
/// at least `SETUP_SECONDS`; `setup_s` is the median build.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 4.0;
/// Measuring rounds a run makes even when they outlast `--seconds`, so
/// every median has at least three samples.
const MIN_ROUNDS: usize = 3;

/// One batch workload's inputs and parameters.
pub struct BatchWorkload {
    pub name: &'static str,
    pub eps: f64,
    pub min_pts: usize,
    pub rho: f64,
    pub rbar: f64,
    /// One candidate index per engine variant. Every run measures on
    /// the first; an untraced run also builds each other variant once and
    /// adds its `approx` labels to `approx_ari`.
    pub index: Vec<CandidateIndex>,
    /// Cold queries of each solver in `ROUND` per untraced round, back
    /// to back: about half a slow solver's wall for each fast one, so a
    /// fast solver's median rests on as many samples as the run affords
    /// rather than on one per round.
    pub reps: [usize; 3],
    /// Whether the traced run also reruns `approx` and `streaming` on a
    /// one-thread engine for `parallel.speedup_t2.*` (a second build).
    pub speedup_all: bool,
}

/// `n` points of 2-D Gaussian blobs (σ = 1) plus `n / 100` uniform
/// outliers over a 250 × 250 box: the inputs of both low-dimensional
/// workloads. The ten blob centers sit on a fixed 5 × 2 lattice 40σ
/// apart, so every seed samples the same mixture. With random centers
/// (as `mdbscan_datagen::lowdim_blobs` draws them) the cost of a cold
/// query moved by ±15 % from seed to seed with where the blobs landed,
/// more than the regression bounds can absorb.
pub fn lowdim_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n + n / 100);
    for i in 0..n {
        let k = (i % 10) as f64;
        let center = [-80.0 + 40.0 * (k % 5.0), if k < 5.0 { -20.0 } else { 20.0 }];
        rows.push(
            center
                .iter()
                .map(|c| c + standard_normal(&mut rng))
                .collect(),
        );
    }
    for _ in 0..n / 100 {
        rows.push(vec![
            rng.random_range(-125.0..125.0),
            rng.random_range(-125.0..125.0),
        ]);
    }
    rows
}

/// `lowdim-blobs`: 50k points from [`lowdim_points`], ε = 1, MinPts = 10,
/// ρ = 0.5, r̄ = ρε/2, generic candidate path.
pub fn lowdim(seed: u64, seconds: u64, trace: bool) -> Report {
    let rows = lowdim_points(50_000, seed);
    let w = BatchWorkload {
        name: "lowdim-blobs",
        eps: 1.0,
        min_pts: 10,
        rho: 0.5,
        rbar: 0.25,
        index: vec![CandidateIndex::Generic],
        // exact ≈ 0.13 s, approx ≈ 0.06 s, covertree ≈ 0.8 s.
        reps: [3, 6, 1],
        speedup_all: true,
    };
    run::<f64>(&w, &rows, seed, seconds, trace)
}

/// Points in the high-dimensional workload.
const HIGHDIM_N: usize = 8_000;
/// Seed of the high-dimensional point set itself; `--seed` seeds the
/// random-projection indexes.
const HIGHDIM_GEOMETRY_SEED: u64 = 1;
/// Random-projection seeds, hence engines, per untraced high-dimensional
/// run; `approx_ari` is their mean.
const HIGHDIM_RP_VARIANTS: u64 = 3;

/// d = 128 unit-norm embeddings in the `BENCH_highdim.json` shape (one
/// intrinsic-5 shell of 10-member near-duplicate blobs, 2 % noise, 10 %
/// ambient chaff), at `f32` precision.
///
/// The shape is sized for 50k points. At fewer points the blobs thin
/// out, neighbouring blobs drift past ε and the exact clustering
/// shatters, which is what collapses `approx_ari` below about 20k points
/// at the stock settings. Blob spacing scales as `spread · n^(-1/4)`, so
/// shrinking the shell radius by `(n / 20k)^(1/4)` keeps spacing — and
/// with it the ε-ball occupancy that MinPts = 16 was tuned for at 20k —
/// as it is at 20k points.
///
/// At 8k points the exact clustering still splits the shell into 4 to
/// 11 clusters depending on where the generator puts the blobs, and
/// `approx_ari` followed that split from 0.55 to 0.79 across seeds, as
/// much as its regression bound. So every seed clusters the same point
/// set ([`HIGHDIM_GEOMETRY_SEED`]) and `--seed` picks the random
/// projections. On one point set `approx_ari` still moves from 0.60 to
/// 0.70 with the projection seed, so an untraced run averages it over
/// [`HIGHDIM_RP_VARIANTS`] seeds, one engine each.
pub fn highdim(seed: u64, seconds: u64, trace: bool) -> Report {
    let spread = 0.5 * (HIGHDIM_N as f64 / 20_000.0).powf(0.25);
    let rows = highdim_embeddings(
        HighDimSpec {
            n: HIGHDIM_N,
            dim: 128,
            clusters: 1,
            spread,
            intrinsic: 5,
            radial_exponent: 200.0,
            noise_frac: 0.02,
            halo_frac: 0.10,
            halo_lo: 0.22,
            halo_hi: 0.30,
            halo_ambient: true,
            blob_size: 10,
            blob_spread: 0.012,
            max_center_dot: 0.15,
        },
        HIGHDIM_GEOMETRY_SEED,
    )
    .into_parts()
    .0;
    let top_m = (HIGHDIM_N / 128).clamp(64, 512) as u32;
    let rp = |k: u64| {
        CandidateIndex::RandomProjection(
            RpConfig::new(seed.wrapping_mul(HIGHDIM_RP_VARIANTS).wrapping_add(k) ^ 0x5eed_ca4d)
                .projections(512)
                .top_m(top_m)
                .probes(4),
        )
    };
    let w = BatchWorkload {
        name: "highdim-embed",
        eps: 0.15,
        min_pts: 16,
        rho: 2.0,
        // ε/2: the exact solvers need it, and it satisfies ρε/2 too, so
        // one engine serves all four solvers.
        rbar: 0.075,
        index: (0..HIGHDIM_RP_VARIANTS).map(rp).collect(),
        // exact ≈ 0.3 s, approx ≈ 1.6 s, covertree ≈ 0.8 s.
        reps: [3, 1, 1],
        speedup_all: false,
    };
    let mut report = run::<f32>(&w, &rows, seed, seconds, trace);
    report.fact("spread", spread);
    report.fact("geometry_seed", HIGHDIM_GEOMETRY_SEED);
    report
}

/// Builds the engine of variant `variant` (its candidate index).
fn build<M: BatchMetric<u32>>(
    w: &BatchWorkload,
    ids: &[u32],
    metric: M,
    threads: usize,
    variant: usize,
) -> MetricDbscan<u32, M> {
    MetricDbscan::builder(ids.to_vec(), metric)
        .rbar(w.rbar)
        .parallel(ParallelConfig::new(threads))
        .candidate_index(w.index[variant])
        .build()
        .expect("engine build on generated inputs")
}

/// One query of solver `s`. `sequential` pins the exact solvers to one
/// thread through their per-query config; `approx` and `streaming` run
/// at the engine's thread count.
fn solve<M: BatchMetric<u32>>(
    engine: &MetricDbscan<u32, M>,
    w: &BatchWorkload,
    s: usize,
    sequential: bool,
) -> Result<Run, String> {
    let params = DbscanParams::new(w.eps, w.min_pts).map_err(|e| e.to_string())?;
    let aparams = ApproxParams::new(w.eps, w.min_pts, w.rho).map_err(|e| e.to_string())?;
    let cfg = ExactConfig {
        parallel: if sequential {
            ParallelConfig::sequential()
        } else {
            engine.parallel()
        },
        pruning: engine.pruning(),
        ..ExactConfig::default()
    };
    match SOLVERS[s] {
        "exact" => engine.exact_with(&params, &cfg),
        "approx" => engine.approx(&aparams),
        "covertree" => engine.covertree_with(&params, &cfg),
        _ => engine.streaming(&aparams),
    }
    .map_err(|e| e.to_string())
}

/// Phase breakdown of one run, read from its [`RunReport`].
#[derive(Debug, Default)]
struct Phases {
    /// `(span name, seconds)` in execution order.
    steps: Vec<(&'static str, f64)>,
    adjacency: f64,
    step1: f64,
    step2: f64,
    step3: f64,
    tree: f64,
    step2_pairs: u64,
    bound_decided: u64,
    footprint: usize,
}

fn phases(r: &RunReport) -> Phases {
    let mut p = Phases::default();
    let mut lead = Vec::new();
    match &r.detail {
        RunDetail::Exact(s) => {
            (p.adjacency, p.step1, p.step2, p.step3) =
                (s.adjacency_secs, s.label_secs, s.merge_secs, s.assign_secs);
            p.step2_pairs = s.bcp_tests;
        }
        RunDetail::CoverTree(c) => {
            let s = &c.steps;
            (p.adjacency, p.step1, p.step2, p.step3) =
                (s.adjacency_secs, s.label_secs, s.merge_secs, s.assign_secs);
            p.tree = c.tree_secs;
            p.step2_pairs = s.bcp_tests;
            lead = vec![
                ("covertree.tree", c.tree_secs),
                ("covertree.net", c.net_secs),
            ];
        }
        RunDetail::Approx(s) => {
            (p.adjacency, p.step1, p.step2, p.step3) =
                (s.adjacency_secs, s.summary_secs, s.merge_secs, s.label_secs);
            p.step2_pairs = s.merge_pairs_tested;
        }
        RunDetail::Streaming { stats, footprint } => {
            (p.step1, p.step2, p.step3) = (stats.pass2_secs, stats.merge_secs, stats.pass3_secs);
            p.step2_pairs = stats.merge_pairs_tested;
            p.footprint = footprint.stored_points();
            lead = vec![("core.streaming.pass1", stats.pass1_secs)];
        }
        _ => {}
    }
    p.steps = lead;
    p.steps.extend([
        ("kcenter.adjacency", p.adjacency),
        ("core.step1", p.step1),
        ("core.step2", p.step2),
        ("core.step3", p.step3),
    ]);
    p.bound_decided = r.pruning.bound_accepts + r.pruning.bound_rejects;
    p
}

/// A traced call's tracer, parent span, and distance-evaluation count.
type Traced<'a> = (&'a Tracer, Option<u64>, &'a dyn Fn() -> u64);

/// One timed solver call.
struct Call {
    wall: f64,
    /// The run itself; untraced measuring rounds drop it once its labels
    /// are hashed, so memory does not grow with the number of queries.
    run: Option<Run>,
    /// [`labels_hash`] of the run's labels.
    hash: Option<u64>,
    /// Distance evaluations (traced calls only).
    evals: u64,
}

/// One cold query of solver `s` (the engine cache is emptied first,
/// outside the timed call), counted as an operation. When `traced`, the
/// call is a span under the given parent with the run's own phase
/// timings as child spans, and the counter gives the distance
/// evaluations it made.
fn call<M: BatchMetric<u32>>(
    engine: &MetricDbscan<u32, M>,
    w: &BatchWorkload,
    s: usize,
    sequential: bool,
    traced: Option<Traced>,
    report: &mut Report,
) -> Call {
    engine.clear_cache();
    let before = traced.map_or(0, |(_, _, count)| count());
    let timed = || {
        let t = Instant::now();
        let r = solve(engine, w, s, sequential);
        (r, t.elapsed().as_secs_f64())
    };
    let (res, wall) = match traced {
        Some((tr, parent, _)) => tr.span(format!("core.{}", SOLVERS[s]), parent, None, |id| {
            let start = tr.now_ns();
            let out = timed();
            if let Ok(run) = &out.0 {
                let mut at = start;
                for (name, secs) in phases(&run.report).steps {
                    if secs > 0.0 {
                        at = tr.record(name, Some(id), at, secs);
                    }
                }
            }
            out
        }),
        None => timed(),
    };
    report.op(res.is_ok());
    if let Err(e) = &res {
        eprintln!("perfbench: {} {} failed: {e}", w.name, SOLVERS[s]);
    }
    let run = res.ok();
    Call {
        wall,
        hash: run.as_ref().map(|r| labels_hash(r.clustering.labels())),
        run,
        evals: traced.map_or(0, |(_, _, count)| count()) - before,
    }
}

/// The solvers a measuring round runs, cold.
/// `streaming` runs once per traced run instead: on 2 threads its
/// offline merge takes from 2 s to about a minute depending on the
/// seed (see README.md), which no run budget can repeat.
const ROUND: [usize; 3] = [0, 1, 2];

/// One round: `reps[i]` cold queries of solver `ROUND[i]` back to back,
/// as `calls[i]`.
fn round<M: BatchMetric<u32>>(
    engine: &MetricDbscan<u32, M>,
    w: &BatchWorkload,
    reps: [usize; 3],
    report: &mut Report,
    traced: Option<(&Tracer, &dyn Fn() -> u64)>,
) -> Vec<Vec<Call>> {
    let one = |report: &mut Report, parent: Option<u64>| -> Vec<Vec<Call>> {
        ROUND
            .iter()
            .zip(reps)
            .map(|(&s, k)| {
                (0..k)
                    .map(|_| {
                        let t = traced.map(|(tr, count)| (tr, parent, count));
                        call(engine, w, s, false, t, report)
                    })
                    .collect()
            })
            .collect()
    };
    match traced {
        Some((tr, _)) => tr.span("round", None, None, |id| one(report, Some(id))),
        None => one(report, None),
    }
}

fn labels_of(c: &Call) -> Option<&[mdbscan_core::PointLabel]> {
    c.run.as_ref().map(|r| r.clustering.labels())
}

/// Same core set, same noise set, and the same partition of the core
/// points: what two exact DBSCAN solvers must agree on (border points
/// may join any adjacent cluster).
fn same_exact_clustering(a: &Run, b: &Run) -> bool {
    let (la, lb) = (a.clustering.labels(), b.clustering.labels());
    if la.len() != lb.len() {
        return false;
    }
    let mut map = std::collections::HashMap::new();
    let mut back = std::collections::HashMap::new();
    for (x, y) in la.iter().zip(lb) {
        if x.is_core() != y.is_core() || x.is_noise() != y.is_noise() {
            return false;
        }
        if x.is_core() {
            let (cx, cy) = (x.cluster(), y.cluster());
            if *map.entry(cx).or_insert(cy) != cy || *back.entry(cy).or_insert(cx) != cx {
                return false;
            }
        }
    }
    true
}

/// Checks one solver's first output (one label per point) and records
/// its label hash and cluster count as deterministic counters.
fn check_labels(s: usize, c: &Call, n: usize, report: &mut Report) {
    let name = SOLVERS[s];
    match &c.run {
        Some(run) => {
            report.counter(
                format!("labels_hash.{name}"),
                labels_hash(run.clustering.labels()),
            );
            report.counter(
                format!("clusters.{name}"),
                run.clustering.num_clusters() as u64,
            );
            report.check(
                format!("{name}.one_label_per_point"),
                run.clustering.len() == n,
            );
        }
        None => report.check(format!("{name}.ran"), false),
    }
}

/// Output checks: every query returns one label per point and repeats
/// exactly the labels of its solver's call in `first`, and the two exact
/// solvers agree. Also records `approx_ari`: the mean ARI against the
/// `exact` labels of `first`'s `approx` and of each `variant_approx` run.
fn check_rounds(
    first: &[Vec<Call>],
    rounds: &[Vec<Vec<Call>>],
    variant_approx: &[Call],
    n: usize,
    report: &mut Report,
) {
    for (i, &s) in ROUND.iter().enumerate() {
        let head = &first[i][0];
        check_labels(s, head, n, report);
        let repeat = rounds
            .iter()
            .flat_map(|r| &r[i])
            .all(|c| c.hash.is_some() && c.hash == head.hash);
        report.check(
            format!("{}.labels_repeat_across_rounds", SOLVERS[s]),
            repeat,
        );
    }
    let (exact, approx) = (&first[0][0], &first[1][0]);
    if let (Some(e), Some(c)) = (&exact.run, &first[2][0].run) {
        report.check("covertree.matches_exact", same_exact_clustering(e, c));
    }
    for (v, c) in variant_approx.iter().enumerate() {
        let ok = c.run.as_ref().is_some_and(|r| r.clustering.len() == n);
        report.check(format!("approx.variant{}.one_label_per_point", v + 1), ok);
    }
    let aris: Vec<f64> = std::iter::once(approx)
        .chain(variant_approx)
        .filter_map(|c| ari(exact, c))
        .collect();
    if !aris.is_empty() {
        let mean = aris.iter().sum::<f64>() / aris.len() as f64;
        report.metric("approx_ari", mean, "ratio", aris.len());
    }
}

/// ARI of `other`'s labels against the exact solver's labels.
fn ari(exact: &Call, other: &Call) -> Option<f64> {
    let (exact, other) = (exact.run.as_ref()?, other.run.as_ref()?);
    Some(adjusted_rand_index(
        &exact.clustering.assignments(),
        &other.clustering.assignments(),
    ))
}

fn record_ari(exact: &Call, other: &Call, name: &str, report: &mut Report) {
    if let Some(v) = ari(exact, other) {
        report.metric(name, v, "ratio", 1);
    }
}

/// Per-solver median wall times over rounds, as `<solver>_s`; returns
/// the medians in `ROUND` order.
fn record_walls(rounds: &[Vec<Vec<Call>>], report: &mut Report) -> Vec<f64> {
    ROUND
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let walls: Vec<f64> = rounds
                .iter()
                .flat_map(|r| &r[i])
                .filter(|c| c.hash.is_some())
                .map(|c| c.wall)
                .collect();
            let med = median(&walls);
            report.metric(format!("{}_s", SOLVERS[s]), med, "s", walls.len());
            med
        })
        .collect()
}

fn run<T: BlockScalar>(
    w: &BatchWorkload,
    rows: &[Vec<f64>],
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Report
where
    VectorBlock<T>: BatchMetric<u32> + Clone,
{
    let mut report = Report::default();
    let block = VectorBlock::<T>::from_rows(rows);
    let n = block.len();
    let ids = block.ids();
    report.fact("workload", w.name);
    report.fact("n", n);
    report.fact("dim", block.dim());
    report.fact("eps", w.eps);
    report.fact("min_pts", w.min_pts);
    report.fact("rho", w.rho);
    report.fact("rbar", w.rbar);
    report.fact("index", format!("{:?}", w.index[0]));
    report.fact("variants", w.index.len());
    report.fact("reps", format!("{:?}", w.reps));
    report.fact("scalar_bytes", std::mem::size_of::<T>());
    report.fact("seed", seed);

    if trace {
        traced(w, rows, &block, &ids, seconds, &mut report);
        return report;
    }

    // The first build in a fresh process can take twice as long as the
    // later ones, so one untimed build comes first. Setup then builds the
    // measured engine (variant 0) at least `SETUP_REPS` times; every
    // other variant is built once in turn, and one untimed `approx`
    // query on it joins `approx_ari`.
    drop(build(w, &ids, block.clone(), THREADS, 0));
    let variants = w.index.len();
    let mut setups = Vec::new();
    let mut engine = None;
    let mut variant_approx = Vec::new();
    while setups.len() < SETUP_REPS.max(variants) || setups.iter().sum::<f64>() < SETUP_SECONDS {
        let variant = setups.len() % variants;
        let t = Instant::now();
        let e = build(w, &ids, block.clone(), THREADS, variant);
        setups.push(t.elapsed().as_secs_f64());
        if variant == 0 {
            engine = Some(e);
        } else if variant_approx.len() < variant {
            variant_approx.push(call(&e, w, 1, false, None, &mut report));
        }
    }
    let engine = engine.expect("variant 0 is built first");
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.counter("kcenter.centers", engine.num_centers() as u64);

    // An untimed warm-up round; its runs are the ones the checks
    // compare in full.
    let started = Instant::now();
    let warm = round(&engine, w, [1; 3], &mut report, None);
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs() < seconds {
        let mut r = round(&engine, w, w.reps, &mut report, None);
        r.iter_mut().flatten().for_each(|c| c.run = None);
        rounds.push(r);
    }
    // Cold queries per second: the geometric mean over the solvers of
    // one over the median wall, so each solver weighs the same rather
    // than the slowest one setting the figure.
    let medians = record_walls(&rounds, &mut report);
    let queries: usize = rounds.iter().flatten().map(Vec::len).sum();
    let log_rate = medians.iter().map(|m| -m.ln()).sum::<f64>() / medians.len() as f64;
    report.metric("queries_per_s", log_rate.exp(), "1/s", queries);
    check_rounds(&warm, &rounds, &variant_approx, n, &mut report);
    report
}

/// The traced run. An untraced engine and a traced one (every distance
/// counted at the metric) alternate cold rounds until `seconds` have
/// passed, so the tracing overhead is measured on the same inputs.
/// Then `streaming` runs once, traced, and one-thread reruns give the
/// parallel speedups and the cross-thread label checks.
fn traced<T: BlockScalar>(
    w: &BatchWorkload,
    rows: &[Vec<f64>],
    block: &VectorBlock<T>,
    ids: &[u32],
    seconds: u64,
    report: &mut Report,
) where
    VectorBlock<T>: BatchMetric<u32> + Clone,
{
    let started = Instant::now();
    let tracer = Tracer::new();
    let plain = build(w, ids, block.clone(), THREADS, 0);
    let (net_build, centers) = tracer.span("kcenter.net_build", None, None, |_| {
        let opts = BuildOptions {
            parallel: ParallelConfig::new(THREADS),
            ..BuildOptions::default()
        };
        let t = Instant::now();
        let net = RadiusGuidedNet::build_with(ids, block, w.rbar, &opts);
        (t.elapsed().as_secs_f64(), net.centers.len())
    });
    report.metric("kcenter.net_build_s", net_build, "s", 1);
    report.metric("kcenter.centers", centers as f64, "count", 1);
    report.counter("kcenter.centers", centers as u64);
    report.check("kcenter.net_matches_engine", centers == plain.num_centers());
    // Counting every distance at the metric is what tracing costs here;
    // this engine's own build pays for it and is not timed.
    let counted = tracer.span("core.build", None, None, |_| {
        build(w, ids, CountingMetric::new(block.clone()), THREADS, 0)
    });
    let count = || counted.metric().count();

    let mut plain_rounds: Vec<Vec<Vec<Call>>> = Vec::new();
    let mut traced_rounds: Vec<Vec<Vec<Call>>> = Vec::new();
    while traced_rounds.is_empty() || started.elapsed().as_secs() < seconds {
        plain_rounds.push(round(&plain, w, [1; 3], report, None));
        traced_rounds.push(round(&counted, w, [1; 3], report, Some((&tracer, &count))));
    }
    let round_wall = |r: &Vec<Vec<Call>>| r.iter().flatten().map(|c| c.wall).sum::<f64>();
    let plain_wall = median(&plain_rounds.iter().map(round_wall).collect::<Vec<_>>());
    let traced_wall = median(&traced_rounds.iter().map(round_wall).collect::<Vec<_>>());
    report.metric(
        "obs.trace_overhead_frac",
        traced_wall / plain_wall - 1.0,
        "ratio",
        plain_rounds.len() + traced_rounds.len(),
    );
    record_walls(&plain_rounds, report);
    check_rounds(
        &traced_rounds[0],
        &traced_rounds[1..],
        &[],
        ids.len(),
        report,
    );
    for (i, &s) in ROUND.iter().enumerate() {
        let same = labels_of(&plain_rounds[0][i][0]).is_some()
            && labels_of(&plain_rounds[0][i][0]) == labels_of(&traced_rounds[0][i][0]);
        report.check(format!("{}.traced_labels_match_untraced", SOLVERS[s]), same);
    }

    let streaming = call(&counted, w, 3, false, Some((&tracer, None, &count)), report);
    check_labels(3, &streaming, ids.len(), report);
    report.metric("streaming_s", streaming.wall, "s", 1);
    let mut first: Vec<&Call> = traced_rounds[0].iter().map(|c| &c[0]).collect();
    first.push(&streaming);
    record_ari(first[0], &streaming, "streaming_ari", report);

    // Per-layer figures: phase times are medians over the untraced
    // rounds (streaming has only its traced call), counts come from the
    // first traced call.
    for s in 0..SOLVERS.len() {
        let name = SOLVERS[s];
        let runs: Vec<&Run> = if s < ROUND.len() {
            plain_rounds
                .iter()
                .filter_map(|r| r[s][0].run.as_ref())
                .collect()
        } else {
            streaming.run.iter().collect()
        };
        let ph: Vec<Phases> = runs.iter().map(|r| phases(&r.report)).collect();
        let k = ph.len();
        let med = |f: fn(&Phases) -> f64| median(&ph.iter().map(f).collect::<Vec<_>>());
        report.metric(format!("core.step1_s.{name}"), med(|p| p.step1), "s", k);
        report.metric(format!("core.step2_s.{name}"), med(|p| p.step2), "s", k);
        report.metric(format!("core.step3_s.{name}"), med(|p| p.step3), "s", k);
        if s != 3 {
            report.metric(
                format!("kcenter.adjacency_s.{name}"),
                med(|p| p.adjacency),
                "s",
                k,
            );
        }
        if s == 2 {
            report.metric("covertree.tree_s", med(|p| p.tree), "s", k);
        }
        let evals = first[s].evals;
        report.metric(
            format!("metric.distance_evals.{name}"),
            evals as f64,
            "count",
            1,
        );
        report.counter(format!("metric.distance_evals.{name}"), evals);
        let Some(run) = &first[s].run else { continue };
        let p = phases(&run.report);
        report.metric(
            format!("core.step2_pairs_tested.{name}"),
            p.step2_pairs as f64,
            "count",
            1,
        );
        report.counter(format!("core.step2_pairs_tested.{name}"), p.step2_pairs);
        let decided = p.bound_decided as f64;
        report.metric(
            format!("core.pruning_decided_frac.{name}"),
            decided / (decided + evals as f64).max(1.0),
            "ratio",
            1,
        );
        if s == 3 {
            report.metric(
                "core.streaming_footprint_points",
                p.footprint as f64,
                "count",
                1,
            );
            report.counter("core.streaming_footprint_points", p.footprint as u64);
        }
        if s == 1 || s == 3 {
            let rp = run.report.rp;
            report.metric(
                format!("rp.candidates_emitted.{name}"),
                rp.candidates_emitted as f64,
                "count",
                1,
            );
            report.counter(
                format!("rp.candidates_emitted.{name}"),
                rp.candidates_emitted,
            );
            let offered = rp.candidates_emitted + rp.candidates_rejected;
            report.metric(
                format!("rp.reject_frac.{name}"),
                rp.candidates_rejected as f64 / offered.max(1) as f64,
                "ratio",
                1,
            );
        }
    }

    // One-thread reruns: the exact solvers through their per-query
    // thread override; approx and streaming on a one-thread engine.
    let seq = w.speedup_all.then(|| build(w, ids, block.clone(), 1, 0));
    for s in 0..SOLVERS.len() {
        let one = match (s, &seq) {
            (0 | 2, _) => call(&plain, w, s, true, None, report),
            (_, Some(e)) => call(e, w, s, false, None, report),
            _ => continue,
        };
        let walls_2t: Vec<f64> = if s < ROUND.len() {
            plain_rounds.iter().map(|r| r[s][0].wall).collect()
        } else {
            vec![streaming.wall]
        };
        report.metric(
            format!("parallel.speedup_t2.{}", SOLVERS[s]),
            one.wall / median(&walls_2t),
            "ratio",
            walls_2t.len() + 1,
        );
        let same = labels_of(&one).is_some() && labels_of(&one) == labels_of(first[s]);
        report.check(format!("{}.labels_match_1_thread", SOLVERS[s]), same);
    }

    // The distance kernel on this workload's block: one query row
    // against every row, repeated for about 0.2 s.
    let (ns_per_pair, pairs) = tracer.span("metric.dist_many", None, None, |_| {
        kernel_ns_per_pair(block, ids)
    });
    report.metric("metric.dist_many_ns_per_pair", ns_per_pair, "ns", pairs);
    report.metric(
        "metric.dist_many_bytes_per_pair",
        (block.dim() * std::mem::size_of::<T>()) as f64,
        "B",
        1,
    );

    // The random-projection index, built directly from its crate.
    if let CandidateIndex::RandomProjection(cfg) = w.index[0] {
        let coords: Vec<f64> = rows.iter().flatten().copied().collect();
        let secs = tracer.span("rp.build", None, None, |_| {
            let t = Instant::now();
            let idx = mdbscan_rp::RpIndex::build(block.dim(), &coords, cfg);
            std::hint::black_box(idx.len());
            t.elapsed().as_secs_f64()
        });
        report.metric("rp.index_build_s", secs, "s", 1);
    }
    crate::write_spans(&tracer, report);
}

fn kernel_ns_per_pair<T: BlockScalar>(block: &VectorBlock<T>, ids: &[u32]) -> (f64, usize)
where
    VectorBlock<T>: BatchMetric<u32>,
{
    let idx: Vec<u32> = (0..ids.len() as u32).collect();
    let mut out = Vec::with_capacity(ids.len());
    let mut pairs = 0usize;
    let started = Instant::now();
    let mut q = 0usize;
    while started.elapsed().as_secs_f64() < 0.2 {
        block.dist_many(ids, &ids[q % ids.len()], &idx, &mut out);
        std::hint::black_box(&out);
        pairs += idx.len();
        q += 7919;
    }
    (started.elapsed().as_nanos() as f64 / pairs as f64, pairs)
}
