//! Thread-scaling report for the exact and ρ-approximate pipelines:
//! solves one ≥100k-point blob set at 1/2/4/8 worker threads, checks
//! the labels are byte-identical to the 1-thread run, and prints one
//! JSON object (BENCH_thread_scaling.json shape) with wall-clock and
//! distance-evaluation counts per thread setting.
//!
//! It additionally writes `BENCH_distance_evals.json` — the pruning
//! baseline: per solver (exact / approx / covertree / streaming) and per
//! pruning setting, the wall-clock, the distance-evaluation count, and
//! the bound-accept/reject/anchor counters — asserting along the way
//! that labels are byte-identical with pruning on vs off and that the
//! counters are self-consistent. CI runs this at a tiny `--scale` as a
//! smoke test of the whole distance-minimization layer.
//!
//! It also times the Algorithm-1 net build and each solver's query
//! (exact, approx, covertree, streaming) alone at 1 and 2 threads (the
//! median of interleaved runs) and, at full scale, asserts that the
//! second thread never makes any of them more than 10 % slower.
//!
//! `--scale 0.1` shrinks the dataset for smoke runs; `--full` runs the
//! million-point panel regardless of `--scale`.

use mdbscan_bench::{timed, HarnessArgs};
use mdbscan_core::{
    ApproxParams, Clustering, DbscanParams, ExactConfig, MetricDbscan, ParallelConfig,
    Run as EngineRun,
};
use mdbscan_datagen::{blobs, BlobSpec};
use mdbscan_kcenter::{BuildOptions, RadiusGuidedNet};
use mdbscan_metric::{CountingMetric, Euclidean, PruneStats, PruningConfig};

const EPS: f64 = 1.0;
const MIN_PTS: usize = 10;
const RHO: f64 = 0.5;
/// Interleaved runs per thread count behind each never-slower gate.
const GATE_RUNS: usize = 7;

struct Run {
    threads: usize,
    build_ms: f64,
    exact_ms: f64,
    approx_ms: f64,
    distance_evals: u64,
    labels_match: bool,
}

fn solve(
    pts: &[Vec<f64>],
    threads: usize,
    count: bool,
) -> (Clustering, Clustering, f64, f64, f64, u64) {
    let parallel = ParallelConfig::new(threads);
    let owned = pts.to_vec();
    let (engine, build_ms) = timed(move || {
        MetricDbscan::builder(owned, Euclidean)
            .rbar(RHO * EPS / 2.0)
            .parallel(parallel)
            .build()
            .expect("build engine")
    });
    let cfg = ExactConfig {
        parallel,
        count_distance_evals: count,
        ..ExactConfig::default()
    };
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let (exact_run, exact_ms) = timed(|| engine.exact_with(&params, &cfg).expect("exact query"));
    let distance_evals = exact_run
        .report
        .exact_stats()
        .expect("exact run carries stats")
        .distance_evals;
    let aparams = ApproxParams::new(EPS, MIN_PTS, RHO).expect("approx params");
    let (approx_run, approx_ms) = timed(|| engine.approx(&aparams).expect("approx query"));
    (
        exact_run.clustering,
        approx_run.clustering,
        build_ms,
        exact_ms,
        approx_ms,
        distance_evals,
    )
}

fn main() {
    let args = HarnessArgs::parse();
    let n = if args.full {
        1_000_000
    } else {
        (100_000.0 * args.scale) as usize
    };
    let pts = blobs(
        &BlobSpec {
            n,
            dim: 2,
            clusters: 8,
            std: 1.0,
            center_box: 40.0,
            outlier_frac: 0.01,
        },
        args.seed,
    )
    .into_parts()
    .0;

    let (base_exact, base_approx, ..) = solve(&pts, 1, false);
    let mut runs: Vec<Run> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        // Timed pass without counting (the counter atomic is contended);
        // separate counted pass for the work numbers.
        let (exact, approx, build_ms, exact_ms, approx_ms, _) = solve(&pts, threads, false);
        let (_, _, _, _, _, distance_evals) = solve(&pts, threads, true);
        runs.push(Run {
            threads,
            build_ms,
            exact_ms,
            approx_ms,
            distance_evals,
            labels_match: exact.labels() == base_exact.labels()
                && approx.labels() == base_approx.labels(),
        });
    }

    let gates = never_slower_medians(&pts);

    let t1_total = runs[0].build_ms + runs[0].exact_ms;
    println!("{{");
    println!("  \"bench\": \"thread_scaling\",");
    println!("  \"n\": {n},");
    println!("  \"eps\": {EPS},");
    println!("  \"min_pts\": {MIN_PTS},");
    println!(
        "  \"available_parallelism\": {},",
        ParallelConfig::available()
    );
    println!("  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let total = r.build_ms + r.exact_ms;
        let sep = if i + 1 == runs.len() { "" } else { "," };
        println!(
            "    {{\"threads\": {}, \"build_ms\": {:.2}, \"exact_ms\": {:.2}, \"approx_ms\": {:.2}, \"total_ms\": {:.2}, \"speedup_vs_1t\": {:.3}, \"distance_evals\": {}, \"labels_match_1t\": {}}}{sep}",
            r.threads, r.build_ms, r.exact_ms, r.approx_ms, total, t1_total / total,
            r.distance_evals, r.labels_match,
        );
    }
    println!("  ],");
    println!("  \"never_slower_ms\": {{");
    for (i, (what, [t1, t2])) in gates.iter().enumerate() {
        let sep = if i + 1 == gates.len() { "" } else { "," };
        println!(
            "    \"{what}\": {{\"t1\": {t1:.2}, \"t2\": {t2:.2}, \"runs\": {GATE_RUNS}}}{sep}"
        );
    }
    println!("  }}");
    println!("}}");
    assert!(
        runs.iter().all(|r| r.labels_match),
        "cluster labels diverged across thread counts"
    );
    if args.full || args.scale >= 1.0 {
        for (what, [t1, t2]) in &gates {
            assert!(
                *t2 <= 1.1 * t1,
                "{what} got slower with a second thread: {t2:.2} ms vs {t1:.2} ms"
            );
        }
    }

    write_distance_evals_baseline(&pts, n);
}

/// Median walls (ms) at 1 and 2 threads of the Algorithm-1 net build and
/// of each solver's query. Queries run on an engine built once per
/// thread count without a cache, so every run does all of its work.
fn never_slower_medians(pts: &[Vec<f64>]) -> Vec<(&'static str, [f64; 2])> {
    let mut gates = vec![(
        "net_build",
        interleaved_medians(|threads| {
            let opts = BuildOptions {
                parallel: ParallelConfig::new(threads),
                ..BuildOptions::default()
            };
            RadiusGuidedNet::build_with(pts, &Euclidean, RHO * EPS / 2.0, &opts);
        }),
    )];
    let engines = [1usize, 2].map(|threads| {
        MetricDbscan::builder(pts.to_vec(), Euclidean)
            .rbar(RHO * EPS / 2.0)
            .parallel(ParallelConfig::new(threads))
            .cache_capacity(0)
            .build()
            .expect("build engine")
    });
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let aparams = ApproxParams::new(EPS, MIN_PTS, RHO).expect("approx params");
    for solver in ["exact", "approx", "covertree", "streaming"] {
        let medians = interleaved_medians(|threads| {
            let engine = &engines[threads - 1];
            let run = match solver {
                "exact" => engine.exact(&params),
                "approx" => engine.approx(&aparams),
                "covertree" => engine.covertree(&params),
                _ => engine.streaming(&aparams),
            };
            run.expect("solver query");
        });
        gates.push((solver, medians));
    }
    gates
}

/// Median wall (ms) of `run(threads)` at 1 and 2 threads, over
/// `GATE_RUNS` runs each. The thread counts alternate, and so does which
/// of them goes first, so that drift in the host's speed and any
/// first-or-second bias hit both alike.
fn interleaved_medians(mut run: impl FnMut(usize)) -> [f64; 2] {
    let mut walls = [Vec::new(), Vec::new()];
    for round in 0..GATE_RUNS {
        for i in [round % 2, 1 - round % 2] {
            let (_, ms) = timed(|| run(i + 1));
            walls[i].push(ms);
        }
    }
    walls.map(|mut w| {
        w.sort_by(f64::total_cmp);
        w[w.len() / 2]
    })
}

/// One row of the pruning baseline.
struct EvalRow {
    solver: &'static str,
    pruning: bool,
    wall_ms: f64,
    distance_evals: u64,
    bounds: PruneStats,
}

/// Runs every solver with pruning on and off over a `CountingMetric`,
/// asserts the labels are byte-identical and the counters sane, and
/// writes `BENCH_distance_evals.json`.
fn write_distance_evals_baseline(pts: &[Vec<f64>], n: usize) {
    let aparams = ApproxParams::new(EPS, MIN_PTS, RHO).expect("approx params");
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let mut rows: Vec<EvalRow> = Vec::new();
    let mut labels: std::collections::HashMap<(&'static str, bool), Clustering> =
        std::collections::HashMap::new();
    for pruning_on in [false, true] {
        let pruning = if pruning_on {
            PruningConfig::default()
        } else {
            PruningConfig::off()
        };
        // cache_capacity(0): every query recomputes, so the counters
        // compare like for like between the two settings.
        let engine = MetricDbscan::builder(pts.to_vec(), CountingMetric::new(Euclidean))
            .rbar(RHO * EPS / 2.0)
            .pruning(pruning)
            .cache_capacity(0)
            .build()
            .expect("build engine");
        let mut record = |solver: &'static str, run: EngineRun, wall_ms: f64, evals: u64| {
            let bounds = run.report.pruning;
            rows.push(EvalRow {
                solver,
                pruning: pruning_on,
                wall_ms,
                distance_evals: evals,
                bounds,
            });
            labels.insert((solver, pruning_on), run.clustering);
        };
        engine.metric().reset();
        let (run, ms) = timed(|| engine.exact(&params).expect("exact"));
        record("exact", run, ms, engine.metric().reset());
        let (run, ms) = timed(|| engine.approx(&aparams).expect("approx"));
        record("approx", run, ms, engine.metric().reset());
        let (run, ms) = timed(|| engine.covertree(&params).expect("covertree"));
        record("covertree", run, ms, engine.metric().reset());
        let (run, ms) = timed(|| engine.streaming(&aparams).expect("streaming"));
        record("streaming", run, ms, engine.metric().reset());
    }

    // Self-consistency: identical labels per solver, zeroed counters
    // with pruning off, live counters (and no extra work) with it on.
    for solver in ["exact", "approx", "covertree", "streaming"] {
        assert_eq!(
            labels[&(solver, false)],
            labels[&(solver, true)],
            "{solver}: pruning changed the labels"
        );
        let off = rows
            .iter()
            .find(|r| r.solver == solver && !r.pruning)
            .expect("off row");
        let on = rows
            .iter()
            .find(|r| r.solver == solver && r.pruning)
            .expect("on row");
        assert_eq!(
            off.bounds,
            PruneStats::default(),
            "{solver}: pruning-off must report zero bound counters"
        );
        assert!(
            on.bounds.bound_accepts + on.bounds.bound_rejects > 0,
            "{solver}: bounds never fired on clustered data"
        );
        if solver == "exact" || solver == "approx" {
            assert!(
                on.distance_evals <= off.distance_evals,
                "{solver}: pruning increased evals ({} vs {})",
                on.distance_evals,
                off.distance_evals
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"distance_evals\",\n");
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!(
        "  \"eps\": {EPS}, \"min_pts\": {MIN_PTS}, \"rho\": {RHO},\n"
    ));
    json.push_str("  \"solvers\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"solver\": \"{}\", \"pruning\": {}, \"wall_ms\": {:.2}, \"distance_evals\": {}, \"bound_accepts\": {}, \"bound_rejects\": {}, \"anchor_evals\": {}, \"distance_evals_saved\": {}}}{sep}\n",
            r.solver,
            r.pruning,
            r.wall_ms,
            r.distance_evals,
            r.bounds.bound_accepts,
            r.bounds.bound_rejects,
            r.bounds.anchor_evals,
            r.bounds.distance_evals_saved(),
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    mdbscan_bench::write_json("BENCH_distance_evals.json", &json);
    eprintln!(
        "wrote BENCH_distance_evals.json ({} solver rows)",
        rows.len()
    );
}
