//! The threading contract, certified end to end: for **every** solver —
//! exact (Algorithm 1 and cover-tree pipelines), ρ-approximate, and the
//! streaming engine — the cluster labels produced with 2 or 8 worker
//! threads are byte-identical to the 1-thread run, on Euclidean blob
//! data and on Levenshtein string data alike.

use metric_dbscan::core::{
    exact_dbscan_covertree_with, ApproxParams, DbscanParams, ExactConfig, MetricDbscan,
    ParallelConfig, PointLabel, StreamingApproxDbscan,
};
use metric_dbscan::datagen::{blobs, string_clusters, BlobSpec, StringSpec};
use metric_dbscan::metric::{BatchMetric, Euclidean, Levenshtein, PruningConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 2] = [2, 8];

/// Exact + approx labels at a given thread count, over a fresh-built
/// engine (engine construction itself is also threaded).
fn solve_both<P: Sync + Clone + Send, M: BatchMetric<P> + Sync>(
    pts: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
    rho: f64,
    threads: usize,
) -> (Vec<PointLabel>, Vec<PointLabel>) {
    let parallel = ParallelConfig::new(threads);
    let aparams = ApproxParams::new(eps, min_pts, rho).expect("approx params");
    // One engine at the approx radius serves both queries (rbar = ρε/2 ≤ ε/2).
    let engine = MetricDbscan::builder(pts.to_vec(), metric)
        .rbar(aparams.rbar())
        .parallel(parallel)
        .build()
        .expect("engine");
    let cfg = ExactConfig {
        parallel,
        ..ExactConfig::default()
    };
    let params = DbscanParams::new(eps, min_pts).expect("params");
    let exact = engine.exact_with(&params, &cfg).expect("exact").clustering;
    let approx = engine.approx(&aparams).expect("approx").clustering;
    (exact.labels().to_vec(), approx.labels().to_vec())
}

fn streaming_labels<P: Sync + Clone, M: BatchMetric<P> + Sync>(
    pts: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
    rho: f64,
    threads: usize,
) -> (Vec<PointLabel>, usize) {
    let params = ApproxParams::new(eps, min_pts, rho).expect("params");
    let (c, engine) =
        StreamingApproxDbscan::run_with(metric, &params, &ParallelConfig::new(threads), || {
            pts.iter().cloned()
        })
        .expect("stream");
    (c.labels().to_vec(), engine.footprint().summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Euclidean blobs: all three solvers agree with their 1-thread runs.
    #[test]
    fn blobs_thread_invariant(seed in 0u64..1000, eps_scale in 0.5f64..2.0) {
        let pts = blobs(
            &BlobSpec {
                n: 600,
                dim: 2,
                clusters: 3,
                std: 1.0,
                center_box: 15.0,
                outlier_frac: 0.05,
            },
            seed,
        )
        .into_parts()
        .0;
        let eps = eps_scale;
        let (exact1, approx1) = solve_both(&pts, &Euclidean, eps, 8, 0.5, 1);
        let (stream1, summary1) = streaming_labels(&pts, &Euclidean, eps, 8, 0.5, 1);
        for threads in THREAD_COUNTS {
            let (exact_t, approx_t) = solve_both(&pts, &Euclidean, eps, 8, 0.5, threads);
            prop_assert_eq!(&exact1, &exact_t, "exact labels diverged at {} threads", threads);
            prop_assert_eq!(&approx1, &approx_t, "approx labels diverged at {} threads", threads);
            let (stream_t, summary_t) = streaming_labels(&pts, &Euclidean, eps, 8, 0.5, threads);
            prop_assert_eq!(&stream1, &stream_t, "streaming labels diverged at {} threads", threads);
            prop_assert_eq!(summary1, summary_t, "streaming summary diverged at {} threads", threads);
        }
    }

    /// Levenshtein string clusters: same contract under a discrete,
    /// expensive metric.
    #[test]
    fn strings_thread_invariant(seed in 0u64..1000) {
        let words = string_clusters(
            &StringSpec {
                n: 150,
                clusters: 3,
                seed_len: 12,
                max_edits: 2,
                alphabet: b"abcd",
                outlier_frac: 0.05,
            },
            seed,
        )
        .into_parts()
        .0;
        let (exact1, approx1) = solve_both(&words, &Levenshtein, 4.0, 4, 0.5, 1);
        let (stream1, _) = streaming_labels(&words, &Levenshtein, 4.0, 4, 0.5, 1);
        for threads in THREAD_COUNTS {
            let (exact_t, approx_t) = solve_both(&words, &Levenshtein, 4.0, 4, 0.5, threads);
            prop_assert_eq!(&exact1, &exact_t, "exact labels diverged at {} threads", threads);
            prop_assert_eq!(&approx1, &approx_t, "approx labels diverged at {} threads", threads);
            let (stream_t, _) = streaming_labels(&words, &Levenshtein, 4.0, 4, 0.5, threads);
            prop_assert_eq!(&stream1, &stream_t, "streaming labels diverged at {} threads", threads);
        }
    }

    /// The §3.2 cover-tree pipeline threads its shared steps too.
    #[test]
    fn covertree_pipeline_thread_invariant(seed in 0u64..1000) {
        let pts = blobs(
            &BlobSpec {
                n: 400,
                dim: 2,
                clusters: 2,
                std: 0.8,
                center_box: 10.0,
                outlier_frac: 0.02,
            },
            seed,
        )
        .into_parts()
        .0;
        let solve = |threads: usize| {
            let cfg = ExactConfig {
                parallel: ParallelConfig::new(threads),
                ..ExactConfig::default()
            };
            exact_dbscan_covertree_with(&pts, &Euclidean, 1.2, 6, &cfg)
                .expect("covertree pipeline")
                .0
                .labels()
                .to_vec()
        };
        let baseline = solve(1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&baseline, &solve(threads), "diverged at {} threads", threads);
        }
    }
}

/// Step 2 makes the same BCP tests at every thread count, with early
/// termination on and off and with pruning on and off: in particular,
/// the early-termination ablation skips no pair as connected at any
/// thread count.
#[test]
fn bcp_tests_thread_invariant_with_and_without_early_termination() {
    let pts = blobs(
        &BlobSpec {
            n: 3000,
            dim: 2,
            clusters: 5,
            std: 1.0,
            center_box: 25.0,
            outlier_frac: 0.05,
        },
        3,
    )
    .into_parts()
    .0;
    let params = DbscanParams::new(0.6, 5).expect("params");
    for early_termination in [true, false] {
        for pruning in [PruningConfig::default(), PruningConfig::off()] {
            let counts: Vec<u64> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    let parallel = ParallelConfig::new(threads);
                    let engine = MetricDbscan::builder(pts.clone(), Euclidean)
                        .rbar(0.3)
                        .parallel(parallel)
                        .pruning(pruning)
                        .cache_capacity(0)
                        .build()
                        .expect("engine");
                    let cfg = ExactConfig {
                        early_termination,
                        pruning,
                        parallel,
                        ..ExactConfig::default()
                    };
                    let run = engine.exact_with(&params, &cfg).expect("exact");
                    run.report.exact_stats().expect("exact stats").bcp_tests
                })
                .collect();
            let ctx = format!(
                "early_termination={early_termination} pruning={}",
                pruning.enabled
            );
            assert!(counts[0] > 0, "{ctx}: no BCP test made");
            assert_eq!(counts, vec![counts[0]; 3], "{ctx}");
        }
    }
}
