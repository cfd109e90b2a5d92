//! The dynamic-engine contract (PR 4).
//!
//! 1. **Ingest determinism**: an engine built with the radius-guided
//!    (first-fit) net over a prefix and grown by `ingest`/`ingest_one`
//!    must produce labels **bit-identical** to a fresh radius-guided
//!    engine over the same full sequence — for all four solvers, two
//!    metric families, two thread counts, pruning on and off, and at
//!    every intermediate epoch.
//! 2. **Snapshot isolation**: a snapshot pinned before an ingest keeps
//!    answering byte-identically from its own epoch while writers
//!    publish new ones, including under concurrent interleavings.
//! 3. **Epoch-keyed caches**: cache *hits* never cross epochs (an
//!    epoch-`e` query can only hit epoch-`e` artifacts); cross-epoch
//!    reuse happens only as incremental *upgrades*.

use std::sync::Arc;

use metric_dbscan::core::{
    ApproxParams, DbscanParams, MetricDbscan, NetStrategy, ParallelConfig, PointLabel, RunDetail,
};
use metric_dbscan::datagen::{blobs, string_clusters, BlobSpec, StringSpec};
use metric_dbscan::metric::{BatchMetric, CountingMetric, Euclidean, Levenshtein, PruningConfig};

fn vector_points() -> Vec<Vec<f64>> {
    blobs(
        &BlobSpec {
            n: 240,
            dim: 2,
            clusters: 3,
            std: 0.8,
            center_box: 20.0,
            outlier_frac: 0.1,
        },
        7,
    )
    .into_parts()
    .0
}

fn string_points() -> Vec<String> {
    string_clusters(
        &StringSpec {
            n: 80,
            clusters: 3,
            seed_len: 12,
            max_edits: 2,
            alphabet: b"acgt",
            outlier_frac: 0.1,
        },
        11,
    )
    .into_parts()
    .0
}

/// All four solvers' labels at the engine's current epoch.
fn all_solver_labels<P: Clone + Sync, M: BatchMetric<P>>(
    engine: &MetricDbscan<P, M>,
    params: &DbscanParams,
    aparams: &ApproxParams,
) -> [Vec<PointLabel>; 4] {
    [
        engine.exact(params).unwrap().clustering.labels().to_vec(),
        engine.approx(aparams).unwrap().clustering.labels().to_vec(),
        engine
            .covertree(params)
            .unwrap()
            .clustering
            .labels()
            .to_vec(),
        engine
            .streaming(aparams)
            .unwrap()
            .clustering
            .labels()
            .to_vec(),
    ]
}

/// Builds a radius-guided engine over `points` with the given knobs.
fn build<P: Clone + Sync, M: BatchMetric<P>>(
    points: Vec<P>,
    metric: M,
    rbar: f64,
    threads: usize,
    pruning: PruningConfig,
) -> MetricDbscan<P, M> {
    MetricDbscan::builder(points, metric)
        .rbar(rbar)
        .net_strategy(NetStrategy::RadiusGuided)
        .parallel(ParallelConfig::new(threads))
        .pruning(pruning)
        .build()
        .unwrap()
}

/// The acceptance matrix: ingest-then-query equals a fresh radius-guided
/// build over the same sequence, at every epoch, for every solver.
fn assert_ingest_matches_fresh<P, M>(points: Vec<P>, metric: M, rbar: f64, eps: f64, min_pts: usize)
where
    P: Clone + Sync + PartialEq + std::fmt::Debug,
    M: BatchMetric<P> + Clone,
{
    let params = DbscanParams::new(eps, min_pts).unwrap();
    // ρ = 1 keeps one r̄ valid for exact (r̄ ≤ ε/2) and approx (r̄ ≤ ρε/2).
    let aparams = ApproxParams::new(eps, min_pts, 1.0).unwrap();
    let third = points.len() / 3;
    for threads in [1usize, 4] {
        for pruning in [PruningConfig::default(), PruningConfig::off()] {
            let ctx = format!("threads={threads} pruning={}", pruning.enabled);
            let dynamic = build(
                points[..third].to_vec(),
                metric.clone(),
                rbar,
                threads,
                pruning,
            );
            // Warm epoch-0 caches so the post-ingest queries exercise the
            // incremental upgrade paths, then check the prefix already
            // matches a fresh build over the same prefix.
            let stage0 = all_solver_labels(&dynamic, &params, &aparams);
            let fresh0 = build(
                points[..third].to_vec(),
                metric.clone(),
                rbar,
                threads,
                pruning,
            );
            assert_eq!(
                stage0,
                all_solver_labels(&fresh0, &params, &aparams),
                "{ctx}: prefix mismatch"
            );

            // Grow: one batch, two singles, then the rest.
            dynamic.ingest(points[third..2 * third].to_vec()).unwrap();
            let _ = all_solver_labels(&dynamic, &params, &aparams); // mid-epoch warmup
            dynamic.ingest_one(points[2 * third].clone()).unwrap();
            dynamic.ingest_one(points[2 * third + 1].clone()).unwrap();
            dynamic.ingest(points[2 * third + 2..].to_vec()).unwrap();
            assert_eq!(dynamic.epoch(), 4, "{ctx}");
            assert_eq!(dynamic.num_points(), points.len(), "{ctx}");

            let fresh = build(points.clone(), metric.clone(), rbar, threads, pruning);
            // The maintained net is the one a full one-shot pass builds...
            assert_eq!(
                dynamic.net_arc().centers,
                fresh.net_arc().centers,
                "{ctx}: net diverged"
            );
            // ...and so are all four solvers' labels, bit for bit.
            let grown = all_solver_labels(&dynamic, &params, &aparams);
            let reference = all_solver_labels(&fresh, &params, &aparams);
            for (solver, (a, b)) in ["exact", "approx", "covertree", "streaming"]
                .iter()
                .zip(grown.iter().zip(reference.iter()))
            {
                assert_eq!(a, b, "{ctx}: {solver} labels diverged after ingest");
            }
            // The upgrade paths actually fired (adjacency extension,
            // incremental Step 1, grown fragment/whole-input trees).
            assert!(
                dynamic.cache_stats().upgrades > 0,
                "{ctx}: no incremental reuse recorded"
            );
        }
    }
}

#[test]
fn ingest_matches_fresh_build_vectors() {
    assert_ingest_matches_fresh(vector_points(), Euclidean, 0.5, 1.0, 5);
}

#[test]
fn ingest_matches_fresh_build_strings() {
    assert_ingest_matches_fresh(string_points(), Levenshtein, 1.0, 2.0, 3);
}

/// Readers pinned to old snapshots must see byte-identical results
/// across repeated queries while a writer keeps publishing epochs.
#[test]
fn concurrent_readers_on_old_snapshots_are_unaffected_by_ingest() {
    let points = vector_points();
    let quarter = points.len() / 4;
    let engine = Arc::new(build(
        points[..quarter].to_vec(),
        Euclidean,
        0.5,
        2,
        PruningConfig::default(),
    ));
    let params = DbscanParams::new(1.0, 5).unwrap();
    let aparams = ApproxParams::new(1.0, 5, 1.0).unwrap();

    std::thread::scope(|scope| {
        // Writer: three more batches, one epoch each.
        let writer_engine = Arc::clone(&engine);
        let writer_points = &points;
        let writer = scope.spawn(move || {
            for b in 1..4 {
                let batch = writer_points[b * quarter..(b + 1) * quarter].to_vec();
                let report = writer_engine.ingest(batch).unwrap();
                assert_eq!(report.epoch, b as u64);
            }
        });
        // Readers: pin a snapshot, query it repeatedly, and require
        // byte-stability no matter what the writer publishes meanwhile.
        let mut readers = Vec::new();
        for r in 0..4 {
            let reader_engine = Arc::clone(&engine);
            readers.push(scope.spawn(move || {
                let snap = reader_engine.snapshot();
                let epoch = snap.epoch();
                let n = snap.num_points();
                let first_exact = snap.exact(&params).unwrap();
                let first_approx = snap.approx(&aparams).unwrap();
                for _ in 0..3 {
                    let again = snap.exact(&params).unwrap();
                    assert_eq!(again.report.epoch, epoch, "reader {r}");
                    assert_eq!(
                        again.clustering, first_exact.clustering,
                        "reader {r}: epoch-{epoch} exact result drifted"
                    );
                    assert_eq!(
                        snap.approx(&aparams).unwrap().clustering,
                        first_approx.clustering,
                        "reader {r}: epoch-{epoch} approx result drifted"
                    );
                    assert_eq!(snap.num_points(), n, "reader {r}");
                }
                (epoch, n, first_exact.clustering)
            }));
        }
        writer.join().unwrap();
        // Every pinned epoch must equal a fresh build over its prefix.
        for reader in readers {
            let (_, n, labels) = reader.join().unwrap();
            let fresh = build(
                points[..n].to_vec(),
                Euclidean,
                0.5,
                2,
                PruningConfig::default(),
            );
            assert_eq!(labels, fresh.exact(&params).unwrap().clustering);
        }
    });

    // And the final engine equals the full fresh build.
    assert_eq!(engine.epoch(), 3);
    let fresh = build(points.clone(), Euclidean, 0.5, 2, PruningConfig::default());
    assert_eq!(
        engine.exact(&params).unwrap().clustering,
        fresh.exact(&params).unwrap().clustering
    );
}

/// Cache hits must never cross epochs; cross-epoch reuse shows up only
/// in the `upgrades` counter.
#[test]
fn cache_hit_counters_never_cross_epochs() {
    let points = vector_points();
    let half = points.len() / 2;
    let engine = build(
        points[..half].to_vec(),
        Euclidean,
        0.5,
        1,
        PruningConfig::default(),
    );
    let params = DbscanParams::new(1.0, 5).unwrap();

    let snap0 = engine.snapshot();
    let cold = snap0.exact(&params).unwrap();
    assert!(!cold.report.cache_hit);
    assert!(snap0.exact(&params).unwrap().report.cache_hit);
    let hits_epoch0 = engine.cache_stats().hits;

    engine.ingest(points[half..].to_vec()).unwrap();
    let post = engine.exact(&params).unwrap();
    assert_eq!(post.report.epoch, 1);
    assert!(
        !post.report.cache_hit,
        "epoch-1 query must not hit epoch-0 artifacts"
    );
    let stats = engine.cache_stats();
    assert!(
        stats.upgrades > 0,
        "expected an incremental upgrade instead"
    );
    assert_eq!(
        stats.hits, hits_epoch0,
        "ingest must not mint cross-epoch hits"
    );

    // The pinned epoch-0 snapshot still hits its own artifacts...
    let old = snap0.exact(&params).unwrap();
    assert!(old.report.cache_hit);
    assert_eq!(old.clustering, cold.clustering);
    // ...and a repeat at epoch 1 hits the (freshly upgraded) epoch-1 entry.
    let warm = engine.exact(&params).unwrap();
    assert!(warm.report.cache_hit);
    assert_eq!(warm.clustering, post.clustering);
}

/// Every merge makes exactly the sequential loop's pair tests, so the
/// merge work counters never vary with the thread count: Step-2 BCP
/// tests (exact and cover-tree pipelines), the Algorithm-2 and streaming
/// summary merges' tested pairs, every pruning ledger, and the counted
/// distance evaluations all equal their 1-thread values.
#[test]
fn parallel_bcp_tests_never_exceed_sequential() {
    let points = blobs(
        &BlobSpec {
            n: 1500,
            dim: 2,
            clusters: 4,
            std: 1.0,
            center_box: 25.0,
            outlier_frac: 0.05,
        },
        7,
    )
    .into_parts()
    .0;
    let params = DbscanParams::new(1.0, 5).unwrap();
    // ρ = 1 keeps one r̄ valid for exact (r̄ ≤ ε/2) and approx (r̄ ≤ ρε/2).
    let aparams = ApproxParams::new(1.0, 5, 1.0).unwrap();
    for pruning in [PruningConfig::off(), PruningConfig::default()] {
        let mut reference = None;
        for threads in [1usize, 2, 3, 8] {
            // No cache: every query does all of its work.
            let engine = MetricDbscan::builder(points.clone(), CountingMetric::new(Euclidean))
                .rbar(0.5)
                .net_strategy(NetStrategy::RadiusGuided)
                .parallel(ParallelConfig::new(threads))
                .pruning(pruning)
                .cache_capacity(0)
                .build()
                .unwrap();
            engine.metric().reset();
            let mut counters = Vec::new();
            for solver in ["exact", "covertree", "approx", "streaming"] {
                let run = match solver {
                    "exact" => engine.exact(&params),
                    "covertree" => engine.covertree(&params),
                    "approx" => engine.approx(&aparams),
                    _ => engine.streaming(&aparams),
                }
                .unwrap();
                let tested = match &run.report.detail {
                    RunDetail::Exact(s) => s.bcp_tests,
                    RunDetail::CoverTree(s) => s.steps.bcp_tests,
                    RunDetail::Approx(s) => s.merge_pairs_tested,
                    RunDetail::Streaming { stats, .. } => stats.merge_pairs_tested,
                    _ => unreachable!("one detail per solver"),
                };
                let evals = engine.metric().reset();
                counters.push((solver, tested, run.report.pruning, evals));
            }
            match &reference {
                None => {
                    for &(solver, tested, _, _) in &counters {
                        assert!(tested > 0, "{solver}: the merge tested no pair");
                    }
                    reference = Some(counters);
                }
                Some(r) => assert_eq!(
                    &counters, r,
                    "threads={threads} pruning={}: merge work differs from 1 thread",
                    pruning.enabled
                ),
            }
        }
    }
}

/// Lazy epoch publication (PR 5): `ingest`/`ingest_one` defer the O(n)
/// store/cover flatten to the first post-batch read, so point-at-a-time
/// feeding is O(n) total in copies instead of O(n²) — with the
/// determinism contract untouched.
#[test]
fn point_at_a_time_feeding_publishes_lazily_and_stays_deterministic() {
    let points = vector_points();
    let (seed, rest) = points.split_at(40);
    let engine = build(seed.to_vec(), Euclidean, 0.5, 1, PruningConfig::default());
    assert_eq!(engine.publish_count(), 0, "the build itself is epoch 0");

    // Feed one point at a time; counter reads must not force flattens.
    for (i, p) in rest.iter().enumerate() {
        let report = engine.ingest_one(p.clone()).unwrap();
        assert_eq!(report.epoch, i as u64 + 1);
        assert_eq!(engine.epoch(), i as u64 + 1);
        assert_eq!(engine.num_points(), seed.len() + i + 1);
    }
    assert_eq!(
        engine.publish_count(),
        0,
        "no read happened yet, so no O(n) flatten may have been paid"
    );

    // The first real read publishes exactly once, no matter how many
    // batches piled up...
    let params = DbscanParams::new(1.0, 5).unwrap();
    let lazy = engine.exact(&params).unwrap();
    assert_eq!(engine.publish_count(), 1);
    assert_eq!(lazy.report.epoch, rest.len() as u64);

    // ...and the published state is bit-identical to a fresh
    // radius-guided build over the full sequence (the PR-4 contract).
    let fresh = build(points.clone(), Euclidean, 0.5, 1, PruningConfig::default());
    assert_eq!(engine.net_arc().centers, fresh.net_arc().centers);
    assert_eq!(
        lazy.clustering,
        fresh.exact(&params).unwrap().clustering,
        "lazy publication must not change what is published"
    );

    // Repeated reads at the same epoch never republish; a later batch
    // republishes once on its next read.
    engine.exact(&params).unwrap();
    assert_eq!(engine.publish_count(), 1);
    engine.ingest(Vec::<Vec<f64>>::new()).unwrap();
    assert_eq!(engine.publish_count(), 1, "empty batches publish nothing");
    engine.ingest_one(points[0].clone()).unwrap();
    assert_eq!(engine.publish_count(), 1);
    engine.snapshot();
    assert_eq!(engine.publish_count(), 2);
}
