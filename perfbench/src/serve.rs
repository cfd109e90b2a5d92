//! `serve-mixed`: a deployed replica. A 100k-point 2-D engine is saved
//! as a self-contained checkpoint, booted into an in-process `Server`,
//! and driven over loopback TCP by two closed-loop clients, each with
//! its own seeded schedule of queries and ingest batches. Measured warm,
//! in steady state. See `perfbench/README.md` for why the mix has no
//! `streaming` queries.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdbscan_core::{
    ApproxParams, CandidateIndex, DbscanParams, MetricDbscan, MetricsRecorder, NetStrategy,
    ParallelConfig,
};
use mdbscan_eval::adjusted_rand_index;
use mdbscan_metric::VectorBlock;
use mdbscan_obs::{HistogramSnapshot, Registry};
use mdbscan_serve::protocol::{QueryReply, Response};
use mdbscan_serve::{Client, ServeConfig, Server, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{labels_hash, median, supported_tail, Report};
use crate::trace::Tracer;
use crate::THREADS;

type Engine = MetricDbscan<u32, VectorBlock<f64>>;

/// Points in the booted engine (ROADMAP's end-to-end bar is n ≥ 100k).
const N0: usize = 100_000;
const RHO: f64 = 0.5;
/// ρε/2 at the smallest ε the mix sends (1.0).
const RBAR: f64 = 0.25;
const CLIENTS: usize = 2;
/// Schedule blocks pre-generated per client; a run stops at its
/// deadline long before a client exhausts them.
const BLOCKS: usize = 40;
const INGEST_BATCH: usize = 1_000;
/// Boots per untraced run; `setup_s` is their median.
const BOOT_REPS: usize = 9;
const SAVE_REPS: usize = 3;

/// The hot set: `(solver, ε, MinPts)` triples most queries repeat.
const HOT: [(usize, f64, usize); 6] = [
    (0, 1.0, 10),
    (1, 1.0, 10),
    (2, 1.0, 10),
    (0, 1.5, 20),
    (1, 1.5, 20),
    (2, 1.5, 20),
];
const SOLVER_NAMES: [&str; 3] = ["exact", "approx", "covertree"];

fn solver(s: usize) -> Solver {
    match s {
        0 => Solver::Exact,
        1 => Solver::Approx(RHO),
        _ => Solver::CoverTree,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Query {
        solver: usize,
        eps: f64,
        min_pts: usize,
        /// From the hot set (else a fresh MinPts or a fresh ε).
        hot: bool,
    },
    /// Appends the next `INGEST_BATCH` ids of the client's reserve.
    Ingest,
}

/// One client's seeded schedule, in shuffled blocks of 49 ops with a
/// fixed make-up: 1 ingest batch (2 %) and 48 queries, of which 36 repeat
/// the hot set (75 %), 9 take a fresh MinPts at a hot ε (19 %; the
/// ε-keyed adjacency is reused) and 3 a fresh ε (6 %; a full miss
/// through the grid), spread evenly over the three solvers. Fixing each
/// block's make-up keeps the share of expensive ops, and with it the
/// throughput, from varying with the seed; the seed picks the order
/// and the fresh parameters.
fn schedule(seed: u64, client: usize) -> Vec<Op> {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(seed ^ (0xc11e_0000 + client as u64));
    let mut ops = Vec::with_capacity(BLOCKS * 49);
    for _ in 0..BLOCKS {
        let mut block = vec![Op::Ingest];
        for (s, eps, min_pts) in HOT {
            for _ in 0..6 {
                block.push(Op::Query {
                    solver: s,
                    eps,
                    min_pts,
                    hot: true,
                });
            }
        }
        for s in 0..SOLVER_NAMES.len() {
            for _ in 0..3 {
                let (_, eps, hot_min_pts) = HOT[s + 3 * rng.random_range(0..2usize)];
                let mut min_pts = rng.random_range(5..60usize);
                if min_pts == hot_min_pts {
                    min_pts += 1;
                }
                block.push(Op::Query {
                    solver: s,
                    eps,
                    min_pts,
                    hot: false,
                });
            }
            // ε in (1, 2), never the hot 1.5.
            let k = rng.random_range(1..999u32);
            let eps = 1.0 + f64::from(k + u32::from(k >= 500)) / 1000.0;
            let min_pts = HOT[s + 3 * rng.random_range(0..2usize)].2;
            block.push(Op::Query {
                solver: s,
                eps,
                min_pts,
                hot: false,
            });
        }
        block.shuffle(&mut rng);
        ops.extend(block);
    }
    ops
}

/// Per-op outcome of a closed loop.
#[derive(Debug, Default)]
struct LoopStats {
    /// `(solver, hot, seconds)` of each successful query.
    queries: Vec<(usize, bool, f64)>,
    /// Seconds of each successful ingest call.
    ingests: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall: f64,
}

/// The shared inputs: the block (base rows then every client's reserve
/// rows) and each client's reserve id range.
struct Inputs {
    block: VectorBlock<f64>,
    reserves: Vec<std::ops::Range<u32>>,
    schedules: Vec<Vec<Op>>,
}

fn inputs(seed: u64) -> Inputs {
    let schedules: Vec<Vec<Op>> = (0..CLIENTS).map(|c| schedule(seed, c)).collect();
    let reserve_sizes: Vec<usize> = schedules
        .iter()
        .map(|s| s.iter().filter(|o| matches!(o, Op::Ingest)).count() * INGEST_BATCH)
        .collect();
    let total = N0 + reserve_sizes.iter().sum::<usize>();
    // The generator emits its 1 % outliers last; shuffle so the base and
    // every reserve draw from the same mixture.
    let mut rows = crate::batch::lowdim_points(total, seed);
    {
        use rand::seq::SliceRandom;
        rows.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5bff));
    }
    rows.truncate(total);
    let mut reserves = Vec::new();
    let mut next = N0 as u32;
    for size in reserve_sizes {
        reserves.push(next..next + size as u32);
        next += size as u32;
    }
    Inputs {
        block: VectorBlock::<f64>::from_rows(&rows),
        reserves,
        schedules,
    }
}

/// Runs every client's schedule against `addr` until `seconds` pass.
fn closed_loop(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> LoopStats {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<LoopStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || run_client(c, addr, inputs, deadline, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopStats {
        wall: started.elapsed().as_secs_f64(),
        ..LoopStats::default()
    };
    for st in per_client {
        all.queries.extend(st.queries);
        all.ingests.extend(st.ingests);
        all.attempted += st.attempted;
        all.failed += st.failed;
    }
    all
}

/// Client `c`'s closed loop: its schedule in order until `deadline`,
/// one request at a time. Each reply is checked: one label per point at
/// its epoch, and each ingest report names its batch.
fn run_client(
    c: usize,
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> LoopStats {
    let body = |parent: Option<u64>| {
        let mut client = Client::<u32>::new(addr);
        let mut next_id = inputs.reserves[c].start;
        let mut st = LoopStats::default();
        for (i, op) in inputs.schedules[c].iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let op_id = ((c as u64) << 32) | i as u64;
            let ok = match op {
                Op::Query {
                    solver: s,
                    eps,
                    min_pts,
                    hot,
                } => {
                    let name = format!("serve.query.{}", SOLVER_NAMES[*s]);
                    let (res, secs) = timed(tracer, parent, name, op_id, || {
                        client.query(solver(*s), *eps, *min_pts)
                    });
                    match &res {
                        Ok(r) if reply_ok(r) => st.queries.push((*s, *hot, secs)),
                        Ok(r) => eprintln!(
                            "perfbench: reply at epoch {} has {} labels",
                            r.epoch,
                            r.labels.len()
                        ),
                        Err(e) => eprintln!("perfbench: query failed: {e}"),
                    }
                    res.is_ok_and(|r| reply_ok(&r))
                }
                Op::Ingest => {
                    let ids: Vec<u32> = (next_id..next_id + INGEST_BATCH as u32).collect();
                    next_id += INGEST_BATCH as u32;
                    let (res, secs) =
                        timed(tracer, parent, "serve.ingest", op_id, || client.ingest(ids));
                    // Every batch adds exactly INGEST_BATCH points.
                    let ok = res.as_ref().is_ok_and(|r| {
                        r.added_points == INGEST_BATCH as u64
                            && r.num_points == (N0 + INGEST_BATCH * r.epoch as usize) as u64
                    });
                    if ok {
                        st.ingests.push(secs);
                    } else {
                        eprintln!("perfbench: ingest failed: {res:?}");
                    }
                    ok
                }
            };
            st.attempted += 1;
            st.failed += u64::from(!ok);
        }
        st
    };
    match tracer {
        Some(t) => t.span(format!("client.{c}"), None, None, |id| body(Some(id))),
        None => body(None),
    }
}

/// Times `f`, inside a span named `name` for operation `op` under
/// `parent` when tracing.
fn timed<R>(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    name: impl Into<String>,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let r = match tracer {
        Some(tr) => tr.span(name, parent, Some(op), |_| f()),
        None => f(),
    };
    (r, t.elapsed().as_secs_f64())
}

fn reply_ok(reply: &QueryReply) -> bool {
    reply.labels.len() == N0 + INGEST_BATCH * reply.epoch as usize
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: THREADS,
        ..ServeConfig::default()
    }
}

/// Loads the newest checkpoint, spawns a server over it, and waits for
/// its first reply. Returns the server, its engine, the load time, and
/// the boot time (load through first reply).
fn boot(
    dir: &Path,
    registry: Option<&Registry>,
) -> (Server<u32, VectorBlock<f64>>, Arc<Engine>, f64, f64) {
    let t = Instant::now();
    let (engine, _seq) =
        Engine::load_latest_self_contained(dir).expect("load the checkpoint just written");
    let load_s = t.elapsed().as_secs_f64();
    let (engine, server) = match registry {
        Some(reg) => {
            let engine = Arc::new(engine.with_recorder(MetricsRecorder::shared(reg)));
            let server = Server::spawn_with_registry(
                Arc::clone(&engine),
                "127.0.0.1:0",
                serve_config(),
                reg.clone(),
            );
            (engine, server)
        }
        None => {
            let engine = Arc::new(engine);
            (
                Arc::clone(&engine),
                Server::spawn(engine, "127.0.0.1:0", serve_config()),
            )
        }
    };
    let server = server.expect("bind a loopback port");
    Client::<u32>::new(server.local_addr())
        .stats()
        .expect("first reply from a freshly booted server");
    (server, engine, load_s, t.elapsed().as_secs_f64())
}

/// Sends each hot query once so the loop starts in steady state.
fn warm_up(addr: std::net::SocketAddr, report: &mut Report) {
    let mut client = Client::<u32>::new(addr);
    for (s, eps, min_pts) in HOT {
        let ok = client
            .query(solver(s), eps, min_pts)
            .is_ok_and(|r| reply_ok(&r));
        report.op(ok);
    }
}

/// One wire query per solver at the first hot parameters, compared
/// byte for byte with the same call on the in-process engine. Returns
/// the wire replies.
fn final_checks(
    addr: std::net::SocketAddr,
    engine: &Engine,
    report: &mut Report,
) -> Vec<Option<QueryReply>> {
    let mut client = Client::<u32>::new(addr);
    let (_, eps, min_pts) = HOT[0];
    (0..SOLVER_NAMES.len())
        .map(|s| {
            let wire = client.query(solver(s), eps, min_pts);
            let local = match s {
                0 => engine.exact(&DbscanParams::new(eps, min_pts).expect("valid hot params")),
                1 => {
                    engine.approx(&ApproxParams::new(eps, min_pts, RHO).expect("valid hot params"))
                }
                _ => engine.covertree(&DbscanParams::new(eps, min_pts).expect("valid hot params")),
            };
            let same = match (&wire, &local) {
                (Ok(w), Ok(l)) => {
                    let expected = Response::Labels(QueryReply {
                        epoch: l.report.epoch,
                        num_clusters: l.clustering.num_clusters() as u64,
                        labels: l.clustering.labels().to_vec(),
                    });
                    Response::Labels(w.clone()).encode() == expected.encode()
                }
                _ => false,
            };
            report.check(format!("{}.wire_matches_in_process", SOLVER_NAMES[s]), same);
            if let Ok(w) = &wire {
                report.counter(
                    format!("labels_hash.{}", SOLVER_NAMES[s]),
                    labels_hash(&w.labels),
                );
            }
            wire.ok()
        })
        .collect()
}

/// Counts the loop's ops (a reply that fails its check is a failed op)
/// and records its latency and throughput metrics.
fn record_loop(report: &mut Report, st: &LoopStats) {
    report.attempted += st.attempted;
    report.failed += st.failed;
    // Per solver, hot-set queries (engine cache hits, and upgrades after
    // an ingest) and fresh ones (misses) form two modes far apart; a
    // median over both lands between them and jumps from run to run, so
    // each mode gets its own median.
    for (s, name) in SOLVER_NAMES.iter().enumerate() {
        for (hot, metric) in [
            (true, format!("{name}_s")),
            (false, format!("{name}_fresh_s")),
        ] {
            let lat: Vec<f64> = st
                .queries
                .iter()
                .filter(|q| q.0 == s && q.1 == hot)
                .map(|q| q.2)
                .collect();
            report.metric(metric, median(&lat), "s", lat.len());
        }
    }
    let lat_ms: Vec<f64> = st.queries.iter().map(|q| q.2 * 1e3).collect();
    report.metric("query_p50_ms", median(&lat_ms), "ms", lat_ms.len());
    let (pct, tail) = supported_tail(&lat_ms);
    report.metric("query_p99_ms", tail, "ms", lat_ms.len());
    report.fact("query_tail_percentile", pct);
    report.metric(
        "queries_per_s",
        st.queries.len() as f64 / st.wall,
        "1/s",
        st.queries.len(),
    );
    let ingest_secs: f64 = st.ingests.iter().sum();
    report.metric(
        "ingest_points_per_s",
        (st.ingests.len() * INGEST_BATCH) as f64 / ingest_secs,
        "1/s",
        st.ingests.len(),
    );
}

fn approx_ari(report: &mut Report, wire: &[Option<QueryReply>]) {
    if let (Some(e), Some(a)) = (&wire[0], &wire[1]) {
        let assign = |r: &QueryReply| -> Vec<i32> {
            r.labels
                .iter()
                .map(|l| l.cluster().map_or(-1, |c| c as i32))
                .collect()
        };
        report.metric(
            "approx_ari",
            adjusted_rand_index(&assign(e), &assign(a)),
            "ratio",
            1,
        );
    }
}

pub fn serve_mixed(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = inputs(seed);
    report.fact("n0", N0);
    report.fact("block_rows", inputs.block.len());
    report.fact("clients", CLIENTS);
    report.fact("workers", THREADS);
    report.fact("seed", seed);

    let engine = MetricDbscan::builder((0..N0 as u32).collect::<Vec<u32>>(), inputs.block.clone())
        .rbar(RBAR)
        .net_strategy(NetStrategy::RadiusGuided)
        .candidate_index(CandidateIndex::Grid)
        .parallel(ParallelConfig::new(THREADS))
        .build()
        .expect("engine build on generated inputs");
    let dir = work_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    let mut saves = Vec::new();
    for _ in 0..if trace { SAVE_REPS } else { 1 } {
        let t = Instant::now();
        engine
            .save_checkpoint_self_contained(&dir)
            .expect("write the checkpoint under perfbench/out");
        saves.push(t.elapsed().as_secs_f64());
    }
    drop(engine);

    if trace {
        traced(&dir, &inputs, seconds, &saves, &mut report);
    } else {
        let mut boots = Vec::new();
        let mut booted = None;
        for _ in 0..BOOT_REPS {
            if let Some((server, _, _, _)) = booted.take() {
                Server::shutdown(server);
            }
            let b = boot(&dir, None);
            boots.push(b.3);
            booted = Some(b);
        }
        let (server, engine, _, _) = booted.expect("BOOT_REPS > 0");
        report.metric("setup_s", median(&boots), "s", boots.len());
        warm_up(server.local_addr(), &mut report);
        let st = closed_loop(server.local_addr(), &inputs, seconds as f64, None);
        record_loop(&mut report, &st);
        let wire = final_checks(server.local_addr(), &engine, &mut report);
        approx_ari(&mut report, &wire);
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn work_dir(seed: u64) -> PathBuf {
    Path::new(crate::OUT_DIR).join(format!("serve-ckpt-{seed}-{}", std::process::id()))
}

/// The traced run: half the time on an untraced replica, half on a
/// replica with the engine's phase recorder and client spans, both
/// booted from the same checkpoint and running the same schedules.
fn traced(dir: &Path, inputs: &Inputs, seconds: u64, saves: &[f64], report: &mut Report) {
    let half = seconds as f64 / 2.0;
    let (server, _, load_plain, _) = boot(dir, None);
    warm_up(server.local_addr(), report);
    let plain = closed_loop(server.local_addr(), inputs, half, None);
    server.shutdown();

    let tracer = Tracer::new();
    let registry = Registry::new();
    let (server, engine, load_traced, _) =
        tracer.span("persist.load+serve.boot", None, None, |_| {
            boot(dir, Some(&registry))
        });
    let addr = server.local_addr();
    warm_up(addr, report);
    let cache0 = engine.cache_stats();
    let stats0 = Client::<u32>::new(addr).stats().expect("stats op");
    let metrics0 = Client::<u32>::new(addr).metrics().expect("metrics op");
    let st = closed_loop(addr, inputs, half, Some(&tracer));
    let stats1 = Client::<u32>::new(addr).stats().expect("stats op");
    let metrics1 = Client::<u32>::new(addr).metrics().expect("metrics op");
    let cache1 = engine.cache_stats();
    let wire = final_checks(addr, &engine, report);
    server.shutdown();

    record_loop(report, &plain);
    record_loop(report, &st);
    let mean_lat =
        |s: &LoopStats| s.queries.iter().map(|q| q.2).sum::<f64>() / s.queries.len().max(1) as f64;
    report.metric(
        "obs.trace_overhead_frac",
        mean_lat(&st) / mean_lat(&plain) - 1.0,
        "ratio",
        st.queries.len() + plain.queries.len(),
    );

    let frac = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    report.metric(
        "engine.cache_hit_frac",
        frac(cache1.hits - cache0.hits, cache1.misses - cache0.misses),
        "ratio",
        (cache1.hits + cache1.misses - cache0.hits - cache0.misses) as usize,
    );
    report.metric(
        "engine.adjacency_hit_frac",
        frac(
            cache1.adjacency_hits - cache0.adjacency_hits,
            cache1.adjacency_misses - cache0.adjacency_misses,
        ),
        "ratio",
        (cache1.adjacency_hits + cache1.adjacency_misses
            - cache0.adjacency_hits
            - cache0.adjacency_misses) as usize,
    );
    report.metric(
        "engine.upgrades",
        (cache1.upgrades - cache0.upgrades) as f64,
        "count",
        1,
    );
    // Server histograms over the measured loop only (the warm-up's cold
    // queries stay out).
    let hist_delta = |name: &str| {
        let h1 = metrics1.histograms.get(name).cloned().unwrap_or_default();
        let h0 = metrics0.histograms.get(name).cloned().unwrap_or_default();
        HistogramSnapshot {
            buckets: h1
                .buckets
                .iter()
                .zip(&h0.buckets)
                .map(|(a, b)| a - b)
                .collect(),
            sum: h1.sum - h0.sum,
            count: h1.count - h0.count,
        }
    };
    let ingest = hist_delta("mdbscan_phase_ingest_batch_micros");
    report.metric(
        "engine.ingest_s",
        ingest.mean() / 1e6,
        "s",
        ingest.count as usize,
    );

    let cells = stats1.grid_cells_probed - stats0.grid_cells_probed;
    let emitted = stats1.grid_candidates_emitted - stats0.grid_candidates_emitted;
    let rejected = stats1.grid_candidates_rejected - stats0.grid_candidates_rejected;
    report.metric("grid.cells_probed", cells as f64, "count", 1);
    report.metric("grid.candidates_emitted", emitted as f64, "count", 1);
    report.metric(
        "grid.reject_frac",
        rejected as f64 / (emitted + rejected).max(1) as f64,
        "ratio",
        1,
    );

    report.metric("persist.save_s", median(saves), "s", saves.len());
    report.metric("persist.load_s", median(&[load_plain, load_traced]), "s", 2);
    let artifact_bytes = std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    report.metric("persist.artifact_bytes", artifact_bytes as f64, "B", 1);
    let copied = engine.load_stats().map_or(0, |s| s.bytes_copied());
    report.metric("persist.bytes_copied", copied as f64, "B", 1);
    report.counter("persist.bytes_copied", copied);
    report.metric("kcenter.centers", engine.num_centers() as f64, "count", 1);

    let request = hist_delta("serve_request_micros");
    let queue_wait = hist_delta("serve_queue_wait_micros");
    let ms = |us: u64| us as f64 / 1e3;
    let served = request.count as usize;
    report.metric(
        "serve.request_p50_ms",
        ms(request.quantile(0.5)),
        "ms",
        served,
    );
    report.metric(
        "serve.request_p99_ms",
        ms(request.quantile(0.99)),
        "ms",
        served,
    );
    report.metric(
        "serve.queue_wait_p99_ms",
        ms(queue_wait.quantile(0.99)),
        "ms",
        served,
    );
    report.metric("serve.shed", (stats1.shed - stats0.shed) as f64, "count", 1);
    let client_ms: f64 =
        (st.queries.iter().map(|q| q.2).sum::<f64>() + st.ingests.iter().sum::<f64>()) * 1e3
            / (st.queries.len() + st.ingests.len()).max(1) as f64;
    report.metric(
        "serve.wire_ms",
        client_ms - request.mean() / 1e3,
        "ms",
        served,
    );
    let reply_bytes = wire[0]
        .as_ref()
        .map_or(0, |r| Response::Labels(r.clone()).encode().len());
    report.metric("serve.reply_bytes", reply_bytes as f64, "B", 1);
    approx_ari(report, &wire);
    crate::write_spans(&tracer, report);
}
