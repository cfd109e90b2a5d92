//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lowdim-blobs|highdim-embed|serve-mixed|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run prints a host header, every metric it measured with unit
//! and sample count, the deterministic counters, and the output checks;
//! its last stdout line is one JSON object with `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Each run also writes its full
//! record (and, traced, its spans) under `perfbench/out/`.
//! `--workload all` runs every workload untraced, then traced.

mod batch;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use report::{peak_rss_mb, Header, Report};
use trace::Tracer;

/// Worker threads for every solver and for the server (the benchmark
/// host has two cores).
pub const THREADS: usize = 2;
/// Where records, spans, and the served workload's checkpoints go,
/// relative to the checkout root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 3] = ["lowdim-blobs", "highdim-embed", "serve-mixed"];

/// End-to-end metrics: every workload reports each of them, untraced.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("exact_s", "s"),
    ("approx_s", "s"),
    ("covertree_s", "s"),
    ("approx_ari", "ratio"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a
/// layer reports its metrics as 0 with no samples.
const PER_LAYER: [(&str, &str); 65] = [
    ("metric.distance_evals.exact", "count"),
    ("metric.distance_evals.approx", "count"),
    ("metric.distance_evals.covertree", "count"),
    ("metric.distance_evals.streaming", "count"),
    ("metric.dist_many_ns_per_pair", "ns"),
    ("metric.dist_many_bytes_per_pair", "B"),
    ("kcenter.net_build_s", "s"),
    ("kcenter.centers", "count"),
    ("kcenter.adjacency_s.exact", "s"),
    ("kcenter.adjacency_s.approx", "s"),
    ("kcenter.adjacency_s.covertree", "s"),
    ("covertree.tree_s", "s"),
    ("core.step1_s.exact", "s"),
    ("core.step1_s.approx", "s"),
    ("core.step1_s.covertree", "s"),
    ("core.step1_s.streaming", "s"),
    ("core.step2_s.exact", "s"),
    ("core.step2_s.approx", "s"),
    ("core.step2_s.covertree", "s"),
    ("core.step2_s.streaming", "s"),
    ("core.step3_s.exact", "s"),
    ("core.step3_s.approx", "s"),
    ("core.step3_s.covertree", "s"),
    ("core.step3_s.streaming", "s"),
    ("core.step2_pairs_tested.exact", "count"),
    ("core.step2_pairs_tested.approx", "count"),
    ("core.step2_pairs_tested.covertree", "count"),
    ("core.step2_pairs_tested.streaming", "count"),
    ("core.pruning_decided_frac.exact", "ratio"),
    ("core.pruning_decided_frac.approx", "ratio"),
    ("core.pruning_decided_frac.covertree", "ratio"),
    ("core.pruning_decided_frac.streaming", "ratio"),
    ("core.streaming_footprint_points", "count"),
    ("parallel.speedup_t2.exact", "ratio"),
    ("parallel.speedup_t2.approx", "ratio"),
    ("parallel.speedup_t2.covertree", "ratio"),
    ("parallel.speedup_t2.streaming", "ratio"),
    ("grid.cells_probed", "count"),
    ("grid.candidates_emitted", "count"),
    ("grid.reject_frac", "ratio"),
    ("rp.index_build_s", "s"),
    ("rp.candidates_emitted.approx", "count"),
    ("rp.candidates_emitted.streaming", "count"),
    ("rp.reject_frac.approx", "ratio"),
    ("rp.reject_frac.streaming", "ratio"),
    ("engine.cache_hit_frac", "ratio"),
    ("engine.adjacency_hit_frac", "ratio"),
    ("engine.upgrades", "count"),
    ("engine.ingest_s", "s"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.artifact_bytes", "B"),
    ("persist.bytes_copied", "B"),
    ("serve.request_p50_ms", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.reply_bytes", "B"),
    ("serve.shed", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("e2e.streaming_s", "s"),
    ("e2e.streaming_ari", "ratio"),
    ("e2e.query_p99_ms", "ms"),
    ("e2e.ingest_points_per_s", "1/s"),
    ("e2e.failed_frac", "ratio"),
];

static SPANS_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Writes a traced run's spans next to its record.
pub fn write_spans(tracer: &Tracer, report: &mut Report) {
    let path = SPANS_PATH
        .get()
        .expect("spans path is set before any workload runs");
    match std::fs::write(path, tracer.to_json()) {
        Ok(()) => report.fact(
            "spans",
            format!("{} ({} spans)", path.display(), tracer.len()),
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = SPANS_PATH.set(PathBuf::from(OUT_DIR).join(format!("spans-{stem}.json")));
    let header = Header::new(&args.workload, args.seed, args.seconds, args.trace, THREADS);
    let mut report = match args.workload.as_str() {
        "lowdim-blobs" => batch::lowdim(args.seed, args.seconds, args.trace),
        "highdim-embed" => batch::highdim(args.seed, args.seconds, args.trace),
        _ => serve::serve_mixed(args.seed, args.seconds, args.trace),
    };
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    if args.trace {
        // The traced run also carries the end-to-end figures that are not
        // gated (see perfbench/README.md), as measured under tracing.
        for (from, to) in [
            ("streaming_s", "e2e.streaming_s"),
            ("streaming_ari", "e2e.streaming_ari"),
            ("query_p99_ms", "e2e.query_p99_ms"),
            ("ingest_points_per_s", "e2e.ingest_points_per_s"),
        ] {
            if let Some(m) = report.metrics.get(from).cloned() {
                report.metric(to, m.value, m.unit, m.samples);
            }
        }
        let frac = report.failed_frac();
        report.metric("e2e.failed_frac", frac, "ratio", report.attempted as usize);
        for (name, unit) in PER_LAYER {
            if !report.metrics.contains_key(name) {
                report.metric(name, 0.0, unit, 0);
            }
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        let got = report.metrics.get(*name).map(|m| m.unit);
        assert_eq!(got, Some(*unit), "metric {name} must be reported in {unit}");
    }
    let record = PathBuf::from(OUT_DIR).join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&record, report.record_json(&header)) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    print!("{}", report.summary(&header));
    let names: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    println!("{}", report.result_line(&names));
    ExitCode::SUCCESS
}

/// Runs every workload untraced, then traced, each in its own process
/// (so `peak_rss_mb` is per workload), relaying their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
