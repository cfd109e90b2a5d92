//! What one benchmark run reports: metrics with units and sample
//! counts, exact deterministic counters, output checks, and the host
//! header. Renders the human summary, the JSON record written under
//! `perfbench/out/`, and the one-line result the last stdout line
//! carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mdbscan_core::PointLabel;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes (1 for a count).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Deterministic counters: equal on every run of the same code with
    /// the same seed, so two records can be compared for equality.
    pub counters: BTreeMap<String, u64>,
    /// Output checks, in the order they ran.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted; each failed check or failed operation also
    /// counts in `failed`.
    pub attempted: u64,
    pub failed: u64,
    /// Free-form workload facts for the record (sizes, parameters).
    pub facts: BTreeMap<String, String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.insert(name.to_string(), value.to_string());
    }

    /// Records a check; a failed check is a failed operation.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        if !passed {
            eprintln!("perfbench: check failed: {name}");
        }
        self.attempted += 1;
        self.failed += u64::from(!passed);
        self.checks.push((name, passed));
    }

    /// Counts one operation outside the checks (a query or an ingest).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then counters and checks.
    pub fn summary(&self, header: &Header) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# {}", header.line());
        for (name, m) in &self.metrics {
            let _ = writeln!(
                s,
                "{name:<40} {:>16.6} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            s,
            "{:<40} {:>16.6} {:<6} n={}",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.attempted
        );
        for (name, v) in &self.counters {
            let _ = writeln!(s, "counter {name} = {v}");
        }
        let passed = self.checks.iter().filter(|(_, ok)| *ok).count();
        let _ = writeln!(s, "checks {passed}/{} passed", self.checks.len());
        s
    }

    /// The full JSON record: header, facts, metrics with sample counts,
    /// counters, and checks.
    pub fn record_json(&self, header: &Header) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"header\": {},", header.json());
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let _ = writeln!(s, "  \"facts\": {{{}}},", facts.join(", "));
        let _ = writeln!(s, "  \"metrics\": {{");
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, m)| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(k),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples
                )
            })
            .collect();
        let _ = writeln!(s, "{}\n  }},", rows.join(",\n"));
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("    {}: {v}", json_str(k)))
            .collect();
        let _ = writeln!(s, "  \"counters\": {{\n{}\n  }},", counters.join(",\n"));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok)| format!("    {}: {ok}", json_str(k)))
            .collect();
        let _ = writeln!(s, "  \"checks\": {{\n{}\n  }},", checks.join(",\n"));
        let _ = writeln!(
            s,
            "  \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}",
            self.attempted,
            self.failed,
            json_num(self.failed_frac())
        );
        s.push_str("}\n");
        s
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and the
    /// named metrics as `{value, unit}`.
    pub fn result_line(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let m = self.metrics.get(*name).unwrap_or_else(|| {
                    panic!("metric {name} was not measured; every run reports every metric")
                });
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host and run header carried by every record.
#[derive(Debug, Clone)]
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub nproc: usize,
    pub git_rev: String,
    pub git_dirty: Option<bool>,
    pub profile: &'static str,
}

impl Header {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool, threads: usize) -> Self {
        let (git_rev, git_dirty) = git_state();
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            threads,
            nproc: mdbscan_parallel::ParallelConfig::available(),
            git_rev,
            git_dirty,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn dirty_str(&self) -> &'static str {
        match self.git_dirty {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        }
    }

    pub fn line(&self) -> String {
        format!(
            "workload={} seed={} seconds={} trace={} threads={} nproc={} git={} dirty={} profile={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.threads,
            self.nproc,
            self.git_rev,
            self.dirty_str(),
            self.profile
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \
             \"nproc\": {}, \"git_rev\": {}, \"git_dirty\": {}, \"profile\": {}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.threads,
            self.nproc,
            json_str(&self.git_rev),
            self.dirty_str(),
            json_str(self.profile)
        )
    }
}

/// Revision and dirty flag when the working directory is a git
/// checkout; `("unknown", None)` otherwise (an exported tree has no
/// history to report).
fn git_state() -> (String, Option<bool>) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".to_string(), None);
    }
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = run(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (rev, dirty)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile (in whole percent, at most 99) that still has
/// at least ten samples beyond it, with its value — the tail a sample of
/// this size can support.
pub fn supported_tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    let mut pct = 99u32;
    while pct > 50 && (n as f64 * (1.0 - f64::from(pct) / 100.0)) < 10.0 {
        pct -= 1;
    }
    (pct, quantile(xs, f64::from(pct) / 100.0))
}

/// FNV-1a over a label vector: equal hashes ⇔ (with overwhelming
/// probability) bit-identical labels.
pub fn labels_hash(labels: &[PointLabel]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for l in labels {
        let (tag, id) = match l {
            PointLabel::Noise => (0u8, 0u32),
            PointLabel::Core(c) => (1, *c),
            PointLabel::Border(c) => (2, *c),
        };
        eat(tag);
        id.to_le_bytes().into_iter().for_each(&mut eat);
    }
    h
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
