//! The metric catalog and the result a run reports.
//!
//! Every workload reports every end-to-end metric (tracing off) or every
//! per-layer metric (tracing on); the catalog below is the single list, and
//! a test holds it equal to `BENCHMARK.json`. Per-layer timings that a
//! workload may not exercise at all are shares of its wall time (`%`), so
//! a layer a workload bypasses reads 0 % rather than a fabricated time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::Breakdown;
use crate::stats::Summary;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_ms", "ms"),
    ("cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Experiment ids of `repro all`, in paper order (a test holds this equal
/// to `biaslab_bench::EXPERIMENTS`).
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "fig10",
    "abl-align",
    "abl-aslr",
    "abl-machine",
    "abl-warmup",
    "abl-prefetch",
    "ext-analyze",
    "ext-lint",
];

/// Span names whose self time the breakdown reports.
const SPAN_SHARES: &[&str] = &[
    "compile",
    "link",
    "load",
    "run",
    "stat",
    "measure",
    "sweep",
    "experiment",
];

/// `(name, unit)` of every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("toolchain.optimize_ms", "ms"),
        ("toolchain.codegen_ms", "ms"),
        ("toolchain.link_ms", "ms"),
        ("toolchain.load_us", "us"),
        ("uarch.run_ms", "ms"),
        ("uarch.run_mips", "Minst/s"),
        ("workloads.expected_ms", "ms"),
        ("workloads.expected_ref_ms", "ms"),
        ("workloads.lookup_us", "us"),
        ("orchestrator.load_ms", "ms"),
        ("orchestrator.save_ms", "ms"),
        ("serve.parse_us", "us"),
        ("serve.encode_us", "us"),
        ("serve.verify_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    v.extend(SPAN_SHARES.iter().map(|s| (format!("span.{s}_pct"), "%")));
    for (n, u) in [
        ("persist.load_pct", "%"),
        ("persist.save_pct", "%"),
        ("outside_spans_pct", "%"),
        ("unattributed_pct", "%"),
        ("telemetry.overhead_pct", "%"),
    ] {
        v.push((n.to_owned(), u));
    }
    v.extend(EXPERIMENT_IDS.iter().map(|e| (format!("exp.{e}_pct"), "%")));
    for (n, u) in [
        ("orchestrator.records", "count"),
        ("orchestrator.hits", "count"),
        ("orchestrator.misses", "count"),
        ("orchestrator.simulated", "count"),
        ("orchestrator.hit_rate", "ratio"),
        ("orchestrator.dup_sims", "count"),
        ("orchestrator.parallel_eff", "ratio"),
        ("uarch.blockcache_hit_rate", "ratio"),
        ("analyze.lint_passes", "count"),
        ("analyze.findings", "count"),
        ("serve.hit_rate", "ratio"),
        ("serve.busy_share", "ratio"),
        ("serve.queue_depth_max", "count"),
        ("serve.shed", "count"),
    ] {
        v.push((n.to_owned(), u));
    }
    v
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty when every output was right.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, Summary>,
    /// Further human-readable lines (digests, latency detail).
    pub details: Vec<String>,
}

impl Outcome {
    /// Records `name` as the summary of `samples` (ignored when empty).
    pub fn put(&mut self, name: &str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.metrics.insert(name.to_owned(), s);
        }
    }

    /// Records the end-to-end time `name` from raw `samples`, each scaled to
    /// the reference host speed by its own factor (see `calib`), keeping
    /// the raw median as a detail line.
    pub fn put_scaled(&mut self, name: &str, samples: &[f64], factors: &[f64]) {
        assert_eq!(samples.len(), factors.len(), "one factor per sample");
        let scaled: Vec<f64> = samples.iter().zip(factors).map(|(v, f)| v * f).collect();
        self.put(name, &scaled);
        if let Some(raw) = Summary::of(samples) {
            self.details.push(format!(
                "raw {name} median={} q1={} q3={} n={}",
                raw.median, raw.q1, raw.q3, raw.n
            ));
        }
    }

    /// Records `name` as one measured value.
    pub fn put_value(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), Summary::single(value));
    }

    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Span shares of `wall_us` (summed over threads, like `top`'s CPU%)
    /// plus the time no span covers, from a breakdown summed over traced
    /// operations whose walls sum to `wall_us`.
    pub fn put_span_shares(&mut self, b: &Breakdown, wall_us: f64) {
        let pct = |us: u64| 100.0 * us as f64 / wall_us;
        for s in SPAN_SHARES {
            self.put_value(&format!("span.{s}_pct"), pct(b.self_of(s)));
        }
        for e in EXPERIMENT_IDS {
            let us = b.experiment_us.get(*e).copied().unwrap_or(0);
            self.put_value(&format!("exp.{e}_pct"), pct(us));
        }
        let outside = if b.experiment_us.is_empty() {
            b.covered_us
        } else {
            b.experiments_covered_us
        };
        self.put_value("outside_spans_pct", 100.0 - pct(outside));
    }

    /// Counter-derived per-layer metrics from orchestrator, simulator,
    /// analyzer and serve counters summed over `ops` operations; counts are
    /// reported per operation.
    pub fn put_counters(&mut self, c: &BTreeMap<String, u64>, ops: f64, threads: f64) {
        let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (hits, misses) = (get("orch.hits"), get("orch.misses"));
        self.put_value("orchestrator.hits", hits / ops);
        self.put_value("orchestrator.misses", misses / ops);
        self.put_value("orchestrator.simulated", get("orch.simulated") / ops);
        self.put_value("orchestrator.hit_rate", ratio(hits, hits + misses));
        let unique = get("orch.cached") - get("orch.loaded");
        self.put_value(
            "orchestrator.dup_sims",
            (get("orch.simulated") - unique).max(0.0) / ops,
        );
        self.put_value(
            "orchestrator.parallel_eff",
            ratio(get("orch.busy_us"), get("orch.sweep_wall_us") * threads),
        );
        let (bh, bm) = (get("uarch.blockcache.hit"), get("uarch.blockcache.miss"));
        self.put_value("uarch.blockcache_hit_rate", ratio(bh, bh + bm));
        self.put_value("analyze.lint_passes", get("analyze.lint.passes_run") / ops);
        self.put_value("analyze.findings", get("analyze.lint.findings") / ops);
    }

    /// The serve metrics of a workload that never talks to the daemon.
    pub fn put_serve_bypassed(&mut self) {
        for m in [
            "serve.hit_rate",
            "serve.busy_share",
            "serve.queue_depth_max",
            "serve.shed",
        ] {
            self.put_value(m, 0.0);
        }
    }

    /// The per-metric report lines: name, unit, median, q1, q3, n.
    pub fn lines(&self, workload: &str, catalog: &[(String, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in catalog {
            if let Some(s) = self.metrics.get(name) {
                let _ = writeln!(
                    out,
                    "{workload:<14} {name:<28} {unit:<8} median={:<12.6} q1={:<12.6} q3={:<12.6} n={}",
                    s.median, s.q1, s.q3, s.n
                );
            }
        }
        out
    }

    /// The result line: the catalog's metrics by median. A catalog metric
    /// this run did not measure is a bug in the benchmark, not a result.
    pub fn json_line(&self, catalog: &[(String, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"))
                    .median;
                assert!(v.is_finite(), "metric `{name}` is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full report for `--out`: every metric with its quartiles and
    /// sample count, and the detail lines.
    pub fn full_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, s)| {
                format!(
                    "\"{n}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    s.median, s.q1, s.q3, s.n
                )
            })
            .collect();
        let details: Vec<String> = self
            .details
            .iter()
            .chain(&self.problems)
            .map(|d| format!("\"{}\"", d.replace(['"', '\\'], "'")))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"details\": [{}]}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            details.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each `"name": ..., "unit": ...` pair in one `BENCHMARK.json` list.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..json[start..].find(']').map(|e| start + e).unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
                    let rest = entry[at..].trim_start_matches([' ', ':']);
                    rest[1..rest[1..].find('"').unwrap() + 1].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn experiment_ids_match_the_suite() {
        let ids: Vec<&str> = biaslab_bench::EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids, EXPERIMENT_IDS);
    }

    #[test]
    fn result_line_reports_medians_by_catalog_order() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("wall_ms", &[3.0, 1.0, 2.0]);
        let catalog = vec![("wall_ms".to_owned(), "ms")];
        assert_eq!(
            o.json_line(&catalog),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_ms\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        o.failed = 1;
        assert!(!o.correct());
    }
}
