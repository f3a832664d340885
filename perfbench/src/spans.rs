//! Span aggregation over `core::telemetry` traces.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Children are linked by `parent` id and always
//! run on the parent's thread, so a root's self time plus every
//! descendant's self time equals the root's duration; the tests assert it.

use std::collections::{BTreeMap, HashMap};

use biaslab_core::telemetry::{SpanEvent, SPAN_NAMES};

/// The static span name equal to `s` (`"other"` for a foreign name).
pub fn name(s: &str) -> &'static str {
    SPAN_NAMES
        .iter()
        .find(|n| **n == s)
        .copied()
        .unwrap_or("other")
}

/// Total length of the union of half-open `[start, end)` intervals.
pub fn union_us(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            _ => {
                if let Some((os, oe)) = open {
                    total += oe - os;
                }
                open = Some((s, e));
            }
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

fn interval(s: &SpanEvent) -> (u64, u64) {
    (s.start_us, s.start_us + s.dur_us)
}

/// Self time of every span, in input order.
pub fn self_times(spans: &[SpanEvent]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(interval(s));
    }
    spans
        .iter()
        .map(|s| {
            let (start, end) = interval(s);
            let covered = children.get(&s.id).map_or(0, |c| {
                union_us(
                    c.iter()
                        .map(|&(cs, ce)| (cs.clamp(start, end), ce.clamp(start, end)))
                        .collect(),
                )
            });
            s.dur_us - covered
        })
        .collect()
}

/// Per-span-name self time, and the wall covered by the union of all span
/// intervals (on any thread).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    /// Summed self time per span name, microseconds.
    pub self_us: BTreeMap<&'static str, u64>,
    /// Summed duration of `experiment` spans per experiment id.
    pub experiment_us: BTreeMap<String, u64>,
    /// Length of the union of every span interval.
    pub covered_us: u64,
    /// Length of the union of `experiment` span intervals.
    pub experiments_covered_us: u64,
}

impl Breakdown {
    pub fn of(spans: &[SpanEvent]) -> Breakdown {
        let mut b = Breakdown::default();
        for (s, self_us) in spans.iter().zip(self_times(spans)) {
            *b.self_us.entry(s.name).or_default() += self_us;
            if s.name == "experiment" {
                *b.experiment_us.entry(s.bench.clone()).or_default() += s.dur_us;
            }
        }
        b.covered_us = union_us(spans.iter().map(interval).collect());
        b.experiments_covered_us = union_us(
            spans
                .iter()
                .filter(|s| s.name == "experiment")
                .map(interval)
                .collect(),
        );
        b
    }

    /// Adds another trace's breakdown (for sums over repeated traced runs).
    pub fn add(&mut self, other: &Breakdown) {
        for (k, v) in &other.self_us {
            *self.self_us.entry(k).or_default() += v;
        }
        for (k, v) in &other.experiment_us {
            *self.experiment_us.entry(k.clone()).or_default() += v;
        }
        self.covered_us += other.covered_us;
        self.experiments_covered_us += other.experiments_covered_us;
    }

    pub fn self_of(&self, name: &str) -> u64 {
        self.self_us.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    use biaslab_core::telemetry;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            name,
            scope: String::new(),
            bench: "fig1".to_owned(),
            worker: 0,
            key: 0,
            outcome: None,
            start_us: start,
            dur_us: dur,
        }
    }

    /// Asserts each root's self time plus its descendants' self times
    /// equals the root's duration.
    fn assert_roots_account_for_themselves(spans: &[SpanEvent]) {
        let selfs = self_times(spans);
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut per_root: HashMap<u64, u64> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut root = s;
            while root.parent != 0 {
                root = &spans[by_id[&root.parent]];
            }
            *per_root.entry(root.id).or_default() += selfs[i];
        }
        for s in spans.iter().filter(|s| s.parent == 0) {
            assert_eq!(per_root[&s.id], s.dur_us, "root span {} ({})", s.id, s.name);
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // experiment [0,100) > sweep [10,60) > measure [10,40), measure [40,55);
        // experiment > stat [70,90); a second root run [200,230).
        let spans = vec![
            span(3, 2, "measure", 10, 30),
            span(4, 2, "measure", 40, 15),
            span(2, 1, "sweep", 10, 50),
            span(5, 1, "stat", 70, 20),
            span(1, 0, "experiment", 0, 100),
            span(6, 0, "run", 200, 30),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 5, 20, 30, 30]);
        let b = Breakdown::of(&spans);
        assert_eq!(b.self_of("measure"), 45);
        assert_eq!(b.self_of("experiment"), 30);
        assert_eq!(b.covered_us, 130);
        assert_eq!(b.experiments_covered_us, 100);
        assert_eq!(b.experiment_us["fig1"], 100);
        assert_roots_account_for_themselves(&spans);
    }

    #[test]
    fn union_merges_overlapping_and_touching_intervals() {
        assert_eq!(union_us(vec![]), 0);
        assert_eq!(union_us(vec![(0, 10), (5, 15), (15, 20), (30, 31)]), 21);
        assert_eq!(union_us(vec![(5, 6), (0, 100)]), 100);
    }

    /// The invariant on a real trace: a traced quick-suite run, exported
    /// and re-read through `trace_report::parse` exactly as the benchmark
    /// reads `repro --trace` output.
    #[test]
    fn roots_account_for_themselves_on_a_real_quick_suite_trace() {
        use biaslab_bench::{parallel, Effort, EXPERIMENTS};

        telemetry::enable();
        let mut sink = Vec::new();
        let failures = parallel::run_all(EXPERIMENTS, Effort::Quick, 2, &mut sink, |_| {})
            .expect("write to an in-memory sink");
        assert_eq!(failures, 0);
        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        telemetry::export(&path, "quick", &[]).expect("export trace");
        telemetry::disable();
        let trace = biaslab_core::trace_report::parse(
            &std::fs::read_to_string(&path).expect("read exported trace"),
        );
        let _ = std::fs::remove_dir_all(Path::new(&dir));

        assert_eq!(trace.skipped, 0);
        let experiments = trace
            .spans
            .iter()
            .filter(|s| s.name == "experiment")
            .count();
        assert_eq!(experiments, EXPERIMENTS.len());
        assert!(trace.spans.iter().any(|s| s.name == "run"));
        assert_roots_account_for_themselves(&trace.spans);
        let b = Breakdown::of(&trace.spans);
        let total_self: u64 = b.self_us.values().sum();
        let total_roots: u64 = trace
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_us)
            .sum();
        assert_eq!(total_self, total_roots);
    }
}
