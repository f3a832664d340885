//! The quick suite's stdout, pinned experiment by experiment: every
//! experiment rendered at `Effort::Quick` must reproduce its block of
//! `tests/golden/quick_suite.txt`, which holds exactly what `repro all
//! --effort quick` writes to stdout (banner, output and a blank line per
//! experiment, in registry order). A change to how an experiment
//! schedules its measurements must leave every block unedited.
//!
//! To regenerate after an *intentional* change to an experiment's output:
//!
//! ```text
//! BIASLAB_BLESS=1 cargo test --release -p biaslab-bench --test quick_suite_golden
//! ```

use std::path::PathBuf;

use biaslab_bench::parallel::{run_all, write_banner, write_block};
use biaslab_bench::{Effort, EXPERIMENTS};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_suite.txt")
}

/// The banner that opens experiment `i`'s block.
fn banner(i: usize) -> String {
    let e = &EXPERIMENTS[i];
    let mut out = Vec::new();
    write_banner(&mut out, e.id, e.title).expect("write to a vector");
    String::from_utf8(out).expect("utf-8 banner")
}

/// Splits the golden into one block per experiment, in registry order.
fn golden_blocks(golden: &str) -> Vec<&str> {
    let starts: Vec<usize> = (0..EXPERIMENTS.len())
        .map(|i| {
            golden.find(&banner(i)).unwrap_or_else(|| {
                panic!(
                    "{}: no block in {}; re-bless with BIASLAB_BLESS=1",
                    EXPERIMENTS[i].id,
                    golden_path().display()
                )
            })
        })
        .collect();
    assert!(
        starts.windows(2).all(|w| w[0] < w[1]) && starts[0] == 0,
        "the golden's blocks are not in registry order"
    );
    starts
        .iter()
        .zip(starts.iter().skip(1).chain([&golden.len()]))
        .map(|(&from, &to)| &golden[from..to])
        .collect()
}

/// The first line where `actual` departs from `golden`, 1-based, with
/// both sides (`None` past a block's end).
fn first_difference<'a>(
    golden: &'a str,
    actual: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut g, mut a) = (golden.lines(), actual.lines());
    for n in 1.. {
        match (g.next(), a.next()) {
            (None, None) => return None,
            (want, got) if want != got => return Some((n, want, got)),
            _ => {}
        }
    }
    unreachable!("the loop returns at the shorter block's end")
}

#[test]
fn every_experiment_reproduces_its_quick_suite_block() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut stdout = Vec::new();
    let mut blocks = Vec::new();
    let failures = run_all(EXPERIMENTS, Effort::Quick, jobs, &mut stdout, |run| {
        let mut block = Vec::new();
        write_block(&mut block, run).expect("write to a vector");
        blocks.push(String::from_utf8(block).expect("utf-8 output"));
    })
    .expect("write to a vector");
    assert_eq!(failures, 0, "an experiment panicked");

    if std::env::var_os("BIASLAB_BLESS").is_some() {
        std::fs::write(golden_path(), &stdout).expect("write golden file");
        eprintln!("blessed {}", golden_path().display());
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `BIASLAB_BLESS=1 cargo test --release -p \
             biaslab-bench --test quick_suite_golden` to create it",
            golden_path().display()
        )
    });
    for ((e, want), got) in EXPERIMENTS.iter().zip(golden_blocks(&golden)).zip(&blocks) {
        if let Some((n, want, got)) = first_difference(want, got) {
            panic!(
                "{}: line {n} of its block differs from the golden\n  golden: {}\n  actual: {}",
                e.id,
                want.unwrap_or("<end of block>"),
                got.unwrap_or("<end of block>"),
            );
        }
    }
    assert_eq!(
        String::from_utf8(stdout).expect("utf-8 output"),
        golden,
        "the blocks match but the whole stdout does not"
    );
}
