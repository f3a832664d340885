//! Documentation ↔ code consistency: the experiment registry, the design
//! document and the experiments log must agree about what exists, so a
//! reader can navigate from any of them to the others — and every
//! environment knob the code reads must be listed where users look.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use biaslab_bench::EXPERIMENTS;

fn read(path: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_experiment_id_is_documented() {
    let design = read("DESIGN.md");
    let experiments = read("EXPERIMENTS.md");
    for e in EXPERIMENTS {
        assert!(
            design.contains(e.id),
            "DESIGN.md does not mention experiment `{}`",
            e.id
        );
        assert!(
            experiments.contains(e.id),
            "EXPERIMENTS.md does not mention experiment `{}`",
            e.id
        );
    }
}

#[test]
fn readme_points_at_the_entry_points() {
    let readme = read("README.md");
    for needle in [
        "cargo test --workspace --release",
        "repro -- fig3",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "wrong_data",
        "quickstart",
    ] {
        assert!(readme.contains(needle), "README.md lacks `{needle}`");
    }
}

#[test]
fn design_documents_every_substitution_marker() {
    let design = read("DESIGN.md");
    // The substitution table must name what the paper used and what we
    // built for each substituted system.
    for needle in [
        "Pentium 4, Core 2",
        "SPEC CPU2006",
        "biaslab-uarch",
        "biaslab-toolchain",
        "biaslab-workloads",
        "133",
    ] {
        assert!(design.contains(needle), "DESIGN.md lacks `{needle}`");
    }
}

#[test]
fn every_suite_benchmark_appears_in_design() {
    let design = read("DESIGN.md");
    for b in biaslab_workloads::suite() {
        assert!(
            design.contains(b.name()),
            "DESIGN.md does not mention benchmark `{}`",
            b.name()
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

#[test]
fn every_environment_knob_is_listed_and_every_listed_knob_is_read() {
    // Knobs the code reads: `BIASLAB_*` string literals passed straight to
    // `env::var` or `env::var_os` anywhere under `crates/*/src`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read_knobs = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rust_files(&src) {
            let text = std::fs::read_to_string(&file).expect("readable source");
            for (at, _) in text.match_indices("\"BIASLAB_") {
                let call = text[..at].trim_end();
                if call.ends_with("var(") || call.ends_with("var_os(") {
                    let name = &text[at + 1..];
                    read_knobs.insert(name[..name.find('"').expect("closing quote")].to_owned());
                }
            }
        }
    }
    // Knobs the usage text lists: the `environment:` section of `biaslab`'s
    // usage, one `NAME=<value>` entry per knob.
    let args = read("crates/cli/src/args.rs");
    let section = args
        .split_once("\nenvironment:\n")
        .expect("usage text has an environment: section")
        .1;
    let section = section.split_once("\";").expect("usage text ends").0;
    let listed: BTreeSet<String> = section
        .lines()
        .filter_map(|l| l.trim_start().split_once('='))
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("BIASLAB_"))
        .map(str::to_owned)
        .collect();
    assert!(
        !read_knobs.is_empty(),
        "the scan found no knob reads at all"
    );
    assert_eq!(
        read_knobs, listed,
        "every BIASLAB_* variable the code reads must be listed in the \
         environment: section of biaslab's usage (crates/cli/src/args.rs), \
         and every listed one must be read"
    );
}
