//! `repro`'s command line: a misspelled flag or an experiment id beyond
//! the first is a usage error that runs and writes nothing.

use std::process::Command;

#[test]
fn rejects_bad_inputs() {
    let results = std::env::temp_dir().join(format!("biaslab-repro-cli-{}", std::process::id()));
    for args in [
        "table2 fig5 --effort quick",
        "fig1 --efort quick",
        "table2 --effort quick --no-resum",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args.split_whitespace())
            .env("BIASLAB_RESULTS_DIR", &results)
            .output()
            .expect("repro starts");
        assert!(!out.status.success(), "`repro {args}` must be rejected");
        assert!(out.stdout.is_empty(), "`repro {args}` must run nothing");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "`repro {args}` must print the usage"
        );
    }
    assert!(
        !results.exists(),
        "a rejected command line writes no results"
    );
}
