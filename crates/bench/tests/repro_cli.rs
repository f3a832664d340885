//! `repro`'s command line: a misspelled flag or an experiment id beyond
//! the first is a usage error that runs and writes nothing, and a results
//! file `repro` could not read is never replaced.

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

#[test]
fn leaves_a_results_file_it_could_not_read_untouched() {
    let results = std::env::temp_dir().join(format!("biaslab-repro-unread-{}", std::process::id()));
    std::fs::create_dir_all(&results).expect("creates the results dir");
    let path = results.join("measurements.jsonl");
    std::fs::write(&path, "precious\n").expect("writes the results file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args("table1 --effort quick --faults seed=1,load.io=1.0".split_whitespace())
        .env("BIASLAB_RESULTS_DIR", &results)
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains(&format!("could not read {}", path.display())),
        "{stderr}"
    );
    let bytes = std::fs::read(&path).expect("reads the results file");
    std::fs::remove_dir_all(&results).expect("removes the results dir");
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        "precious\n",
        "a file the run could not read is not replaced by its records"
    );
}
