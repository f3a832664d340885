//! Differential battery for the serving layer: responses from a live
//! `biaslab serve` daemon must be **byte-identical** to what the direct,
//! in-process `Orchestrator` path produces for the same requests —
//! including cached-error and watchdog outcomes — under concurrent
//! clients issuing randomized request orders.
//!
//! The protocol schema itself is pinned as a golden snapshot
//! (`tests/golden/serve_schema.txt`, regenerate with `BIASLAB_BLESS=1`),
//! so accidental wire-format drift fails here rather than in a user's
//! transcript diff.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use biaslab_core::serve::{
    self, encode_measure, encode_response, encode_sweep, encode_sweep_done, encode_sweep_item,
    validate_response_line, Addr, Client, MeasureSpec, Server, ServerConfig,
};
use biaslab_core::setup::LinkOrder;
use biaslab_core::Orchestrator;
use biaslab_toolchain::OptLevel;
use biaslab_workloads::InputSize;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn temp_sock(tag: &str) -> Addr {
    let dir = std::env::temp_dir();
    Addr::Unix(dir.join(format!("biaslab-sdiff-{tag}-{}.sock", std::process::id())))
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_schema.txt")
}

/// Draws a randomized measurement spec from a small key space, so repeated
/// draws exercise both cache misses and hits.
fn random_spec(rng: &mut StdRng) -> MeasureSpec {
    const BENCHES: &[&str] = &["hmmer", "milc", "mcf", "libquantum"];
    const MACHINES: &[&str] = &["core2", "pentium4", "o3cpu"];
    const ENVS: &[u64] = &[0, 64, 128, 612];
    MeasureSpec {
        bench: BENCHES[rng.gen_range(0..BENCHES.len())].to_owned(),
        machine: MACHINES[rng.gen_range(0..MACHINES.len())].to_owned(),
        opt: if rng.gen::<bool>() {
            OptLevel::O2
        } else {
            OptLevel::O3
        },
        order: if rng.gen::<bool>() {
            LinkOrder::Default
        } else {
            LinkOrder::Random(rng.gen_range(0..4u64))
        },
        text_offset: 0,
        stack_shift: 0,
        env: ENVS[rng.gen_range(0..ENVS.len())],
        size: InputSize::Test,
        budget: 0,
    }
}

/// Computes the direct-path response bytes for one measure request.
fn direct_response(orch: &Orchestrator, id: u64, spec: &MeasureSpec) -> String {
    let harness = orch.harness(&spec.bench).expect("known benchmark");
    let setup = spec.setup().expect("known machine");
    let result = orch.measure(&harness, &setup, spec.size);
    encode_response(id, &result)
}

#[test]
fn protocol_schema_matches_golden() {
    let actual = serve::schema();
    let path = golden_path();
    if std::env::var_os("BIASLAB_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `BIASLAB_BLESS=1 cargo test --test serve_differential` \
             to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "serve protocol schema drifted; if intentional, re-bless with BIASLAB_BLESS=1"
    );
}

/// The headline gate: 8 concurrent clients replay the same randomized
/// spec pool in independently shuffled orders; every daemon response must
/// equal the direct-path encoding for that request, byte for byte.
#[test]
fn concurrent_clients_match_direct_path_byte_for_byte() {
    let addr = temp_sock("conc");
    let server = Server::start(
        &ServerConfig::new(addr.clone()),
        Arc::new(Orchestrator::default()),
    )
    .expect("server starts");

    // A shared pool of randomized setups, issued by every client in a
    // client-specific order.
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let pool: Vec<MeasureSpec> = (0..12).map(|_| random_spec(&mut rng)).collect();

    const CLIENTS: usize = 8;
    let responses: Vec<Vec<(u64, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                let pool = pool.clone();
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..pool.len()).collect();
                    order.shuffle(&mut StdRng::seed_from_u64(ci as u64 + 1));
                    let mut client = Client::new(addr);
                    order
                        .into_iter()
                        .map(|pi| {
                            let id = ci as u64 * 1_000_000 + pi as u64;
                            let ex = client
                                .request(&encode_measure(id, &pool[pi]))
                                .expect("fault-free exchange succeeds");
                            assert_eq!(ex.retries, 0, "no faults installed, no retries");
                            (id, ex.terminal().to_owned())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Direct path: one fresh orchestrator, same specs. The daemon used its
    // own orchestrator, so matching bytes proves the serving layer adds
    // nothing and loses nothing.
    let direct = Orchestrator::default();
    let mut expected: HashMap<u64, String> = HashMap::new();
    for ci in 0..CLIENTS {
        for (pi, spec) in pool.iter().enumerate() {
            let id = ci as u64 * 1_000_000 + pi as u64;
            expected.insert(id, direct_response(&direct, id, spec));
        }
    }
    let mut compared = 0usize;
    for per_client in &responses {
        for (id, line) in per_client {
            validate_response_line(line).expect("daemon line is schema-valid");
            assert_eq!(line, &expected[id], "daemon response for id {id} diverged");
            compared += 1;
        }
    }
    assert_eq!(compared, CLIENTS * pool.len());
    server.shutdown();
}

/// Sweeps must also match: every item line and the terminal line.
#[test]
fn sweep_items_match_direct_path_byte_for_byte() {
    let addr = temp_sock("sweep");
    let server = Server::start(
        &ServerConfig::new(addr.clone()),
        Arc::new(Orchestrator::default()),
    )
    .expect("server starts");
    let spec = MeasureSpec {
        bench: "milc".to_owned(),
        machine: "pentium4".to_owned(),
        opt: OptLevel::O3,
        order: biaslab_core::setup::LinkOrder::Random(5),
        text_offset: 0,
        stack_shift: 0,
        env: 0,
        size: InputSize::Test,
        budget: 0,
    };
    let envs: Vec<u64> = vec![0, 64, 128, 612];

    let mut client = Client::new(addr);
    let ex = client
        .request(&encode_sweep(42, &spec, &envs))
        .expect("sweep answered");

    let direct = Orchestrator::default();
    let harness = direct.harness("milc").expect("known benchmark");
    let base = spec.setup().expect("known machine");
    let setups = serve::sweep_setups(&base, &envs);
    let results = direct.sweep(&harness, &setups, spec.size);
    let mut want: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, r)| encode_sweep_item(42, i as u64, r))
        .collect();
    want.push(encode_sweep_done(42, results.len() as u64));

    assert_eq!(ex.lines, want, "sweep stream diverged from the direct path");
    for line in &ex.lines {
        validate_response_line(line).expect("sweep line is schema-valid");
    }
    server.shutdown();
}

/// Watchdog and error-cache outcomes cross the wire unchanged: a tiny
/// instruction-budget override trips the watchdog deterministically, the
/// error is cached, and a re-request returns the identical bytes.
#[test]
fn watchdog_and_cached_errors_cross_the_wire() {
    let addr = temp_sock("wdog");
    let server = Server::start(
        &ServerConfig::new(addr.clone()),
        Arc::new(Orchestrator::default()),
    )
    .expect("server starts");
    let spec = MeasureSpec {
        bench: "hmmer".to_owned(),
        machine: "core2".to_owned(),
        opt: OptLevel::O2,
        order: biaslab_core::setup::LinkOrder::Default,
        text_offset: 0,
        stack_shift: 0,
        env: 0,
        size: InputSize::Test,
        budget: 64, // far below any real instruction count
    };

    let mut client = Client::new(addr);
    let first = client
        .request(&encode_measure(7, &spec))
        .expect("first answered");
    let again = client
        .request(&encode_measure(8, &spec))
        .expect("second answered");
    assert_eq!(serve::line_status(first.terminal()), Some("err"));
    assert!(
        first.terminal().contains("\"code\":\"watchdog\""),
        "expected a watchdog error, got: {}",
        first.terminal()
    );

    let direct = Orchestrator::default();
    assert_eq!(first.terminal(), direct_response(&direct, 7, &spec));
    // The daemon's second answer comes from its error cache; the direct
    // side's second call is also cached. Same bytes either way.
    assert_eq!(again.terminal(), direct_response(&direct, 8, &spec));
    server.shutdown();
}

/// Unknown benchmarks come back as typed `bench` errors, not hangs or
/// connection drops, and the daemon keeps serving afterwards.
#[test]
fn unknown_benchmark_is_a_typed_error() {
    let addr = temp_sock("nobench");
    let server = Server::start(
        &ServerConfig::new(addr.clone()),
        Arc::new(Orchestrator::default()),
    )
    .expect("server starts");
    let mut spec = MeasureSpec {
        bench: "not-a-benchmark".to_owned(),
        machine: "core2".to_owned(),
        opt: OptLevel::O2,
        order: biaslab_core::setup::LinkOrder::Default,
        text_offset: 0,
        stack_shift: 0,
        env: 0,
        size: InputSize::Test,
        budget: 0,
    };
    let mut client = Client::new(addr);
    let ex = client.request(&encode_measure(1, &spec)).expect("answered");
    assert_eq!(serve::line_status(ex.terminal()), Some("err"));
    assert!(ex.terminal().contains("\"code\":\"bench\""));
    validate_response_line(ex.terminal()).expect("typed error is schema-valid");

    spec.bench = "hmmer".to_owned();
    let ok = client
        .request(&encode_measure(2, &spec))
        .expect("daemon still serves");
    assert_eq!(serve::line_status(ok.terminal()), Some("ok"));
    server.shutdown();
}
