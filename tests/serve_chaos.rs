//! Chaos battery for the serving layer: seeded socket-fault schedules
//! (accept failures, short writes, mid-response disconnects, slow
//! clients) may cost reconnects and retries, but clients always end with
//! a typed error or a retried success — never a torn JSONL line — and
//! the daemon never wedges, never leaks admission-queue jobs, and never
//! leaves its socket file behind.
//!
//! Fault state is process-global, so every test holds the
//! [`faults::scoped`] guard for its whole body; schedules swap via
//! [`faults::install`] under the same guard. The `@n` one-shot trigger
//! gives an exact-replay regression: the same schedule, re-installed,
//! produces the same retry count.

use std::sync::Arc;

use biaslab_core::faults::{self, FaultSpec};
use biaslab_core::serve::{
    self, encode_control, encode_measure, encode_response, validate_response_line, Addr, Client,
    MeasureSpec, Server, ServerConfig,
};
use biaslab_core::setup::LinkOrder;
use biaslab_core::Orchestrator;
use biaslab_toolchain::OptLevel;
use biaslab_workloads::InputSize;

/// The seeded socket-fault schedules under test. Probabilities are high
/// enough that every site fires many times over a run; each client's
/// retry budget comes from the schedule ([`retry_budget`]), so no
/// exchange can run out of attempts.
const SCHEDULES: &[(&str, &str)] = &[
    ("accept-flaky", "seed=101,serve.accept=0.25"),
    (
        "torn-and-dropped",
        "seed=202,serve.write.short=0.2,serve.drop=0.15,serve.slow=0.3",
    ),
    (
        "everything-at-once",
        "seed=303,serve.accept=0.15,serve.write.short=0.15,serve.drop=0.1,serve.slow=0.2",
    ),
];

fn spec(s: &str) -> FaultSpec {
    FaultSpec::parse(s).expect("test specs parse")
}

/// The sites whose fault fails the attempt that hits it: an accept
/// fault drops the new connection, a drop or short write tears the
/// response. A slow client only delays its attempt. An attempt hits
/// each of these sites at most once: accept once per connection, which
/// a client opens only for its first attempt and after a failure, and
/// drop and short write once per response line.
const FAILING_SITES: [&str; 3] = [
    faults::site::SERVE_ACCEPT,
    faults::site::SERVE_DROP,
    faults::site::SERVE_WRITE_SHORT,
];

/// A per-client attempt budget that no exchange can exhaust under
/// `schedule`, whatever order the clients' attempts take hit indices in.
///
/// Let `fires(a)` count the schedule's fires among the first `a` hits of
/// each failing site. Every attempt but an exchange's first follows a
/// failed attempt, and every failure spends a fire, so a run of
/// `exchanges` exchanges makes at most `a*` attempts, the least fixed
/// point of `a = exchanges + fires(a)`. The whole run then fails at
/// most `a* - exchanges` attempts, and one more attempt always
/// succeeds.
fn retry_budget(schedule: &FaultSpec, exchanges: u64) -> u32 {
    let fires = |attempts: u64| -> u64 {
        let fired = |site: &str| {
            (0..attempts)
                .filter(|&hit| schedule.fires(site, hit))
                .count()
        };
        FAILING_SITES.iter().map(|site| fired(site) as u64).sum()
    };
    let mut attempts = exchanges;
    loop {
        let next = exchanges + fires(attempts);
        if next == attempts {
            return u32::try_from(attempts - exchanges + 1).expect("a small budget");
        }
        attempts = next;
    }
}

fn temp_sock(tag: &str) -> Addr {
    let dir = std::env::temp_dir();
    Addr::Unix(dir.join(format!("biaslab-schaos-{tag}-{}.sock", std::process::id())))
}

fn pool() -> Vec<MeasureSpec> {
    (0..6u64)
        .map(|i| MeasureSpec {
            bench: "hmmer".to_owned(),
            machine: "core2".to_owned(),
            opt: if i % 2 == 0 {
                OptLevel::O2
            } else {
                OptLevel::O3
            },
            order: if i < 3 {
                LinkOrder::Default
            } else {
                LinkOrder::Random(i)
            },
            text_offset: 0,
            stack_shift: 0,
            env: [0u64, 64, 612][(i % 3) as usize],
            size: InputSize::Test,
            budget: 0,
        })
        .collect()
}

/// Every schedule: concurrent clients under fire all end in verified
/// success, every line passes the crc seal and schema check, responses
/// still match the direct path byte-for-byte, the admission queue drains,
/// and the socket file is removed.
#[test]
fn seeded_socket_schedules_never_tear_or_wedge() {
    let _guard = faults::scoped(&spec("seed=1"));
    // Direct-path expectations, computed fault-free (serve.* sites only
    // fire at the socket layer, but a clean registry keeps this exact).
    let direct = Orchestrator::default();
    let pool = pool();
    let expected: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let harness = direct.harness(&s.bench).expect("known benchmark");
            let result = direct.measure(&harness, &s.setup().expect("known machine"), s.size);
            encode_response(i as u64, &result)
        })
        .collect();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let exchanges = (CLIENTS * ROUNDS * pool.len()) as u64;
    for (name, schedule) in SCHEDULES {
        let schedule = spec(schedule);
        // A fault is certain, not just likely: accept is hit at least
        // once per client, and drop once per exchange.
        assert!(
            (0..CLIENTS as u64).any(|hit| schedule.fires(faults::site::SERVE_ACCEPT, hit))
                || (0..exchanges).any(|hit| schedule.fires(faults::site::SERVE_DROP, hit)),
            "schedule {name} may fire no fault"
        );
        let attempts = retry_budget(&schedule, exchanges);
        faults::install(&schedule);
        let addr = temp_sock(name);
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");

        let retries: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let addr = addr.clone();
                    let pool = &pool;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut client = Client::new(addr).with_attempts(attempts);
                        let mut retries = 0u64;
                        for _ in 0..ROUNDS {
                            for (i, s) in pool.iter().enumerate() {
                                let ex = client
                                    .request(&encode_measure(i as u64, s))
                                    .unwrap_or_else(|e| {
                                        panic!(
                                            "schedule {name}: exchange failed after retries: {e}"
                                        )
                                    });
                                retries += u64::from(ex.retries);
                                for line in &ex.lines {
                                    validate_response_line(line).unwrap_or_else(|e| {
                                        panic!("schedule {name}: torn/invalid line: {e}")
                                    });
                                }
                                assert_eq!(
                                    ex.terminal(),
                                    expected[i],
                                    "schedule {name}: response diverged under faults"
                                );
                            }
                        }
                        retries
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .sum()
        });

        assert!(
            retries > 0,
            "schedule {name}: no fault ever fired — schedule is not exercising the socket layer"
        );
        assert_eq!(
            server.queue_len(),
            0,
            "schedule {name}: admission queue leaked jobs"
        );
        server.shutdown();
        if let Addr::Unix(path) = &addr {
            assert!(
                !path.exists(),
                "schedule {name}: socket file leaked: {}",
                path.display()
            );
        }
    }
}

/// Exact replay: a one-shot `@1` short-write trigger tears exactly the
/// first response write, so a single client sees exactly one retry —
/// and re-installing the same schedule reproduces it exactly.
#[test]
fn one_shot_trigger_replays_exactly() {
    let _guard = faults::scoped(&spec("seed=1"));
    for round in 0..2 {
        faults::install(&spec("seed=404,serve.write.short=@1"));
        let addr = temp_sock(&format!("replay{round}"));
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        let mut client = Client::new(addr);
        let ex = client
            .request(&encode_control(1, "ping"))
            .expect("retried success");
        assert_eq!(
            ex.retries, 1,
            "round {round}: @1 short-write must cost exactly one retry"
        );
        assert_eq!(serve::line_status(ex.terminal()), Some("ok"));
        let ex = client
            .request(&encode_control(2, "ping"))
            .expect("clean exchange");
        assert_eq!(
            ex.retries, 0,
            "round {round}: one-shot trigger must not re-fire"
        );
        server.shutdown();
    }
}

/// Worker panics under load: the pool shrinks and recovers through the
/// supervisor, every victim client gets exactly one typed `panic`
/// terminal (no lost or duplicated responses, no failed exchanges), the
/// respawn counter moves, health returns to `ok` at full strength, and the
/// recovered pool then serves a fault-free load without a failure.
#[test]
fn worker_panic_schedule_shrinks_then_recovers_the_pool() {
    let _guard = faults::scoped(&spec("seed=1"));
    faults::install(&spec("seed=606,serve.worker_panic=0.08"));
    let addr = temp_sock("wpanic");
    let mut cfg = ServerConfig::new(addr.clone());
    cfg.workers = 3;
    cfg.restart_budget = 256; // never exhaust: the pool must always recover
    cfg.restart_seed = 606;
    let server = Server::start(&cfg, Arc::new(Orchestrator::default())).expect("server starts");

    let direct = Orchestrator::default();
    let pool = pool();
    let expected: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let harness = direct.harness(&s.bench).expect("known benchmark");
            let result = direct.measure(&harness, &s.setup().expect("known machine"), s.size);
            encode_response(i as u64, &result)
        })
        .collect();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 4;
    let panics: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                let pool = &pool;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::new(addr).with_backoff_seed(c as u64);
                    let mut panics = 0u64;
                    for _ in 0..ROUNDS {
                        for (i, s) in pool.iter().enumerate() {
                            let ex = client
                                .request(&encode_measure(i as u64, s))
                                .expect("every exchange ends in a terminal, never a failure");
                            for line in &ex.lines {
                                validate_response_line(line)
                                    .expect("sealed, schema-valid lines under worker panics");
                            }
                            match serve::line_status(ex.terminal()) {
                                Some("ok") => assert_eq!(
                                    ex.terminal(),
                                    expected[i],
                                    "ok responses stay byte-identical under panics"
                                ),
                                Some("err") => {
                                    assert!(
                                        ex.terminal().contains("\"code\":\"panic\""),
                                        "only typed panic errors expected: {}",
                                        ex.terminal()
                                    );
                                    panics += 1;
                                }
                                other => panic!("unexpected terminal status {other:?}"),
                            }
                        }
                    }
                    panics
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    assert!(
        panics >= 1,
        "the 8% panic schedule never fired over {} requests",
        CLIENTS * ROUNDS * pool.len()
    );

    // The supervisor must restore the pool to configured strength and
    // health to `ok` (respawn delays are capped under ~200ms each).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while (server.live_workers() < cfg.workers || server.health() != "ok")
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server.live_workers(), cfg.workers, "pool recovered");
    assert_eq!(server.health(), "ok", "health degraded -> ok");

    // The daemon's own accounting agrees: panics were observed and every
    // one of them was answered by a respawn.
    let mut client = Client::new(addr.clone());
    let ex = client
        .request(&encode_control(999, "stats"))
        .expect("stats answered");
    let stat = |name: &str| serve::stats_counter(ex.terminal(), name).unwrap_or(0);
    assert_eq!(serve::line_health(ex.terminal()), Some("ok"));
    assert!(stat("serve.worker.panic") >= panics, "panics counted");
    assert_eq!(
        stat("serve.worker.panic"),
        stat("serve.worker.respawn"),
        "every panic within budget is matched by a respawn"
    );

    // With the schedule lifted, the recovered pool serves a full load:
    // every exchange succeeds with an `ok` response byte-identical to the
    // direct path.
    faults::install(&spec("seed=1"));
    std::thread::scope(|scope| {
        for c in 0..4 {
            let addr = addr.clone();
            let pool = &pool;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::new(addr);
                for r in 0..10 {
                    let i = (c + r) % pool.len();
                    let ex = client
                        .request(&encode_measure(i as u64, &pool[i]))
                        .expect("the recovered pool answers every request");
                    assert_eq!(serve::line_status(ex.terminal()), Some("ok"));
                    assert_eq!(
                        ex.terminal(),
                        expected[i],
                        "responses after recovery match the direct path"
                    );
                }
            });
        }
    });
    assert_eq!(server.queue_len(), 0, "admission queue drained");
    server.shutdown();
}

/// A mid-response disconnect on a sweep still converges: the client
/// replays the whole request and the daemon's caches serve the retry,
/// ending in a complete, seal-verified item stream.
#[test]
fn dropped_sweep_replays_to_completion() {
    let _guard = faults::scoped(&spec("seed=1"));
    faults::install(&spec("seed=505,serve.drop=@2"));
    let addr = temp_sock("dropsweep");
    let server = Server::start(
        &ServerConfig::new(addr.clone()),
        Arc::new(Orchestrator::default()),
    )
    .expect("server starts");
    let s = MeasureSpec {
        bench: "mcf".to_owned(),
        machine: "core2".to_owned(),
        opt: OptLevel::O2,
        order: LinkOrder::Default,
        text_offset: 0,
        stack_shift: 0,
        env: 0,
        size: InputSize::Test,
        budget: 0,
    };
    let mut client = Client::new(addr).with_attempts(6);
    let ex = client
        .request(&serve::encode_sweep(9, &s, &[0, 64, 128]))
        .expect("sweep converges after the drop");
    assert!(
        ex.retries >= 1,
        "the @2 drop must interrupt the first stream"
    );
    assert_eq!(
        ex.lines.len(),
        4,
        "3 items + terminal, nothing torn: {:?}",
        ex.lines
    );
    for line in &ex.lines {
        validate_response_line(line).expect("every replayed line is sealed and schema-valid");
    }
    server.shutdown();
}
