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
//! produces the same retry count. Worker panics (`serve.worker_panic`,
//! `leader.panic.hard`) must cost their request and nothing else. One
//! test turns tracing on, which the same guard keeps from overlapping
//! the others.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use biaslab_core::faults::{self, FaultSpec};
use biaslab_core::serve::{
    self, encode_control, encode_measure, encode_response, validate_response_line, Addr, Client,
    MeasureSpec, Server, ServerConfig,
};
use biaslab_core::setup::LinkOrder;
use biaslab_core::telemetry::{self, SpanEvent, TraceEvent};
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

/// One raw connection whose reads time out, so a request the daemon
/// never answers fails its test instead of hanging it. Unlike [`Client`],
/// it never skips a line: each read must be the answer just asked for.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(addr: &Addr) -> Conn {
        let Addr::Unix(path) = addr else {
            panic!("test daemons bind unix sockets")
        };
        let writer = UnixStream::connect(path).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Conn { reader, writer }
    }

    /// Sends one request line and reads the one line that answers it.
    fn ask(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut buf = String::new();
        self.reader
            .read_line(&mut buf)
            .unwrap_or_else(|e| panic!("no answer within the read timeout to {line}: {e}"));
        assert!(
            buf.ends_with('\n'),
            "torn or missing answer to {line}: {buf:?}"
        );
        let resp = buf.trim_end().to_owned();
        validate_response_line(&resp).expect("sealed, schema-valid line");
        assert_eq!(serve::line_id(&resp), serve::line_id(line), "{resp}");
        resp
    }

    fn stats(&mut self) -> String {
        self.ask(&encode_control(999, "stats"))
    }
}

fn is_panic(resp: &str) -> bool {
    serve::line_status(resp) == Some("err") && resp.contains("\"code\":\"panic\"")
}

/// The direct-path response to each [`pool`] spec, by index.
fn direct_responses(pool: &[MeasureSpec]) -> Vec<String> {
    let direct = Orchestrator::default();
    pool.iter()
        .enumerate()
        .map(|(i, s)| {
            let harness = direct.harness(&s.bench).expect("known benchmark");
            let result = direct.measure(&harness, &s.setup().expect("known machine"), s.size);
            encode_response(i as u64, &result)
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
    let pool = pool();
    let expected = direct_responses(&pool);

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

/// Regression: a daemon whose jobs keep panicking keeps every worker.
/// Workers once died after answering a panic, and a supervisor respawned
/// them within a lifetime restart budget; a default daemon (4 workers,
/// budget 8) answered 12 panics, then left the 13th request unanswered.
#[test]
fn a_default_daemon_answers_after_twelve_panics_in_a_row() {
    let _guard = faults::scoped(&spec("seed=1"));
    let addr = temp_sock("crashloop");
    let server = Server::start(
        &ServerConfig::new(addr.clone()),
        Arc::new(Orchestrator::default()),
    )
    .expect("server starts");
    let pool = pool();
    let mut conn = Conn::open(&addr);
    faults::install(&spec("seed=707,serve.worker_panic=1"));
    for id in 0..12 {
        let resp = conn.ask(&encode_measure(id, &pool[0]));
        assert!(is_panic(&resp), "request {id}: {resp}");
    }
    faults::install(&spec("seed=1"));
    let resp = conn.ask(&encode_measure(0, &pool[0]));
    assert_eq!(resp, direct_responses(&pool)[0], "the 13th request");
    assert_eq!(serve::line_health(&conn.stats()), Some("ok"));
    server.shutdown();
}

/// Worker panics under load: each panic costs its request and nothing
/// else. Every victim gets exactly one typed `panic` terminal, `ok`
/// responses stay byte-identical to the direct path, `serve.worker.panic`
/// counts exactly the panics the clients saw, health reads `ok`
/// throughout, and the same pool then serves a fault-free load.
#[test]
fn worker_panic_schedule_keeps_the_pool_serving() {
    let _guard = faults::scoped(&spec("seed=1"));
    let addr = temp_sock("wpanic");
    let mut cfg = ServerConfig::new(addr.clone());
    cfg.workers = 3;
    let server = Server::start(&cfg, Arc::new(Orchestrator::default())).expect("server starts");
    let pool = pool();
    let expected = direct_responses(&pool);
    // The panic counter is process-wide: count this test's panics as a
    // difference.
    let panics_counted = || {
        let stats = Conn::open(&addr).stats();
        assert_eq!(serve::line_health(&stats), Some("ok"));
        serve::stats_counter(&stats, "serve.worker.panic").unwrap_or(0)
    };
    let before = panics_counted();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 4;
    let requests = (CLIENTS * ROUNDS * pool.len()) as u64;
    let schedule = spec("seed=606,serve.worker_panic=0.08");
    // Each request hits the site once, so the schedule alone decides how
    // many of them panic, whichever worker takes which.
    let scheduled = (0..requests)
        .filter(|&hit| schedule.fires(faults::site::SERVE_WORKER_PANIC, hit))
        .count() as u64;
    assert!(
        scheduled >= 1,
        "the 8% schedule fires on none of {requests} requests"
    );
    faults::install(&schedule);
    let panics: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (addr, pool, expected) = (&addr, &pool, &expected);
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let mut panics = 0u64;
                    for _ in 0..ROUNDS {
                        for (i, s) in pool.iter().enumerate() {
                            let resp = conn.ask(&encode_measure(i as u64, s));
                            if is_panic(&resp) {
                                panics += 1;
                            } else {
                                assert_eq!(
                                    resp, expected[i],
                                    "ok responses stay byte-identical under panics"
                                );
                            }
                            let stats = conn.stats();
                            assert_eq!(serve::line_health(&stats), Some("ok"), "{stats}");
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
    assert_eq!(
        panics, scheduled,
        "one typed panic terminal per fired panic"
    );
    faults::install(&spec("seed=1"));
    assert_eq!(panics_counted() - before, panics, "serve.worker.panic");

    // The same pool serves a fault-free load.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, pool, expected) = (&addr, &pool, &expected);
            scope.spawn(move || {
                let mut conn = Conn::open(addr);
                for r in 0..10 {
                    let i = (c + r) % pool.len();
                    let resp = conn.ask(&encode_measure(i as u64, &pool[i]));
                    assert_eq!(
                        resp, expected[i],
                        "responses after panics match the direct path"
                    );
                }
            });
        }
    });
    assert_eq!(server.queue_len(), 0, "admission queue drained");
    server.shutdown();
}

/// A panic can unwind out of a job with spans still open (here the
/// orchestrator's `measure` span, from a leader that dies). The worker
/// that catches it starts its next job with no open span, so each of the
/// next request's spans has either parent 0 or a parent in the trace.
#[test]
fn a_caught_panic_leaves_no_span_open_for_the_next_request() {
    let _guard = faults::scoped(&spec("seed=1"));
    let addr = temp_sock("panicspan");
    let mut cfg = ServerConfig::new(addr.clone());
    cfg.workers = 1;
    let server = Server::start(&cfg, Arc::new(Orchestrator::default())).expect("server starts");
    let pool = pool();
    let mut conn = Conn::open(&addr);
    let _ = telemetry::drain();
    telemetry::enable();
    faults::install(&spec("seed=808,leader.panic.hard=@1"));
    let first = conn.ask(&encode_measure(0, &pool[0]));
    let second = conn.ask(&encode_measure(0, &pool[0]));
    telemetry::disable();
    let events = telemetry::drain();
    server.shutdown();
    assert!(is_panic(&first), "{first}");
    assert_eq!(serve::line_status(&second), Some("ok"), "{second}");
    let spans: Vec<&SpanEvent> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let roots: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.name)
        .collect();
    assert_eq!(roots, ["measure"], "the second request's one root span");
    for s in &spans {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} ({}) has parent {}, which no span in the trace has",
            s.id,
            s.name,
            s.parent
        );
    }
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
