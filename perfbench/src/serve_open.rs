//! `serve-open`: an open-loop traffic mix against a `biaslab serve` child.
//!
//! One pipelined unix-socket connection: a sender thread writes requests on
//! a seeded Poisson schedule whatever the daemon's progress, and the
//! receiver matches responses by id and times each from its *scheduled*
//! send, so a stall is charged to every request queued behind it. 70 % of
//! requests repeat a 200-key hot set warmed during set-up (cache hits),
//! 30 % are fresh keys never requested before (simulations), so the miss
//! share, and with it the queueing, is fixed by the workload rather than
//! by how the cache happens to fill.

use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use biaslab_core::serve::{self, Addr, MeasureSpec, ServerConfig};
use biaslab_core::setup::LinkOrder;
use biaslab_core::Orchestrator;
use biaslab_toolchain::OptLevel;
use biaslab_workloads::{suite, InputSize};

use crate::calib::Calibration;
use crate::metrics::Outcome;
use crate::procs;
use crate::stats::tail;
use crate::util::{fnv64, Rng};
use crate::Ctx;

/// Keys in the hot set, warmed during set-up.
pub const HOT_KEYS: usize = 200;
/// Hot requests per ten: the hot share is exactly 0.70 in every phase.
const HOT_PER_TEN: usize = 7;
/// Offered rate of the measured phase, requests per second: the ladder
/// step nearest half the highest rate that meets the SLO on a 2-core host
/// (see README.md), frozen so every run offers the same load.
pub const REF_RATE: f64 = 500.0;
/// Fresh-key environment sizes, bytes.
const ENV_MIN: u64 = 23;
const ENV_MAX: u64 = 4096;
/// Set-ups per run; `setup_s` is their median. A set-up is short
/// (~0.2 s), so it takes more of them than the other workloads do.
const SETUPS: usize = 5;
/// Requests per segment of the measured phase (2 s at `REF_RATE`). The
/// calibration loop must not run beside the daemon, so it is timed between
/// segments, and each segment is scaled by the host speed around it.
const SEGMENT: usize = 1000;
/// Outstanding requests while warming the hot set (well under the
/// daemon's default admission queue of 64, so nothing is shed).
const WARM_WINDOW: usize = 16;
/// Phase-A responses (by id) folded into the pinned digest, with the hot
/// set's: fixed, so the digest does not depend on `--seconds`.
const DIGEST_PREFIX: u64 = 2000;
/// The SLO a ladder step must meet: p99 from scheduled send, share of
/// `ok` responses, and completions in the last second over arrivals.
const SLO_P99_MS: f64 = 20.0;
const SLO_OK_SHARE: f64 = 0.995;
const SLO_BACKLOG_SHARE: f64 = 0.95;
/// The capacity ladder: start rate, growth per step, step length floors.
const LADDER_START: f64 = 500.0;
const LADDER_GROWTH: f64 = 1.25;
const LADDER_STEP: Duration = Duration::from_secs(2);
const LADDER_MIN_REQUESTS: f64 = 1000.0;
/// How long the receiver waits for a response before declaring the rest
/// missing.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

const MACHINES: [&str; 3] = ["core2", "pentium4", "o3cpu"];
const OPTS: [OptLevel; 2] = [OptLevel::O2, OptLevel::O3];

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub id: u64,
    /// The wire line, newline-terminated.
    pub line: String,
    /// Scheduled send time, microseconds from the phase start.
    pub at_us: u64,
    /// Index into the hot set, or `None` for a fresh key.
    pub hot: Option<usize>,
}

/// The seeded request-stream generator. Keys and schedule come from
/// separate streams, so a phase's keys do not depend on its rate.
pub struct Gen {
    keys: Rng,
    times: Rng,
    benches: Vec<&'static str>,
    used: HashSet<(usize, usize, usize, u64)>,
    pub hot: Vec<MeasureSpec>,
    next_id: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        let mut g = Gen {
            keys: Rng::new(seed, "serve-keys"),
            times: Rng::new(seed, "serve-times"),
            benches: suite().iter().map(|b| b.name()).collect(),
            used: HashSet::new(),
            hot: Vec::new(),
            next_id: 1_000_000,
        };
        g.hot = (0..HOT_KEYS).map(|_| g.fresh()).collect();
        g
    }

    /// A key never drawn before.
    fn fresh(&mut self) -> MeasureSpec {
        loop {
            let key = (
                self.keys.below(self.benches.len() as u64) as usize,
                self.keys.below(MACHINES.len() as u64) as usize,
                self.keys.below(OPTS.len() as u64) as usize,
                ENV_MIN + self.keys.below(ENV_MAX - ENV_MIN + 1),
            );
            if self.used.insert(key) {
                return MeasureSpec {
                    bench: self.benches[key.0].to_owned(),
                    machine: MACHINES[key.1].to_owned(),
                    opt: OPTS[key.2],
                    order: LinkOrder::Default,
                    text_offset: 0,
                    stack_shift: 0,
                    env: key.3,
                    size: InputSize::Test,
                    budget: 0,
                };
            }
        }
    }

    /// The hot set's warm-up requests; request `i` has id `i + 1`.
    pub fn warm_lines(&self) -> Vec<String> {
        (0..self.hot.len())
            .map(|i| format!("{}\n", serve::encode_measure(i as u64 + 1, &self.hot[i])))
            .collect()
    }

    /// The next `n` requests (rounded up to a multiple of ten) at `rate`
    /// requests per second, with Poisson arrivals. Each block of ten holds
    /// exactly seven hot requests, so every phase is exactly 70 % hot and
    /// its key sequence does not depend on its length or rate.
    pub fn phase(&mut self, rate: f64, n: usize) -> Vec<Req> {
        let mut out = Vec::with_capacity(n.div_ceil(10) * 10);
        let mut t = 0.0f64;
        while out.len() < n {
            let mut block = [false; 10];
            block[..HOT_PER_TEN].fill(true);
            self.keys.shuffle(&mut block);
            for is_hot in block {
                t += -self.times.unit().ln() / rate * 1e6;
                let (hot, spec) = if is_hot {
                    let i = self.keys.below(HOT_KEYS as u64) as usize;
                    (Some(i), self.hot[i].clone())
                } else {
                    (None, self.fresh())
                };
                let id = self.next_id;
                self.next_id += 1;
                out.push(Req {
                    id,
                    line: format!("{}\n", serve::encode_measure(id, &spec)),
                    at_us: t as u64,
                    hot,
                });
            }
        }
        out
    }
}

/// The part of an `ok` response that must repeat for the same key:
/// setup, checksum and counters (everything but id, items and seal).
fn payload(line: &str) -> Option<&str> {
    let start = line.find("\"setup\"")?;
    let end = line.find(",\"items\"")?;
    line.get(start..end)
}

struct Conn {
    w: UnixStream,
    r: BufReader<UnixStream>,
}

impl Conn {
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.w.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        Ok(line.trim_end().to_owned())
    }

    /// The daemon's counters, asked for on the measurement connection
    /// itself (nothing else may be outstanding).
    fn stats(&mut self, id: u64) -> io::Result<String> {
        self.send(&format!("{}\n", serve::encode_control(id, "stats")))?;
        let line = self.recv()?;
        if serve::line_id(&line) != Some(id) || !serve::verify_sealed(&line) {
            return Err(io::Error::other(format!("bad stats response: {line}")));
        }
        Ok(line)
    }
}

/// A `biaslab serve` child with the default configuration, killed and
/// reaped if dropped before a clean stop.
struct Daemon {
    child: Option<Child>,
    pid: u32,
}

impl Daemon {
    fn start(bin: &Path, dir: &Path, sock: &Path) -> io::Result<(Daemon, Conn)> {
        std::fs::create_dir_all(dir)?;
        let child = crate::program(bin, "biaslab")
            .args(["serve", "--addr", &format!("unix:{}", sock.display())])
            .env("BIASLAB_RESULTS_DIR", dir.join("results"))
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(dir.join("serve.stderr"))?)
            .spawn()?;
        let d = Daemon {
            pid: child.id(),
            child: Some(child),
        };
        let give_up = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(e) if Instant::now() > give_up => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream.set_read_timeout(Some(RECV_TIMEOUT))?;
        let conn = Conn {
            w: stream.try_clone()?,
            r: BufReader::new(stream),
        };
        Ok((d, conn))
    }

    /// Asks for an immediate shutdown and waits (boundedly) for the exit.
    fn stop(mut self, conn: &mut Conn) -> io::Result<()> {
        conn.send(&format!("{}\n", serve::encode_shutdown(1, false)))?;
        let give_up = Instant::now() + RECV_TIMEOUT;
        loop {
            let child = self.child.as_mut().expect("running until stopped");
            match child.try_wait()? {
                Some(status) if status.success() => {
                    self.child = None;
                    return Ok(());
                }
                Some(_) => return Err(io::Error::other("serve daemon exited with failure")),
                None if Instant::now() > give_up => {
                    return Err(io::Error::other("serve daemon did not stop"));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Sends the warm-up lines with at most `WARM_WINDOW` outstanding and
/// returns the response to each, in order.
fn warm(conn: &mut Conn, lines: &[String]) -> io::Result<Vec<String>> {
    let mut out = vec![String::new(); lines.len()];
    let (mut sent, mut got) = (0, 0);
    while got < lines.len() {
        while sent < lines.len() && sent - got < WARM_WINDOW {
            conn.send(&lines[sent])?;
            sent += 1;
        }
        let line = conn.recv()?;
        let idx = serve::line_id(&line)
            .and_then(|id| usize::try_from(id).ok()?.checked_sub(1))
            .filter(|&i| i < lines.len())
            .ok_or_else(|| io::Error::other(format!("unexpected warm-up response: {line}")))?;
        out[idx] = line;
        got += 1;
    }
    Ok(out)
}

/// What one open-loop phase observed.
struct Phase {
    rate: f64,
    /// Latency from scheduled send per request, ms (`None`: no response).
    lat_ms: Vec<Option<f64>>,
    /// Completion time per request, µs from the phase start.
    done_us: Vec<Option<u64>>,
    ok: usize,
    /// Sender lateness per request, µs.
    late_us: Vec<f64>,
    wall: Duration,
    /// `(id, payload)` of the responses folded into the digest.
    digest: Vec<(u64, String)>,
}

impl Phase {
    /// Appends the next segment of the same phase (completion times stay
    /// relative to each segment's start).
    fn append(&mut self, next: Phase) {
        self.lat_ms.extend(next.lat_ms);
        self.done_us.extend(next.done_us);
        self.ok += next.ok;
        self.late_us.extend(next.late_us);
        self.wall += next.wall;
        self.digest.extend(next.digest);
    }

    fn failed(&self) -> usize {
        self.lat_ms.len() - self.ok
    }

    fn latencies(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .lat_ms
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .filter_map(|(_, l)| *l)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The ladder's pass rule (see the SLO constants). A missing response
    /// counts as missing every latency limit.
    fn meets_slo(&self, reqs: &[Req]) -> bool {
        let n = reqs.len();
        let mut lat: Vec<f64> = self
            .lat_ms
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        lat.sort_by(f64::total_cmp);
        let p99 = lat[(n * 99).div_ceil(100).max(1) - 1];
        let last = reqs.last().map_or(0, |r| r.at_us);
        let window = last.saturating_sub(1_000_000)..=last;
        let arrived = reqs.iter().filter(|r| window.contains(&r.at_us)).count();
        let completed = self
            .done_us
            .iter()
            .flatten()
            .filter(|d| window.contains(d))
            .count();
        p99 <= SLO_P99_MS
            && self.ok as f64 >= SLO_OK_SHARE * n as f64
            && completed as f64 >= SLO_BACKLOG_SHARE * arrived as f64
    }
}

/// Runs one open-loop phase: a sender thread on the schedule, this thread
/// receiving. Responses to hot keys must repeat the warm-up's payload; the
/// good responses whose ids are in `digest_ids` are kept for the digest.
fn open_loop(
    conn: &mut Conn,
    reqs: &[Req],
    warm: &[String],
    rate: f64,
    digest_ids: &Range<u64>,
) -> io::Result<Phase> {
    let n = reqs.len();
    let base = reqs[0].id;
    let mut writer = conn.w.try_clone()?;
    writer.set_write_timeout(Some(RECV_TIMEOUT))?;
    let start = Instant::now() + Duration::from_millis(2);
    let mut p = Phase {
        rate,
        lat_ms: vec![None; n],
        done_us: vec![None; n],
        ok: 0,
        late_us: Vec::new(),
        wall: Duration::ZERO,
        digest: Vec::new(),
    };
    std::thread::scope(|s| -> io::Result<()> {
        let sender = s.spawn(move || -> io::Result<Vec<f64>> {
            let mut late = Vec::with_capacity(n);
            for r in reqs {
                let due = start + Duration::from_micros(r.at_us);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                writer.write_all(r.line.as_bytes())?;
            }
            Ok(late)
        });
        let mut got = 0;
        while got < n {
            let Ok(line) = conn.recv() else { break };
            let now = Instant::now();
            let Some(i) = serve::line_id(&line)
                .and_then(|id| id.checked_sub(base))
                .and_then(|i| usize::try_from(i).ok())
                .filter(|&i| i < n && p.lat_ms[i].is_none())
            else {
                return Err(io::Error::other(format!("unexpected response: {line}")));
            };
            got += 1;
            let due = start + Duration::from_micros(reqs[i].at_us);
            p.lat_ms[i] = Some(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            p.done_us[i] = Some(now.saturating_duration_since(start).as_micros() as u64);
            let body = payload(&line)
                .filter(|_| serve::verify_sealed(&line) && serve::line_status(&line) == Some("ok"));
            let repeats = match (body, reqs[i].hot) {
                (Some(b), Some(h)) => payload(&warm[h]) == Some(b),
                (b, None) => b.is_some(),
                (None, Some(_)) => false,
            };
            if repeats {
                p.ok += 1;
                if digest_ids.contains(&reqs[i].id) {
                    p.digest
                        .push((reqs[i].id, body.unwrap_or_default().to_owned()));
                }
            } else if got - p.ok <= 3 {
                eprintln!(
                    "perfbench: bad serve response for id {}: {line}",
                    reqs[i].id
                );
            }
        }
        p.wall = start.elapsed();
        p.late_us = sender.join().expect("sender thread panicked")?;
        Ok(())
    })?;
    Ok(p)
}

/// Counter deltas between two `stats` lines.
fn deltas(before: &str, after: &str, names: &[&str]) -> BTreeMap<String, u64> {
    names
        .iter()
        .map(|&k| {
            let get = |l: &str| serve::stats_counter(l, k).unwrap_or(0);
            (k.to_owned(), get(after).saturating_sub(get(before)))
        })
        .collect()
}

const COUNTERS: &[&str] = &[
    "orch.hits",
    "orch.misses",
    "orch.simulated",
    "orch.cached",
    "orch.loaded",
    "orch.busy_us",
    "orch.sweep_wall_us",
    "uarch.blockcache.hit",
    "uarch.blockcache.miss",
    "serve.shed",
];

pub fn run(ctx: &Ctx, o: &mut Outcome) -> io::Result<()> {
    let mut gen = Gen::new(ctx.seed);
    let warm_lines = gen.warm_lines();
    let sock = ctx.work.join("d.sock");

    // Set-up: spawn → bind → warm the hot set, several times; the last
    // daemon serves the measured phase. Every set-up and segment sits
    // between two calibration timings; `*_at` holds the one before it.
    let mut cal = Calibration::new();
    let (mut setup_s, mut setup_at) = (Vec::new(), Vec::new());
    let mut live = None;
    for i in 0..SETUPS {
        setup_at.push(cal.sample());
        let t = Instant::now();
        let (daemon, mut conn) =
            Daemon::start(&ctx.bin_dir, &ctx.work.join(format!("setup-{i}")), &sock)?;
        let warm = warm(&mut conn, &warm_lines)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            daemon.stop(&mut conn)?;
        } else {
            live = Some((daemon, conn, warm));
        }
    }
    let (daemon, mut conn, warm) = live.expect("at least one set-up");
    for (i, line) in warm.iter().enumerate() {
        if !(serve::verify_sealed(line) && serve::line_status(line) == Some("ok")) {
            o.problem(format!(
                "warm-up response {} is not a sealed ok: {line}",
                i + 1
            ));
        }
    }

    // Phase A at the reference rate; in a traced run it is shorter and a
    // capacity ladder follows.
    let phase_s = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let n = (REF_RATE * phase_s) as usize;
    let digest_ids = gen.next_id..gen.next_id + DIGEST_PREFIX;
    let before = conn.stats(1)?;
    let (mut reqs, mut a) = (Vec::new(), None::<Phase>);
    // Per request, the calibration timing before its segment; per segment,
    // the daemon's CPU per request and that timing.
    let (mut req_at, mut seg_cpu, mut seg_at) = (vec![], vec![], vec![]);
    while reqs.len() < n {
        let seg = gen.phase(REF_RATE, SEGMENT.min(n - reqs.len()));
        let c = cal.sample();
        let cpu0 = procs::proc_cpu(daemon.pid);
        let p = open_loop(&mut conn, &seg, &warm, REF_RATE, &digest_ids)?;
        let cpu = procs::proc_cpu(daemon.pid).zip(cpu0).map(|(b, a)| b - a);
        seg_cpu.push(cpu.unwrap_or_default().as_secs_f64() * 1e3 / seg.len() as f64);
        seg_at.push(c);
        req_at.extend(std::iter::repeat_n(c, seg.len()));
        reqs.extend(seg);
        match &mut a {
            None => a = Some(p),
            Some(a) => a.append(p),
        }
    }
    cal.sample();
    let a = a.expect("the measured phase has at least one segment");
    let after = conn.stats(2)?;
    let rss_kb = procs::peak_rss_kb(daemon.pid);
    o.attempted = reqs.len() as u64;
    o.failed = a.failed() as u64;

    // Hits (~0.2 ms) and fresh keys (~2 ms) form two modes, and the median
    // of all requests falls in the sparse gap between them, where a small
    // change in queueing moves it by half. The fresh-key median is the
    // latency of the work the daemon exists for, queueing included.
    o.details.push(cal.describe());
    o.put_scaled("setup_s", &setup_s, &cal.factors(&setup_at));
    let (mut fresh, mut fresh_at) = (vec![], vec![]);
    for ((lat, r), &c) in a.lat_ms.iter().zip(&reqs).zip(&req_at) {
        if let (Some(lat), None) = (lat, r.hot) {
            fresh.push(*lat);
            fresh_at.push(c);
        }
    }
    o.put_scaled("wall_ms", &fresh, &cal.factors(&fresh_at));
    o.put_scaled("cpu_ms", &seg_cpu, &cal.factors(&seg_at));
    o.put_value("peak_rss_mb", rss_kb.unwrap_or(0) as f64 / 1024.0);
    describe_phase(&a, &reqs, o);

    let d = deltas(&before, &after, COUNTERS);
    o.put_counters(&d, 1.0, 1.0);
    let hits = d["orch.hits"] as f64;
    o.put_value(
        "serve.hit_rate",
        hits / (hits + d["orch.misses"] as f64).max(1.0),
    );
    let workers = ServerConfig::new(Addr::Unix(PathBuf::new())).workers as f64;
    o.put_value(
        "serve.busy_share",
        d["orch.busy_us"] as f64 / (a.wall.as_secs_f64() * 1e6 * workers),
    );
    o.put_value(
        "serve.queue_depth_max",
        serve::stats_counter(&after, "serve.queue_depth_max").unwrap_or(0) as f64,
    );
    o.put_value("serve.shed", d["serve.shed"] as f64);

    if ctx.trace {
        ladder(&mut conn, &mut gen, &warm, ctx.seconds - phase_s, o)?;
    }
    daemon.stop(&mut conn)?;

    // The pinned digest folds the hot set and the first Phase-A responses
    // (a phase too short to hold them all has nothing comparable).
    if a.digest.len() as u64 == DIGEST_PREFIX {
        let mut entries: Vec<(u64, String)> = warm
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u64 + 1, payload(l).unwrap_or_default().to_owned()))
            .chain(a.digest.iter().cloned())
            .collect();
        entries.sort();
        let text: String = entries
            .iter()
            .map(|(id, p)| format!("{id} {p}\n"))
            .collect();
        crate::pins::check(o, "serve-open", ctx.seed, fnv64(text.as_bytes()));
    }

    // Differential: the daemon must answer exactly what the in-process
    // path produces for the same keys.
    let orch = Orchestrator::new();
    for (i, spec) in gen.hot.iter().enumerate() {
        let h = orch
            .harness(&spec.bench)
            .expect("generated benchmarks exist");
        let setup = spec.setup().expect("generated specs are in range");
        let expected = serve::encode_response(i as u64 + 1, &orch.measure(&h, &setup, spec.size));
        if expected != warm[i] {
            o.problem(format!(
                "daemon response {} differs from the in-process path",
                i + 1
            ));
        }
    }
    if ctx.trace {
        crate::probes::toolchain_and_uarch(ctx.seed, o);
        let dir = ctx.work.join("hot");
        orch.save(&dir.join("measurements.jsonl"))?;
        crate::probes::persistence(&dir, o)?;
        // The daemon emits no spans and persists nothing per request.
        let none = crate::spans::Breakdown::default();
        o.put_span_shares(&none, 1.0);
        for m in [
            "persist.load_pct",
            "persist.save_pct",
            "telemetry.overhead_pct",
        ] {
            o.put_value(m, 0.0);
        }
        o.put_value("unattributed_pct", 100.0);
    }
    Ok(())
}

/// Detail lines for a phase: tail latency and the split by key class.
fn describe_phase(p: &Phase, reqs: &[Req], o: &mut Outcome) {
    let fmt = |v: Option<f64>| v.map_or("n/a".to_owned(), |x| format!("{x:.3}"));
    let all = p.latencies(|_| true);
    let fresh = p.latencies(|i| reqs[i].hot.is_none());
    let repeat = p.latencies(|i| reqs[i].hot.is_some());
    let mut late = p.late_us.clone();
    late.sort_by(f64::total_cmp);
    o.details.push(format!(
        "serve rate={:.2}/s n={} ok={} p50_ms={} p99_ms={} fresh_p50_ms={} fresh_p99_ms={} \
         repeat_p50_ms={} repeat_p99_ms={} late_p99_ms={} throughput={:.1}/s",
        p.rate,
        reqs.len(),
        p.ok,
        fmt(tail(&all, 0.5)),
        fmt(tail(&all, 0.99)),
        fmt(tail(&fresh, 0.5)),
        fmt(tail(&fresh, 0.99)),
        fmt(tail(&repeat, 0.5)),
        fmt(tail(&repeat, 0.99)),
        fmt(tail(&late, 0.99).map(|u| u / 1e3)),
        p.ok as f64 / p.wall.as_secs_f64(),
    ));
}

/// The capacity ladder: steps of ×1.25 from 500 requests/s, each at least
/// two seconds and 1000 requests, until a step fails the SLO or the time
/// budget runs out. Reports the highest passing rate as a detail line.
fn ladder(
    conn: &mut Conn,
    gen: &mut Gen,
    warm: &[String],
    budget_s: f64,
    o: &mut Outcome,
) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s.max(0.0));
    let mut rate = LADDER_START;
    let mut best = None;
    let ended = loop {
        let secs = LADDER_STEP.as_secs_f64().max(LADDER_MIN_REQUESTS / rate);
        if Instant::now() + Duration::from_secs_f64(secs) > deadline {
            break "time budget reached: a lower bound";
        }
        let reqs = gen.phase(rate, (rate * secs) as usize);
        let p = open_loop(conn, &reqs, warm, rate, &(0..0))?;
        describe_phase(&p, &reqs, o);
        if !p.meets_slo(&reqs) {
            break "the next step failed the SLO";
        }
        best = Some(rate);
        rate *= LADDER_GROWTH;
    };
    o.details.push(format!(
        "serve max_rps={} ({ended})",
        best.map_or("below the first step".to_owned(), |r| format!("{r:.2}"))
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use biaslab_toolchain::layout::STACK_MAX;

    #[test]
    fn the_request_stream_is_a_pure_function_of_the_seed() {
        let stream = |seed| {
            let mut g = Gen::new(seed);
            let mut v = g.warm_lines();
            v.extend(
                g.phase(REF_RATE, 3000)
                    .into_iter()
                    .map(|r| format!("{} {}", r.at_us, r.line)),
            );
            v
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        // The key sequence, which the pinned digest covers, is a prefix
        // property: it does not depend on the phase's length or rate.
        let keys = |rate, n| -> Vec<String> {
            Gen::new(7)
                .phase(rate, n)
                .into_iter()
                .take(500)
                .map(|r| r.line)
                .collect()
        };
        assert_eq!(keys(REF_RATE, 5000), keys(LADDER_START, 600));
    }

    #[test]
    fn fresh_keys_are_unique_hot_share_is_exact_and_envs_are_accepted() {
        let mut g = Gen::new(3);
        let mut seen: HashSet<String> = g.hot.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(seen.len(), HOT_KEYS);
        for (rate, n) in [(REF_RATE, 5000), (LADDER_START, 1000)] {
            let reqs = g.phase(rate, n);
            assert_eq!(reqs.len(), n);
            let hot = reqs.iter().filter(|r| r.hot.is_some()).count();
            assert_eq!(hot * 10, n * HOT_PER_TEN, "hot share is exactly 0.70");
            assert!(reqs
                .windows(2)
                .all(|w| w[0].at_us <= w[1].at_us && w[0].id < w[1].id));
            for r in &reqs {
                let req =
                    serve::parse_request(r.line.trim_end()).expect("the daemon accepts every line");
                let serve::Request::Measure { spec, .. } = req else {
                    panic!("a measure request")
                };
                assert!((ENV_MIN..=(STACK_MAX / 2) as u64).contains(&spec.env));
                assert!(spec.setup().is_some());
                match r.hot {
                    Some(h) => assert_eq!(spec, g.hot[h]),
                    None => assert!(seen.insert(format!("{spec:?}")), "fresh key repeated"),
                }
            }
        }
    }
}
