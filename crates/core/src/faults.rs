//! Deterministic, seeded fault injection (failpoints) for the measure path.
//!
//! The paper's thesis is that unexamined properties of the experimental
//! setup corrupt conclusions; the same holds for the measurement
//! *infrastructure*. A torn results file, a dead single-flight leader or a
//! runaway simulation produces wrong figures without doing anything
//! obviously wrong. This module makes those failures **injectable on
//! demand and reproducible by seed**, so the recovery paths the
//! orchestrator and harness grew (leader takeover, torn-write quarantine,
//! persistence retry/degradation, the watchdog) are exercised by tests
//! and CI instead of waiting for production to exercise them.
//!
//! # Failpoint sites
//!
//! Each site is a named point in the measure path where a fault can fire
//! (see [`site`]). What firing *means* is fixed per site — an I/O error,
//! a short write, a panic, a delay — and every consumer recovers, so an
//! all-recoverable schedule leaves figures byte-identical to a fault-free
//! run (`tests/chaos.rs` pins exactly that).
//!
//! # Spec grammar
//!
//! Faults are enabled via `BIASLAB_FAULTS=<spec>` or programmatically
//! ([`install`], [`scoped`]):
//!
//! ```text
//! spec    := entry (',' entry)*
//! entry   := 'seed=' u64            -- schedule seed (default 0)
//!          | site '=' trigger
//! trigger := float                  -- fire with this probability per hit
//!          | '@' n                  -- fire exactly on the n-th hit (1-based)
//! ```
//!
//! Example: `seed=7,save.io=0.4,leader.panic=0.1,measure.delay=@3`.
//!
//! # Determinism
//!
//! Probabilistic triggers hash `(seed, site, hit-index)` — not a clock,
//! not a thread id — so one spec produces one fire-set per site: the same
//! hit indices fire on every run (`proptest` pins this). Under
//! parallelism the *assignment* of hit indices to threads can vary, but
//! every injected fault is recoverable, so results never depend on it.
//!
//! # Zero cost when off
//!
//! Like [`crate::telemetry`], the layer is off by default and gated on
//! one relaxed atomic load ([`active`]); instrumented call sites check it
//! before touching anything else.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::jsonl::fnv64;
use crate::sync::lock_unpoisoned;
use crate::telemetry::{self, FaultKind};

/// The failpoint sites threaded through the stack. Each constant names
/// one injection point; the action is fixed per site.
pub mod site {
    /// I/O error while writing the results file ([`crate::Orchestrator`]
    /// persistence). Recovered by bounded retry, then by degradation to
    /// in-memory-only operation.
    pub const SAVE_IO: &str = "save.io";
    /// Short write: a record line is cut mid-byte and the write fails,
    /// modelling a torn write. The temp-file discipline keeps the real
    /// results file intact; retry rewrites from scratch.
    pub const SAVE_SHORT: &str = "save.short";
    /// I/O error while reading the results file on resume. Recovered by
    /// retry, then by starting cold (re-simulation).
    pub const LOAD_IO: &str = "load.io";
    /// The single-flight leader panics before publishing its result. The
    /// leader recovers by retiring its in-flight cell and re-requesting;
    /// concurrent waiters elect a new leader either way.
    pub const LEADER_PANIC: &str = "leader.panic";
    /// Like [`LEADER_PANIC`], but the panic is rethrown after cleanup —
    /// the leader thread genuinely dies, as an arbitrary bug would make
    /// it. Waiters still recover by takeover. Not byte-identity-safe (the
    /// panicking caller observes the panic); tests use it to pin the
    /// takeover protocol under real leader death.
    pub const LEADER_PANIC_HARD: &str = "leader.panic.hard";
    /// A short scheduling delay at the head of [`crate::Harness::measure`].
    pub const MEASURE_DELAY: &str = "measure.delay";
    /// The simulation "runs away": the attempt reports watchdog budget
    /// exhaustion instead of running. Recovered by the orchestrator's
    /// retry-once; the retry attempt never re-injects, so an injected
    /// runaway is always recoverable (a *real* budget exhaustion is
    /// deterministic and quarantines the key instead).
    pub const MEASURE_RUNAWAY: &str = "measure.runaway";
    /// A short scheduling delay in sweep / `repro` driver workers.
    pub const WORKER_DELAY: &str = "worker.delay";
    /// The `biaslab serve` acceptor drops a just-accepted connection
    /// before handing it to a reader thread, as a transient accept
    /// failure would. The client recovers by reconnecting.
    pub const SERVE_ACCEPT: &str = "serve.accept";
    /// A short write on a serve connection: half of one response line
    /// reaches the socket, then the connection dies — the classic torn
    /// JSONL. The client detects the truncated line (no newline, or a
    /// `crc` that does not verify) and recovers by reconnect-and-retry.
    pub const SERVE_WRITE_SHORT: &str = "serve.write.short";
    /// The serve connection is dropped after a request is admitted but
    /// before its response is written (a mid-exchange disconnect). The
    /// client sees EOF instead of a response and retries.
    pub const SERVE_DROP: &str = "serve.drop";
    /// A slow client: the serve reader stalls briefly before handling a
    /// request line, modelling a peer that trickles its bytes. A
    /// scheduling perturbation only — responses never depend on it.
    pub const SERVE_SLOW: &str = "serve.slow";
    /// A serve pool worker dies mid-job, as an arbitrary bug in request
    /// handling would make it. The job's client still receives a typed
    /// `panic` error, and the supervisor respawns the worker under its
    /// restart budget — the pool shrinks, then recovers.
    pub const SERVE_WORKER_PANIC: &str = "serve.worker_panic";
    /// The daemon "crashes" (the worker dies unrecoverably) after writing
    /// half of a sweep-journal line and before the fsync, modelling a kill
    /// mid-append. The torn line fails its crc on reload and only that
    /// item is re-simulated; every fully journaled item is replayed.
    pub const SERVE_CRASH_JOURNAL: &str = "serve.crash_before_journal_fsync";

    /// Every known site, for spec validation and docs.
    pub const ALL: &[&str] = &[
        SAVE_IO,
        SAVE_SHORT,
        LOAD_IO,
        LEADER_PANIC,
        LEADER_PANIC_HARD,
        MEASURE_DELAY,
        MEASURE_RUNAWAY,
        WORKER_DELAY,
        SERVE_ACCEPT,
        SERVE_WRITE_SHORT,
        SERVE_DROP,
        SERVE_SLOW,
        SERVE_WORKER_PANIC,
        SERVE_CRASH_JOURNAL,
    ];
}

/// When a site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire with this probability on every hit (seeded, deterministic).
    Prob(f64),
    /// Fire exactly on the n-th hit of the site (1-based), never again.
    Nth(u64),
}

/// A parsed fault schedule: a seed plus per-site triggers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed for the probabilistic schedule.
    pub seed: u64,
    entries: Vec<(&'static str, Trigger)>,
}

impl FaultSpec {
    /// Parses the spec grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry or unknown
    /// site.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (name, value) = raw
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{raw}` is not `name=value`"))?;
            let (name, value) = (name.trim(), value.trim());
            if name == "seed" {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("bad seed `{value}` (want a u64)"))?;
                continue;
            }
            let site = *site::ALL
                .iter()
                .find(|s| **s == name)
                .ok_or_else(|| format!("unknown fault site `{name}` (known: {:?})", site::ALL))?;
            let trigger = if let Some(n) = value.strip_prefix('@') {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("bad hit index `{value}` for `{name}` (want @<n>)"))?;
                if n == 0 {
                    return Err(format!("hit index for `{name}` is 1-based, got @0"));
                }
                Trigger::Nth(n)
            } else {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("bad probability `{value}` for `{name}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "probability for `{name}` must be in [0,1], got {p}"
                    ));
                }
                Trigger::Prob(p)
            };
            out.entries.retain(|(s, _)| *s != site); // last entry wins
            out.entries.push((site, trigger));
        }
        Ok(out)
    }

    /// The configured `(site, trigger)` entries, in spec order.
    #[must_use]
    pub fn entries(&self) -> &[(&'static str, Trigger)] {
        &self.entries
    }

    /// Whether this schedule fires `site` on its `hit`-th hit (0-based):
    /// the fire-set an installed copy follows, as a pure function of the
    /// spec. An unscheduled site never fires.
    #[must_use]
    pub fn fires(&self, site: &str, hit: u64) -> bool {
        self.entries
            .iter()
            .find(|(s, _)| *s == site)
            .is_some_and(|&(s, trigger)| decides(self.seed, s, trigger, hit))
    }

    /// Adds (or replaces) one site's trigger — the programmatic spelling
    /// of a spec entry.
    #[must_use]
    pub fn with(mut self, site: &'static str, trigger: Trigger) -> FaultSpec {
        self.entries.retain(|(s, _)| *s != site);
        self.entries.push((site, trigger));
        self
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (site, trigger) in &self.entries {
            match trigger {
                Trigger::Prob(p) => write!(f, ",{site}={p}")?,
                Trigger::Nth(n) => write!(f, ",{site}=@{n}")?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Runtime state

/// One installed schedule: the spec plus a per-site hit counter.
#[derive(Debug)]
struct Installed {
    seed: u64,
    sites: HashMap<&'static str, (Trigger, AtomicU64)>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<Option<Arc<Installed>>> {
    static STATE: OnceLock<Mutex<Option<Arc<Installed>>>> = OnceLock::new();
    STATE.get_or_init(Mutex::default)
}

/// Whether any fault schedule is installed. One relaxed atomic load —
/// every injection point checks this before doing anything else, so with
/// faults off the measure path pays exactly this load.
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs a schedule process-wide (hit counters start at zero).
pub fn install(spec: &FaultSpec) {
    let installed = Installed {
        seed: spec.seed,
        sites: spec
            .entries
            .iter()
            .map(|&(site, trigger)| (site, (trigger, AtomicU64::new(0))))
            .collect(),
    };
    *lock_unpoisoned(state()) = Some(Arc::new(installed));
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Removes any installed schedule (the layer returns to zero-cost off).
pub fn clear() {
    ACTIVE.store(false, Ordering::Relaxed);
    *lock_unpoisoned(state()) = None;
}

/// Installs the schedule named by `BIASLAB_FAULTS`, if set. Returns
/// whether one was installed.
///
/// # Errors
///
/// Returns the parse error for a malformed spec (and installs nothing).
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("BIASLAB_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(&FaultSpec::parse(&spec).map_err(|e| format!("BIASLAB_FAULTS: {e}"))?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// A scoped installation for tests: holds a process-wide lock (so
/// concurrent fault-injecting tests serialize), installs on entry, and
/// clears on drop whatever the test outcome.
#[derive(Debug)]
pub struct ScopedFaults(#[allow(dead_code)] MutexGuard<'static, ()>);

/// Installs `spec` for the lifetime of the returned guard (see
/// [`ScopedFaults`]).
#[must_use]
pub fn scoped(spec: &FaultSpec) -> ScopedFaults {
    static SCOPE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = lock_unpoisoned(SCOPE_LOCK.get_or_init(Mutex::default));
    install(spec);
    ScopedFaults(guard)
}

impl Drop for ScopedFaults {
    fn drop(&mut self) {
        clear();
    }
}

// ---------------------------------------------------------------------------
// Evaluation

/// Finalizes a hash with full avalanche (murmur3's 64-bit finalizer).
/// FNV-1a alone is not enough here: its final multiply spreads a change
/// in the last input byte (the hit index) only into the low ~40 bits, so
/// consecutive hit indices would map to nearly identical unit values and
/// a probability trigger would fire in long runs instead of
/// independently per hit.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Maps a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (mix(h) >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether `site`, scheduled with `trigger` under `seed`, fires on its
/// `hit`-th hit (0-based). A pure function of its arguments: this is the
/// whole determinism contract, so one spec yields one fire-set per site
/// on every run.
fn decides(seed: u64, site: &str, trigger: Trigger, hit: u64) -> bool {
    match trigger {
        Trigger::Nth(k) => hit + 1 == k,
        Trigger::Prob(p) => unit(fnv64(&format!("{seed}:{site}:{hit}"))) < p,
    }
}

/// Evaluates one hit of `site` against the installed schedule: advances
/// the site's hit counter and asks `decides` whether the fault fires.
/// Counts every fire in `fault.injected.<site>` and emits a trace event
/// when telemetry is on. Always `false` when no schedule is installed or
/// the site is not scheduled.
#[must_use]
pub fn fire(site: &str) -> bool {
    if !active() {
        return false;
    }
    let Some(installed) = lock_unpoisoned(state()).clone() else {
        return false;
    };
    let Some((trigger, hits)) = installed.sites.get(site) else {
        return false;
    };
    let n = hits.fetch_add(1, Ordering::Relaxed);
    let fired = decides(installed.seed, site, *trigger, n);
    if fired {
        telemetry::metrics()
            .counter(&format!("fault.injected.{site}"))
            .add(1);
        if telemetry::enabled() {
            telemetry::emit_fault(FaultKind::Injected, site);
        }
    }
    fired
}

/// Counts one recovery from an injected or real fault: bumps
/// `fault.recovered.<kind>` and emits a trace event when telemetry is
/// on. `kind` names the recovery mechanism (`leader.takeover`,
/// `io.retry`, `watchdog.retry`, `persist.degraded`, …), not the fault.
pub fn recovered(kind: &str) {
    telemetry::metrics()
        .counter(&format!("fault.recovered.{kind}"))
        .add(1);
    if telemetry::enabled() {
        telemetry::emit_fault(FaultKind::Recovered, kind);
    }
}

/// An injected I/O error for `site`, if the site fires on this hit.
#[must_use]
pub fn io_error(site: &str) -> Option<std::io::Error> {
    fire(site).then(|| std::io::Error::other(format!("injected fault: {site}")))
}

/// Sleeps briefly if the delay site fires on this hit. The delay is a
/// scheduling perturbation only — results can never depend on it.
pub fn delay(site: &str) {
    if fire(site) {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The payload of an injected panic. The single-flight leader
/// distinguishes it from a real panic: a recoverable injected panic is
/// swallowed (the leader retires its cell and re-requests); anything
/// else is rethrown after cleanup, and the waiters recover by takeover.
#[derive(Debug)]
pub struct InjectedPanic {
    /// Whether the panicking thread may recover by retrying (true for
    /// [`site::LEADER_PANIC`], false for [`site::LEADER_PANIC_HARD`]).
    pub recoverable: bool,
}

/// Panics with an [`InjectedPanic`] payload if either leader-panic site
/// fires on this hit.
pub fn maybe_panic_leader() {
    if fire(site::LEADER_PANIC) {
        std::panic::panic_any(InjectedPanic { recoverable: true });
    }
    if fire(site::LEADER_PANIC_HARD) {
        std::panic::panic_any(InjectedPanic { recoverable: false });
    }
}

/// Downcasts a panic payload to its injected marker, if it is one.
#[must_use]
pub fn injected_panic(payload: &(dyn std::any::Any + Send)) -> Option<&InjectedPanic> {
    payload.downcast_ref::<InjectedPanic>()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::sample::select;

    use super::*;

    #[test]
    fn specs_parse_and_roundtrip() {
        let spec = FaultSpec::parse("seed=7, save.io=0.25,leader.panic=@3").expect("parses");
        assert_eq!(spec.seed, 7);
        assert_eq!(
            spec.entries(),
            &[
                (site::SAVE_IO, Trigger::Prob(0.25)),
                (site::LEADER_PANIC, Trigger::Nth(3)),
            ]
        );
        let again = FaultSpec::parse(&spec.to_string()).expect("canonical form parses");
        assert_eq!(spec, again);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "save.io",           // no value
            "seed=x",            // bad seed
            "nonesuch=0.5",      // unknown site
            "save.io=1.5",       // probability out of range
            "save.io=@0",        // 0 is not a 1-based index
            "save.io=@x",        // bad index
            "leader.panic=high", // bad probability
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
        // Empty specs install nothing but are not errors.
        assert_eq!(FaultSpec::parse("").expect("ok").entries().len(), 0);
    }

    #[test]
    fn last_entry_per_site_wins() {
        let spec = FaultSpec::parse("save.io=0.1,save.io=@2").expect("parses");
        assert_eq!(spec.entries(), &[(site::SAVE_IO, Trigger::Nth(2))]);
    }

    #[test]
    fn inactive_layer_never_fires() {
        let _guard = scoped(&FaultSpec::default());
        clear();
        assert!(!active());
        assert!(!fire(site::SAVE_IO));
        assert!(io_error(site::SAVE_IO).is_none());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let spec = FaultSpec::default().with(site::SAVE_IO, Trigger::Nth(3));
        let _guard = scoped(&spec);
        let fires: Vec<bool> = (0..6).map(|_| fire(site::SAVE_IO)).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        // Unscheduled sites never fire even while a schedule is active.
        assert!(!fire(site::LOAD_IO));
    }

    #[test]
    fn probability_bounds_are_exact() {
        let _guard = scoped(&FaultSpec::default().with(site::SAVE_IO, Trigger::Prob(1.0)));
        assert!((0..32).all(|_| fire(site::SAVE_IO)), "p=1 always fires");
        drop(_guard);
        let _guard = scoped(&FaultSpec::default().with(site::SAVE_IO, Trigger::Prob(0.0)));
        assert!((0..32).all(|_| !fire(site::SAVE_IO)), "p=0 never fires");
    }

    #[test]
    fn injected_panics_carry_their_marker() {
        let _guard = scoped(&FaultSpec::default().with(site::LEADER_PANIC, Trigger::Nth(1)));
        let payload = std::panic::catch_unwind(maybe_panic_leader).expect_err("panics");
        let marker = injected_panic(payload.as_ref()).expect("injected marker");
        assert!(marker.recoverable);
        drop(_guard);
        let _guard = scoped(&FaultSpec::default().with(site::LEADER_PANIC_HARD, Trigger::Nth(1)));
        let payload = std::panic::catch_unwind(maybe_panic_leader).expect_err("panics");
        assert!(
            !injected_panic(payload.as_ref())
                .expect("marker")
                .recoverable
        );
    }

    #[test]
    fn a_spec_reports_the_fire_set_it_installs() {
        let spec = FaultSpec::parse("seed=9,save.io=0.3,load.io=@4").expect("parses");
        for hit in 0..256 {
            assert_eq!(
                spec.fires(site::SAVE_IO, hit),
                decides(9, site::SAVE_IO, Trigger::Prob(0.3), hit)
            );
            assert_eq!(spec.fires(site::LOAD_IO, hit), hit == 3);
            assert!(!spec.fires(site::SAVE_SHORT, hit), "unscheduled");
        }
    }

    /// The decisions for a site's first `hits` hits. Checked on the pure
    /// [`decides`], not through [`fire`]: the installed schedule and its
    /// hit counters are process-global, and other tests fire sites while
    /// one is installed.
    fn fire_set(seed: u64, site: &str, trigger: Trigger, hits: u64) -> Vec<bool> {
        (0..hits).map(|n| decides(seed, site, trigger, n)).collect()
    }

    proptest! {
        #[test]
        fn seeded_schedules_replay_exactly(
            seed in 0u64..1_000_000,
            p_mille in 0u64..=1000,
            s in select(site::ALL.to_vec()),
        ) {
            let trigger = Trigger::Prob(p_mille as f64 / 1000.0);
            let first = fire_set(seed, s, trigger, 64);
            let second = fire_set(seed, s, trigger, 64);
            prop_assert_eq!(first, second, "same spec, same schedule");
        }

        #[test]
        fn seeds_change_probabilistic_schedules(
            seed in 0u64..1_000_000,
            s in select(site::ALL.to_vec()),
        ) {
            // With p=0.5 over 64 hits, two different seeds agreeing on
            // every decision is a 2^-64 event — treat it as failure.
            let half = Trigger::Prob(0.5);
            prop_assert_ne!(
                fire_set(seed, s, half, 64),
                fire_set(seed.wrapping_add(1), s, half, 64)
            );
        }

        #[test]
        fn probability_triggers_fire_at_their_rate(
            seed in 0u64..1_000_000,
            p_mille in 0u64..=1000,
            s in select(site::ALL.to_vec()),
        ) {
            // Per-hit decisions must be independent draws: a hash that
            // spread the hit index poorly would fire in long runs, far
            // from `p` over a window (one standard deviation here is at
            // most 0.008).
            let p = p_mille as f64 / 1000.0;
            let fires = fire_set(seed, s, Trigger::Prob(p), 4096);
            let rate = fires.iter().filter(|&&f| f).count() as f64 / 4096.0;
            prop_assert!((rate - p).abs() <= 0.05, "seed {seed}, {s}: rate {rate} for p={p}");
        }

        #[test]
        fn specs_roundtrip_through_display(
            seed in 0u64..=u64::MAX,
            s in select(site::ALL.to_vec()),
            n in 1u64..1000,
        ) {
            let spec = FaultSpec { seed, ..FaultSpec::default() }.with(s, Trigger::Nth(n));
            prop_assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }
}
