//! Cross-experiment parallel driver for `repro all`.
//!
//! Experiments are independent generators over the process-global
//! [`biaslab_core::Orchestrator`] cache, so they can run concurrently; the
//! only observable ordering is stdout. The driver therefore buffers each
//! experiment's output block and flushes blocks strictly in registry
//! (paper) order as they complete, which keeps stdout byte-identical to
//! running the experiments one after another, whatever the worker count
//! or completion order.
//!
//! A panicking experiment is confined to its block: the worker catches the
//! unwind, the block reports the panic in place of the figure, and the
//! remaining experiments still run and flush. [`run_all`] returns how many
//! experiments panicked so the caller can exit nonzero.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use biaslab_core::{faults, telemetry};

use crate::experiments::{Effort, ExperimentInfo};

/// The outcome of one experiment under the driver.
#[derive(Debug)]
pub struct ExperimentRun {
    /// Experiment id, e.g. `"fig3"`.
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The experiment's output, or the panic message if it panicked.
    pub outcome: Result<String, String>,
    /// Wall time the experiment spent on its worker.
    pub seconds: f64,
}

/// Writes the banner that precedes each experiment in `repro all` output.
///
/// # Errors
///
/// Propagates write errors from `w`.
pub fn write_banner<W: Write>(w: &mut W, id: &str, title: &str) -> io::Result<()> {
    writeln!(w, "{}", "=".repeat(64))?;
    writeln!(w, "== {id} — {title}")?;
    writeln!(w, "{}", "=".repeat(64))
}

/// Writes one experiment's complete stdout block: banner, then the output
/// (or a one-line panic notice).
///
/// # Errors
///
/// Propagates write errors from `w`.
pub fn write_block<W: Write>(w: &mut W, run: &ExperimentRun) -> io::Result<()> {
    write_banner(w, run.id, run.title)?;
    match &run.outcome {
        Ok(output) => writeln!(w, "{output}"),
        Err(msg) => writeln!(w, "!! {} panicked: {msg}", run.id),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `experiments` on up to `jobs` worker threads, writing each block to
/// `out` in registry order as soon as it and all its predecessors are done.
/// `on_flush` fires after each block is written (in the same order) — the
/// `repro` binary uses it for stderr instrumentation and persistence.
///
/// Returns the number of experiments that panicked.
///
/// # Errors
///
/// Propagates write errors from `out`.
pub fn run_all<W, F>(
    experiments: &[ExperimentInfo],
    effort: Effort,
    jobs: usize,
    out: &mut W,
    mut on_flush: F,
) -> io::Result<usize>
where
    W: Write,
    F: FnMut(&ExperimentRun),
{
    let jobs = jobs.clamp(1, experiments.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, ExperimentRun)>();
    let mut failures = 0;
    std::thread::scope(|s| -> io::Result<()> {
        for w in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let wid = w as u64 + 1;
            s.spawn(move || {
                if telemetry::enabled() {
                    telemetry::set_worker(wid);
                }
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(e) = experiments.get(i) else { break };
                    if faults::active() {
                        // Perturb worker scheduling so completion order varies
                        // under chaos runs; the in-order flush below must keep
                        // stdout byte-identical regardless.
                        faults::delay(faults::site::WORKER_DELAY);
                    }
                    let start = Instant::now();
                    // Scope every event this experiment generates to its id,
                    // and record the block itself as an "experiment" span.
                    let span = telemetry::enabled().then(|| {
                        telemetry::set_scope(e.id);
                        telemetry::Span::open("experiment", e.id)
                    });
                    let outcome = catch_unwind(AssertUnwindSafe(|| (e.run)(effort)))
                        .map_err(|p| panic_message(p.as_ref()));
                    if let Some(span) = span {
                        span.close();
                        telemetry::clear_scope();
                    }
                    let run = ExperimentRun {
                        id: e.id,
                        title: e.title,
                        outcome,
                        seconds: start.elapsed().as_secs_f64(),
                    };
                    if tx.send((i, run)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Flush completed blocks in order; hold out-of-order completions.
        let mut pending: Vec<Option<ExperimentRun>> =
            (0..experiments.len()).map(|_| None).collect();
        let mut cursor = 0;
        for (i, run) in rx {
            pending[i] = Some(run);
            while let Some(slot) = pending.get_mut(cursor) {
                let Some(run) = slot.take() else { break };
                if run.outcome.is_err() {
                    failures += 1;
                }
                write_block(out, &run)?;
                on_flush(&run);
                cursor += 1;
            }
        }
        Ok(())
    })?;
    Ok(failures)
}
