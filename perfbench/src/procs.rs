//! Process resource accounting: wall, CPU and peak RSS of the processes the
//! benchmark runs (Linux only: `wait4`/`getrusage` and `/proc`).

use std::io;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 `long`s of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;
const EINTR: i32 = 4;

fn cpu_of(r: &Rusage) -> Duration {
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&r.utime) + us(&r.stime))
}

/// How a child process ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub wall: Duration,
    pub cpu: Duration,
    pub max_rss_kb: u64,
    pub success: bool,
}

/// Runs `cmd` to completion and reports its wall time, user+sys CPU and
/// peak RSS, taken from the kernel's accounting of exactly that child.
pub fn run(cmd: &mut Command) -> io::Result<Exit> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    reap(child, start)
}

/// Waits for `child` (spawned at `start`) and reports its usage. The child
/// is reaped here, so the `Child` handle must not be waited on again.
fn reap(child: Child, start: Instant) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int`, `struct rusage` on 64-bit Linux);
        // `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
    let wall = start.elapsed();
    // Exited normally (WIFEXITED) with status 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    drop(child);
    Ok(Exit {
        wall,
        cpu: cpu_of(&usage),
        max_rss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
        success,
    })
}

/// User+sys CPU used so far by this process (`RUSAGE_SELF`) or the calling
/// thread (`RUSAGE_THREAD`).
fn usage_cpu(who: i32) -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage`.
    let r = unsafe { getrusage(who, &mut usage) };
    assert_eq!(r, 0, "getrusage cannot fail with valid arguments");
    cpu_of(&usage)
}

/// User+sys CPU this process has used so far, all threads.
pub fn self_cpu() -> Duration {
    usage_cpu(RUSAGE_SELF)
}

/// User+sys CPU the calling thread has used so far.
pub fn thread_cpu() -> Duration {
    usage_cpu(RUSAGE_THREAD)
}

/// Peak RSS (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User+sys CPU a live process has used so far, all threads, at the
/// kernel's clock-tick resolution (`USER_HZ` is 100 on Linux).
pub fn proc_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_childs_cpu_and_exit_status_are_its_own() {
        let busy = run(
            Command::new("sh").args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
        )
        .expect("run sh");
        assert!(busy.success);
        assert!(busy.cpu > Duration::ZERO && busy.max_rss_kb > 0);
        let failing = run(Command::new("sh").args(["-c", "exit 3"])).expect("run sh");
        assert!(!failing.success);
        assert!(proc_cpu(std::process::id()).is_some());
        assert!(peak_rss_kb(std::process::id()).unwrap_or(0) > 0);
        assert!(self_cpu() > Duration::ZERO);
        assert!(thread_cpu() <= self_cpu());
    }
}
