//! Child processes: every timed repetition is one fresh process, reaped
//! with `wait4` so that its CPU time and peak RSS come from the kernel's
//! own accounting of the whole process (start-up, run, teardown), with a
//! wall-clock kill so that a hung child is a failed repetition, never a hung
//! benchmark.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::spans::{Span, Spans};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `wait4` rusage with the 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// A reaped child.
pub struct Reaped {
    /// `Some(code)` on a normal exit, `None` when a signal ended it.
    pub code: Option<i32>,
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set (the kernel's `hiwater_rss`, what `VmHWM` shows).
    pub maxrss_kb: f64,
}

fn reap(pid: u32, block: bool) -> Option<Reaped> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are live, writable and laid out as the
    // kernel expects (`Rusage` is the 64-bit Linux `struct rusage`); `pid`
    // is a child this process spawned and has not reaped yet.
    let got = unsafe {
        wait4(
            pid as i32,
            &mut status,
            if block { 0 } else { WNOHANG },
            &mut ru,
        )
    };
    if got <= 0 {
        return None;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Some(Reaped {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        maxrss_kb: ru.maxrss_kb as f64,
    })
}

/// What a child reported, and what the kernel accounted to it.
pub struct ChildResult {
    values: BTreeMap<String, String>,
    pub spans: Vec<Span>,
    pub reaped: Reaped,
}

impl ChildResult {
    pub fn num(&self, key: &str) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    pub fn digest(&self) -> u64 {
        self.values
            .get("digest")
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .unwrap_or(0)
    }
}

/// Runs this executable again as `child <args>` and waits for it, killing
/// it after `timeout`. A killed, crashed or silent child is an `Err`.
pub fn child(args: &[String], timeout: Duration) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let mut proc = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn failed: {e}"))?;
    // A child prints a few short lines at its very end, far less than a
    // pipe holds, so reading after it exits cannot block it.
    let started = Instant::now();
    let mut killed = false;
    let reaped = loop {
        if let Some(r) = reap(proc.id(), killed) {
            break r;
        }
        if started.elapsed() > timeout {
            let _ = proc.kill();
            killed = true;
            continue;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let label = args.join(" ");
    if killed {
        return Err(format!(
            "`{label}` hit the {timeout:?} watchdog and was killed"
        ));
    }
    if reaped.code != Some(0) {
        return Err(format!("`{label}` died ({:?})", reaped.code));
    }
    let mut text = String::new();
    if let Some(mut out) = proc.stdout.take() {
        out.read_to_string(&mut text)
            .map_err(|e| format!("`{label}`: unreadable output: {e}"))?;
    }
    let mut values = BTreeMap::new();
    let mut spans = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("RESULT ") {
            for pair in rest.split(' ') {
                if let Some((k, v)) = pair.split_once('=') {
                    values.insert(k.to_string(), v.to_string());
                }
            }
        } else if let Some(span) = Spans::parse_line(line) {
            spans.push(span);
        }
    }
    if values.is_empty() {
        return Err(format!("`{label}` printed no result"));
    }
    Ok(ChildResult {
        values,
        spans,
        reaped,
    })
}
