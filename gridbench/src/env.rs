//! What the run ran on: read from `/proc`, recorded with every result.

use std::fs;

/// Linux reports process CPU time in clock ticks; `USER_HZ` is 100 on
/// every supported configuration.
const TICKS_PER_SEC: f64 = 100.0;

/// The environment one result was measured in.
#[derive(Debug, Clone)]
pub struct EnvRecord {
    pub commit: String,
    pub nproc: usize,
    pub load_1m: f64,
}

impl EnvRecord {
    pub fn capture() -> Self {
        EnvRecord {
            commit: commit(),
            nproc: nproc(),
            load_1m: load_1m(),
        }
    }

    /// A run started on a machine already busier than it has cores, or
    /// using more threads than cores, is marked rather than silently
    /// accepted.
    pub fn noisy(&self, threads: usize) -> bool {
        self.load_1m > self.nproc as f64 || threads > self.nproc
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn load_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// HEAD of the enclosing git checkout, or `unknown` (the driver's
/// checkout is not a repository).
fn commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(text) = fs::read_to_string(&head) {
            let text = text.trim();
            return match text.strip_prefix("ref: ") {
                Some(r) => fs::read_to_string(d.join(".git").join(r))
                    .map(|s| s.trim().to_owned())
                    .unwrap_or_else(|_| text.to_owned()),
                None => text.to_owned(),
            };
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    "unknown".to_owned()
}

/// Peak resident set size (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process, all threads.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name: state is the
            // first, utime and stime the 12th and 13th.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SEC)
        })
        .unwrap_or(0.0)
}
