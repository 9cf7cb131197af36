//! What the benchmark reads about its host: the hardware stamp of a
//! result file and the process counters (`/proc`, Linux only).

use std::process::Command;

/// Cores this process may run on (`nproc`).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of `program args…`, or "unknown" if it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The commit of the tree the benchmark sits in ("unknown" outside a git
/// checkout).
pub fn git_commit() -> String {
    first_line_of(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    )
}

/// Peak resident set of this process so far (`VmHWM`), in kB; 0 where
/// `/proc` is missing.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// User + system CPU seconds this process (all threads) has used, from
/// `/proc/self/stat` at the kernel's fixed 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields overall.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
