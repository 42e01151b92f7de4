//! Host counters read from outside the program, through `/proc`.
//!
//! Per thread: CPU and run-queue wait from `schedstat` (nanoseconds),
//! voluntary context switches from `status`, read- and write-class
//! system calls from `io`. The stack's cost over a window is every
//! thread of the process minus the benchmark's own threads, whose task
//! directories they resolve from `/proc/thread-self`
//! ([`crate::stats::stack_cost`]).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::stats::Counters;

fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim_start_matches(':').trim())
}

fn num(text: Option<&str>) -> u64 {
    text.and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Counters of one thread, given its `/proc` directory. A thread that
/// exits mid-read reads as zero (it did no more work in the window).
pub fn read_thread(dir: &Path) -> Counters {
    let sched = fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
    let mut sched = sched
        .split_whitespace()
        .map(|s| s.parse::<u64>().unwrap_or(0));
    let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
    let io = fs::read_to_string(dir.join("io")).unwrap_or_default();
    Counters {
        cpu_ns: sched.next().unwrap_or(0),
        runq_ns: sched.next().unwrap_or(0),
        ctxsw: num(field(&status, "voluntary_ctxt_switches")),
        syscalls: num(field(&io, "syscr")) + num(field(&io, "syscw")),
    }
}

/// The calling thread's counters.
pub fn this_thread() -> Counters {
    read_thread(Path::new("/proc/thread-self"))
}

/// The calling thread's `/proc` directory, by id, so another thread can
/// read its counters.
pub fn this_thread_dir() -> PathBuf {
    fs::read_link("/proc/thread-self")
        .map(|rel| Path::new("/proc").join(rel))
        .unwrap_or_else(|_| PathBuf::from("/proc/thread-self"))
}

/// The sum over every live thread of this process.
pub fn all_threads() -> io::Result<Counters> {
    let mut total = Counters::default();
    for entry in fs::read_dir("/proc/self/task")? {
        total = total.plus(read_thread(&entry?.path()));
    }
    Ok(total)
}

/// Process CPU time (all threads, including exited ones), seconds.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks as f64 / CLOCK_TICKS_PER_S
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times: 100 on every Linux
/// architecture this benchmark builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    num(field(&status, "VmHWM")) as f64 / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
