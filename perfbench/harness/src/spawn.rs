//! `spawn`: run one measured command and report its wall time, exit code
//! and peak resident set size.
//!
//! A child's peak RSS as the kernel reports it is at least the high-water
//! mark of the process it was forked from, so a command started straight
//! from `run.py` would report the Python process's footprint whenever that
//! is the larger. This small launcher is the parent instead: its one
//! child's figure, read after the child is reaped, is the command's own
//! high-water mark — or, for `bgpcomm shard`, the largest of the supervisor
//! and the workers it reaped — floored only by this launcher's few MB.

use std::fs;
use std::process::Command;
use std::time::Instant;

/// `spawn --report FILE -- CMD [ARGS...]`
pub fn run(args: &[String]) -> Result<(), String> {
    let (report, command) = match args {
        [flag, report, sep, command @ ..] if flag == "--report" && sep == "--" => (report, command),
        _ => return Err("usage: spawn --report FILE -- CMD [ARGS...]".into()),
    };
    let (program, rest) = command.split_first().ok_or("spawn: no command given")?;
    let start = Instant::now();
    let status = Command::new(program)
        .args(rest)
        .status()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let wall = start.elapsed();
    let code = exit_code(&status);
    let json = format!(
        "{{\"wall_s\": {:.9}, \"code\": {code}, \"maxrss_kb\": {}}}\n",
        wall.as_secs_f64(),
        children_maxrss_kb()
    );
    fs::write(report, json).map_err(|e| format!("write {report}: {e}"))
}

/// The exit code, or 128 + the signal for a command killed by one.
fn exit_code(status: &std::process::ExitStatus) -> i32 {
    use std::os::unix::process::ExitStatusExt;
    status
        .code()
        .unwrap_or_else(|| 128 + status.signal().unwrap_or(0))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak RSS over the reaped children of this process. The launcher has
/// exactly one child, so this is that child's figure.
fn children_maxrss_kb() -> i64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // platform's `struct rusage` (64-bit Linux), and getrusage writes only
    // within that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss
    } else {
        -1
    }
}
