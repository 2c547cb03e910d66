//! Linux process accounting from `/proc`, and `poll(2)` for driving
//! several connections from one thread.

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU time and context switches of a process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU seconds, over all threads, dead ones too.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches of the live threads.
    pub ctx_switches: u64,
}

/// Reads `pid`'s CPU time and context switches.
pub fn proc_sample(pid: u32) -> io::Result<ProcSample> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> u64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0) };
    let cpu_s = (ticks(11) + ticks(12)) as f64 / USER_HZ;

    let mut ctx_switches = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let Ok(status) = std::fs::read_to_string(task?.path().join("status")) else {
            continue; // the thread exited meanwhile
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                ctx_switches += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    Ok(ProcSample {
        cpu_s,
        ctx_switches,
    })
}

/// Peak resident set size (`VmHWM`) of `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until at least one of `fds` is readable (or hung up), at most
/// `timeout_ms`. Returns one flag per descriptor.
pub fn wait_readable(fds: &[c_int], timeout_ms: c_int) -> io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    loop {
        // SAFETY: `set` is a live, exclusively borrowed array of
        // `set.len()` `pollfd`-layout structs for the whole call, which is
        // all poll(2) reads and writes.
        let n = unsafe { poll(set.as_mut_ptr(), set.len() as c_ulong, timeout_ms) };
        if n >= 0 {
            return Ok(set.iter().map(|p| p.revents != 0).collect());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs were runnable, summed over CPUs, in seconds (`steal` in
/// `/proc/stat`).
pub fn steal_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .ok_or_else(|| io::Error::other("no steal field in /proc/stat"))?;
    Ok(ticks as f64 / USER_HZ)
}
