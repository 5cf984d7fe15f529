//! One core for `hot_read`.
//!
//! On a small virtual machine a resident open is a ping-pong between a
//! client thread and a reactor thread, and its wall time is set less by
//! SimFS than by where the kernel happens to place the two: next to
//! each other the hand-over is a context switch, on different cores it
//! wakes an idle virtual CPU, which costs as much as the open itself.
//! Both placements are stable for minutes, so runs of one commit differ
//! by a factor of two. Confined to one core the hand-over is always
//! the cheap one, `nproc` reads 1 (one reactor shard, one effect helper
//! — the daemon's defaults for such a box), and what is left is the CPU
//! the open costs along its whole path, which is what a change to the
//! hit path or the data plane moves.
//!
//! `std` has no affinity call and this package has no `unsafe`, so the
//! process replaces itself with `taskset --cpu-list N <itself>` before
//! it starts a thread. Without `taskset` the workload does not run: an
//! unpinned `hot_read` would print the same names over other numbers.

use std::os::unix::process::CommandExt;
use std::process::Command;

/// Set on the re-executed process, so a `taskset` that confined nothing
/// ends in an error and not in a loop.
const GUARD: &str = "SIMFS_BENCH_CONFINED";

/// The CPUs this process may run on, as the kernel prints the list
/// (`0-1`, `0,2-3`).
fn allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(line.trim().to_string())
}

/// Last CPU of a kernel CPU list: housekeeping (the shell, the build,
/// whatever else the box runs) gravitates to the first.
fn last_cpu(list: &str) -> Option<&str> {
    let last = list.rsplit([',', '-']).next()?;
    (!last.is_empty() && last.bytes().all(|b| b.is_ascii_digit())).then_some(last)
}

/// Returns once this process is confined to one core — at once if it
/// already is, otherwise in the process that replaced this one. `argv`
/// is the command line to run again.
pub fn confine_to_one_core(argv: &[String]) -> Result<(), String> {
    let allowed = allowed_list().ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = last_cpu(&allowed).ok_or_else(|| format!("cannot read CPU list {allowed:?}"))?;
    if cpu == allowed {
        return Ok(());
    }
    if std::env::var_os(GUARD).is_some() {
        return Err(format!(
            "taskset --cpu-list {cpu} left this process on CPUs {allowed}"
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let error = Command::new("taskset")
        .args(["--cpu-list", cpu])
        .arg(exe)
        .args(argv)
        .env(GUARD, "1")
        .exec();
    Err(format!(
        "hot_read runs on one core and needs util-linux `taskset` to get there: {error}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_kernel_lists() {
        assert_eq!(last_cpu("0-1"), Some("1"));
        assert_eq!(last_cpu("3"), Some("3"));
        assert_eq!(last_cpu("0-3,6"), Some("6"));
        assert_eq!(last_cpu(""), None);
        assert_eq!(last_cpu("0-x"), None);
    }

    #[test]
    fn this_process_has_a_cpu_list() {
        let list = allowed_list().expect("Linux prints Cpus_allowed_list");
        assert!(last_cpu(&list).is_some(), "{list:?}");
    }
}
