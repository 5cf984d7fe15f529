//! CPU time from `/proc`, in microseconds: the whole process with its
//! reaped children, and per thread grouped by the daemon's thread names.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` times. Linux has reported
/// 100 to user space (`USER_HZ`) on every architecture for decades.
const TICKS_PER_S: u64 = 100;

fn ticks_to_us(ticks: u64) -> u64 {
    ticks * (1_000_000 / TICKS_PER_S)
}

/// Thread name and the numeric fields after it, from one `stat` line.
/// The name sits in parentheses and may itself contain spaces or
/// parentheses, so the split is at the *last* `)`.
fn parse_stat(line: &str) -> Option<(&str, Vec<u64>)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let fields = line[close + 1..]
        .split_ascii_whitespace()
        .map(|f| f.parse::<i64>().map(|v| v.max(0) as u64).unwrap_or(0))
        .collect();
    Some((&line[open + 1..close], fields))
}

// Indices into the fields after the name: `state` is 0, so field N of
// proc(5) (1-based, pid = 1, comm = 2) is index N − 3.
const UTIME: usize = 14 - 3;
const STIME: usize = 15 - 3;
const CUTIME: usize = 16 - 3;
const CSTIME: usize = 17 - 3;

/// CPU time of the process so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessCpu {
    /// User + system time of this process's own threads.
    pub own_us: u64,
    /// User + system time of children that were waited for — every
    /// `simfs-simd` the daemon reaped.
    pub children_us: u64,
}

impl ProcessCpu {
    /// Reads `/proc/self/stat`; zeros where `/proc` is unreadable.
    pub fn now() -> ProcessCpu {
        let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        parse_stat(&text)
            .filter(|(_, f)| f.len() > CSTIME)
            .map(|(_, f)| ProcessCpu {
                own_us: ticks_to_us(f[UTIME] + f[STIME]),
                children_us: ticks_to_us(f[CUTIME] + f[CSTIME]),
            })
            .unwrap_or_default()
    }

    /// Time spent since `earlier`.
    pub fn since(self, earlier: ProcessCpu) -> ProcessCpu {
        ProcessCpu {
            own_us: self.own_us.saturating_sub(earlier.own_us),
            children_us: self.children_us.saturating_sub(earlier.children_us),
        }
    }

    /// Own threads plus reaped children.
    pub fn total_us(self) -> u64 {
        self.own_us + self.children_us
    }
}

/// CPU time of the calling thread so far.
pub fn this_thread_us() -> u64 {
    let text = fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    parse_stat(&text)
        .filter(|(_, f)| f.len() > STIME)
        .map_or(0, |(_, f)| ticks_to_us(f[UTIME] + f[STIME]))
}

/// CPU time and head count of the live threads whose name starts with
/// `prefix` (`dv-reactor-`, `dv-effect-`, …).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadGroup {
    /// Threads matched.
    pub threads: u64,
    /// Their user + system time so far.
    pub cpu_us: u64,
}

/// Sums the live threads of this process by name prefix.
pub fn thread_group(prefix: &str) -> ThreadGroup {
    let mut group = ThreadGroup::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return group;
    };
    for task in tasks.flatten() {
        let text = fs::read_to_string(task.path().join("stat")).unwrap_or_default();
        if let Some((name, f)) = parse_stat(&text) {
            if name.starts_with(prefix) && f.len() > STIME {
                group.threads += 1;
                group.cpu_us += ticks_to_us(f[UTIME] + f[STIME]);
            }
        }
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_splits_at_the_last_parenthesis() {
        let line =
            "42 (dv-effect-0 (x)) S 1 42 42 0 -1 4194560 100 200 0 0 7 5 11 13 20 0 3 0 100 0 0";
        let (name, f) = parse_stat(line).unwrap();
        assert_eq!(name, "dv-effect-0 (x)");
        assert_eq!((f[UTIME], f[STIME], f[CUTIME], f[CSTIME]), (7, 5, 11, 13));
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn cpu_deltas_saturate_and_sum() {
        let a = ProcessCpu {
            own_us: 50,
            children_us: 10,
        };
        let b = ProcessCpu {
            own_us: 80,
            children_us: 40,
        };
        assert_eq!(
            b.since(a),
            ProcessCpu {
                own_us: 30,
                children_us: 30
            }
        );
        assert_eq!(b.since(a).total_us(), 60);
        assert_eq!(a.since(b), ProcessCpu::default());
    }

    #[test]
    fn busy_thread_shows_up_under_its_name() {
        let handle = std::thread::Builder::new()
            .name("pstat-probe-0".into())
            .spawn(|| {
                let began = std::time::Instant::now();
                let mut x = 0u64;
                while began.elapsed().as_millis() < 60 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
                (this_thread_us(), thread_group("pstat-probe-"))
            })
            .unwrap();
        let (own, group) = handle.join().unwrap();
        assert_eq!(group.threads, 1);
        assert!(own >= 20_000, "60 ms of spinning read as {own} us");
        assert!(ProcessCpu::now().own_us >= own);
    }
}
