//! Real-mode job launching: simulator processes for the TCP daemon.
//!
//! In the paper the DV executes a driver-generated script that submits
//! the re-simulation to the batch system (§III-B "this function creates
//! a script that the DV can execute to start the new simulation"). Here
//! a [`SpawnSpec`] is the structured equivalent of that script, and
//! [`ProcessLauncher`] executes it as a child process.
//!
//! [`JobLauncher`] is a trait so tests can substitute an in-process fake
//! and the DES harness can ignore launching entirely.

use std::collections::HashMap;
use std::io;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

use crate::cluster::JobId;

/// Everything needed to start one re-simulation job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpawnSpec {
    /// Executable to run (the simulator binary, e.g. `simfs-simd`).
    pub program: String,
    /// Command-line arguments (start/stop steps, context config, ...).
    pub args: Vec<String>,
    /// Extra environment variables (e.g. the DV's address).
    pub env: Vec<(String, String)>,
    /// Working directory, if different from the daemon's.
    pub cwd: Option<String>,
}

impl SpawnSpec {
    /// A spec running `program` with the given arguments.
    pub fn new(program: impl Into<String>, args: Vec<String>) -> Self {
        SpawnSpec {
            program: program.into(),
            args,
            env: Vec::new(),
            cwd: None,
        }
    }

    /// Adds an environment variable.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.push((key.into(), value.into()));
        self
    }

    /// The equivalent shell command line (for logs and debugging).
    pub fn command_line(&self) -> String {
        let mut parts = vec![self.program.clone()];
        parts.extend(self.args.iter().cloned());
        parts.join(" ")
    }
}

/// Handle to a launched job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobHandle {
    /// The batch-level job id this process realizes.
    pub job: JobId,
    /// OS process id (0 for fake launchers).
    pub pid: u32,
}

/// Launch/kill abstraction over simulator jobs.
pub trait JobLauncher: Send + Sync {
    /// Starts the job described by `spec`.
    fn launch(&self, job: JobId, spec: &SpawnSpec) -> io::Result<JobHandle>;

    /// Requests termination of a previously launched job (used when the
    /// DV kills prefetched simulations, §IV-C). Unknown jobs are a no-op.
    fn kill(&self, job: JobId) -> io::Result<()>;

    /// Reaps finished children; returns the jobs that exited and whether
    /// they succeeded. Every launched job must be reported exactly once
    /// unless `kill` retired it first: the daemon keeps a job in flight
    /// (and its reaper polling) until then.
    fn reap(&self) -> Vec<(JobId, bool)>;
}

/// Launches simulator jobs as OS child processes.
pub struct ProcessLauncher {
    children: Mutex<HashMap<JobId, Child>>,
}

impl Default for ProcessLauncher {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcessLauncher {
    /// A launcher with no children yet.
    pub fn new() -> Self {
        ProcessLauncher {
            children: Mutex::new(HashMap::new()),
        }
    }

    /// Number of live (unreaped) children.
    pub fn live(&self) -> usize {
        self.children.lock().expect("launcher lock").len()
    }
}

impl JobLauncher for ProcessLauncher {
    fn launch(&self, job: JobId, spec: &SpawnSpec) -> io::Result<JobHandle> {
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        for (k, v) in &spec.env {
            cmd.env(k, v);
        }
        if let Some(cwd) = &spec.cwd {
            cmd.current_dir(cwd);
        }
        let child = cmd.spawn()?;
        let pid = child.id();
        self.children
            .lock()
            .expect("launcher lock")
            .insert(job, child);
        Ok(JobHandle { job, pid })
    }

    fn kill(&self, job: JobId) -> io::Result<()> {
        let mut children = self.children.lock().expect("launcher lock");
        if let Some(mut child) = children.remove(&job) {
            // The child may have exited already; that is fine.
            let _ = child.kill();
            let _ = child.wait();
        }
        Ok(())
    }

    fn reap(&self) -> Vec<(JobId, bool)> {
        let mut children = self.children.lock().expect("launcher lock");
        let mut done = Vec::new();
        children.retain(|&job, child| match classify_exit(child.try_wait()) {
            Some(success) => {
                done.push((job, success));
                false
            }
            None => true,
        });
        done
    }
}

/// Maps one `try_wait` poll to a reap decision: `Some(success)` retires
/// the child, `None` keeps polling. An `Err` from the poll retires the
/// child as failed — carrying it would re-poll a wedged handle forever
/// and hang the job's waiters, the exact silent-carry bug this replaces.
fn classify_exit(poll: io::Result<Option<std::process::ExitStatus>>) -> Option<bool> {
    match poll {
        Ok(Some(status)) => Some(status.success()),
        Ok(None) => None,
        Err(_) => Some(false),
    }
}

impl Drop for ProcessLauncher {
    fn drop(&mut self) {
        // Never leak simulator processes past the daemon's lifetime.
        let mut children = self.children.lock().expect("launcher lock");
        for (_, child) in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spawn_spec_builder() {
        let spec = SpawnSpec::new("sim", vec!["--start".into(), "5".into()])
            .env("DV_ADDR", "127.0.0.1:9000");
        assert_eq!(spec.command_line(), "sim --start 5");
        assert_eq!(spec.env.len(), 1);
    }

    #[test]
    fn launch_and_reap_true() {
        let launcher = ProcessLauncher::new();
        let spec = SpawnSpec::new("true", vec![]);
        launcher.launch(JobId(1), &spec).unwrap();
        // Poll until the child exits.
        let mut reaped = Vec::new();
        for _ in 0..200 {
            reaped = launcher.reap();
            if !reaped.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reaped, vec![(JobId(1), true)]);
        assert_eq!(launcher.live(), 0);
    }

    #[test]
    fn failing_child_reports_failure() {
        let launcher = ProcessLauncher::new();
        launcher.launch(JobId(2), &SpawnSpec::new("false", vec![])).unwrap();
        let mut reaped = Vec::new();
        for _ in 0..200 {
            reaped = launcher.reap();
            if !reaped.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reaped, vec![(JobId(2), false)]);
    }

    #[test]
    fn kill_terminates_long_running_child() {
        let launcher = ProcessLauncher::new();
        launcher
            .launch(JobId(3), &SpawnSpec::new("sleep", vec!["30".into()]))
            .unwrap();
        assert_eq!(launcher.live(), 1);
        launcher.kill(JobId(3)).unwrap();
        assert_eq!(launcher.live(), 0);
    }

    #[test]
    fn kill_unknown_job_is_noop() {
        let launcher = ProcessLauncher::new();
        launcher.kill(JobId(9)).unwrap();
    }

    #[test]
    fn classify_exit_covers_all_poll_outcomes() {
        use std::os::unix::process::ExitStatusExt;
        let clean = std::process::ExitStatus::from_raw(0);
        assert_eq!(classify_exit(Ok(Some(clean))), Some(true));
        // Non-zero exit and death-by-signal both fail.
        let failed = std::process::ExitStatus::from_raw(1 << 8);
        assert_eq!(classify_exit(Ok(Some(failed))), Some(false));
        let signalled = std::process::ExitStatus::from_raw(9);
        assert_eq!(classify_exit(Ok(Some(signalled))), Some(false));
        // Still running: keep polling.
        assert_eq!(classify_exit(Ok(None)), None);
        // A broken poll retires the job as failed instead of carrying
        // it forever.
        let err = io::Error::other("waitpid exploded");
        assert_eq!(classify_exit(Err(err)), Some(false));
    }

    #[test]
    fn missing_program_errors() {
        let launcher = ProcessLauncher::new();
        let err = launcher.launch(
            JobId(4),
            &SpawnSpec::new("/nonexistent/simfs-simulator-binary", vec![]),
        );
        assert!(err.is_err());
    }
}
