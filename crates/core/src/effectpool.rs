//! The effect-execution tier: helper threads that own every blocking
//! operation the daemon's `Effects` outbox used to perform inline on
//! reactor shard threads.
//!
//! # Why a tier, not a thread pool
//!
//! The daemon's premise (and the paper's, §III) is that hits are served
//! at memory speed while misses ride the re-simulation machinery. But an
//! effect executed *inline* on a reactor shard — a `fork` in the
//! launcher, an eviction `unlink`, a WAL `fdatasync`, a storage-area
//! read for Bitrep — stalls every connection multiplexed onto that
//! shard for the effect's full duration: head-of-line blocking of the
//! hit path behind the miss path. This module gives effects their own
//! execution tier so a shard thread never waits on disk or the process
//! table.
//!
//! # Shape
//!
//! * **One bounded FIFO queue per reactor shard.** All effects collected
//!   on shard *s* are submitted to queue *s*, so the submission order of
//!   any one connection (which lives on exactly one shard) is preserved.
//! * **Static queue→helper assignment.** Helper *h* of *H* drains
//!   exactly the queues `q` with `q % H == h`; a queue is never served
//!   by two helpers, so per-queue FIFO is an execution order, not just a
//!   submission order. Simulator protocol events (`FileProduced` before
//!   `SimFinished`) therefore apply in wire order.
//! * **Batch drain.** A helper pops up to [`BATCH`] jobs per queue visit
//!   and hands them to the executor *as one batch*, which is what lets
//!   the server fold many WAL appends into one group fsync.
//! * **Backpressure, not drops.** A submitter finding its queue full
//!   parks on the queue's condvar until a helper makes space. This
//!   cannot deadlock: helpers never submit (the server executes nested
//!   effects inline on helper threads, which are blocking-permitted), so
//!   drain always makes progress.
//! * **Eventfd parking.** Helpers park in a blocking semaphore-mode
//!   eventfd read ([`crate::sys::SemaphoreFd`]); each submission posts
//!   one permit. Completions travel back to the reactor through the
//!   existing per-shard inbox + eventfd wakeup (`Reactor::send_bytes`),
//!   so the reactor needs no new wakeup plumbing.
//!
//! # Locking
//!
//! The per-queue mutex is the `effect-queue` row in
//! `crates/core/LOCKS.md` (level 50, blocking allowed — the submitter's
//! condvar park happens under it). It is acquired with no other
//! documented lock held, on both the submit and the drain side, and is
//! released before the executor runs a batch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use simkit::lockrank;

use crate::sys::SemaphoreFd;

/// Max jobs a helper pops from one queue per visit — the group-fsync
/// window: every WAL append in a batch shares one `fdatasync`.
pub const BATCH: usize = 32;

struct Queue<J> {
    slots: Mutex<VecDeque<J>>,
    /// Signaled by the draining helper whenever it frees space, waking
    /// submitters parked on a full queue.
    space: Condvar,
}

/// The helper pool. `J` is the job type; the pool is pure mechanism
/// (queues, threads, backpressure, ordering) and the `exec` callback
/// supplied at construction is the policy (what a batch of jobs *does*).
pub struct EffectPool<J: Send + 'static> {
    queues: Arc<Vec<Queue<J>>>,
    wakeups: Vec<Arc<SemaphoreFd>>,
    helpers: Mutex<Vec<JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
    cap: usize,
}

impl<J: Send + 'static> EffectPool<J> {
    /// Starts `helpers` helper threads serving `shards` bounded queues
    /// of capacity `cap`. `exec` receives each drained batch (1..=[`BATCH`]
    /// jobs from a single queue, in submission order) on a helper
    /// thread, where blocking is permitted.
    pub fn start(
        shards: usize,
        helpers: usize,
        cap: usize,
        exec: Arc<dyn Fn(Vec<J>) + Send + Sync>,
    ) -> std::io::Result<EffectPool<J>> {
        assert!(shards >= 1 && helpers >= 1 && cap >= 1);
        let queues: Arc<Vec<Queue<J>>> = Arc::new(
            (0..shards)
                .map(|_| Queue { slots: Mutex::new(VecDeque::new()), space: Condvar::new() })
                .collect(),
        );
        let mut pool = EffectPool {
            queues,
            wakeups: Vec::with_capacity(helpers),
            helpers: Mutex::new(Vec::with_capacity(helpers)),
            shutdown: Arc::new(AtomicBool::new(false)),
            cap,
        };
        for h in 0..helpers {
            if let Err(e) = pool.spawn_helper(h, helpers, &exec) {
                // The helpers already started stop and join here.
                pool.shutdown();
                return Err(e);
            }
        }
        Ok(pool)
    }

    fn spawn_helper(
        &mut self,
        h: usize,
        helpers: usize,
        exec: &Arc<dyn Fn(Vec<J>) + Send + Sync>,
    ) -> std::io::Result<()> {
        let wake = Arc::new(SemaphoreFd::new()?);
        let (queues, shutdown, exec) = (self.queues.clone(), self.shutdown.clone(), exec.clone());
        let thread_wake = wake.clone();
        let handle = std::thread::Builder::new()
            .name(format!("dv-effect-{h}"))
            .spawn(move || run_helper(h, helpers, &queues, &thread_wake, &shutdown, &exec))?;
        self.wakeups.push(wake);
        self.helpers.get_mut().expect("no helper has run yet").push(handle);
        Ok(())
    }

    /// Enqueues `job` on `queue` (a reactor shard index), parking until
    /// space is available if the queue is at capacity. Returns `true`
    /// if the submitter had to park (the `helper_queue_full` signal).
    ///
    /// FIFO per queue; never drops a job.
    pub fn submit(&self, queue: usize, job: J) -> bool {
        let q = &self.queues[queue % self.queues.len()];
        let _rank = lockrank::held(lockrank::EFFECT_QUEUE);
        let mut slots = q.slots.lock().unwrap();
        let mut waited = false;
        while slots.len() >= self.cap && !self.shutdown.load(Ordering::Acquire) {
            waited = true;
            slots = q.space.wait(slots).unwrap();
        }
        slots.push_back(job);
        drop(slots);
        self.wakeups[queue % self.wakeups.len()].post(1);
        waited
    }

    /// Jobs currently queued across all shards (diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.queues
            .iter()
            .map(|q| {
                let _rank = lockrank::held(lockrank::EFFECT_QUEUE);
                q.slots.lock().unwrap().len()
            })
            .sum()
    }

    /// Drains every queue and joins the helpers. Pending jobs are
    /// executed, not dropped. Callers must stop submitting first (the
    /// daemon joins its reactor threads before calling this).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for q in self.queues.iter() {
            q.space.notify_all();
        }
        for w in &self.wakeups {
            w.post(1);
        }
        let mut handles = self.helpers.lock().unwrap();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn run_helper<J: Send>(
    helper: usize,
    helpers: usize,
    queues: &[Queue<J>],
    wake: &SemaphoreFd,
    shutdown: &AtomicBool,
    exec: &Arc<dyn Fn(Vec<J>) + Send + Sync>,
) {
    loop {
        if !wake.acquire() {
            // fd error: only possible mid-teardown; fall through to the
            // drain-and-exit path below.
            shutdown.store(true, Ordering::Release);
        }
        // Serve owned queues round-robin until all are empty. Extra
        // permits (a batch pop covers several submissions) just produce
        // a cheap empty scan.
        loop {
            let mut drained = false;
            for qi in (helper..queues.len()).step_by(helpers) {
                let q = &queues[qi];
                let batch: Vec<J> = {
                    let _rank = lockrank::held(lockrank::EFFECT_QUEUE);
                    let mut slots = q.slots.lock().unwrap();
                    let n = slots.len().min(BATCH);
                    slots.drain(..n).collect()
                };
                if batch.is_empty() {
                    continue;
                }
                drained = true;
                q.space.notify_all();
                exec(batch);
            }
            if !drained {
                break;
            }
        }
        if shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn per_queue_fifo_is_preserved_across_batches() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let pool = EffectPool::start(
            2,
            1,
            1024,
            Arc::new(move |batch: Vec<u64>| sink.lock().unwrap().extend(batch)),
        )
        .unwrap();
        for i in 0..500u64 {
            pool.submit(0, i);
        }
        pool.shutdown();
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn backpressure_parks_submitter_and_drops_nothing() {
        let done = Arc::new(AtomicUsize::new(0));
        let sink = done.clone();
        let pool = EffectPool::start(
            1,
            1,
            2,
            Arc::new(move |batch: Vec<u64>| {
                // Slow consumer: force the tiny queue to fill.
                std::thread::sleep(Duration::from_millis(2));
                sink.fetch_add(batch.len(), Ordering::Relaxed);
            }),
        )
        .unwrap();
        let mut parked = 0;
        for i in 0..64u64 {
            if pool.submit(0, i) {
                parked += 1;
            }
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 64, "every job must execute");
        assert!(parked > 0, "a capacity-2 queue must have filled at least once");
    }

    #[test]
    fn shutdown_executes_pending_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let sink = done.clone();
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        let gate2 = gate.clone();
        let pool = EffectPool::start(
            4,
            2,
            1024,
            Arc::new(move |batch: Vec<u64>| {
                let _g = gate2.lock().unwrap();
                sink.fetch_add(batch.len(), Ordering::Relaxed);
            }),
        )
        .unwrap();
        for i in 0..40u64 {
            pool.submit(i as usize % 4, i);
        }
        // Helpers are blocked on the gate with jobs still queued;
        // shutdown must wait for them, not drop them.
        drop(hold);
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 40);
        assert_eq!(pool.pending(), 0);
    }
}
