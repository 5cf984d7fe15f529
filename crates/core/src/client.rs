//! DVLib: the analysis-side client library (§III-C).
//!
//! The paper's API surface, in Rust form:
//!
//! | Paper call            | Here                                   |
//! |-----------------------|----------------------------------------|
//! | `SIMFS_Init`          | [`SimfsClient::connect`]               |
//! | `SIMFS_Finalize`      | [`SimfsClient::finalize`]              |
//! | `SIMFS_Acquire`       | [`SimfsClient::acquire`]               |
//! | `SIMFS_Acquire_nb`    | [`SimfsClient::acquire_nb`]            |
//! | `SIMFS_Release`       | [`SimfsClient::release`]               |
//! | `SIMFS_Wait`          | [`SimfsClient::wait`]                  |
//! | `SIMFS_Test`          | [`SimfsClient::test`]                  |
//! | `SIMFS_Waitsome`      | [`SimfsClient::waitsome`]              |
//! | `SIMFS_Testsome`      | [`SimfsClient::testsome`]              |
//! | `SIMFS_Bitrep`        | [`SimfsClient::bitrep`]                |
//!
//! The acquire calls return a [`SimfsStatus`] carrying error state and
//! the DV's estimated waiting time, which "the analysis can use for
//! debugging, profiling, and for saving compute hours/energy" (§III-C).
//!
//! [`SimulatorSession`] is the simulator-side half: the notifications a
//! launched re-simulation sends as DVLib intercepts its create/close
//! calls (§III-B).
//!
//! [`DvCluster`] is the multi-daemon routing tier: the same API surface
//! over K daemons, each owning a disjoint set of restart intervals.
//! DVLib hashes every key's interval to its owning daemon (the rule
//! [`crate::dv::ClusterMember::owns_key`] checks daemon-side) and multiplexes
//! one write-coalescing [`SimfsClient`] connection per daemon; teardown
//! ([`DvCluster::finalize`] or drop) fans out to every member, so each
//! daemon releases this client's pins.
//!
//! # Connection lifetime
//!
//! The daemon's epoll front-end closes the connection *actively* after
//! `Bye`, after a `SimFinished`, and after any protocol error (the
//! threaded front-end merely stopped reading and dropped the socket).
//! Clients must treat EOF after a goodbye as a normal teardown — which
//! these APIs do: [`SimfsClient::finalize`] consumes the session, and a
//! mid-request EOF still surfaces as `UnexpectedEof`. Dropping a
//! session without `Bye` is also safe: the daemon maps the hangup to
//! `ClientGone` (releasing pins) or `SimFailed` exactly as before.
//!
//! # Transport and write-side recovery
//!
//! Every dial goes through [`crate::net::dial`]: a loopback target
//! rides the daemon's abstract Unix socket, anything else TCP, and a
//! reconnect re-runs the same choice from the session's TCP address
//! ([`SimfsClient::transport`] says which arm answered). The two arms
//! report a dead peer at different moments: loopback TCP buffers the
//! first write after the peer died and the error surfaces at the next
//! *read*; a Unix socket — and TCP from the second write after an RST
//! on — fails the *write* itself with `EPIPE`. Auto-reconnect
//! therefore covers both sides: every public call that writes
//! (`acquire_nb`, `takeover_acquire_nb`, `release`'s bounded flush,
//! `flush`, and the request/response calls) goes through one
//! recovering send — redial, re-assert, re-send the request frame.
//! Frames that were merely *staged* (releases) belong to the dead
//! session, whose pins the daemon drops wholesale, and are discarded.
//! With auto-reconnect off the raw error surfaces, as before.
//!
//! A call that waits for a reply parks in `poll`, not in `read`
//! ([`crate::net::Stream::wait_readable`]): a Unix-socket reader asleep
//! in `read` is woken once, for nothing, every time the daemon consumes
//! the request it just sent, and a timed wait needs no socket option
//! set and cleared around it.
//!
//! # The mapped hit path
//!
//! A same-host session of a solo context, durable or not, receives two
//! descriptors with its `HelloOk` and maps them: the context's hit
//! table (read-only) and a mapping of its own (net.rs, "Trust model").
//! [`SimfsClient::acquire`] then pins each resident key through one of
//! its slots — a store, a fence, a load — and resolves it at once;
//! only the other keys go out in an acquire frame. A release of such a
//! pin clears the slot and sends nothing, so a resident `open → close`
//! exchanges nothing with the daemon. The hit is recorded in a ring the daemon
//! drains into the prefetch agents, with one small nudge frame when the
//! ring fills or the daemon has parked. Because no frame is exchanged,
//! a dead daemon would go unnoticed: a mapped session therefore polls
//! its socket (zero timeout) once per 64 acquires or 20 ms, and at the
//! first acquire after a pause of 1 ms or more, and
//! [`VirtualFs`](crate::intercept::VirtualFs) retries a failed read
//! behind a shared pin through the daemon — either finds a dead
//! connection, which ends the mapping and, with auto-reconnect on,
//! recovers the session as any other disconnect does. Pins taken either
//! way are held alike: `held`, re-assertion and `release` do not care,
//! and neither does durability. On a durable context no pin writes a
//! journal record: the daemon journals every session's lease at hello
//! instead, and after a crash the recovered daemon holds what was
//! resident until the session re-asserts, restoring any claimed key
//! that is still resident (`member.rs`, "The crash rule").

use crate::dv::FailCode;
use crate::model::StepMath;
use crate::net::{self, Stream, Transport};
use crate::prefetch::{AccessLog, AccessRecord, ACCESS_LOG_CAPACITY};
use crate::route::{AcquireMode, ClusterRoute, Release, Route};
use crate::shm::ClientMap;
use crate::sys;
use crate::wire::{self, ClientKind, FrameBatch, FrameReader, Membership, Request, Response};
use simcache::{u64_map, U64Map};
use std::collections::HashSet;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Typed deadline error: the payload of an
/// [`io::ErrorKind::TimedOut`] error returned when a blocking DVLib
/// call exceeds the configured [`SimfsClient::set_op_timeout`]
/// deadline — a daemon that died without closing its socket would
/// otherwise block the analysis forever. Recover it from the error via
/// [`DvTimeout::from_io`]; with auto-reconnect enabled the timeout
/// instead feeds the reconnect path and is only surfaced if that fails
/// too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DvTimeout {
    /// The DVLib operation that timed out (`"wait"`, `"bitrep"`, ...).
    pub op: &'static str,
    /// The deadline that elapsed.
    pub after: Duration,
}

impl DvTimeout {
    /// Downcasts an [`io::Error`] to the typed timeout, if that is
    /// what it carries.
    pub fn from_io(err: &io::Error) -> Option<&DvTimeout> {
        err.get_ref().and_then(|inner| inner.downcast_ref::<DvTimeout>())
    }

    fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::TimedOut, self)
    }
}

impl fmt::Display for DvTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DV {} timed out after {:?}", self.op, self.after)
    }
}

impl std::error::Error for DvTimeout {}

/// Typed member-failure error: the payload of an
/// [`io::ErrorKind::NotConnected`] error returned when a [`DvCluster`]
/// operation needed a member daemon that stayed unreachable through
/// the whole down-detection window (see
/// [`DvCluster::set_down_window`]). With failover enabled
/// ([`DvCluster::set_failover`]) the cluster instead reroutes the dead
/// member's intervals to a live taker and only surfaces `MemberDown`
/// when no live taker remains. Recover it from the error via
/// [`MemberDown::from_io`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberDown {
    /// Index of the unreachable cluster member.
    pub member: usize,
    /// The DVLib operation that needed it (`"wait"`, `"acquire"`, ...).
    pub op: &'static str,
}

impl MemberDown {
    /// Downcasts an [`io::Error`] to the typed member failure, if that
    /// is what it carries.
    pub fn from_io(err: &io::Error) -> Option<&MemberDown> {
        err.get_ref().and_then(|inner| inner.downcast_ref::<MemberDown>())
    }

    fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::NotConnected, self)
    }
}

impl fmt::Display for MemberDown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster member {} is down (during {})", self.member, self.op)
    }
}

impl std::error::Error for MemberDown {}

/// Floor of the reconnect backoff ladder.
const RECONNECT_MIN_DELAY: Duration = Duration::from_millis(10);
/// Cap of the reconnect backoff ladder (doubling stops here).
const RECONNECT_MAX_DELAY: Duration = Duration::from_secs(1);
/// Total time a reconnect keeps retrying before giving up — generous
/// enough to cover a daemon restart with `--recover`.
const RECONNECT_WINDOW: Duration = Duration::from_secs(30);
/// Connect-phase timeout of each individual reconnect attempt.
const RECONNECT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Connect-phase timeout of a cluster liveness probe: long enough for
/// a loaded daemon's accept queue, short enough that probing a dead
/// address does not dominate the down-detection window.
const PROBE_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Errors that mean "the connection is dead", not "the request is
/// wrong" — the triggers of the reconnect path.
fn is_disconnect(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
            | io::ErrorKind::TimedOut
    )
}

/// A typed acquire failure: the daemon's stable machine-readable
/// classification plus its human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailError {
    /// Stable classification (retriable / poisoned / hang-killed /
    /// corrupt-output / other) — match on this, not on the message.
    pub code: FailCode,
    /// Human-readable reason (surfaced in `SIMFS_Status`).
    pub reason: String,
}

impl std::fmt::Display for FailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.reason)
    }
}

/// Status of an acquire operation (§III-C `SIMFS_Status`).
#[derive(Clone, Debug, Default)]
pub struct SimfsStatus {
    /// Keys now available (and pinned for this client).
    pub ready: Vec<u64>,
    /// Keys that failed, with their typed errors.
    pub failed: Vec<(u64, FailError)>,
    /// Estimated waiting time for the pending keys, if the DV provided
    /// one.
    pub est_wait: Option<Duration>,
}

impl SimfsStatus {
    /// True if nothing failed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// One step of a [`SimfsClient::call`] response loop: the matching
/// reply resolves the call, anything else is stashed as a stray.
enum CallStep<T> {
    Done(T),
    Stray(Response),
}

/// [`DvCluster`]'s verdict on a member-op error, after probing the
/// member's liveness.
enum MemberVerdict {
    /// The member answers its port: the error is a session problem,
    /// not a member death — surface it unchanged.
    Surface,
    /// The cluster's *injected* bounded-wait deadline fired but the
    /// member is alive (just slow, e.g. a long re-simulation): resume
    /// waiting.
    KeepWaiting,
    /// Unreachable through the whole down-detection window: the member
    /// is dead.
    Down,
}

/// The request whose key a `Ready` or `Failed` frame resolves.
fn resolves(resp: &Response) -> Option<u64> {
    match resp {
        Response::Ready { req_id, .. } | Response::Failed { req_id, .. } => Some(*req_id),
        _ => None,
    }
}

/// Handle for a non-blocking acquire (`SIMFS_Req`).
#[derive(Debug)]
pub struct AcquireRequest {
    req_id: u64,
    outstanding: HashSet<u64>,
    status: SimfsStatus,
    /// Keys the daemon reported `Queued` (they blocked on production):
    /// consumed by [`DvCluster`]'s digest recording — a blocked key's
    /// acquire-time epoch is not a ready point.
    queued: HashSet<u64>,
    /// The tag the request was sent under — a reconnect re-send must
    /// carry the same one, or a taker would reject the foreign keys as
    /// misrouted.
    mode: AcquireMode,
}

/// The acquire frame for `mode`: a plain `Acquire`, or a
/// `TakeoverAcquire` carrying the dead member's tag.
fn acquire_frame(req_id: u64, keys: Vec<u64>, mode: AcquireMode) -> Request {
    match mode {
        AcquireMode::Native => Request::Acquire { req_id, keys },
        AcquireMode::Takeover {
            dead_member,
            origin_epoch,
        } => Request::TakeoverAcquire {
            req_id,
            dead_member,
            origin_epoch,
            keys,
        },
    }
}

impl AcquireRequest {
    /// Keys still pending.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// True once every key resolved (ready or failed).
    pub fn done(&self) -> bool {
        self.outstanding.is_empty()
    }
}

/// An analysis session with the DV daemon (`SIMFS_Context`).
pub struct SimfsClient {
    /// Write half (a second handle to the same socket).
    stream: Stream,
    /// Buffered read half: drains multiple queued response frames per
    /// syscall; a read timeout never loses a partially received frame.
    reader: FrameReader<Stream>,
    client_id: u64,
    context: String,
    next_req: u64,
    /// Responses received while waiting for a different request (e.g. a
    /// `Ready` for an outstanding non-blocking acquire arriving during a
    /// `bitrep` round-trip, or during a wait on another acquire).
    /// Consumed before reading the socket again; a `Ready` or `Failed`
    /// only by the request it resolves.
    stray: Vec<Response>,
    /// Write-coalescing buffer: fire-and-forget frames (`Release`) are
    /// staged here and ride in the same write — and the same TCP
    /// segment — as the next request, halving the syscalls of the
    /// dominant release-then-acquire pattern. Flushed before anything
    /// that reads a response, so buffering is never observable beyond
    /// the release reaching the DV marginally later.
    pending_out: FrameBatch,
    /// The daemon's recovery epoch from the hello handshake: tells a
    /// reconnect whether it is talking to the same instance (pins are
    /// gone) or a recovered one (pins may be re-asserted).
    epoch: u64,
    /// The daemon's TCP address, whichever transport answered: a
    /// reconnect dials it afresh and so re-runs the transport choice.
    addr: SocketAddr,
    /// The membership claim of the original handshake, replayed on
    /// reconnect.
    membership: Option<Membership>,
    /// key → pin count this session currently holds (Ready responses
    /// minus releases): what a reconnect re-asserts.
    held: U64Map<u32>,
    /// Reconnect with capped exponential backoff and re-assert held
    /// pins when the connection dies (off by default — callers that
    /// prefer fail-fast semantics see the raw error).
    auto_reconnect: bool,
    /// Deadline for blocking calls; `None` blocks forever.
    op_timeout: Option<Duration>,
    /// Total time [`recover_session`](Self::recover_session) keeps
    /// redialing before giving up.
    reconnect_window: Duration,
    /// Successful reconnects over this session's lifetime.
    reconnects: u64,
    /// Pins restored via `Reassert` across all reconnects.
    pins_reasserted: u64,
    /// Re-entrancy guard: a failure *during* recovery must surface,
    /// not recurse into another recovery.
    recovering: bool,
    /// The mapped hit path, when the daemon handed one over at hello
    /// (same host, solo context): resident keys pin through
    /// this session's slots with no frame (module docs, "The mapped hit
    /// path").
    shared: Option<Box<ClientMap>>,
}

impl SimfsClient {
    /// `SIMFS_Init`: connects and performs the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs, context: &str) -> io::Result<SimfsClient> {
        Self::connect_with(addr, context, None)
    }

    /// [`connect`](Self::connect) carrying a cluster-membership claim:
    /// the daemon verifies `(index, size, steps_hash)` against its own
    /// configuration at hello time and refuses the session on mismatch
    /// — the error names both sides' views. Used by [`DvCluster`] so a
    /// misconfigured member list or divergent [`StepMath`] fails loudly
    /// instead of silently misrouting intervals.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        context: &str,
        membership: Option<Membership>,
    ) -> io::Result<SimfsClient> {
        let (stream, addr) = net::dial_any(addr)?;
        let (stream, reader, client_id, epoch, shared) =
            Self::handshake(stream, context, membership, None)?;
        Ok(SimfsClient {
            stream,
            reader,
            client_id,
            context: context.to_string(),
            next_req: 1,
            stray: Vec::new(),
            pending_out: FrameBatch::new(),
            epoch,
            addr,
            membership,
            held: u64_map(),
            auto_reconnect: false,
            op_timeout: None,
            reconnect_window: RECONNECT_WINDOW,
            reconnects: 0,
            pins_reasserted: 0,
            recovering: false,
            shared,
        })
    }

    /// The hello exchange over an already-connected socket.
    /// `prior_epoch` is `Some` on reconnects (the daemon counts them).
    /// The reply is read through [`Stream::fd_reader`], one frame and
    /// not a byte more: on the local arm it may carry the mapped hit
    /// path's descriptors.
    #[allow(clippy::type_complexity)]
    fn handshake(
        mut stream: Stream,
        context: &str,
        membership: Option<Membership>,
        prior_epoch: Option<u64>,
    ) -> io::Result<(Stream, FrameReader<Stream>, u64, u64, Option<Box<ClientMap>>)> {
        let reader = FrameReader::new(stream.try_clone()?);
        wire::write_frame(
            &mut stream,
            &Request::Hello {
                kind: ClientKind::Analysis,
                context: context.to_string(),
                membership,
                epoch: prior_epoch,
            }
            .encode(),
        )?;
        let mut fds = Vec::new();
        let frame = wire::read_frame(&mut stream.fd_reader(&mut fds))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no hello reply"))?;
        match Response::decode(&frame)? {
            Response::HelloOk { client_id, epoch } => {
                Ok((stream, reader, client_id, epoch, ClientMap::adopt(fds).map(Box::new)))
            }
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello reply {other:?}"),
            )),
        }
    }

    /// Enables (or disables) automatic reconnection: when a blocking
    /// call hits a dead connection, DVLib redials with capped
    /// exponential backoff (10 ms doubling to 1 s, for up to 30 s),
    /// re-asserts its held pins through `Reassert`, transparently
    /// re-acquires any the daemon reports gone, and re-sends whatever
    /// request was in flight. Off by default: fail-fast callers (and
    /// the cluster unwind paths) see the raw error.
    pub fn set_auto_reconnect(&mut self, on: bool) {
        self.auto_reconnect = on;
    }

    /// Sets the deadline of blocking calls (`wait`, `bitrep`,
    /// `status`, ...). On expiry they return an
    /// [`io::ErrorKind::TimedOut`] error carrying a [`DvTimeout`] —
    /// unless auto-reconnect is enabled, in which case the timeout
    /// first feeds the reconnect path. `None` (the default) blocks
    /// forever.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        self.op_timeout = timeout;
    }

    /// Sets how long a reconnect keeps redialing before giving up
    /// (default 30 s — generous enough to cover a daemon restart with
    /// `--recover`). Tests and failover-enabled clusters shrink it so
    /// a dead member is confirmed dead quickly.
    pub fn set_reconnect_window(&mut self, window: Duration) {
        self.reconnect_window = window;
    }

    /// Successful reconnects over this session's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Pins restored via `Reassert` across all reconnects.
    pub fn pins_reasserted(&self) -> u64 {
        self.pins_reasserted
    }

    /// The daemon's recovery epoch from the latest handshake.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Which transport the current connection rides: the daemon's
    /// abstract Unix socket (same host) or TCP. Re-decided at every
    /// reconnect.
    pub fn transport(&self) -> Transport {
        self.stream.transport()
    }

    /// Whether `err` should trigger recovery, and recovery is possible.
    /// A dead connection also ends the mapped hit path at once: nothing
    /// may be served from a dead daemon's table, whether or not a new
    /// session follows.
    fn try_recover(&mut self, err: &io::Error, op: &'static str) -> bool {
        if !is_disconnect(err) {
            return false;
        }
        self.shared = None;
        if !self.auto_reconnect || self.recovering {
            return false;
        }
        self.recovering = true;
        let outcome = self.recover_session(op);
        self.recovering = false;
        outcome.is_ok()
    }

    /// Redials the daemon with capped exponential backoff, re-runs the
    /// hello handshake carrying the prior epoch, re-asserts held pins,
    /// and re-acquires the ones the daemon reports gone. The session's
    /// identity (client id, epoch) is replaced on success.
    fn recover_session(&mut self, op: &'static str) -> io::Result<()> {
        let prior_client = self.client_id;
        let prior_epoch = self.epoch;
        // Everything staged or buffered belongs to the dead session:
        // its pins are released by the daemon-side ClientGone (or the
        // crash), so stale releases and stray frames must not leak
        // into the new one.
        self.pending_out.clear();
        self.stray.clear();
        let window = self.reconnect_window;
        let deadline = Instant::now() + window;
        let mut delay = RECONNECT_MIN_DELAY;
        let (stream, reader, client_id, epoch, shared) = loop {
            let attempt = net::dial(&self.addr, Some(RECONNECT_CONNECT_TIMEOUT))
                .and_then(|s| Self::handshake(s, &self.context, self.membership, Some(prior_epoch)));
            match attempt {
                Ok(session) => break session,
                Err(e) => {
                    if Instant::now() + delay >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(RECONNECT_MAX_DELAY);
                }
            }
        };
        self.stream = stream;
        self.reader = reader;
        self.client_id = client_id;
        self.epoch = epoch;
        // The old mapping belonged to the dead session (its slots died
        // with it); the pins it held are in `held` and re-asserted below.
        self.shared = shared;
        self.reconnects += 1;
        if self.held.is_empty() {
            return Ok(());
        }
        // Re-assert every held pin count; the daemon re-pins what is
        // still resident and names what is gone.
        let keys: Vec<u64> = self
            .held
            .iter()
            .flat_map(|(&key, &count)| std::iter::repeat_n(key, count as usize))
            .collect();
        let req_id = self.next_req;
        self.next_req += 1;
        self.send(&Request::Reassert {
            req_id,
            prior_client,
            prior_epoch,
            keys,
        })?;
        let gone = loop {
            match self.pump_one(Some(window))? {
                Some(Response::Reasserted {
                    req_id: r,
                    restored,
                    gone,
                    ..
                }) if r == req_id => {
                    self.pins_reasserted += restored.len() as u64;
                    break gone;
                }
                Some(Response::Error { message }) => return Err(io::Error::other(message)),
                Some(_stray_from_dead_request) => {}
                None => {
                    return Err(DvTimeout { op, after: window }.into_io())
                }
            }
        };
        // Gone pins: the daemon no longer holds them — drop the counts
        // and re-acquire, so the caller's view ("I hold these keys")
        // is true again without its involvement.
        let mut reacquire: Vec<u64> = Vec::new();
        for (key, _reason) in gone {
            self.forget_pin(key);
            reacquire.push(key);
        }
        if !reacquire.is_empty() {
            // Ready responses re-enter `held` through dispatch; keys
            // that now fail outright stay dropped (the daemon named
            // them gone and cannot serve them).
            let _ = self.acquire(&reacquire)?;
        }
        Ok(())
    }

    /// Re-sends the unresolved keys of `req` after a reconnect (the
    /// req_id is client-assigned, so the new daemon instance simply
    /// echoes it and the existing dispatch bookkeeping keeps working).
    fn resend_outstanding(&mut self, req: &AcquireRequest) -> io::Result<()> {
        if req.outstanding.is_empty() {
            return Ok(());
        }
        let keys: Vec<u64> = req.outstanding.iter().copied().collect();
        self.send(&acquire_frame(req.req_id, keys, req.mode))
    }

    /// The DV-assigned client id.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The context this session analyzes.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Sends `req` together with any staged fire-and-forget frames in
    /// one write; a failed write surfaces raw (recovery's own traffic,
    /// re-sends after a recovery, the goodbye).
    fn send(&mut self, req: &Request) -> io::Result<()> {
        self.pending_out.push_request(req);
        self.flush_pending()
    }

    /// The write path of every public call: delivers what is staged,
    /// `req` (if any) last, in one write — and when that write finds
    /// the connection dead and auto-reconnect is on, recovers the
    /// session and sends `req` again. What was only staged belonged to
    /// the dead session and is gone with it
    /// ([`recover_session`](Self::recover_session) drops it). A dead
    /// peer shows at the write on a Unix socket, and on TCP from the
    /// second write after its RST.
    fn deliver(&mut self, req: Option<&Request>, op: &'static str) -> io::Result<()> {
        if let Some(req) = req {
            self.pending_out.push_request(req);
        }
        let Err(e) = self.flush_pending() else {
            return Ok(());
        };
        if !self.try_recover(&e, op) {
            return Err(e);
        }
        req.map_or(Ok(()), |req| self.send(req))
    }

    /// Stages a fire-and-forget frame to ride the next coalesced write
    /// (how [`DvCluster`] attaches access digests to member traffic).
    fn stage(&mut self, req: &Request) {
        self.pending_out.push_request(req);
    }

    /// Delivers staged frames (if any) in a single write.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending_out.is_empty() {
            return Ok(());
        }
        let result = self.stream.write_all(self.pending_out.as_bytes());
        self.pending_out.clear();
        result
    }

    /// `SIMFS_Acquire_nb`: requests `keys` without blocking.
    pub fn acquire_nb(&mut self, keys: &[u64]) -> io::Result<AcquireRequest> {
        self.acquire_as(keys, AcquireMode::Native, true)
    }

    /// Requests `keys` under `mode` without blocking — the one acquire
    /// path. With `shared`, a native request of a mapped session pins
    /// resident keys through its slots first and resolves them at once;
    /// only the rest go out in an acquire frame. Staged frames (a digest
    /// nudge, releases) ride that frame, or go out alone when the
    /// mapping served every key.
    fn acquire_as(
        &mut self,
        keys: &[u64],
        mode: AcquireMode,
        shared: bool,
    ) -> io::Result<AcquireRequest> {
        let req_id = self.next_req;
        self.next_req += 1;
        let op = match mode {
            AcquireMode::Native => "acquire",
            AcquireMode::Takeover { .. } => "takeover_acquire",
        };
        let mut req = AcquireRequest {
            req_id,
            outstanding: keys.iter().copied().collect(),
            status: SimfsStatus::default(),
            queued: HashSet::new(),
            mode,
        };
        if shared && mode == AcquireMode::Native && self.shared.is_some() {
            self.pin_shared(&mut req, keys, op)?;
        }
        if !req.outstanding.is_empty() {
            let rest = keys.iter().copied().filter(|k| req.outstanding.contains(k)).collect();
            self.deliver(Some(&acquire_frame(req_id, rest, mode)), op)?;
        } else if !self.pending_out.is_empty() {
            self.deliver(None, op)?;
        }
        Ok(req)
    }

    /// Serves what it can of `req` from the mapping: each resident key
    /// pinned through a slot is ready (and held) at once and recorded
    /// in the access ring under one stamp — a ready point on the
    /// daemon's clock.
    fn pin_shared(&mut self, req: &mut AcquireRequest, keys: &[u64], op: &'static str) -> io::Result<()> {
        let Some(stamp) = self.mapped_now(op)? else {
            return Ok(());
        };
        for &key in keys {
            if req.outstanding.contains(&key) && self.pin_slot(key, stamp).is_some() {
                req.outstanding.remove(&key);
                req.status.ready.push(key);
            }
        }
        Ok(())
    }

    /// The one-key acquire of a transparent open, served from the
    /// mapping without building a request: pins `key` through a slot
    /// (held, recorded, any staged frame delivered) and returns the
    /// pin's residency proof (`shm.rs`, "Residency proofs"). `None`
    /// pins nothing: the session has no mapping, or the key is not
    /// resident — the daemon must serve it.
    pub(crate) fn pin_mapped(&mut self, key: u64) -> io::Result<Option<u64>> {
        let Some(stamp) = self.mapped_now("acquire")? else {
            return Ok(None);
        };
        let proof = self.pin_slot(key, stamp);
        if proof.is_some() && !self.pending_out.is_empty() {
            self.deliver(None, "acquire")?;
        }
        Ok(proof)
    }

    /// Counts an open toward a mapped session's liveness poll, which
    /// runs first when due: a socket that turns out dead ends the
    /// mapping (and, with auto-reconnect, brings a new session) before
    /// anything is served from it. Returns the ring stamp of now, on
    /// the daemon's clock, while the session maps a table.
    fn mapped_now(&mut self, op: &'static str) -> io::Result<Option<u64>> {
        let now = sys::monotonic_ns();
        if self.shared.as_mut().is_some_and(|m| m.poll_due(now)) {
            self.check_alive(op)?;
        }
        Ok(self.shared.as_ref().map(|m| m.epoch(now)))
    }

    /// Pins `key` through a slot of the mapping, holds it and records
    /// the hit in the access ring at `stamp`, staging a nudge when the
    /// daemon needs one. Returns the pin's proof.
    fn pin_slot(&mut self, key: u64, stamp: u64) -> Option<u64> {
        let map = self.shared.as_mut()?;
        let proof = map.pin(key)?;
        *self.held.entry(key).or_insert(0) += 1;
        if map.record(key, stamp) && map.wants_nudge() {
            self.pending_out.push_request(&Request::AccessDigest {
                dropped: 0,
                records: Vec::new(),
            });
        }
        Some(proof)
    }

    /// A mapped session's liveness check: one zero-timeout poll of the
    /// socket. Frames that arrived meanwhile are kept for their
    /// request; a dead connection surfaces here (and recovers, with
    /// auto-reconnect on) instead of behind a hit served from a dead
    /// daemon's table.
    fn check_alive(&mut self, op: &'static str) -> io::Result<()> {
        match self.pump_one(Some(Duration::ZERO)) {
            Ok(Some(resp)) => self.stray.push(resp),
            Ok(None) => {}
            Err(e) => {
                if !self.try_recover(&e, op) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The proof a slot pin of `key` would carry now; `None` without a
    /// mapping, for a key that is not resident, or against a closed
    /// table.
    pub(crate) fn proof_of(&self, key: u64) -> Option<u64> {
        self.shared.as_ref()?.proof_of(key)
    }

    /// `SIMFS_Acquire` through the daemon even where the mapping could
    /// serve: the retry [`VirtualFs`](crate::intercept::VirtualFs) makes
    /// after a read behind a shared pin failed, which also tells a dead
    /// daemon from a bad file.
    pub(crate) fn acquire_via_daemon(&mut self, keys: &[u64]) -> io::Result<SimfsStatus> {
        let mut req = self.acquire_as(keys, AcquireMode::Native, false)?;
        self.wait(&mut req)
    }

    /// `SIMFS_Acquire`: blocks until every key is ready or failed.
    pub fn acquire(&mut self, keys: &[u64]) -> io::Result<SimfsStatus> {
        let mut req = self.acquire_nb(keys)?;
        self.wait(&mut req)
    }

    /// Tagged foreign-interval acquire (failover): requests `keys` the
    /// daemon does **not** own, declaring their home to be dead
    /// cluster member `dead_member`. The daemon validates the claim
    /// against its own membership view, rebuilds residency for each
    /// foreign interval by rescanning shared storage, and serves or
    /// re-simulates the keys under its own budget; responses resolve
    /// through [`wait`](Self::wait) exactly like a plain acquire.
    /// `origin_epoch` is the client's takeover epoch, echoed in
    /// rejections for diagnosis.
    pub fn takeover_acquire_nb(
        &mut self,
        keys: &[u64],
        dead_member: u32,
        origin_epoch: u64,
    ) -> io::Result<AcquireRequest> {
        self.acquire_as(
            keys,
            AcquireMode::Takeover {
                dead_member,
                origin_epoch,
            },
            false,
        )
    }

    /// Hand-back RPC (failover teardown): asks this daemon — the
    /// *taker* — to drop the takeover pins it holds for `keys`, whose
    /// home member `dead_member` has been restored. One pin release is
    /// applied per listed key occurrence; the reply reports how many.
    /// The caller must have re-acquired every listed key at the
    /// restored home member *before* this call, so the residency veto
    /// never lapses. The released pins leave this session's held set.
    pub fn hand_back(&mut self, dead_member: u32, keys: &[u64]) -> io::Result<u64> {
        let req_id = self.next_req;
        self.next_req += 1;
        let released = self.call(
            "hand_back",
            &Request::HandBack {
                req_id,
                dead_member,
                keys: keys.to_vec(),
            },
            |resp| match resp {
                Response::HandedBack { req_id: r, released } if r == req_id => {
                    Ok(CallStep::Done(released))
                }
                Response::Error { message } => Err(io::Error::other(message)),
                other => Ok(CallStep::Stray(other)),
            },
        )?;
        for &key in keys {
            self.forget_pin(key);
        }
        Ok(released)
    }

    /// Drops one held-pin count without wire traffic: the release is on
    /// its way, the pin's daemon is gone (its pins died with it), or a
    /// `HandBack` frame carried the release.
    fn forget_pin(&mut self, key: u64) {
        if let Some(n) = self.held.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.held.remove(&key);
            }
        }
    }

    /// Forces a reconnect (plus `Reassert` of held pins) now,
    /// regardless of the auto-reconnect setting — how the cluster
    /// re-adopts a revived member whose session died while the member
    /// was down.
    fn reconnect_now(&mut self, op: &'static str) -> io::Result<()> {
        if self.recovering {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "recovery already in progress",
            ));
        }
        self.recovering = true;
        let outcome = self.recover_session(op);
        self.recovering = false;
        outcome
    }

    /// Processes one incoming frame into the request's bookkeeping.
    fn dispatch(&mut self, req: &mut AcquireRequest, resp: Response) -> io::Result<()> {
        match resp {
            Response::Ready { req_id, key } if req_id == req.req_id
                && req.outstanding.remove(&key) => {
                    req.status.ready.push(key);
                    // A Ready is a pin grant: track it so a reconnect
                    // knows what to re-assert.
                    *self.held.entry(key).or_insert(0) += 1;
                }
            Response::Failed {
                req_id,
                key,
                code,
                reason,
            } if req_id == req.req_id
                && req.outstanding.remove(&key) => {
                    req.status.failed.push((key, FailError { code, reason }));
                }
            Response::Queued {
                req_id,
                key,
                est_wait_ms,
            } if req_id == req.req_id => {
                req.queued.insert(key);
                req.status.est_wait = Some(Duration::from_millis(est_wait_ms));
            }
            Response::Error { message } => {
                return Err(io::Error::other(message));
            }
            other => {
                // A key of another in-flight request resolved: the
                // server sends it once, and a `Ready` is a pin grant, so
                // keep it for that request's own wait. Anything else
                // (a `Queued` of another request, a repeat) only informs.
                if resolves(&other).is_some_and(|id| id != req.req_id) {
                    self.stray.push(other);
                }
            }
        }
        Ok(())
    }

    /// Receives one response; `timeout: None` blocks, otherwise returns
    /// `Ok(None)` if no complete frame arrives in time. Partial frames
    /// stay buffered in the [`FrameReader`] — a timeout never
    /// desynchronizes the stream.
    fn pump_one(&mut self, timeout: Option<Duration>) -> io::Result<Option<Response>> {
        // Anything still staged must be on the wire before we wait for
        // responses (a buffered request would deadlock the wait).
        self.flush_pending()?;
        loop {
            // Drain already-buffered frames without touching the socket.
            if let Some(body) = self.reader.pop_buffered()? {
                return Response::decode(&body).map(Some);
            }
            // The session parks here, not in the read (the reasons are
            // `Stream::wait_readable`'s).
            if !self.reader.get_ref().wait_readable(timeout)? {
                return Ok(None);
            }
            if self.reader.fill_once()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the session",
                ));
            }
            // Timed probe: exactly one wait and one read, so a frame
            // arriving in pieces cannot stretch the wait past one
            // timeout window.
            if timeout.is_some() {
                return match self.reader.pop_buffered()? {
                    Some(body) => Response::decode(&body).map(Some),
                    None => Ok(None),
                };
            }
        }
    }

    /// Next response for request `req_id`: strays first — except a key
    /// resolution of another request, kept for that one — then the
    /// socket.
    fn next_response(
        &mut self,
        req_id: u64,
        timeout: Option<Duration>,
    ) -> io::Result<Option<Response>> {
        let mine = |r: &Response| resolves(r).is_none_or(|id| id == req_id);
        if let Some(at) = self.stray.iter().position(mine) {
            return Ok(Some(self.stray.remove(at)));
        }
        self.pump_one(timeout)
    }

    /// One blocking receive step for `req`, honoring the op timeout
    /// and the reconnect path. Returns `Ok(true)` when a recovery
    /// replaced the session and re-sent the outstanding keys — the
    /// caller must reset its deadline.
    fn pump_for(
        &mut self,
        req: &mut AcquireRequest,
        deadline: Option<Instant>,
        op: &'static str,
    ) -> io::Result<bool> {
        // Probe in bounded chunks so a deadline is honored within
        // ~250 ms even while frames for other requests keep arriving.
        let chunk = deadline.map(|d| {
            d.saturating_duration_since(Instant::now())
                .min(Duration::from_millis(250))
                .max(Duration::from_millis(1))
        });
        match self.next_response(req.req_id, chunk) {
            Ok(Some(resp)) => {
                self.dispatch(req, resp)?;
                Ok(false)
            }
            Ok(None) => {
                let Some(d) = deadline else { return Ok(false) };
                if Instant::now() < d {
                    return Ok(false);
                }
                let err = DvTimeout {
                    op,
                    after: self.op_timeout.unwrap_or_default(),
                }
                .into_io();
                if self.try_recover(&err, op) {
                    self.resend_outstanding(req)?;
                    return Ok(true);
                }
                Err(err)
            }
            Err(e) => {
                if self.try_recover(&e, op) {
                    self.resend_outstanding(req)?;
                    return Ok(true);
                }
                Err(e)
            }
        }
    }

    /// `SIMFS_Wait`: blocks until the request fully resolves (or the
    /// [op timeout](Self::set_op_timeout) expires).
    pub fn wait(&mut self, req: &mut AcquireRequest) -> io::Result<SimfsStatus> {
        let mut deadline = self.op_timeout.map(|t| Instant::now() + t);
        while !req.done() {
            if self.pump_for(req, deadline, "wait")? {
                deadline = self.op_timeout.map(|t| Instant::now() + t);
            }
        }
        Ok(req.status.clone())
    }

    /// `SIMFS_Test`: non-blocking completion probe.
    pub fn test(&mut self, req: &mut AcquireRequest) -> io::Result<(bool, SimfsStatus)> {
        // Drain whatever already arrived.
        while !req.done() {
            match self.next_response(req.req_id, Some(Duration::from_millis(1))) {
                Ok(Some(resp)) => self.dispatch(req, resp)?,
                Ok(None) => break,
                Err(e) => {
                    if self.try_recover(&e, "test") {
                        self.resend_outstanding(req)?;
                        break;
                    }
                    return Err(e);
                }
            }
        }
        Ok((req.done(), req.status.clone()))
    }

    /// `SIMFS_Waitsome`: blocks until at least one more key resolves;
    /// returns the status so far.
    pub fn waitsome(&mut self, req: &mut AcquireRequest) -> io::Result<SimfsStatus> {
        let resolved_before = req.status.ready.len() + req.status.failed.len();
        let mut deadline = self.op_timeout.map(|t| Instant::now() + t);
        while !req.done() && req.status.ready.len() + req.status.failed.len() == resolved_before {
            if self.pump_for(req, deadline, "waitsome")? {
                deadline = self.op_timeout.map(|t| Instant::now() + t);
            }
        }
        Ok(req.status.clone())
    }

    /// `SIMFS_Testsome`: non-blocking; returns the resolved subset.
    pub fn testsome(&mut self, req: &mut AcquireRequest) -> io::Result<SimfsStatus> {
        let (_, status) = self.test(req)?;
        Ok(status)
    }

    /// `SIMFS_Release`: drops this client's pin on `key`. A pin taken
    /// through the mapping is dropped in its slot, at once, with nothing
    /// to send. Otherwise the frame is staged and coalesced into the
    /// next request's write (releases expect no response); sessions
    /// that release and then go idle should call [`flush`](Self::flush)
    /// to push the pin drop out immediately.
    pub fn release(&mut self, key: u64) -> io::Result<()> {
        self.forget_pin(key);
        if self.shared.as_ref().is_some_and(|m| m.unpin(key)) {
            return Ok(());
        }
        self.pending_out.push_request(&Request::Release { key });
        // Cap the staging buffer: a pathological release-only loop
        // still reaches the daemon in bounded batches.
        if self.pending_out.as_bytes().len() >= 16 * 1024 {
            self.deliver(None, "release")?;
        }
        Ok(())
    }

    /// Delivers any staged fire-and-forget frames now.
    pub fn flush(&mut self) -> io::Result<()> {
        self.deliver(None, "flush")
    }

    /// Sends a request and blocks for the response that resolves it,
    /// honoring the op timeout and the reconnect path (recovery simply
    /// re-sends `req` — req_ids are client-assigned, so the new daemon
    /// instance echoes the same one and `matcher` keeps working).
    fn call<T>(
        &mut self,
        op: &'static str,
        req: &Request,
        mut matcher: impl FnMut(Response) -> io::Result<CallStep<T>>,
    ) -> io::Result<T> {
        self.deliver(Some(req), op)?;
        let mut deadline = self.op_timeout.map(|t| Instant::now() + t);
        loop {
            let chunk = deadline.map(|d| {
                d.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(250))
                    .max(Duration::from_millis(1))
            });
            match self.pump_one(chunk) {
                Ok(Some(resp)) => match matcher(resp)? {
                    CallStep::Done(value) => return Ok(value),
                    CallStep::Stray(other) => self.stray.push(other),
                },
                Ok(None) => {
                    let Some(d) = deadline else { continue };
                    if Instant::now() < d {
                        continue;
                    }
                    let err = DvTimeout {
                        op,
                        after: self.op_timeout.unwrap_or_default(),
                    }
                    .into_io();
                    if !self.try_recover(&err, op) {
                        return Err(err);
                    }
                    self.send(req)?;
                    deadline = self.op_timeout.map(|t| Instant::now() + t);
                }
                Err(e) => {
                    if !self.try_recover(&e, op) {
                        return Err(e);
                    }
                    self.send(req)?;
                    deadline = self.op_timeout.map(|t| Instant::now() + t);
                }
            }
        }
    }

    /// `SIMFS_Bitrep`: checks the materialized file against the
    /// recorded checksum of the initial simulation. `Ok(None)` when no
    /// checksum was recorded for this key.
    pub fn bitrep(&mut self, key: u64) -> io::Result<Option<bool>> {
        let req_id = self.next_req;
        self.next_req += 1;
        self.call("bitrep", &Request::Bitrep { req_id, key }, |resp| match resp {
            Response::BitrepResult {
                req_id: r,
                matches,
                known,
                ..
            } if r == req_id => Ok(CallStep::Done(known.then_some(matches))),
            Response::Failed { req_id: r, code, reason, .. } if r == req_id => {
                Err(io::Error::other(FailError { code, reason }.to_string()))
            }
            Response::Error { message } => Err(io::Error::other(message)),
            other => Ok(CallStep::Stray(other)),
        })
    }

    /// Queries the context's runtime statistics (the profiling support
    /// the status API provides, §III-C).
    pub fn status(&mut self) -> io::Result<ContextStats> {
        let req_id = self.next_req;
        self.next_req += 1;
        self.call("status", &Request::Status { req_id }, |resp| match resp {
            Response::StatusInfo {
                req_id: r,
                hits,
                misses,
                restarts,
                produced_steps,
                active_sims,
            } if r == req_id => Ok(CallStep::Done(ContextStats {
                hits,
                misses,
                restarts,
                produced_steps,
                active_sims,
            })),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Ok(CallStep::Stray(other)),
        })
    }

    /// `SIMFS_Finalize`: orderly goodbye; the DV releases this client's
    /// pins and kills its idle prefetches. The daemon closes the
    /// connection once the `Bye` is processed.
    pub fn finalize(mut self) -> io::Result<()> {
        self.send(&Request::Bye)
    }

    /// Closes the session without the `Bye` handshake, after delivering
    /// any staged `Release` frames. The daemon maps the resulting
    /// hangup to `ClientGone` exactly as for a plain drop — but the
    /// staged releases reach it first, so its pin counts drain through
    /// the normal path instead of the disconnect GC.
    pub fn close(mut self) -> io::Result<()> {
        self.flush_pending()
    }
}

impl Drop for SimfsClient {
    fn drop(&mut self) {
        // Best-effort: `Release` frames staged for write-coalescing
        // must not die in the buffer — a dropped session with staged
        // releases would otherwise strand daemon-side pins until the
        // hangup-driven `ClientGone` GC runs. Errors are ignored; the
        // socket is going away either way and `ClientGone` remains the
        // backstop.
        let _ = self.flush_pending();
    }
}

/// Runtime statistics of a simulation context, as reported by the DV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContextStats {
    /// Cache hits so far.
    pub hits: u64,
    /// Cache misses so far.
    pub misses: u64,
    /// Re-simulations launched.
    pub restarts: u64,
    /// Output steps produced.
    pub produced_steps: u64,
    /// Currently running re-simulations.
    pub active_sims: u64,
}

/// Handle for a non-blocking acquire spanning a [`DvCluster`]: one
/// member-local [`AcquireRequest`] per daemon that received keys.
#[derive(Debug)]
pub struct ClusterAcquireRequest {
    /// `(member, request)`: one native acquire per live home member
    /// that received keys, and tagged takeover acquires on the takers
    /// of down ones. A member that dies with keys in flight has its
    /// part replaced by one on its successor.
    parts: Vec<(usize, AcquireRequest)>,
    /// Resolved status carried over from parts whose member died after
    /// resolving them: merges into the final status but is never
    /// scanned for grant recording (its re-homed ready keys were
    /// recorded at failover time).
    carry: SimfsStatus,
    /// Queued-key markers carried over alongside `carry` (they feed
    /// the digest's ready-point flags).
    carry_queued: HashSet<u64>,
    /// The requested keys in request order, with the acquire-time
    /// epoch: the digest observation of this request, recorded into
    /// the member logs only once the request resolves — at which point
    /// the per-key `Queued` responses reveal which epochs were true
    /// ready points.
    keys: Vec<u64>,
    epoch: u64,
    /// Observation already recorded (guards double-recording when both
    /// `test` and `wait` see the request complete).
    observed: bool,
}

impl ClusterAcquireRequest {
    /// Keys still pending across all members.
    pub fn outstanding(&self) -> usize {
        self.all_parts().map(AcquireRequest::outstanding).sum()
    }

    /// True once every key resolved (ready or failed) on every member.
    pub fn done(&self) -> bool {
        self.all_parts().all(AcquireRequest::done)
    }

    fn all_parts(&self) -> impl Iterator<Item = &AcquireRequest> {
        self.parts.iter().map(|(_, part)| part)
    }

    /// Merged status across the members so far.
    fn merged(&self) -> SimfsStatus {
        let mut status = self.carry.clone();
        for part in self.all_parts() {
            status.ready.extend_from_slice(&part.status.ready);
            status.failed.extend_from_slice(part.status.failed.as_slice());
            status.est_wait = match (status.est_wait, part.status.est_wait) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        status
    }
}

/// An analysis session spanning a cluster of DV daemons (§III scaled
/// out): daemon `k` of `K` owns the restart intervals with
/// `interval % K == k`, so every request routes to exactly one member —
/// by the interval hash [`crate::dv::ClusterMember::owns_key`] checks
/// on the daemon side (raw `key % K` would scatter each
/// re-simulation's claims, waiters and productions across daemons).
/// Each member connection is a full [`SimfsClient`], so the
/// write-coalescing of fire-and-forget `Release` frames applies
/// per-daemon unchanged.
///
/// The API mirrors [`SimfsClient`]; multi-key acquires are split by
/// owning member and merged back into one [`SimfsStatus`].
///
/// # Access-stream digests
///
/// Routing splits the stream: each member daemon sees only the keys of
/// the intervals it owns, so its prefetch agents — which need the full
/// sequence to detect direction and cadence — would observe a
/// subsequence full of artificial jumps. The cluster therefore records
/// its **full pre-routing access stream** into one bounded lossy
/// [`AccessLog`] per member and forwards each member's copy as a
/// fire-and-forget `AccessDigest` frame riding that member's next
/// coalesced write. Members told at hello time that they are clustered
/// ignore their local (post-routing) view and observe the forwarded
/// stream instead. Overflows degrade to counted drops, never blocking
/// or unbounded memory; a single-daemon "cluster" skips forwarding —
/// its local view already is the full stream.
///
/// # Failover state
///
/// Every failover decision — which members are down, the takeover
/// epoch, which taker a key routes to and under which tag, where each
/// re-homed pin is parked, what a revived member gets handed back — is
/// made by the crate's sans-IO routing core, `ClusterRoute`, the single
/// owner of that state. The virtual fault harness
/// ([`crate::vharness::FaultedClusterExperiment`]) drives the same
/// core, so its scripted plans exercise this routing. What stays here
/// is I/O: probing members, sending, waiting, classifying errors.
pub struct DvCluster {
    members: Vec<SimfsClient>,
    /// Per-member copy of the full pre-routing access stream, drained
    /// into an `AccessDigest` on that member's next coalesced write.
    logs: Vec<AccessLog>,
    /// Clock for record epochs (client-side; only gaps carry meaning).
    epoch: Instant,
    /// Reused drain buffer.
    drain_scratch: Vec<AccessRecord>,
    /// Routing, down set, takeover epoch and parked pins.
    route: ClusterRoute,
    /// How long a silent member is probed before it is declared down.
    down_window: Duration,
}

impl DvCluster {
    /// Connects to every daemon of the cluster, in member order.
    /// `steps` must match the context's step math on the daemons —
    /// it is what both sides hash intervals with; the hello handshake
    /// carries `(index, size, config_hash(steps))` so a daemon whose
    /// position or cadence disagrees rejects the session immediately.
    ///
    /// # Panics
    /// Panics if `addrs` is empty.
    pub fn connect<A: ToSocketAddrs>(
        addrs: &[A],
        context: &str,
        steps: StepMath,
    ) -> io::Result<DvCluster> {
        assert!(!addrs.is_empty(), "a cluster needs at least one daemon");
        let size = addrs.len() as u32;
        let steps_hash = steps.config_hash();
        let members = addrs
            .iter()
            .enumerate()
            .map(|(index, addr)| {
                SimfsClient::connect_with(
                    addr,
                    context,
                    Some(Membership {
                        index: index as u32,
                        size,
                        steps_hash,
                    }),
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        let logs = (0..members.len())
            .map(|_| AccessLog::new(ACCESS_LOG_CAPACITY))
            .collect();
        Ok(DvCluster {
            members,
            logs,
            epoch: Instant::now(),
            drain_scratch: Vec::new(),
            route: ClusterRoute::new(steps, size),
            down_window: RECONNECT_WINDOW,
        })
    }

    /// Records a *resolved* request's accesses (in request order, at
    /// their acquire-time epoch) into every member's digest log.
    /// Deferred to resolution so the per-key `Queued` responses can
    /// mark which epochs were true ready points — a blocked key's
    /// following gap is production wait, not consumption, and must not
    /// be sampled into tau_cli (the same rule the daemon applies to
    /// its local records). Overlapping non-blocking requests may
    /// record out of resolution order; replay skips the resulting
    /// non-positive gaps, so disorder degrades sampling, never
    /// corrupts it. No-op for single-member clusters: the one daemon's
    /// local view already is the full stream.
    fn observe_resolved(&mut self, req: &mut ClusterAcquireRequest) {
        if req.observed {
            return;
        }
        req.observed = true;
        // Record grants before the digest work: keys a taker served are
        // pinned *there*, so their releases — and an eventual hand-back
        // — must route to it, not to the (dead) home member.
        for (m, part) in &req.parts {
            for &key in &part.status.ready {
                self.route.granted(key, *m);
            }
        }
        if self.members.len() <= 1 {
            return;
        }
        for &key in &req.keys {
            let ready = !req.carry_queued.contains(&key)
                && !req.all_parts().any(|part| part.queued.contains(&key));
            for log in &mut self.logs {
                // The member daemon attributes records to its own
                // session client id; the field here is a placeholder.
                log.push(AccessRecord {
                    client: 0,
                    key,
                    epoch: req.epoch,
                    ready,
                });
            }
        }
    }

    /// Stages member `m`'s pending digest (if any) to ride its next
    /// coalesced write. While the member is down, the digest is
    /// dropped and *counted* instead of staged: frames queued onto a
    /// dead connection would grow that session's write buffer without
    /// bound, and the bounded ring behind it already degrades to
    /// counted drops — so the first digest after revival reports the
    /// outage's records in its drop counter, exactly like ring
    /// overflow.
    fn stage_digest(&mut self, m: usize) {
        if self.members.len() <= 1 {
            return;
        }
        let log = &mut self.logs[m];
        if log.is_empty() && log.dropped() == 0 {
            return;
        }
        if self.route.is_down(m) {
            self.drain_scratch.clear();
            let overflow = log.drain_into(&mut self.drain_scratch);
            log.note_dropped(overflow + self.drain_scratch.len() as u64);
            self.drain_scratch.clear();
            return;
        }
        self.drain_scratch.clear();
        let dropped = log.drain_into(&mut self.drain_scratch);
        let records = self
            .drain_scratch
            .iter()
            .map(|r| (r.key, r.epoch, r.ready))
            .collect();
        self.members[m].stage(&Request::AccessDigest { dropped, records });
    }

    /// Number of daemons in the cluster.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// [`SimfsClient::transport`] of every member session, in member
    /// order (a cluster across hosts mixes the two).
    pub fn transports(&self) -> Vec<Transport> {
        self.members.iter().map(SimfsClient::transport).collect()
    }

    /// Fans [`SimfsClient::set_auto_reconnect`] out to every member:
    /// a member daemon that dies and comes back (e.g. restarted with
    /// `--recover`) is redialed and its pins re-asserted instead of
    /// failing the whole cluster session.
    pub fn set_auto_reconnect(&mut self, on: bool) {
        for member in &mut self.members {
            member.set_auto_reconnect(on);
        }
    }

    /// Fans [`SimfsClient::set_op_timeout`] out to every member.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        for member in &mut self.members {
            member.set_op_timeout(timeout);
        }
    }

    /// Successful reconnects summed over every member.
    pub fn reconnects(&self) -> u64 {
        self.members.iter().map(SimfsClient::reconnects).sum()
    }

    /// Pins restored via `Reassert` summed over every member.
    pub fn pins_reasserted(&self) -> u64 {
        self.members.iter().map(SimfsClient::pins_reasserted).sum()
    }

    /// Enables (or disables) interval failover: when a member stays
    /// unreachable through the [down window](Self::set_down_window),
    /// its intervals are rerouted to the live *taker* the fixed
    /// successor rule names (first live member clockwise on the ring),
    /// the pins this session held there are re-homed onto the taker
    /// via tagged `TakeoverAcquire` requests, and in-flight keys
    /// complete on the taker — the cluster degrades instead of
    /// failing. When the dead member answers its port again, the next
    /// acquire re-adopts it and hands its pins back (re-acquire at
    /// home first, then `HandBack` at the taker, so the residency veto
    /// never lapses). Off by default: a confirmed-dead member then
    /// surfaces a typed [`MemberDown`] instead of rerouting (never an
    /// indefinite hang).
    pub fn set_failover(&mut self, on: bool) {
        self.route.set_failover(on);
    }

    /// Sets the down-detection window: how long an unresponsive member
    /// is probed (capped-backoff TCP connects) before the cluster
    /// declares it dead — and, symmetrically, each member session's
    /// own reconnect window. Default 30 s.
    pub fn set_down_window(&mut self, window: Duration) {
        self.down_window = window;
        for member in &mut self.members {
            member.set_reconnect_window(window);
        }
    }

    /// True while at least one member is considered down (degraded
    /// mode).
    pub fn degraded(&self) -> bool {
        self.route.members_down() > 0
    }

    /// Number of members currently considered down.
    pub fn members_down(&self) -> usize {
        self.route.members_down()
    }

    /// The current takeover epoch: bumped on every down-detection and
    /// hand-back, zero while the cluster has never degraded.
    pub fn takeover_epoch(&self) -> u64 {
        self.route.epoch()
    }

    /// Pins currently parked on takers (counts summed over keys).
    pub fn taken_over_pins(&self) -> u64 {
        self.route.taken_over_pins()
    }

    /// The member owning `key`'s restart interval.
    pub fn member_of(&self, key: u64) -> usize {
        self.route.home(key)
    }

    /// One quick liveness probe: does the member accept a connection
    /// (on its local name or its TCP port, as a session would dial it)?
    fn probe_alive(&self, m: usize) -> bool {
        net::dial(&self.members[m].addr, Some(PROBE_CONNECT_TIMEOUT)).is_ok()
    }

    /// Probes member `m` with capped backoff for the down window.
    /// Returns true if it stayed unreachable throughout (confirmed
    /// down).
    fn probe_until_down(&self, m: usize) -> bool {
        let deadline = Instant::now() + self.down_window;
        let mut delay = RECONNECT_MIN_DELAY;
        loop {
            if self.probe_alive(m) {
                return false;
            }
            if Instant::now() + delay >= deadline {
                return true;
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(RECONNECT_MAX_DELAY);
        }
    }

    /// Classifies a member-op error by probing the member.
    /// `injected_deadline` marks errors produced by the cluster's own
    /// bounded-wait harness (no caller-set op timeout): those resume
    /// instead of surfacing when the member turns out to be alive.
    fn classify(&self, m: usize, err: &io::Error, injected_deadline: bool) -> MemberVerdict {
        if !is_disconnect(err) {
            return MemberVerdict::Surface;
        }
        let alive = self.probe_alive(m) || !self.probe_until_down(m);
        if !alive {
            return MemberVerdict::Down;
        }
        if injected_deadline && DvTimeout::from_io(err).is_some() {
            MemberVerdict::KeepWaiting
        } else {
            MemberVerdict::Surface
        }
    }

    /// Declares member `m` dead: discards whatever its session had
    /// staged (the frames belong to a connection that no longer
    /// exists) and, with failover on, re-homes every pin this session
    /// held there along the route's batches. Returns the pins no live
    /// member re-granted. Without failover the held pins stay put: a
    /// revival re-asserts them.
    fn fail_member(&mut self, m: usize) -> io::Result<Vec<(u64, FailError)>> {
        if self.route.is_down(m) {
            return Ok(Vec::new());
        }
        let held = if self.route.failover() {
            std::mem::take(&mut self.members[m].held)
        } else {
            u64_map()
        };
        self.members[m].pending_out.clear();
        self.members[m].stray.clear();
        let mut lost = Vec::new();
        for (home, keys) in self.route.mark_down(m, held) {
            match self.acquire_routed(home, &keys) {
                Ok(status) => lost.extend(status.failed),
                // No live member left: the pins died with the cluster.
                Err(e) if MemberDown::from_io(&e).is_some() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(lost)
    }

    /// Member `m`'s operation failed with `err`: fails `m` over when
    /// probing confirms it dead (returning what [`fail_member`]
    /// returns), else surfaces the error.
    ///
    /// [`fail_member`]: Self::fail_member
    fn fail_dead(&mut self, m: usize, err: io::Error) -> io::Result<Vec<(u64, FailError)>> {
        match self.classify(m, &err, false) {
            MemberVerdict::Down => self.fail_member(m),
            MemberVerdict::Surface | MemberVerdict::KeepWaiting => Err(err),
        }
    }

    /// Sends `keys`, all homed on `home`, wherever the route sends
    /// them now and under its tag, with the member's pending digest in
    /// front. A member found dead on the way is failed over and the
    /// keys follow the route again; the typed [`MemberDown`] surfaces
    /// once the route runs out (failover off, or no live member left).
    fn send_routed(
        &mut self,
        home: usize,
        keys: &[u64],
        op: &'static str,
    ) -> io::Result<(usize, AcquireRequest)> {
        loop {
            let (m, mode) = match self.route.route_home(home) {
                Route::Member { member, mode } => (member, mode),
                Route::Down(member) => return Err(MemberDown { member, op }.into_io()),
            };
            self.stage_digest(m);
            match self.members[m].acquire_as(keys, mode, true) {
                Ok(part) => return Ok((m, part)),
                Err(e) => {
                    self.fail_dead(m, e)?;
                }
            }
        }
    }

    /// Blocking [`send_routed`](Self::send_routed): re-homes `keys`
    /// (all homed on `home`) and records every grant in the route. When
    /// the member dies under the wait, its unresolved keys follow the
    /// route again; what it had already granted re-homes with its other
    /// pins, and whatever that loses is reported as failed.
    fn acquire_routed(&mut self, home: usize, keys: &[u64]) -> io::Result<SimfsStatus> {
        let mut status = SimfsStatus::default();
        let mut keys = keys.to_vec();
        while !keys.is_empty() {
            let (m, mut part) = self.send_routed(home, &keys, "rehome")?;
            let result = self.members[m].wait(&mut part);
            for &key in &part.status.ready {
                self.route.granted(key, m);
            }
            status.ready.extend_from_slice(&part.status.ready);
            status.failed.append(&mut part.status.failed);
            keys.clear();
            if let Err(e) = result {
                status.failed.extend(self.fail_dead(m, e)?);
                keys.extend(part.outstanding.iter().copied());
            }
        }
        Ok(status)
    }

    /// Fails part `i` of `req` over from its dead member: re-homes the
    /// session's pins (the part's already-granted keys among them),
    /// moves the part's resolved status into the request's carry set,
    /// and re-issues its unresolved keys along the route. Without
    /// failover (or with no live member left) this is where the typed
    /// [`MemberDown`] surfaces.
    fn fail_over_part(
        &mut self,
        i: usize,
        req: &mut ClusterAcquireRequest,
        op: &'static str,
    ) -> io::Result<()> {
        let m = req.parts[i].0;
        let lost = self.fail_member(m)?;
        // A takeover part keeps its keys' home tag; a native part's
        // home is `m` itself.
        let home = match req.parts[i].1.mode {
            AcquireMode::Takeover { dead_member, .. } => dead_member as usize,
            AcquireMode::Native => m,
        };
        if let Route::Down(_) = self.route.route_home(home) {
            return Err(MemberDown { member: m, op }.into_io());
        }
        let (_, mut old) = req.parts.remove(i);
        // A granted key whose pin found no new home moves to the failed
        // set — the caller must not believe it holds a veto nobody
        // enforces.
        for (key, err) in lost {
            if let Some(i) = old.status.ready.iter().position(|&k| k == key) {
                old.status.ready.remove(i);
                old.status.failed.push((key, err));
            }
        }
        // The resolved status carries over *outside* the new part:
        // `observe_resolved` records grants from part ready sets, and
        // the re-homed keys above are already recorded.
        req.carry.ready.extend_from_slice(&old.status.ready);
        req.carry.failed.extend(old.status.failed);
        req.carry_queued.extend(old.queued.iter().copied());
        let keys: Vec<u64> = old.outstanding.iter().copied().collect();
        if !keys.is_empty() {
            req.parts.push(self.send_routed(home, &keys, op)?);
        }
        Ok(())
    }

    /// `SIMFS_Acquire_nb` across the cluster: each member receives the
    /// keys it owns in one request.
    ///
    /// On a partial failure (a member's daemon died mid-send) the
    /// members that already took their subset are unwound — their
    /// requests waited out and every key that became ready released —
    /// before the error is returned. Without that, the orphaned
    /// `Ready` frames would be dropped by later requests' dispatch and
    /// the pins would survive on the healthy daemons until the whole
    /// session's teardown.
    pub fn acquire_nb(&mut self, keys: &[u64]) -> io::Result<ClusterAcquireRequest> {
        // Down members are probed for revival before new work routes:
        // a restarted daemon is re-adopted (and handed its pins back)
        // on the first acquire after it answers its port again.
        if self.degraded() {
            self.try_revive();
        }
        // The digest records the *pre-routing* stream — every member's
        // agents must see the whole trajectory, not the interval
        // subsequence the split below sends them. The observation is
        // stamped now (acquire time) but recorded into the member logs
        // only when the request resolves, once the Queued responses
        // have revealed which keys blocked (see `observe_resolved`).
        let epoch = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut per_member: Vec<Vec<u64>> = vec![Vec::new(); self.members.len()];
        for &key in keys {
            per_member[self.member_of(key)].push(key);
        }
        let mut req = ClusterAcquireRequest {
            parts: Vec::new(),
            carry: SimfsStatus::default(),
            carry_queued: HashSet::new(),
            keys: keys.to_vec(),
            epoch,
            observed: false,
        };
        for (home, keys) in per_member.iter().enumerate() {
            if keys.is_empty() {
                continue;
            }
            // The member's digest rides in front of its acquire, in the
            // same write: observation reaches it no later than the keys
            // it will serve. A known-dead home's keys go straight to
            // its taker.
            match self.send_routed(home, keys, "acquire") {
                Ok(part) => req.parts.push(part),
                Err(e) => {
                    self.unwind_request(&mut req);
                    return Err(e);
                }
            }
        }
        Ok(req)
    }

    /// Best-effort abandonment of a partially completed request: waits
    /// out whatever is in flight on live members and releases every
    /// key the request pinned, so an erroring cluster op never leaves
    /// pins behind on the healthy daemons. Pins on down members died
    /// with them — only the local counts are dropped.
    fn unwind_request(&mut self, req: &mut ClusterAcquireRequest) {
        for (m, part) in &mut req.parts {
            let m = *m;
            if self.route.is_down(m) {
                for &key in &part.status.ready {
                    self.members[m].forget_pin(key);
                }
                continue;
            }
            let _ = self.members[m].wait(part);
            for &key in &part.status.ready {
                let _ = self.members[m].release(key);
            }
            let _ = self.members[m].flush();
        }
        // Carried-over ready keys were re-homed and recorded in the
        // route: their releases go wherever it says.
        for key in req.carry.ready.clone() {
            let _ = self.release(key);
        }
    }

    /// `SIMFS_Acquire`: blocks until every key is ready or failed.
    pub fn acquire(&mut self, keys: &[u64]) -> io::Result<SimfsStatus> {
        let mut req = self.acquire_nb(keys)?;
        self.wait(&mut req)
    }

    /// `SIMFS_Wait`: blocks until the request fully resolves on every
    /// member (members resolve independently, so waiting them out one
    /// at a time loses no concurrency — each daemon keeps producing
    /// while another is being drained).
    ///
    /// If any member fails, the others are still waited out and every
    /// key this request acquired is released before the error returns
    /// — an erroring `wait` means the caller treats the whole acquire
    /// as failed and will never release, so the cluster must not leave
    /// its pins behind on the healthy daemons (the same unwind
    /// [`acquire_nb`](Self::acquire_nb) applies to partial sends).
    pub fn wait(&mut self, req: &mut ClusterAcquireRequest) -> io::Result<SimfsStatus> {
        // A part whose member dies is replaced by one on a live member,
        // so this re-scans until every part is done.
        while let Some(i) = req.parts.iter().position(|(_, part)| !part.done()) {
            if let Err(e) = self.wait_part(i, req, "wait") {
                self.unwind_request(req);
                return Err(e);
            }
        }
        self.observe_resolved(req);
        Ok(req.merged())
    }

    /// Waits out part `i` with down-detection: when the caller set no
    /// op timeout, a bounded one is injected so a dead member can never
    /// block the analysis forever — injected expiries are probed and
    /// either resumed (member alive, just slow: a long re-simulation is
    /// not a death) or escalated to failover / [`MemberDown`].
    fn wait_part(
        &mut self,
        i: usize,
        req: &mut ClusterAcquireRequest,
        op: &'static str,
    ) -> io::Result<()> {
        let m = req.parts[i].0;
        loop {
            let injected = self.members[m].op_timeout.is_none();
            if injected {
                self.members[m].set_op_timeout(Some(self.down_window));
            }
            let result = self.members[m].wait(&mut req.parts[i].1);
            if injected {
                self.members[m].set_op_timeout(None);
            }
            match result {
                Ok(_) => return Ok(()),
                Err(e) => match self.classify(m, &e, injected) {
                    MemberVerdict::Surface => return Err(e),
                    MemberVerdict::KeepWaiting => continue,
                    MemberVerdict::Down => return self.fail_over_part(i, req, op),
                },
            }
        }
    }

    /// `SIMFS_Test`: non-blocking completion probe over all members. A
    /// probe that trips over a dead member fails its part over rather
    /// than erroring the whole request.
    ///
    /// A member error gets the same unwind as [`wait`](Self::wait):
    /// every key this request already acquired is released before the
    /// error returns — an erroring probe means the caller treats the
    /// whole acquire as failed and will never release, so the pins must
    /// not survive on the healthy daemons.
    pub fn test(&mut self, req: &mut ClusterAcquireRequest) -> io::Result<(bool, SimfsStatus)> {
        let mut i = 0;
        while i < req.parts.len() {
            let m = req.parts[i].0;
            // A failed-over part leaves the list; its replacement joins
            // the end, so `i` already names the next part.
            let result = match self.members[m].test(&mut req.parts[i].1) {
                Ok(_) => {
                    i += 1;
                    Ok(())
                }
                Err(e) => match self.classify(m, &e, false) {
                    MemberVerdict::Down => self.fail_over_part(i, req, "test"),
                    MemberVerdict::Surface | MemberVerdict::KeepWaiting => Err(e),
                },
            };
            if let Err(e) = result {
                self.unwind_request(req);
                return Err(e);
            }
        }
        if req.done() {
            self.observe_resolved(req);
        }
        Ok((req.done(), req.merged()))
    }

    /// `SIMFS_Release`: staged for write-coalescing on the owning
    /// member's connection (any pending digest for that member is
    /// staged ahead of it). A pin parked on a taker routes there
    /// instead; a pin whose home member is down and was never taken
    /// over died with the member — the release is a local no-op.
    pub fn release(&mut self, key: u64) -> io::Result<()> {
        match self.route.release_target(key) {
            Release::Send(m) => {
                self.stage_digest(m);
                self.members[m].release(key)
            }
            Release::Forget(m) => {
                self.members[m].forget_pin(key);
                Ok(())
            }
        }
    }

    /// Probes every down member once; one that answers its port is
    /// re-adopted: its session is redialed (with failover on there is
    /// nothing to re-assert — the pins it held re-homed at
    /// down-detection) and the pins of its intervals parked on takers
    /// are handed back: each is re-acquired at the restored home member
    /// *first*, so the residency veto never lapses, and only then
    /// dropped at the taker via one `HandBack` per taker. A key whose
    /// home re-acquire fails stays parked on its taker, where its
    /// releases keep going.
    fn try_revive(&mut self) {
        for m in 0..self.members.len() {
            if !self.route.is_down(m) || !self.probe_alive(m) {
                continue;
            }
            if self.members[m].reconnect_now("revive").is_err() {
                continue;
            }
            for (taker, pins) in self.route.revive(m) {
                let mut keys = Vec::new();
                for (key, count) in pins {
                    let home_ok = |member: &mut SimfsClient| {
                        matches!(member.acquire(&[key]), Ok(s) if s.ok())
                    };
                    if (0..count).all(|_| home_ok(&mut self.members[m])) {
                        keys.extend(std::iter::repeat_n(key, count as usize));
                        self.route.handed_back(key, taker);
                    }
                }
                if !keys.is_empty() {
                    let _ = self.members[taker].hand_back(m as u32, &keys);
                }
            }
        }
    }

    /// Delivers staged fire-and-forget frames on every member now.
    pub fn flush(&mut self) -> io::Result<()> {
        for member in &mut self.members {
            member.flush()?;
        }
        Ok(())
    }

    /// `SIMFS_Bitrep` on the member owning `key` — or, while that
    /// member is down with failover on, on its taker (which typically
    /// has no recorded checksum for the foreign key and answers
    /// "unknown" rather than failing).
    pub fn bitrep(&mut self, key: u64) -> io::Result<Option<bool>> {
        match self.route.route(key) {
            Route::Member { member, .. } => self.members[member].bitrep(key),
            Route::Down(member) => Err(MemberDown { member, op: "bitrep" }.into_io()),
        }
    }

    /// Context statistics summed over every member (each daemon counts
    /// only the traffic of the intervals it owns). Down members are
    /// skipped — their counters are unreachable; degraded-mode totals
    /// therefore undercount the outage window.
    pub fn status(&mut self) -> io::Result<ContextStats> {
        let mut total = ContextStats {
            hits: 0,
            misses: 0,
            restarts: 0,
            produced_steps: 0,
            active_sims: 0,
        };
        for m in 0..self.members.len() {
            if self.route.is_down(m) {
                continue;
            }
            match self.members[m].status() {
                Ok(s) => {
                    total.hits += s.hits;
                    total.misses += s.misses;
                    total.restarts += s.restarts;
                    total.produced_steps += s.produced_steps;
                    total.active_sims += s.active_sims;
                }
                Err(e) => {
                    self.fail_dead(m, e)?;
                    if !self.route.failover() {
                        return Err(MemberDown { member: m, op: "status" }.into_io());
                    }
                }
            }
        }
        Ok(total)
    }

    /// `SIMFS_Finalize` fanned out: an orderly goodbye to every daemon
    /// in the cluster, so each releases this client's pins. The first
    /// error is reported after all members were attempted (a failed
    /// goodbye must not strand pins on the remaining daemons — their
    /// sockets still close, mapping to `ClientGone`).
    pub fn finalize(self) -> io::Result<()> {
        let mut result = Ok(());
        for (m, member) in self.members.into_iter().enumerate() {
            if self.route.is_down(m) {
                // A down member's session is already dead: drop it
                // without `Bye` — the daemon-side hangup mapped to
                // `ClientGone` when the connection died.
                continue;
            }
            let r = member.finalize();
            if result.is_ok() {
                result = r;
            }
        }
        result
    }
}

/// The simulator side of the protocol: what a launched re-simulation
/// reports as it runs (used by the `simfs-simd` binary).
pub struct SimulatorSession {
    stream: Stream,
}

impl SimulatorSession {
    /// Connects a re-simulation identified by `sim_id` (from the job
    /// environment) to the daemon.
    pub fn connect(
        addr: impl ToSocketAddrs,
        context: &str,
        sim_id: u64,
    ) -> io::Result<SimulatorSession> {
        let (mut stream, _) = net::dial_any(addr)?;
        wire::write_frame(
            &mut stream,
            &Request::Hello {
                kind: ClientKind::Simulator { sim_id },
                context: context.to_string(),
                membership: None,
                epoch: None,
            }
            .encode(),
        )?;
        let frame = wire::read_frame(&mut stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no hello reply"))?;
        match Response::decode(&frame)? {
            Response::HelloOk { .. } => Ok(SimulatorSession { stream }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello reply {other:?}"),
            )),
        }
    }

    /// Which transport the session rides (see
    /// [`SimfsClient::transport`]).
    pub fn transport(&self) -> Transport {
        self.stream.transport()
    }

    /// Restart loaded; production begins (ends the `alpha_sim` phase).
    pub fn started(&mut self) -> io::Result<()> {
        wire::write_frame(&mut self.stream, &Request::SimStarted.encode())
    }

    /// One output step was published (the intercepted `close`, Fig. 4
    /// step 4).
    pub fn file_produced(&mut self, key: u64, size: u64) -> io::Result<()> {
        wire::write_frame(&mut self.stream, &Request::FileProduced { key, size }.encode())
    }

    /// The assigned range is complete.
    pub fn finished(mut self) -> io::Result<()> {
        wire::write_frame(&mut self.stream, &Request::SimFinished.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_down_roundtrips_through_io_error() {
        let err = MemberDown { member: 1, op: "wait" }.into_io();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        let down = MemberDown::from_io(&err).expect("payload survives");
        assert_eq!(down.member, 1);
        assert_eq!(down.op, "wait");
        // A DvTimeout is not a MemberDown and vice versa.
        let timeout = DvTimeout { op: "wait", after: Duration::from_secs(1) }.into_io();
        assert!(MemberDown::from_io(&timeout).is_none());
        assert!(DvTimeout::from_io(&err).is_none());
    }
}
