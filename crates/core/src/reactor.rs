//! Sharded epoll reactor: the event-driven connection front-end.
//!
//! Replaces the thread-per-connection model with N reactor threads
//! (shards), each owning one epoll instance and a disjoint subset of
//! the daemon's connections, so one daemon serves thousands of clients
//! with a fixed thread count.
//!
//! # Shard ownership
//!
//! A connection is owned by exactly one shard for its whole life: the
//! accept loop round-robins new sockets across shards via each shard's
//! *inbox* (a mutex-protected handoff queue) and wakes the shard
//! through its eventfd. From then on only the owning shard thread
//! touches the socket, its [`FrameReader`] (partial frames resume
//! across `WouldBlock` without desynchronizing the stream) and its
//! pending-write buffer — connection state needs no locks.
//!
//! # Wakeup protocol
//!
//! Cross-connection traffic (a simulator finishing fans Ready
//! notifications out to analysis clients on other shards) goes through
//! [`Reactor::send_bytes`]: the payload is enqueued into the owning
//! shard's inbox and the shard's eventfd is signalled. A shard sending
//! to a connection it owns itself skips the eventfd — its event loop
//! drains the inbox again before blocking, so the bytes flush on the
//! same pass. The dominant self-send (a response to the very
//! connection whose frame is being dispatched) short-circuits further:
//! it lands in a thread-local staging buffer merged straight into the
//! connection's output after the handler returns — no allocation, no
//! inbox lock, and it is on the wire before an orderly close. Client-id
//! → connection routing lives in a sharded registry map; sends to
//! departed clients are dropped silently (same contract as the old
//! writer map).
//!
//! **One read per wake.** A readable event is served by popping every
//! buffered frame, one `read`, and popping again — and when that read
//! came back shorter than the buffer it offered, the socket's receive
//! queue is empty and the wake ends there, without the second `read`
//! whose only answer would be `WouldBlock` (two syscalls saved per
//! request/response exchange: the acquire wake and the release wake).
//! This is safe because epoll is level-triggered here: if bytes — or
//! the peer's FIN, `EPOLLRDHUP` stays armed — arrive after that read,
//! or a short read ever left bytes behind, the fd is simply reported
//! readable again on the next wait. Only a read that *filled* the
//! buffer is followed by another, until one comes back short or says
//! `WouldBlock`.
//!
//! # Backpressure rules
//!
//! Writes never block a shard. Each connection keeps a pending-write
//! buffer: bytes are appended, as much as possible is written
//! immediately, and any residue arms `EPOLLOUT` until the socket
//! drains, after which the interest set reverts to read-only. A slow
//! reader therefore delays only itself; if its buffer exceeds
//! `MAX_OUTBUF` the connection is dropped rather than buffering
//! without bound. Per-wake dispatch is capped (`MAX_FRAMES_PER_WAKE`)
//! so one firehose connection cannot starve its shard either; a capped
//! connection goes onto the shard's backlog and its remaining buffered
//! frames are re-dispatched before the loop blocks again (they are in
//! userspace, so level-triggered epoll alone would never re-report
//! them).
//!
//! Handlers run *on* the shard thread, so shard threads are
//! non-blocking by contract: blocking work a handler collects (Bitrep
//! file reads, eviction deletes, job spawns, WAL fsyncs) is submitted
//! to the effect-execution tier ([`crate::effectpool`]) instead of
//! running inline, and the completions come back through the same
//! inbox + eventfd wakeup path as any other cross-thread send
//! ([`Reactor::send_bytes`] from a helper thread). Every shard thread
//! registers itself with [`simkit::lockrank::mark_thread_nonblocking`],
//! so any blocking primitive that slips back onto a shard thread
//! panics in debug builds. A submitting handler that finds its effect
//! queue full parks until the helper frees space — backpressure on the
//! miss path, never on the pure-hit path (hits submit nothing).
//!
//! # Lifecycle
//!
//! The protocol logic lives behind the [`Handler`] trait (implemented
//! by the daemon in [`crate::server`]): one handler per connection,
//! `on_frame` per complete frame (returning `false` requests an
//! orderly close — pending output is flushed first), `on_close` exactly
//! once per established connection on any teardown path. Reactor
//! shutdown drops all connections without `on_close`, mirroring the
//! threaded front-end where daemon shutdown never ran per-client
//! teardown.

use crate::net::{Stream, Transport};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::FrameReader;
use parking_lot::Mutex;
use simkit::lockrank;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Hard cap on reactor shards (more shards than cores just adds
/// contention on the DV locks behind them).
pub const MAX_SHARDS: usize = 8;

/// A connection buffering this much undelivered output is dead or
/// pathologically slow; it is dropped rather than buffered further.
const MAX_OUTBUF: usize = 16 << 20;

/// Frames dispatched per readable event before yielding back to the
/// event loop, so one saturated connection cannot starve its shard's
/// siblings. A capped connection re-enters via the shard backlog (its
/// leftover frames sit in userspace, invisible to epoll).
const MAX_FRAMES_PER_WAKE: usize = 256;

/// Registry shard count for the client-id → connection map.
const REGISTRY_SHARDS: usize = 8;

/// Event-loop token reserved for the shard's wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

const EVENTS_PER_WAIT: usize = 256;

thread_local! {
    /// Which shard's event loop is running on this thread (`usize::MAX`
    /// elsewhere); lets [`Reactor::send_bytes`] skip the eventfd for
    /// shard-local sends.
    static CURRENT_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// The connection whose handler is currently dispatching on this
    /// thread (`(usize::MAX, u64::MAX)` outside dispatch); self-sends
    /// to it bypass the inbox entirely.
    static CURRENT_CONN: Cell<(usize, u64)> = const { Cell::new((usize::MAX, u64::MAX)) };
    /// Staging buffer for self-sends; merged into the connection's
    /// output right after its handler returns.
    static SELF_STAGE: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The reactor shard whose event loop is running on this thread, or
/// `None` on every other thread (accept loop, reaper, effect-pool
/// helpers, tests). The daemon uses this to decide whether an effect
/// must be submitted to the helper pool (shard threads are
/// non-blocking) or may execute in place (helpers, the reaper, and the
/// main thread are blocking-permitted).
pub fn current_shard() -> Option<usize> {
    let s = CURRENT_SHARD.with(|c| c.get());
    (s != usize::MAX).then_some(s)
}

/// Per-connection protocol logic (implemented by the daemon).
pub trait Handler: Send + 'static {
    /// One complete frame arrived. Return `false` to close the
    /// connection after pending output flushes.
    fn on_frame(&mut self, frame: &[u8], cx: &mut ConnCtx<'_>) -> bool;

    /// Does this handler currently want periodic ticks? Re-consulted
    /// after each time the handler runs (frame dispatch or tick) —
    /// tick interest can only change when handler state does, so the
    /// shard caches the answer per connection and keeps an O(1)
    /// interest count instead of scanning every handler per wake.
    /// While any connection on a shard is interested, that shard
    /// bounds its epoll wait to the tick interval instead of blocking
    /// indefinitely (a shard with no tick interest still sleeps fully
    /// idle). The daemon uses this to drain access-stream digests for
    /// connections whose traffic is pure fast-path hits — nothing else
    /// would ever take a DV lock on their behalf.
    fn wants_tick(&self) -> bool {
        false
    }

    /// Periodic service, fired roughly every [`TICK`] while
    /// [`wants_tick`](Self::wants_tick) holds. Runs on the owning shard
    /// thread with the same self-send staging as
    /// [`on_frame`](Self::on_frame).
    fn on_tick(&mut self, cx: &mut ConnCtx<'_>) {
        let _ = cx;
    }

    /// The connection is going away (EOF, error, or a `false` return
    /// from [`on_frame`](Self::on_frame)). Called exactly once; not
    /// called on whole-reactor shutdown.
    fn on_close(&mut self);
}

/// Cadence of [`Handler::on_tick`] while a shard has tick interest:
/// long enough that a pure-hit connection's digest drains cost nothing
/// measurable, short enough that agent observation lags acquisition by
/// at most a few round trips.
pub const TICK: std::time::Duration = std::time::Duration::from_millis(20);

/// Stable address of a connection: owning shard + shard-local token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnRef {
    shard: usize,
    token: u64,
}

/// What a [`Handler`] may do while processing a frame: write directly
/// to its own connection and register it for cross-connection sends.
pub struct ConnCtx<'a> {
    reactor: &'a Reactor,
    conn: ConnRef,
    transport: Transport,
    out: &'a mut Vec<u8>,
}

impl ConnCtx<'_> {
    /// Appends raw wire bytes to this connection's output (flushed when
    /// the dispatch round ends; ordered before any later
    /// [`Reactor::send_bytes`] to the same connection).
    pub fn write(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Routes future [`Reactor::send_bytes`]`(client, ..)` calls to
    /// this connection.
    pub fn register(&self, client: u64) {
        self.reactor.register(client, self.conn);
    }

    /// Which transport this connection arrived over.
    pub fn transport(&self) -> Transport {
        self.transport
    }
}

#[derive(Default)]
struct Inbox {
    /// Connections handed off by the accept loop.
    adopt: Vec<(Stream, Box<dyn Handler>)>,
    /// (token, wire bytes, descriptors) queued by
    /// [`Reactor::send_bytes`] and [`Reactor::send_with_fds`].
    sends: Vec<(u64, Vec<u8>, Vec<OwnedFd>)>,
}

struct ShardHandle {
    wake: EventFd,
    inbox: Mutex<Inbox>,
}

impl ShardHandle {
    fn inbox_is_empty(&self) -> bool {
        let _rank = lockrank::held(lockrank::REACTOR_INBOX);
        let inbox = self.inbox.lock();
        inbox.adopt.is_empty() && inbox.sends.is_empty()
    }
}

/// The reactor: shard handles plus the client routing registry.
pub struct Reactor {
    shards: Vec<ShardHandle>,
    registry: Vec<Mutex<HashMap<u64, ConnRef>>>,
    next_shard: AtomicUsize,
    shutdown: AtomicBool,
}

impl Reactor {
    /// Starts `shards` reactor threads (clamped to `1..=`[`MAX_SHARDS`]).
    /// Each registers itself with
    /// [`simkit::lockrank::mark_thread_nonblocking`], so any blocking
    /// primitive (WAL fsync, launcher, eviction delete) executed on a
    /// shard thread panics in debug builds.
    pub fn start(shards: usize) -> io::Result<Arc<Reactor>> {
        let shards = shards.clamp(1, MAX_SHARDS);
        let mut handles = Vec::with_capacity(shards);
        let mut epolls = Vec::with_capacity(shards);
        for _ in 0..shards {
            let wake = EventFd::new()?;
            let epoll = Epoll::new()?;
            epoll.add(wake.fd(), EPOLLIN, WAKE_TOKEN)?;
            handles.push(ShardHandle {
                wake,
                inbox: Mutex::new(Inbox::default()),
            });
            epolls.push(epoll);
        }
        let reactor = Arc::new(Reactor {
            shards: handles,
            registry: (0..REGISTRY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_shard: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        for (idx, epoll) in epolls.into_iter().enumerate() {
            let reactor = Arc::clone(&reactor);
            std::thread::Builder::new()
                .name(format!("dv-reactor-{idx}"))
                .spawn(move || {
                    lockrank::mark_thread_nonblocking();
                    run_shard(&reactor, idx, &epoll)
                })?;
        }
        Ok(reactor)
    }

    /// Number of shard threads.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Adopts a freshly accepted connection of either family
    /// (round-robin shard choice). The stream must already be
    /// non-blocking.
    pub fn submit(&self, stream: impl Into<Stream>, handler: Box<dyn Handler>) {
        let idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        {
            let _rank = lockrank::held(lockrank::REACTOR_INBOX);
            self.shards[idx].inbox.lock().adopt.push((stream.into(), handler));
        }
        self.shards[idx].wake.signal();
    }

    fn registry_shard(&self, client: u64) -> &Mutex<HashMap<u64, ConnRef>> {
        &self.registry[(client % REGISTRY_SHARDS as u64) as usize]
    }

    fn register(&self, client: u64, conn: ConnRef) {
        let _rank = lockrank::held(lockrank::REACTOR_REGISTRY);
        self.registry_shard(client).lock().insert(client, conn);
    }

    /// Removes a client's routing entry (later sends drop silently).
    pub fn unregister(&self, client: u64) {
        let _rank = lockrank::held(lockrank::REACTOR_REGISTRY);
        self.registry_shard(client).lock().remove(&client);
    }

    /// Delivers wire bytes to `client`'s connection: straight into the
    /// thread-local staging buffer when the destination is the
    /// connection currently dispatching on this thread (the hot
    /// request→own-response path — no allocation, no locks), otherwise
    /// into the owning shard's inbox with an eventfd wake (skipped when
    /// the caller *is* that shard). Returns `false` — dropping the
    /// bytes — for unknown clients.
    pub fn send_bytes(&self, client: u64, bytes: &[u8]) -> bool {
        let Some(conn) = self.route(client) else {
            return false;
        };
        if CURRENT_CONN.with(|c| c.get()) == (conn.shard, conn.token) {
            SELF_STAGE.with(|s| s.borrow_mut().extend_from_slice(bytes));
        } else {
            self.enqueue(conn, bytes, Vec::new());
        }
        true
    }

    /// Delivers wire bytes to `client`'s connection with `fds` attached
    /// (`SCM_RIGHTS`; a local-transport greeting), always through the
    /// owning shard's inbox: the descriptors ride the bytes only if no
    /// output is pending ahead of them and the socket takes the first
    /// byte at once; otherwise the bytes go plainly and the descriptors
    /// close (the peer then stays on frames). Returns `false` —
    /// dropping both — for unknown clients.
    pub fn send_with_fds(&self, client: u64, bytes: &[u8], fds: Vec<OwnedFd>) -> bool {
        let Some(conn) = self.route(client) else {
            return false;
        };
        self.enqueue(conn, bytes, fds);
        true
    }

    fn route(&self, client: u64) -> Option<ConnRef> {
        let _rank = lockrank::held(lockrank::REACTOR_REGISTRY);
        self.registry_shard(client).lock().get(&client).copied()
    }

    /// Queues a send on `conn`'s shard, waking it unless the caller is
    /// that shard (its loop drains the inbox before it blocks).
    fn enqueue(&self, conn: ConnRef, bytes: &[u8], fds: Vec<OwnedFd>) {
        let shard = &self.shards[conn.shard];
        {
            let _rank = lockrank::held(lockrank::REACTOR_INBOX);
            shard
                .inbox
                .lock()
                .sends
                .push((conn.token, bytes.to_vec(), fds));
        }
        if CURRENT_SHARD.with(|c| c.get()) != conn.shard {
            shard.wake.signal();
        }
    }

    /// Stops all shard threads; open connections are dropped without
    /// `on_close` (the daemon is going away wholesale).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.wake.signal();
        }
    }
}

/// A shard-owned connection.
struct Conn {
    reader: FrameReader<Stream>,
    handler: Box<dyn Handler>,
    /// Pending output: `out[out_pos..]` is not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// Currently registered epoll interest mask.
    interest: u32,
    /// Close requested; flush remaining output, then drop.
    closing: bool,
    /// `on_close` already ran (guards exactly-once delivery).
    closed_called: bool,
    /// Cached [`Handler::wants_tick`], re-evaluated only after this
    /// connection's handler actually ran (dispatch, tick) — the shard
    /// keeps a live count of interested connections so the hot loop
    /// never scans every handler per wake.
    tick_interest: bool,
}

const READ_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;

impl Conn {
    fn fd(&self) -> i32 {
        self.reader.get_ref().as_raw_fd()
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Writes as much pending output as the socket takes; re-arms or
    /// disarms `EPOLLOUT` to match. `Err` means the connection is dead.
    fn flush(&mut self, epoll: &Epoll, token: u64) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match (&mut self.reader.get_ref()).write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            if self.interest & EPOLLOUT != 0 {
                self.interest = READ_INTEREST;
                epoll.modify(self.fd(), self.interest, token)?;
            }
        } else {
            // Reclaim the consumed prefix so a long-lived slow consumer
            // does not pin an ever-growing buffer.
            if self.out_pos >= 4096 {
                self.out.drain(..self.out_pos);
                self.out_pos = 0;
            }
            if self.out_pending() > MAX_OUTBUF {
                return Err(io::ErrorKind::OutOfMemory.into());
            }
            if self.interest & EPOLLOUT == 0 {
                self.interest = if self.closing {
                    EPOLLOUT
                } else {
                    READ_INTEREST | EPOLLOUT
                };
                epoll.modify(self.fd(), self.interest, token)?;
            }
        }
        Ok(())
    }
}

enum ReadOutcome {
    /// Keep the connection open.
    Open,
    /// Open, but the per-wake cap stopped dispatch with frames possibly
    /// still buffered in the `FrameReader` — the shard must re-dispatch
    /// before blocking (epoll cannot see userspace buffers).
    Capped,
    /// The handler requested an orderly close (flush, then drop).
    CloseRequested,
    /// Clean EOF: the peer half-closed after its final frames; deliver
    /// the responses it is still owed, then drop (the threaded
    /// front-end wrote each response before reading the next frame, so
    /// a pipelining-then-shutdown(WR) client could rely on this).
    Eof,
    /// Hard error or corrupt framing: drop now.
    Dead,
}

/// Serves one readable event of `conn` (see [`read_and_dispatch`]).
fn serve_readable(reactor: &Reactor, shard: usize, token: u64, conn: &mut Conn) -> ReadOutcome {
    read_and_dispatch(
        ConnCtx {
            reactor,
            conn: ConnRef { shard, token },
            transport: conn.reader.get_ref().transport(),
            out: &mut conn.out,
        },
        &mut conn.reader,
        &mut *conn.handler,
    )
}

/// Dispatches every frame one wake can see: what is buffered, then
/// what one `read` brings — further reads only while each fills the
/// buffer (module docs, "One read per wake"). Generic over the byte
/// source so the read count is testable against a scripted stream.
fn read_and_dispatch<R: Read>(
    mut cx: ConnCtx<'_>,
    reader: &mut FrameReader<R>,
    handler: &mut dyn Handler,
) -> ReadOutcome {
    let at = (cx.conn.shard, cx.conn.token);
    let mut dispatched = 0;
    let mut drained = false;
    loop {
        match reader.pop_buffered() {
            Ok(Some(frame)) => {
                CURRENT_CONN.with(|c| c.set(at));
                let keep = handler.on_frame(&frame, &mut cx);
                CURRENT_CONN.with(|c| c.set((usize::MAX, u64::MAX)));
                // Merge self-sends the handler staged, preserving their
                // order relative to direct writes and later frames.
                SELF_STAGE.with(|s| {
                    let mut staged = s.borrow_mut();
                    if !staged.is_empty() {
                        cx.out.extend_from_slice(&staged);
                        staged.clear();
                    }
                });
                if !keep {
                    return ReadOutcome::CloseRequested;
                }
                dispatched += 1;
                if dispatched >= MAX_FRAMES_PER_WAKE {
                    return ReadOutcome::Capped;
                }
            }
            // The last read emptied the socket: nothing to ask it.
            Ok(None) if drained => return ReadOutcome::Open,
            Ok(None) => match reader.fill_drained() {
                Ok((0, _)) => return ReadOutcome::Eof,
                Ok((_, short)) => drained = short,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    return ReadOutcome::Open;
                }
                Err(_) => return ReadOutcome::Dead,
            },
            // Corrupt framing (oversized length prefix).
            Err(_) => return ReadOutcome::Dead,
        }
    }
}

/// Re-evaluates a connection's tick interest after its handler ran,
/// keeping the shard's interest count in sync. O(1) per dispatched
/// connection — the event loop consults only the counter.
fn refresh_tick(conn: &mut Conn, tick_count: &mut usize) {
    let want = !conn.closing && conn.handler.wants_tick();
    if want != conn.tick_interest {
        conn.tick_interest = want;
        if want {
            *tick_count += 1;
        } else {
            *tick_count = tick_count.saturating_sub(1);
        }
    }
}

/// Drops a connection, delivering `on_close` if it has not run yet.
fn destroy(epoll: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64, tick_count: &mut usize) {
    if let Some(mut conn) = conns.remove(&token) {
        if conn.tick_interest {
            *tick_count = tick_count.saturating_sub(1);
        }
        let _ = epoll.delete(conn.fd());
        if !conn.closed_called {
            conn.handler.on_close();
        }
    }
}

/// Orderly close: run `on_close` now, then flush remaining output and
/// drop (immediately if nothing is pending).
fn begin_close(
    reactor: &Reactor,
    idx: usize,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    tick_count: &mut usize,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if conn.tick_interest {
        conn.tick_interest = false;
        *tick_count = tick_count.saturating_sub(1);
    }
    if !conn.closed_called {
        conn.handler.on_close();
        conn.closed_called = true;
    }
    // Siphon sends already queued for this connection out of the shard
    // inbox (e.g. a response another thread enqueued in the same
    // dispatch round): they must reach the wire before the close, as
    // they would have under the threaded front-end.
    {
        let _rank = lockrank::held(lockrank::REACTOR_INBOX);
        let mut inbox = reactor.shards[idx].inbox.lock();
        let mut i = 0;
        while i < inbox.sends.len() {
            if inbox.sends[i].0 == token {
                let (_, bytes, _) = inbox.sends.remove(i);
                conn.out.extend_from_slice(&bytes);
            } else {
                i += 1;
            }
        }
    }
    conn.closing = true;
    if conn.flush(epoll, token).is_err() || conn.out_pending() == 0 {
        destroy(epoll, conns, token, tick_count);
    } else if conn.interest != EPOLLOUT {
        // Stop reading; only the flush matters now.
        conn.interest = EPOLLOUT;
        if epoll.modify(conn.fd(), EPOLLOUT, token).is_err() {
            destroy(epoll, conns, token, tick_count);
        }
    }
}

fn run_shard(reactor: &Arc<Reactor>, idx: usize, epoll: &Epoll) {
    CURRENT_SHARD.with(|c| c.set(idx));
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
    // Connections whose dispatch hit the per-wake cap with frames still
    // buffered in userspace; re-dispatched before the loop blocks.
    let mut backlog: Vec<u64> = Vec::new();
    let mut last_tick = std::time::Instant::now();
    // Live count of connections whose handler wants ticks (maintained
    // by `refresh_tick` at handler-run boundaries): the hot loop tests
    // this counter instead of scanning every handler per wake.
    let mut tick_count: usize = 0;
    // Reused scratch for the tokens due a tick (conns cannot be
    // mutably iterated while handlers run).
    let mut tick_tokens: Vec<u64> = Vec::new();
    loop {
        // Drain the inbox first: adopt new connections and apply queued
        // sends. Shard-local sends rely on this running again after
        // every dispatch round, before the loop blocks.
        let (adopt, sends) = {
            let _rank = lockrank::held(lockrank::REACTOR_INBOX);
            let mut inbox = reactor.shards[idx].inbox.lock();
            (
                std::mem::take(&mut inbox.adopt),
                std::mem::take(&mut inbox.sends),
            )
        };
        for (stream, handler) in adopt {
            let token = next_token;
            next_token += 1;
            if epoll.add(stream.as_raw_fd(), READ_INTEREST, token).is_err() {
                continue; // dropping the stream closes it
            }
            conns.insert(
                token,
                Conn {
                    reader: FrameReader::new(stream),
                    handler,
                    out: Vec::new(),
                    out_pos: 0,
                    interest: READ_INTEREST,
                    closing: false,
                    closed_called: false,
                    tick_interest: false,
                },
            );
        }
        for (token, bytes, fds) in sends {
            let Some(conn) = conns.get_mut(&token) else {
                continue; // connection already gone: drop silently
            };
            if conn.closing {
                continue; // past its on_close; nothing more goes out
            }
            if fds.is_empty() || conn.out_pending() > 0 {
                conn.out.extend_from_slice(&bytes);
            } else {
                let raw: Vec<RawFd> = fds.iter().map(AsRawFd::as_raw_fd).collect();
                match crate::sys::send_with_fds(conn.fd(), &bytes, &raw) {
                    Ok(sent) => conn.out.extend_from_slice(&bytes[sent..]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        conn.out.extend_from_slice(&bytes);
                    }
                    Err(_) => {
                        destroy(epoll, &mut conns, token, &mut tick_count);
                        continue;
                    }
                }
            }
            if conn.flush(epoll, token).is_err() {
                destroy(epoll, &mut conns, token, &mut tick_count);
            }
        }

        if reactor.shutdown.load(Ordering::SeqCst) {
            return; // conns (and their sockets) drop here
        }

        // Re-dispatch capped connections: their remaining frames sit in
        // the FrameReader, invisible to epoll.
        for token in std::mem::take(&mut backlog) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if conn.closing {
                continue;
            }
            match serve_readable(reactor, idx, token, conn) {
                ReadOutcome::Open => {
                    refresh_tick(conn, &mut tick_count);
                    if conn.flush(epoll, token).is_err() {
                        destroy(epoll, &mut conns, token, &mut tick_count);
                    }
                }
                ReadOutcome::Capped => {
                    refresh_tick(conn, &mut tick_count);
                    if conn.flush(epoll, token).is_err() {
                        destroy(epoll, &mut conns, token, &mut tick_count);
                    } else {
                        backlog.push(token);
                    }
                }
                ReadOutcome::CloseRequested | ReadOutcome::Eof => {
                    begin_close(reactor, idx, epoll, &mut conns, token, &mut tick_count)
                }
                ReadOutcome::Dead => destroy(epoll, &mut conns, token, &mut tick_count),
            }
        }

        // Don't block while work is pending: a backlog of buffered
        // frames, or inbox entries enqueued after the top-of-loop drain
        // (a shard-local send during backlog dispatch skips the
        // eventfd, so blocking here would strand it). Tick interest
        // (the O(1) counter) bounds the wait instead of blocking it; a
        // shard with neither still parks indefinitely.
        let timeout_ms = if backlog.is_empty() && reactor.shards[idx].inbox_is_empty() {
            if tick_count > 0 {
                TICK.as_millis() as i32
            } else {
                -1
            }
        } else {
            0
        };
        let n = match epoll.wait(&mut events, timeout_ms) {
            Ok(n) => n,
            Err(_) => continue,
        };
        if tick_count > 0 && last_tick.elapsed() >= TICK {
            last_tick = std::time::Instant::now();
            tick_tokens.clear();
            tick_tokens.extend(
                conns
                    .iter()
                    .filter(|(_, c)| c.tick_interest)
                    .map(|(&t, _)| t),
            );
            for &token in &tick_tokens {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                let Conn {
                    reader,
                    handler,
                    out,
                    ..
                } = conn;
                let mut cx = ConnCtx {
                    reactor,
                    conn: ConnRef { shard: idx, token },
                    transport: reader.get_ref().transport(),
                    out,
                };
                CURRENT_CONN.with(|c| c.set((idx, token)));
                handler.on_tick(&mut cx);
                CURRENT_CONN.with(|c| c.set((usize::MAX, u64::MAX)));
                SELF_STAGE.with(|s| {
                    let mut staged = s.borrow_mut();
                    if !staged.is_empty() {
                        out.extend_from_slice(&staged);
                        staged.clear();
                    }
                });
                refresh_tick(conn, &mut tick_count);
                if conn.flush(epoll, token).is_err() {
                    destroy(epoll, &mut conns, token, &mut tick_count);
                }
            }
        }
        for ev in &events[..n] {
            let (mask, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                reactor.shards[idx].wake.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue; // destroyed earlier in this batch
            };
            // A hangup is not yet the end of the input: a Unix socket
            // reports EPOLLHUP the moment its peer closes, with the
            // peer's last frames (a simulator's `SimFinished`) still
            // queued, where TCP reports it only once both directions
            // are down. So a hangup on a connection that is still
            // reading goes through the read path — the queue drains,
            // then `read` says EOF — and only one that is past reading
            // is dropped here.
            if mask & EPOLLERR != 0 || (mask & EPOLLHUP != 0 && conn.closing) {
                destroy(epoll, &mut conns, token, &mut tick_count);
                continue;
            }
            if mask & EPOLLOUT != 0
                && (conn.flush(epoll, token).is_err()
                    || (conn.closing && conn.out_pending() == 0))
            {
                destroy(epoll, &mut conns, token, &mut tick_count);
                continue;
            }
            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !conn.closing {
                match serve_readable(reactor, idx, token, conn) {
                    ReadOutcome::Open => {
                        refresh_tick(conn, &mut tick_count);
                        // Flush direct writes the handler produced.
                        if conn.flush(epoll, token).is_err() {
                            destroy(epoll, &mut conns, token, &mut tick_count);
                        }
                    }
                    ReadOutcome::Capped => {
                        refresh_tick(conn, &mut tick_count);
                        if conn.flush(epoll, token).is_err() {
                            destroy(epoll, &mut conns, token, &mut tick_count);
                        } else if !backlog.contains(&token) {
                            backlog.push(token);
                        }
                    }
                    ReadOutcome::CloseRequested | ReadOutcome::Eof => {
                        begin_close(reactor, idx, epoll, &mut conns, token, &mut tick_count)
                    }
                    ReadOutcome::Dead => destroy(epoll, &mut conns, token, &mut tick_count),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_frame;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicUsize;

    /// A non-blocking stream socket as `read` sees it: bytes queued by
    /// the peer, maybe its FIN behind them — and a count of the reads.
    /// Shared, so the test keeps feeding the end the reader owns.
    #[derive(Clone, Default)]
    struct Socket(std::rc::Rc<std::cell::RefCell<SocketState>>);

    #[derive(Default)]
    struct SocketState {
        queued: Vec<u8>,
        fin: bool,
        reads: usize,
    }

    impl Socket {
        /// Queues `n` frames of `body_len`-byte bodies.
        fn push_frames(&self, n: usize, body_len: usize) {
            for i in 0..n {
                write_frame(&mut self.0.borrow_mut().queued, &vec![i as u8; body_len]).unwrap();
            }
        }
    }

    impl Read for Socket {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut state = self.0.borrow_mut();
            state.reads += 1;
            if state.queued.is_empty() {
                return if state.fin { Ok(0) } else { Err(io::ErrorKind::WouldBlock.into()) };
            }
            let n = state.queued.len().min(buf.len());
            buf[..n].copy_from_slice(&state.queued[..n]);
            state.queued.drain(..n);
            Ok(n)
        }
    }

    /// Records what the reactor delivers.
    #[derive(Default)]
    struct Recorder {
        frames: Arc<AtomicUsize>,
        closes: Arc<AtomicUsize>,
    }

    impl Handler for Recorder {
        fn on_frame(&mut self, _frame: &[u8], _cx: &mut ConnCtx<'_>) -> bool {
            self.frames.fetch_add(1, Ordering::SeqCst);
            true
        }

        fn on_close(&mut self) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// One readable wake of `reader`, as a shard would serve it.
    fn wake(
        reactor: &Reactor,
        reader: &mut FrameReader<Socket>,
        handler: &mut Recorder,
    ) -> ReadOutcome {
        let mut out = Vec::new();
        read_and_dispatch(
            ConnCtx {
                reactor,
                conn: ConnRef { shard: 0, token: 0 },
                transport: Transport::Local,
                out: &mut out,
            },
            reader,
            handler,
        )
    }

    #[test]
    fn one_read_per_wake() {
        let reactor = Reactor::start(1).unwrap();
        let mut handler = Recorder::default();
        let frames = Arc::clone(&handler.frames);
        let socket = Socket::default();
        let mut reader = FrameReader::new(socket.clone());
        let seen = || (frames.load(Ordering::SeqCst), socket.0.borrow().reads);

        // N pipelined frames in one segment: all dispatched, one read —
        // the short fill says the socket is drained, nobody asks it for
        // a `WouldBlock`.
        socket.push_frames(5, 12);
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Open));
        assert_eq!(seen(), (5, 1));

        // A burst larger than the read chunk (40 KiB against 16 KiB) is
        // drained completely in the same wake: two full fills, one
        // short one.
        socket.push_frames(40, 1020);
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Open));
        assert_eq!(seen(), (45, 4));

        // A fill that came back full-sized proves nothing about the
        // queue behind it, so the `WouldBlock` read is still made.
        socket.push_frames(16, 1020);
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Open));
        assert_eq!(seen(), (61, 6));

        // A frame split across two segments resumes on the next wake.
        let mut frame = Vec::new();
        write_frame(&mut frame, &[7u8; 100]).unwrap();
        socket.0.borrow_mut().queued.extend_from_slice(&frame[..40]);
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Open));
        assert_eq!(seen(), (61, 7));
        socket.0.borrow_mut().queued.extend_from_slice(&frame[40..]);
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Open));
        assert_eq!(seen(), (62, 8));

        // Data and FIN in one segment: the frames first; the FIN keeps
        // the (level-triggered) fd readable, so the next wake reads EOF.
        socket.push_frames(2, 12);
        socket.0.borrow_mut().fin = true;
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Open));
        assert_eq!(seen(), (64, 9));
        assert!(matches!(wake(&reactor, &mut reader, &mut handler), ReadOutcome::Eof));
        assert_eq!(seen(), (64, 10));
        reactor.shutdown();
    }

    /// The same ending through a live shard, on the family that reports
    /// `EPOLLHUP` together with the peer's last bytes: every frame is
    /// dispatched before the close, and `on_close` runs exactly once.
    #[test]
    fn data_then_close_in_one_burst_dispatches_then_closes_exactly_once() {
        let reactor = Reactor::start(1).unwrap();
        let handler = Recorder::default();
        let (frames, closes) = (Arc::clone(&handler.frames), Arc::clone(&handler.closes));
        let (mut peer, ours) = UnixStream::pair().unwrap();
        // Written and closed before the shard ever sees the socket, so
        // its first event carries data, RDHUP and HUP at once.
        for _ in 0..3 {
            write_frame(&mut peer, b"last words").unwrap();
        }
        drop(peer);
        ours.set_nonblocking(true).unwrap();
        reactor.submit(ours, Box::new(handler));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while closes.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "connection never closed");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(frames.load(Ordering::SeqCst), 3, "frames queued before the hangup");
        // A second `on_close` would come from the same shard loop
        // within a wake or two.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        reactor.shutdown();
    }
}
