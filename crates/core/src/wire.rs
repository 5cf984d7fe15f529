//! The DV control protocol (Fig. 4's "control messages (TCP/IP)").
//!
//! Length-prefixed binary frames, hand-encoded: a `u32` little-endian
//! length followed by a tag byte and the message fields. Hand-rolling
//! keeps the dependency budget (no serde format crate) and makes the
//! wire format explicit and testable.
//!
//! The whole protocol is one table (the `frames!` invocation below):
//! each row names a frame, its tag byte and its typed fields, and the
//! enums, the [`tag`] constants, `encode_into`, `decode` and the
//! `TAGS` name lists are generated from it. The byte layout of each
//! field type — and every bounds check on hostile input — lives once,
//! in that type's private `Field` impl.
//!
//! Two client kinds speak it: *analysis* clients (DVLib, §III-C) issue
//! `Acquire`/`Release`/`Bitrep`; *simulator* clients (spawned
//! re-simulations) report `SimStarted`/`FileProduced`/`SimFinished` —
//! the interposition points of §III-B ("we intercept the create and
//! close calls issued by the simulator").

use crate::dv::FailCode;
use bytes::{Buf, BufMut, BytesMut};
use std::io::{self, Read, Write};

/// Maximum accepted frame size (1 MiB): protocol messages are tiny, so
/// anything bigger is a corrupted stream or a protocol error.
pub const MAX_FRAME: u32 = 1 << 20;

/// Who is connecting (first frame of every session).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// An analysis application (DVLib).
    Analysis,
    /// A launched re-simulation; `sim_id` is the DV-assigned id passed
    /// through the job environment.
    Simulator {
        /// DV simulation id.
        sim_id: u64,
    },
}

/// Cluster-membership claim attached to a [`Request::Hello`]: what the
/// connecting client believes about the daemon it dialed. A cluster
/// member compares it against its own configuration and rejects the
/// session on mismatch — a client whose member list or
/// [`StepMath`](crate::model::StepMath) disagrees with the daemon's
/// would otherwise silently misroute every interval. `None` (solo
/// tools, simulators, tests) skips the check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Membership {
    /// The member index the client believes this daemon holds.
    pub index: u32,
    /// The cluster size the client routes over.
    pub size: u32,
    /// [`StepMath::config_hash`](crate::model::StepMath::config_hash)
    /// of the step math the client hashes intervals with.
    pub steps_hash: u64,
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire: {msg}"))
}

/// The byte layout of one field type. Decoders take the unread rest of
/// the frame body and must fail with `InvalidData` — never panic, never
/// allocate from an unchecked length — on anything short or unknown.
trait Field: Sized {
    /// Encoded size when every value has the same one: lets
    /// `Vec<Self>` check a claimed count against the bytes actually
    /// present *before* allocating for it.
    const FIXED: Option<usize>;
    fn put(&self, buf: &mut BytesMut);
    fn get(buf: &mut &[u8]) -> io::Result<Self>;
}

macro_rules! int_field {
    ($($ty:ident: $size:literal, $put:ident, $get:ident;)*) => {$(
        impl Field for $ty {
            const FIXED: Option<usize> = Some($size);
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn get(buf: &mut &[u8]) -> io::Result<$ty> {
                if buf.remaining() < $size {
                    return Err(corrupt(concat!("truncated ", stringify!($ty))));
                }
                Ok(buf.$get())
            }
        }
    )*};
}

int_field! {
    u8: 1, put_u8, get_u8;
    u32: 4, put_u32_le, get_u32_le;
    u64: 8, put_u64_le, get_u64_le;
}

impl Field for bool {
    const FIXED: Option<usize> = Some(1);
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn get(buf: &mut &[u8]) -> io::Result<bool> {
        Ok(u8::get(buf)? != 0)
    }
}

impl Field for FailCode {
    const FIXED: Option<usize> = Some(1);
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(self.as_u8());
    }
    fn get(buf: &mut &[u8]) -> io::Result<FailCode> {
        Ok(FailCode::from_u8(u8::get(buf)?))
    }
}

impl Field for String {
    const FIXED: Option<usize> = None;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn get(buf: &mut &[u8]) -> io::Result<String> {
        let len = u32::get(buf)? as usize;
        if buf.remaining() < len {
            return Err(corrupt("truncated string body"));
        }
        let mut raw = vec![0u8; len];
        buf.copy_to_slice(&mut raw);
        String::from_utf8(raw).map_err(|_| corrupt("invalid UTF-8"))
    }
}

/// A presence flag byte (0 absent, 1 present), then the value.
impl<T: Field> Field for Option<T> {
    const FIXED: Option<usize> = None;
    fn put(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> io::Result<Option<T>> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            f => Err(corrupt(&format!("unknown presence flag {f}"))),
        }
    }
}

/// A `u32` count, then the elements.
impl<T: Field> Field for Vec<T> {
    const FIXED: Option<usize> = None;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for v in self {
            v.put(buf);
        }
    }
    fn get(buf: &mut &[u8]) -> io::Result<Vec<T>> {
        let n = u32::get(buf)? as usize;
        let mut out = match T::FIXED {
            Some(size) if buf.remaining() < n.saturating_mul(size) => {
                return Err(corrupt("truncated list"));
            }
            Some(_) => Vec::with_capacity(n),
            // Variable-size elements: the count cannot be checked up
            // front, so cap what a hostile one can reserve and let the
            // per-element checks reject the short body.
            None => Vec::with_capacity(n.min(1024)),
        };
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

const fn fixed_sum(sizes: &[Option<usize>]) -> Option<usize> {
    let mut total = 0;
    let mut i = 0;
    while i < sizes.len() {
        match sizes[i] {
            Some(size) => total += size,
            None => return None,
        }
        i += 1;
    }
    Some(total)
}

macro_rules! tuple_field {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Field),+> Field for ($($t,)+) {
            const FIXED: Option<usize> = fixed_sum(&[$($t::FIXED),+]);
            fn put(&self, buf: &mut BytesMut) {
                $(self.$i.put(buf);)+
            }
            fn get(buf: &mut &[u8]) -> io::Result<Self> {
                Ok(($($t::get(buf)?,)+))
            }
        }
    };
}

tuple_field!(A.0, B.1);
tuple_field!(A.0, B.1, C.2);

/// A kind byte (0 analysis, 1 simulator), then the simulator's id.
impl Field for ClientKind {
    const FIXED: Option<usize> = None;
    fn put(&self, buf: &mut BytesMut) {
        match self {
            ClientKind::Analysis => buf.put_u8(0),
            ClientKind::Simulator { sim_id } => {
                buf.put_u8(1);
                sim_id.put(buf);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> io::Result<ClientKind> {
        match u8::get(buf)? {
            0 => Ok(ClientKind::Analysis),
            1 => Ok(ClientKind::Simulator { sim_id: u64::get(buf)? }),
            k => Err(corrupt(&format!("unknown client kind {k}"))),
        }
    }
}

impl Field for Membership {
    const FIXED: Option<usize> = <(u32, u32, u64)>::FIXED;
    fn put(&self, buf: &mut BytesMut) {
        (self.index, self.size, self.steps_hash).put(buf);
    }
    fn get(buf: &mut &[u8]) -> io::Result<Membership> {
        let (index, size, steps_hash) = Field::get(buf)?;
        Ok(Membership { index, size, steps_hash })
    }
}

/// The frame table. Each family is `enum Name { rows }` and each row
/// is `Variant = TAG_CONST @ byte { field: Type, .. }` (no braces for a
/// frame without fields); the fields go on the wire in the order
/// written. Generates the enum, its [`tag`] constants,
/// `encode`/`encode_into`/`decode` and `TAGS`.
macro_rules! frames {
    ($(
        $(#[$emeta:meta])*
        enum $name:ident {$(
            $(#[$vmeta:meta])*
            $variant:ident = $tag:ident @ $byte:literal
            $({$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty,
            )*})?,
        )*}
    )*) => {
        /// The wire-tag registry: every frame-discriminator byte, by
        /// name, generated from the frame table. Two rows of one family
        /// sharing a byte do not compile (the second `decode` arm would
        /// be unreachable, which is denied), and
        /// `tests/wire_fuzz.rs::tag_registry` fails until its examples
        /// name exactly the rows of `Request::TAGS`/`Response::TAGS`.
        pub mod tag {$($(
            #[doc = concat!("`", stringify!($name), "::", stringify!($variant), "`.")]
            pub const $tag: u8 = $byte;
        )*)*}

        $(
            $(#[$emeta])*
            #[derive(Clone, Debug, PartialEq, Eq)]
            pub enum $name {$(
                $(#[$vmeta])*
                $variant $({$(
                    $(#[$fmeta])*
                    $field: $ty,
                )*})?,
            )*}

            impl $name {
                /// Every frame of this family as `(tag constant name,
                /// tag byte)`, in table order.
                pub const TAGS: &'static [(&'static str, u8)] =
                    &[$((stringify!($tag), tag::$tag)),*];

                /// Encodes into a frame body (no length prefix).
                pub fn encode(&self) -> BytesMut {
                    let mut buf = BytesMut::with_capacity(32);
                    self.encode_into(&mut buf);
                    buf
                }

                /// Appends the frame body to `buf` without allocating.
                pub fn encode_into(&self, buf: &mut BytesMut) {
                    match self {$(
                        $name::$variant $({ $($field),* })? => {
                            buf.put_u8(tag::$tag);
                            $($($field.put(buf);)*)?
                        }
                    )*}
                }

                /// Decodes a frame body.
                #[deny(unreachable_patterns)]
                pub fn decode(mut buf: &[u8]) -> io::Result<$name> {
                    if buf.is_empty() {
                        return Err(corrupt(concat!("empty ", stringify!($name), " frame")));
                    }
                    let frame = match buf.get_u8() {
                        $(tag::$tag => $name::$variant $({$(
                            $field: <$ty as Field>::get(&mut buf)?,
                        )*})?,)*
                        t => return Err(corrupt(&format!(concat!("unknown ", stringify!($name), " tag {}"), t))),
                    };
                    if buf.has_remaining() {
                        return Err(corrupt(concat!("trailing bytes in ", stringify!($name))));
                    }
                    Ok(frame)
                }
            }
        )*
    };
}

frames! {
    /// Client → DV messages.
    enum Request {
        /// Session setup: who am I, which simulation context.
        Hello = REQ_HELLO @ 0 {
            /// Client kind.
            kind: ClientKind,
            /// Context name (§II "Simulation Contexts").
            context: String,
            /// Cluster-membership claim, verified by the daemon at hello
            /// time (`None` skips the handshake check).
            membership: Option<Membership>,
            /// Recovery-epoch claim, Membership-style: `Some(e)` marks a
            /// *reconnect* — the client previously held a session under
            /// daemon epoch `e` and intends to re-assert pins. Fresh
            /// sessions send `None`. The daemon counts reconnects and
            /// answers its current epoch in [`Response::HelloOk`].
            epoch: Option<u64>,
        },
        /// Request output steps (`SIMFS_Acquire`): the DV answers one
        /// `Ready`/`Failed` per key; `Queued` may precede them.
        Acquire = REQ_ACQUIRE @ 1 {
            /// Client-chosen request id echoed in responses.
            req_id: u64,
            /// Requested output-step keys.
            keys: Vec<u64>,
        },
        /// Release one output step (`SIMFS_Release` / intercepted close).
        Release = REQ_RELEASE @ 2 {
            /// Released key.
            key: u64,
        },
        /// Bit-reproducibility check (`SIMFS_Bitrep`).
        Bitrep = REQ_BITREP @ 3 {
            /// Request id echoed in the response.
            req_id: u64,
            /// Key to verify.
            key: u64,
        },
        /// Simulator: one output step was closed/published.
        FileProduced = REQ_FILE_PRODUCED @ 4 {
            /// Produced key.
            key: u64,
            /// File size in bytes.
            size: u64,
        },
        /// Simulator: restart loaded, production begins.
        SimStarted = REQ_SIM_STARTED @ 5,
        /// Simulator: assigned range complete.
        SimFinished = REQ_SIM_FINISHED @ 6,
        /// Analysis: request the context's runtime statistics (profiling
        /// support, §III-C).
        Status = REQ_STATUS @ 8 {
            /// Request id echoed in the response.
            req_id: u64,
        },
        /// Analysis: a lossy digest of the client's access stream since the
        /// last digest — `(key, epoch, ready)` records in observation order
        /// plus the count of records the client's bounded log had to drop.
        /// Sent by clustered DVLib sessions so every member's prefetch
        /// agents observe the full (pre-routing) sequence; epochs come from
        /// the *client's* monotonic clock, so only their differences carry
        /// meaning (consumption-time gaps), and `ready` marks epochs that
        /// are true ready points (see
        /// [`AccessRecord::ready`](crate::prefetch::AccessRecord::ready)).
        /// Fire-and-forget: no response.
        AccessDigest = REQ_ACCESS_DIGEST @ 9 {
            /// Records the client-side log dropped since the last digest.
            dropped: u64,
            /// `(key, epoch_ns, ready)` in observation order.
            records: Vec<(u64, u64, bool)>,
        },
        /// Analysis: re-assert pins held before a connection drop. Sent
        /// right after a reconnect hello: `prior_client`/`prior_epoch`
        /// name the dead session, `keys` list its held pins (repeated per
        /// pin count). The daemon transfers whatever restart recovery
        /// restored under the prior id to this session and answers
        /// per-key in [`Response::Reasserted`]; anything it no longer
        /// holds comes back `gone` with a reason, so the client can
        /// re-acquire instead of trusting a phantom pin.
        Reassert = REQ_REASSERT @ 10 {
            /// Request id echoed in the response.
            req_id: u64,
            /// The client id of the dropped session.
            prior_client: u64,
            /// The daemon epoch the dropped session ran under.
            prior_epoch: u64,
            /// Pinned keys to re-assert, one entry per held pin count.
            keys: Vec<u64>,
        },
        /// Analysis: acquire keys belonging to a *dead* cluster member at
        /// its deterministic taker. The taker daemon verifies that
        /// `dead_member` routes every key to that member (and is not
        /// itself), lazily rebuilds residency for the foreign interval from
        /// the shared storage area, and serves the keys under its own
        /// budget — answering `Ready`/`Failed`/`Queued` per key exactly
        /// like [`Request::Acquire`]. Untagged foreign-interval acquires
        /// stay hard-rejected; this tag is the client's explicit assertion
        /// that it observed the member down and routed by the successor
        /// rule.
        TakeoverAcquire = REQ_TAKEOVER_ACQUIRE @ 11 {
            /// Client-chosen request id echoed in responses.
            req_id: u64,
            /// The member index the client observed down.
            dead_member: u32,
            /// The takeover epoch the client routed under (diagnostic: the
            /// taker echoes it in rejections so split routing is visible).
            origin_epoch: u64,
            /// Foreign-interval keys to acquire.
            keys: Vec<u64>,
        },
        /// Analysis: the dead member is back — release this session's
        /// takeover pins on its keys so normal routing can resume. `keys`
        /// lists the pins to drain, one entry per held pin count (the
        /// client re-acquires at the restarted home member *before* sending
        /// this, so the residency veto never lapses). Answered by
        /// [`Response::HandedBack`].
        HandBack = REQ_HAND_BACK @ 12 {
            /// Request id echoed in the response.
            req_id: u64,
            /// The member whose intervals are being handed back.
            dead_member: u32,
            /// Takeover-pinned keys to release, repeated per pin count.
            keys: Vec<u64>,
        },
        /// Orderly goodbye.
        Bye = REQ_BYE @ 7,
    }

    /// DV → client messages.
    enum Response {
        /// Session accepted.
        HelloOk = RESP_HELLO_OK @ 0 {
            /// DV-assigned client id.
            client_id: u64,
            /// The daemon's current recovery epoch (0 when durability is
            /// off). Clients carry it back in reconnect hellos and
            /// re-assertions.
            epoch: u64,
        },
        /// `key` is on disk and pinned for this client.
        Ready = RESP_READY @ 1 {
            /// Originating request id.
            req_id: u64,
            /// Ready key.
            key: u64,
        },
        /// `key` cannot be served.
        Failed = RESP_FAILED @ 2 {
            /// Originating request id.
            req_id: u64,
            /// Failed key.
            key: u64,
            /// Machine-readable failure classification (stable; unknown
            /// values decode as [`FailCode::Other`]).
            code: FailCode,
            /// Reason string (surfaced in `SIMFS_Status`).
            reason: String,
        },
        /// `key` is being produced; estimated wait attached (§III-C status
        /// information).
        Queued = RESP_QUEUED @ 3 {
            /// Originating request id.
            req_id: u64,
            /// Pending key.
            key: u64,
            /// Estimated wait in milliseconds.
            est_wait_ms: u64,
        },
        /// Result of a `Bitrep` check.
        BitrepResult = RESP_BITREP_RESULT @ 4 {
            /// Originating request id.
            req_id: u64,
            /// Verified key.
            key: u64,
            /// File checksum matches the recorded one.
            matches: bool,
            /// A recorded checksum existed for this key.
            known: bool,
        },
        /// Context runtime statistics (answer to `Status`).
        StatusInfo = RESP_STATUS_INFO @ 6 {
            /// Originating request id.
            req_id: u64,
            /// Cache hits so far.
            hits: u64,
            /// Cache misses so far.
            misses: u64,
            /// Re-simulations launched.
            restarts: u64,
            /// Output steps produced.
            produced_steps: u64,
            /// Currently running re-simulations.
            active_sims: u64,
        },
        /// Answer to a [`Request::Reassert`]: which pins were restored to
        /// the new session and which are gone (with per-key reasons).
        Reasserted = RESP_REASSERTED @ 7 {
            /// Originating request id.
            req_id: u64,
            /// The daemon's current recovery epoch.
            epoch: u64,
            /// Keys whose pins now belong to the new session (one entry
            /// per transferred pin count).
            restored: Vec<u64>,
            /// Keys the daemon no longer holds pinned for the prior
            /// session, each with a descriptive reason.
            gone: Vec<(u64, String)>,
        },
        /// Answer to a [`Request::HandBack`]: how many takeover pin counts
        /// the daemon drained for this session.
        HandedBack = RESP_HANDED_BACK @ 8 {
            /// Originating request id.
            req_id: u64,
            /// Pin-release counts applied, one per listed key occurrence
            /// (a release of a key the session did not hold is a DV no-op
            /// but still counts — the client lists exactly its held pins).
            released: u64,
        },
        /// Protocol-level error; the session is closed after this.
        Error = RESP_ERROR @ 5 {
            /// Description.
            message: String,
        },
    }
}

/// Coalesces several length-prefixed frames into one contiguous buffer
/// so a burst of responses to the same destination costs one
/// `write_all` (and typically one TCP segment) instead of one syscall
/// per frame. The on-wire bytes are identical to a sequence of
/// [`write_frame`] calls — batching happens strictly at the I/O layer,
/// not in the protocol.
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: BytesMut,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }

    /// Appends one frame encoded in place (no per-frame allocation):
    /// reserves the length slot, encodes, then backfills the length.
    fn push_with(&mut self, encode: impl FnOnce(&mut BytesMut)) {
        let len_at = self.buf.len();
        self.buf.put_u32_le(0);
        encode(&mut self.buf);
        let body_len = (self.buf.len() - len_at - 4) as u32;
        debug_assert!(body_len <= MAX_FRAME);
        self.buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Encodes a response directly into the batch.
    pub fn push_response(&mut self, resp: &Response) {
        self.push_with(|buf| resp.encode_into(buf));
    }

    /// Encodes a request directly into the batch (simulator sessions
    /// batch their notifications the same way).
    pub fn push_request(&mut self, req: &Request) {
        self.push_with(|buf| req.encode_into(buf));
    }

    /// True if no frames were pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Buffered wire bytes (length prefixes included).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the batch, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Writes the whole batch in one `write_all` and clears it.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        w.write_all(&self.buf)?;
        self.buf.clear();
        w.flush()
    }
}

/// Buffered frame reader: drains multiple queued frames per `read`
/// syscall. Partial frames stay buffered across calls, so transient
/// read timeouts (`WouldBlock`/`TimedOut`) never desynchronize the
/// stream — callers can treat them as "no frame yet" and retry.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// Fixed-length scratch; `buf[start..end]` holds unconsumed bytes.
    /// The length only ever grows (to `end + READ_CHUNK`), so refills
    /// never re-zero the region they read into.
    buf: Vec<u8>,
    /// Consumed prefix of the filled region (compacted before refills).
    start: usize,
    /// Filled watermark of `buf`.
    end: usize,
}

/// Read chunk size: large enough to drain dozens of queued control
/// frames per syscall, small enough to stay cache-friendly.
const READ_CHUNK: usize = 16 * 1024;

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// The wrapped stream (e.g. to set socket options).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Pops a complete buffered frame, if one is available, without
    /// touching the underlying stream.
    pub fn pop_buffered(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = self.end - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME {
            return Err(corrupt(&format!("oversized frame ({len} bytes)")));
        }
        let len = len as usize;
        if avail < 4 + len {
            return Ok(None);
        }
        let body = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(body))
    }

    /// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a
    /// frame boundary. `WouldBlock`/`TimedOut` errors from the stream
    /// pass through with all partial data retained.
    pub fn read_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(body) = self.pop_buffered()? {
                return Ok(Some(body));
            }
            if self.fill_once()? == 0 {
                if self.buffered().is_empty() {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ));
            }
        }
    }

    /// Performs at most one `read` into the buffer; returns the byte
    /// count (0 = EOF). Pair with [`pop_buffered`](Self::pop_buffered)
    /// when the caller needs an upper bound of one syscall per call —
    /// timed polls, for instance, where [`read_frame`](Self::read_frame)
    /// would re-arm the socket timeout for every partial chunk.
    pub fn fill_once(&mut self) -> io::Result<usize> {
        self.fill_drained().map(|(got, _)| got)
    }

    /// [`fill_once`](Self::fill_once), also reporting whether the read
    /// came back with fewer bytes than the buffer offered. On a stream
    /// socket that is the sign that the receive queue is empty: a
    /// non-blocking caller can skip the `read` that would only say
    /// `WouldBlock` (see the reactor's wakeup protocol).
    pub fn fill_drained(&mut self) -> io::Result<(usize, bool)> {
        // Compact before refilling so the buffer does not creep.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // Grow (and zero) only when the high-water mark rises;
        // steady-state refills reuse the same bytes.
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let space = &mut self.buf[self.end..];
        let offered = space.len();
        let got = self.inner.read(space)?;
        self.end += got;
        Ok((got, got < offered))
    }
}

/// Writes one length-prefixed frame in **one** `write_all`: prefix and
/// body assembled first, so the frame is one syscall and — under
/// `TCP_NODELAY` — one segment and one reader wake, not a 4-byte
/// segment that wakes the peer to pop nothing followed by the body.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = body.len() as u32;
    debug_assert!(len <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(corrupt(&format!("oversized frame ({len} bytes)")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let encoded = req.encode();
        let decoded = Request::decode(&encoded).unwrap();
        assert_eq!(req, decoded);
    }

    fn roundtrip_resp(resp: Response) {
        let encoded = resp.encode();
        let decoded = Response::decode(&encoded).unwrap();
        assert_eq!(resp, decoded);
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_req(Request::Hello {
            kind: ClientKind::Analysis,
            context: "cosmo-1km".into(),
            membership: None,
            epoch: None,
        });
        roundtrip_req(Request::Hello {
            kind: ClientKind::Analysis,
            context: "cosmo-1km".into(),
            membership: Some(Membership {
                index: 2,
                size: 3,
                steps_hash: 0xDEAD_BEEF_CAFE_F00D,
            }),
            epoch: None,
        });
        roundtrip_req(Request::Hello {
            kind: ClientKind::Analysis,
            context: "cosmo-1km".into(),
            membership: Some(Membership {
                index: 0,
                size: 3,
                steps_hash: 1,
            }),
            epoch: Some(4),
        });
        roundtrip_req(Request::Hello {
            kind: ClientKind::Simulator { sim_id: 42 },
            context: "flash".into(),
            membership: None,
            epoch: None,
        });
        roundtrip_req(Request::Reassert {
            req_id: 8,
            prior_client: 17,
            prior_epoch: 3,
            keys: vec![5, 5, 9],
        });
        roundtrip_req(Request::Reassert {
            req_id: 0,
            prior_client: 1,
            prior_epoch: 0,
            keys: vec![],
        });
        roundtrip_req(Request::AccessDigest {
            dropped: 0,
            records: vec![],
        });
        roundtrip_req(Request::AccessDigest {
            dropped: 7,
            records: vec![(1, 100, true), (2, 250, false), (3, 412, true)],
        });
        roundtrip_req(Request::Acquire {
            req_id: 7,
            keys: vec![1, 2, 99],
        });
        roundtrip_req(Request::Acquire {
            req_id: 0,
            keys: vec![],
        });
        roundtrip_req(Request::Release { key: 5 });
        roundtrip_req(Request::Bitrep { req_id: 9, key: 3 });
        roundtrip_req(Request::FileProduced { key: 10, size: 4096 });
        roundtrip_req(Request::SimStarted);
        roundtrip_req(Request::SimFinished);
        roundtrip_req(Request::Status { req_id: 12 });
        roundtrip_req(Request::TakeoverAcquire {
            req_id: 14,
            dead_member: 1,
            origin_epoch: 3,
            keys: vec![5, 6, 17],
        });
        roundtrip_req(Request::TakeoverAcquire {
            req_id: 0,
            dead_member: 0,
            origin_epoch: 0,
            keys: vec![],
        });
        roundtrip_req(Request::HandBack {
            req_id: 15,
            dead_member: 1,
            keys: vec![5, 5, 17],
        });
        roundtrip_req(Request::HandBack {
            req_id: 0,
            dead_member: 2,
            keys: vec![],
        });
        roundtrip_req(Request::Bye);
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_resp(Response::HelloOk { client_id: 3, epoch: 0 });
        roundtrip_resp(Response::HelloOk { client_id: 9, epoch: 12 });
        roundtrip_resp(Response::Reasserted {
            req_id: 6,
            epoch: 2,
            restored: vec![4, 4, 11],
            gone: vec![(7, "evicted during recovery".into()), (8, String::new())],
        });
        roundtrip_resp(Response::Reasserted {
            req_id: 0,
            epoch: 1,
            restored: vec![],
            gone: vec![],
        });
        roundtrip_resp(Response::Ready { req_id: 1, key: 2 });
        roundtrip_resp(Response::Failed {
            req_id: 1,
            key: 2,
            code: FailCode::Other,
            reason: "restart failed".into(),
        });
        for code in [
            FailCode::Retriable,
            FailCode::Poisoned,
            FailCode::HangKilled,
            FailCode::CorruptOutput,
        ] {
            roundtrip_resp(Response::Failed {
                req_id: 9,
                key: 3,
                code,
                reason: code.as_str().into(),
            });
        }
        roundtrip_resp(Response::Queued {
            req_id: 4,
            key: 8,
            est_wait_ms: 1234,
        });
        roundtrip_resp(Response::BitrepResult {
            req_id: 5,
            key: 6,
            matches: true,
            known: false,
        });
        roundtrip_resp(Response::Error {
            message: "unknown context".into(),
        });
        roundtrip_resp(Response::HandedBack { req_id: 7, released: 3 });
        roundtrip_resp(Response::HandedBack { req_id: 0, released: 0 });
        roundtrip_resp(Response::StatusInfo {
            req_id: 2,
            hits: 10,
            misses: 3,
            restarts: 1,
            produced_steps: 48,
            active_sims: 2,
        });
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Request::decode(&[1, 0, 0]).is_err());
        assert!(Response::decode(&[77]).is_err());
        // Trailing bytes are an error (catches framing bugs early).
        let mut ok = Request::Bye.encode().to_vec();
        ok.push(0);
        assert!(Request::decode(&ok).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        for req in [
            Request::Hello {
                kind: ClientKind::Analysis,
                context: "c".into(),
                membership: None,
                epoch: None,
            },
            Request::Acquire {
                req_id: 1,
                keys: vec![11, 22],
            },
            Request::Bye,
        ] {
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        let mut cursor = &wire[..];
        let mut decoded = Vec::new();
        while let Some(body) = read_frame(&mut cursor).unwrap() {
            decoded.push(Request::decode(&body).unwrap());
        }
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[2], Request::Bye);
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        /// Counts `write` calls; takes whatever it is given.
        struct Counting(usize, Vec<u8>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0, Vec::new());
        let bodies = [Request::Bye.encode(), Request::FileProduced { key: 7, size: 4096 }.encode()];
        for (sent, body) in bodies.iter().enumerate() {
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.0, sent + 1, "one write per frame");
        }
        let mut cursor = &w.1[..];
        for body in &bodies {
            assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&body[..]));
        }
    }

    #[test]
    fn clean_eof_yields_none_mid_eof_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Bye.encode()).unwrap();
        // Clean EOF after one frame:
        let mut cursor = &wire[..];
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // Truncated frame body:
        let mut truncated = &wire[..wire.len() - 1];
        assert!(read_frame(&mut truncated).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let bad = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = &bad[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
