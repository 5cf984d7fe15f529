//! Raw Linux syscall bindings for the epoll reactor ([`crate::reactor`]),
//! the local transport ([`crate::net`]) and the mapped hit path
//! (`crate::shm`).
//!
//! Hand-declared `extern "C"` prototypes against the libc `std` already
//! links — no external crate, consistent with the vendored-offline
//! dependency policy (see `vendor/README.md`). Only what those need is
//! bound: epoll instances, eventfd wakeup counters, raw-fd
//! `read`/`write`/`close` for the eventfds, the socket calls `std` has
//! no form of — a `connect` to an abstract Unix name that cannot block,
//! a `poll` for readability, and `sendmsg`/`recvmsg` carrying
//! descriptors (`SCM_RIGHTS`) — plus shared memory (`memfd_create`,
//! `fcntl` seals, `mmap`/`munmap`) and the monotonic clock both sides
//! of a mapping stamp with.

use std::io;
use std::os::raw::{c_char, c_int, c_long, c_uint, c_void};
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::ptr::NonNull;
use std::sync::atomic::AtomicU64;

/// Readable (or a peer hangup pending in the read queue).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported; no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (must be registered to be reported).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_SEMAPHORE: c_int = 1;
const AF_UNIX: c_int = 1;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const POLLIN: i16 = 0x001;
const MFD_CLOEXEC: c_uint = 0x1;
const MFD_ALLOW_SEALING: c_uint = 0x2;
const F_ADD_SEALS: c_int = 1033;
const F_SEAL_SEAL: c_int = 0x1;
const F_SEAL_SHRINK: c_int = 0x2;
const F_SEAL_GROW: c_int = 0x4;
const F_SEAL_FUTURE_WRITE: c_int = 0x10;
const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x1;
const SOL_SOCKET: c_int = 1;
const SCM_RIGHTS: c_int = 1;
const MSG_NOSIGNAL: c_int = 0x4000;
const MSG_CMSG_CLOEXEC: c_int = 0x4000_0000;
const CLOCK_MONOTONIC: c_int = 1;

/// Descriptors one [`send_with_fds`] may carry.
pub const MAX_FDS: usize = 4;

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr` (glibc layout: the length fields are `size_t`).
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: c_uint,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

/// `struct sockaddr_un`: the family tag and 108 path bytes. An
/// abstract-namespace address is a path whose first byte is NUL; the
/// name is the bytes after it, up to the length passed to `connect`.
#[repr(C)]
struct SockaddrUn {
    family: u16,
    path: [u8; 108],
}

/// `struct epoll_event`. The kernel UAPI packs it on x86-64 (the 64-bit
/// data field is misaligned by design, a compatibility quirk inherited
/// from the 32-bit ABI); other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Debug, Default)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const SockaddrUn, len: c_uint) -> c_int;
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: c_int) -> c_int;
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: c_long)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Connects a stream socket to the abstract-namespace Unix name `name`
/// (given without its leading NUL) **without ever waiting**: the
/// socket is non-blocking during the `connect`, so a listener whose
/// backlog is full answers `WouldBlock` where `std`'s
/// `UnixStream::connect_addr` would park until the daemon accepts —
/// possibly forever. A name nobody listens on is `ConnectionRefused`.
/// A Unix `connect` that succeeds has completed (there is no
/// `EINPROGRESS` on this family); the stream is returned in blocking
/// mode.
pub fn connect_abstract(name: &[u8]) -> io::Result<UnixStream> {
    let mut addr = SockaddrUn {
        family: AF_UNIX as u16,
        path: [0; 108],
    };
    // path[0] stays NUL: that is what makes the address abstract.
    let Some(slot) = addr.path.get_mut(1..1 + name.len()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "abstract socket name longer than 107 bytes",
        ));
    };
    slot.copy_from_slice(name);
    // SAFETY: no pointers cross the boundary; the arguments are a
    // valid socket(2) triple and the return is error-checked.
    let fd = cvt(unsafe { socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` was just returned by socket(2) and is owned by
    // nothing else; `OwnedFd` closes it on every path below.
    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
    let len = (std::mem::size_of::<u16>() + 1 + name.len()) as c_uint;
    // SAFETY: `addr` is a live, repr(C) sockaddr_un for the duration
    // of the call and `len` (family + NUL + name) never exceeds its
    // size — the slice bound above checked the name fits; the kernel
    // only reads it.
    cvt(unsafe { connect(fd.as_raw_fd(), &addr, len) })?;
    let stream = UnixStream::from(fd);
    stream.set_nonblocking(false)?;
    Ok(stream)
}

/// Parks the calling thread until `fd` is readable — data, EOF or an
/// error a `read` would report — or `timeout` elapses (`None`: no
/// limit). `Ok(false)` is the timeout. Unlike a blocking `read`, a
/// `poll` sleeper is woken only for the events it asked for
/// ([`crate::net::Stream::wait_readable`] has the reason that matters).
pub fn wait_readable(fd: RawFd, timeout: Option<std::time::Duration>) -> io::Result<bool> {
    // poll(2) counts whole milliseconds: round up, so a short timeout
    // never degrades into a busy poll, and clamp to what fits.
    let timeout_ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
    });
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    loop {
        // SAFETY: `pfd` is a live, repr(C) pollfd for the duration of
        // the call and the count passed is exactly one; the kernel
        // writes only its `revents`.
        match unsafe { poll(&mut pfd, 1, timeout_ms) } {
            n if n >= 0 => return Ok(n > 0),
            _ => {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }
}

/// Nanoseconds on `CLOCK_MONOTONIC` — the clock a daemon and the
/// sessions that map its hit table share, so a stamp one side takes
/// means the same on the other.
pub fn monotonic_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, repr(C) timespec for the duration of the
    // call; the clock id is valid, so the call cannot fail, and it
    // writes only `ts`.
    unsafe {
        clock_gettime(CLOCK_MONOTONIC, &mut ts);
    }
    (ts.sec as u64)
        .saturating_mul(1_000_000_000)
        .saturating_add(ts.nsec as u64)
}

/// Bytes of a `cmsghdr` (`size_t` length, two ints), padded to the
/// `size_t` alignment the kernel lays control messages out with.
const CMSG_HDR: usize = (std::mem::size_of::<usize>() + 2 * std::mem::size_of::<c_int>())
    .next_multiple_of(std::mem::size_of::<usize>());
/// Control-buffer bytes for up to [`MAX_FDS`] descriptors.
const CONTROL_BYTES: usize = CMSG_HDR + MAX_FDS * std::mem::size_of::<c_int>();

/// Sends `bytes` with `fds` attached (`SCM_RIGHTS`) on the Unix socket
/// `sock`; the descriptors ride the first byte. Returns the bytes
/// written, which may be fewer than offered, like `write`. The caller
/// keeps its descriptors: the peer receives duplicates. A reader that
/// ignores ancillary data (a plain `read`) gets the bytes and the kernel
/// closes the duplicates for it.
pub fn send_with_fds(sock: RawFd, bytes: &[u8], fds: &[RawFd]) -> io::Result<usize> {
    assert!(fds.len() <= MAX_FDS, "at most {MAX_FDS} descriptors per message");
    let mut control = [0u8; CONTROL_BYTES];
    let used = CMSG_HDR + std::mem::size_of_val(fds);
    let int = std::mem::size_of::<c_int>();
    let word = std::mem::size_of::<usize>();
    control[..word].copy_from_slice(&used.to_ne_bytes());
    control[word..word + int].copy_from_slice(&SOL_SOCKET.to_ne_bytes());
    control[word + int..word + 2 * int].copy_from_slice(&SCM_RIGHTS.to_ne_bytes());
    for (i, fd) in fds.iter().enumerate() {
        let at = CMSG_HDR + i * int;
        control[at..at + int].copy_from_slice(&fd.to_ne_bytes());
    }
    let mut iov = IoVec {
        base: bytes.as_ptr().cast_mut().cast(),
        len: bytes.len(),
    };
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: if fds.is_empty() { 0 } else { used.next_multiple_of(word) },
        flags: 0,
    };
    loop {
        // SAFETY: `msg`, the iovec it points to and the control buffer
        // are live for the call; the iovec describes the caller's
        // `bytes`, which the kernel only reads, and the control message
        // header was laid out above for exactly `fds.len()` descriptors.
        let n = unsafe { sendmsg(sock, &msg, MSG_NOSIGNAL) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Receives into `buf` from the Unix socket `sock`, like `read`, and
/// appends any descriptors that rode the bytes (`SCM_RIGHTS`, received
/// close-on-exec) to `fds`. Descriptors beyond [`MAX_FDS`] are closed
/// by the kernel.
pub fn recv_with_fds(sock: RawFd, buf: &mut [u8], fds: &mut Vec<OwnedFd>) -> io::Result<usize> {
    let mut control = [0u8; CONTROL_BYTES];
    let mut iov = IoVec {
        base: buf.as_mut_ptr().cast(),
        len: buf.len(),
    };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: control.len(),
        flags: 0,
    };
    let n = loop {
        // SAFETY: `msg`, its iovec over the caller's writable `buf` and
        // the control buffer are live for the call; the kernel writes at
        // most `iov.len` bytes into `buf`, at most `controllen` into
        // `control`, and updates the lengths in `msg`.
        let n = unsafe { recvmsg(sock, &mut msg, MSG_CMSG_CLOEXEC) };
        if n >= 0 {
            break n as usize;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    };
    let int = std::mem::size_of::<c_int>();
    let word = std::mem::size_of::<usize>();
    let filled = &control[..msg.controllen.min(control.len())];
    let mut at = 0;
    while at + CMSG_HDR <= filled.len() {
        let read_int =
            |from: usize| c_int::from_ne_bytes(filled[from..from + int].try_into().expect("int"));
        let len = usize::from_ne_bytes(filled[at..at + word].try_into().expect("size_t"));
        if len < CMSG_HDR || at + len > filled.len() {
            break;
        }
        if read_int(at + word) == SOL_SOCKET && read_int(at + word + int) == SCM_RIGHTS {
            for i in 0..(len - CMSG_HDR) / int {
                let fd = read_int(at + CMSG_HDR + i * int);
                // SAFETY: the kernel installed `fd` in this process for
                // this message; nothing else owns it yet, and `OwnedFd`
                // closes it exactly once.
                fds.push(unsafe { OwnedFd::from_raw_fd(fd) });
            }
        }
        at += len.next_multiple_of(word);
    }
    Ok(n)
}

/// A shared mapping of a whole `memfd`, seen as atomic words; unmapped
/// on drop. Two processes mapping one file share the words, and touch
/// them only through atomics.
#[derive(Debug)]
pub struct Mapping {
    ptr: NonNull<AtomicU64>,
    words: usize,
}

// SAFETY: the mapping is plain shared memory reached only through
// `&[AtomicU64]` (atomic accesses, which any thread may perform), and
// `munmap` in `drop` is valid from any thread.
unsafe impl Send for Mapping {}
// SAFETY: as above — `&Mapping` hands out nothing but atomics.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Creates an anonymous, sealable shared file of `words` zeroed
    /// words (`memfd_create`, named `name` in `/proc/<pid>/fd` listings)
    /// and maps it read-write. The descriptor is returned for sealing
    /// ([`seal`]) and passing to a peer.
    pub fn create(name: &std::ffi::CStr, words: usize) -> io::Result<(Mapping, OwnedFd)> {
        // SAFETY: `name` is a NUL-terminated string live for the call;
        // the flags are valid memfd_create flags and the return is
        // error-checked.
        let fd = cvt(unsafe { memfd_create(name.as_ptr(), MFD_CLOEXEC | MFD_ALLOW_SEALING) })?;
        // SAFETY: `fd` was just returned by memfd_create and is owned by
        // nothing else; `OwnedFd` closes it on every path below.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        let file = std::fs::File::from(fd);
        file.set_len((words * 8) as u64)?;
        let fd = OwnedFd::from(file);
        let map = Mapping::map(&fd, true)?;
        Ok((map, fd))
    }

    /// Maps all of `fd`, read-write or read-only. Its size must be a
    /// positive multiple of eight bytes.
    pub fn map(fd: &OwnedFd, writable: bool) -> io::Result<Mapping> {
        let bytes = std::fs::File::from(fd.try_clone()?).metadata()?.len();
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "mapping size is not whole words");
        let len = usize::try_from(bytes).map_err(|_| bad())?;
        if len == 0 || len % 8 != 0 || len > isize::MAX as usize {
            return Err(bad());
        }
        let prot = if writable { PROT_READ | PROT_WRITE } else { PROT_READ };
        // SAFETY: a fresh shared mapping at a kernel-chosen address of
        // exactly the file's size; nothing is aliased, and the result is
        // checked against MAP_FAILED before use.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, MAP_SHARED, fd.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let ptr = NonNull::new(ptr.cast::<AtomicU64>()).ok_or_else(io::Error::last_os_error)?;
        Ok(Mapping {
            ptr,
            words: len / 8,
        })
    }

    /// The mapped words. A read-only mapping may only be *loaded* from,
    /// and only with `Ordering::Relaxed` — the form of atomic load Rust
    /// guarantees on read-only memory for word-sized atomics on the
    /// 64-bit targets this runs on; anything else faults or is
    /// undefined there.
    pub fn words(&self) -> &[AtomicU64] {
        // `ptr` is the page-aligned start of a live mapping of `words * 8`
        // bytes that stays mapped until `drop`, which needs `&mut self`.
        // SAFETY: so no borrow outlives the mapping; `AtomicU64` has the
        // size and alignment of `u64`, and every access through the slice
        // is atomic — a peer writing the same words races on atomics only.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.words) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`words * 8` are exactly what `mmap` returned and
        // mapped; it is unmapped once, here, after every borrow of
        // `words()` ended.
        unsafe {
            munmap(self.ptr.as_ptr().cast(), self.words * 8);
        }
    }
}

/// Seals the `memfd` `fd` against resizing — a peer can never truncate
/// a mapping under its owner — and against further sealing. With
/// `read_only`, also against every *new* writable mapping and write:
/// mappings that already exist (its creator's) keep writing.
pub fn seal(fd: &OwnedFd, read_only: bool) -> io::Result<()> {
    let mut seals = F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL;
    if read_only {
        seals |= F_SEAL_FUTURE_WRITE;
    }
    // SAFETY: F_ADD_SEALS takes one int argument; `fd` is a live memfd
    // this caller owns, and the return is error-checked.
    cvt(unsafe { fcntl(fd.as_raw_fd(), F_ADD_SEALS, seals) }).map(|_| ())
}

/// An epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers cross the boundary; the flags value is a
        // valid epoll_create1 argument and the return is error-checked.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a live, properly laid-out (repr(C)) stack
        // value for the duration of the call; the kernel only reads it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` for `events`, reported with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set of `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd` (harmless if already closed).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for events; `timeout_ms < 0` blocks indefinitely. Returns
    /// the number of filled entries; an interrupting signal returns
    /// `Ok(0)` so callers just re-loop.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the events pointer and clamped length describe the
        // caller's live slice; the kernel writes at most that many
        // entries, each a plain-old-data EpollEvent.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(c_int::MAX as usize) as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the epoll fd this struct owns
        // exclusively; it is closed exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}

/// A non-blocking eventfd wakeup counter; the fd is closed on drop.
///
/// `signal` is async-safe from any thread; `drain` resets the counter
/// from the owning event loop. A saturated counter (`EAGAIN` on write)
/// means a wakeup is already pending, which is exactly what the caller
/// wanted — both directions treat `WouldBlock` as success.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a non-blocking, close-on-exec eventfd.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers cross the boundary; the flags value is a
        // valid eventfd argument and the return is error-checked.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Increments the counter, waking any epoll waiting on it.
    pub fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: the buffer is a live 8-byte stack value matching the
        // count; eventfd writes never retain the pointer. WouldBlock
        // (saturated counter) is success — a wakeup is already pending.
        unsafe {
            write(self.fd, (&one as *const u64).cast::<c_void>(), 8);
        }
    }

    /// Resets the counter (returns silently if it was already zero).
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: the buffer is a live, writable 8-byte stack value
        // matching the count; eventfd reads fill exactly 8 bytes or
        // fail with WouldBlock (counter already zero), which is fine.
        unsafe {
            read(self.fd, (&mut buf as *mut u64).cast::<c_void>(), 8);
        }
    }
}

/// A *blocking*, semaphore-mode eventfd: a counting wakeup primitive for
/// the effect-pool helper threads ([`crate::effectpool`]).
///
/// Each [`post`](Self::post) adds one permit; each
/// [`acquire`](Self::acquire) blocks until a permit is available and
/// consumes exactly one (`EFD_SEMAPHORE` read semantics — the counter
/// decrements by 1 instead of resetting to 0). Unlike [`EventFd`], the
/// fd is intentionally left blocking: helpers park *in* the read, and a
/// post from any submitting thread wakes exactly one of them.
#[derive(Debug)]
pub struct SemaphoreFd {
    fd: RawFd,
}

impl SemaphoreFd {
    /// Creates a blocking, close-on-exec, semaphore-mode eventfd with
    /// zero initial permits.
    pub fn new() -> io::Result<SemaphoreFd> {
        // SAFETY: no pointers cross the boundary; the flags value is a
        // valid eventfd argument and the return is error-checked.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_SEMAPHORE) })?;
        Ok(SemaphoreFd { fd })
    }

    /// Adds `n` permits, waking up to `n` parked acquirers.
    pub fn post(&self, n: u64) {
        // SAFETY: the buffer is a live 8-byte stack value matching the
        // count; eventfd writes never retain the pointer. The counter
        // would have to reach u64::MAX - 1 to block, which a bounded
        // queue cannot produce.
        unsafe {
            write(self.fd, (&n as *const u64).cast::<c_void>(), 8);
        }
    }

    /// Blocks until a permit is available and consumes one. Returns
    /// `false` only on read error (fd closed mid-shutdown), `true` on a
    /// consumed permit; an interrupting signal retries internally.
    pub fn acquire(&self) -> bool {
        let mut buf: u64 = 0;
        loop {
            // SAFETY: the buffer is a live, writable 8-byte stack value
            // matching the count; a semaphore-mode eventfd read fills
            // exactly 8 bytes (decrementing the counter by one) or
            // fails, and never retains the pointer.
            let n = unsafe { read(self.fd, (&mut buf as *mut u64).cast::<c_void>(), 8) };
            if n == 8 {
                return true;
            }
            if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return false;
        }
    }
}

impl Drop for SemaphoreFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the eventfd this struct owns
        // exclusively; it is closed exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the eventfd this struct owns
        // exclusively; it is closed exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signals_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ev.signal();
        ev.signal(); // coalesces into the same counter
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        let (mask, token) = (events[0].events, events[0].data);
        assert_eq!(token, 7);
        assert_ne!(mask & EPOLLIN, 0);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn semaphore_fd_hands_out_one_permit_per_acquire() {
        let sem = std::sync::Arc::new(SemaphoreFd::new().unwrap());
        sem.post(2);
        assert!(sem.acquire());
        assert!(sem.acquire());
        // Counter is back to zero: a third acquire parks until a
        // concurrent post arrives.
        let waiter = {
            let sem = sem.clone();
            std::thread::spawn(move || sem.acquire())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        sem.post(1);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn connect_abstract_reaches_a_name_and_never_waits_on_a_full_backlog() {
        use std::os::linux::net::SocketAddrExt;
        use std::os::unix::net::{SocketAddr, UnixListener};
        let name = format!("simfs-sys-test/{}", std::process::id());
        assert_eq!(
            connect_abstract(name.as_bytes()).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused,
            "nobody listens yet"
        );
        let listener =
            UnixListener::bind_addr(&SocketAddr::from_abstract_name(&name).unwrap()).unwrap();
        let first = connect_abstract(name.as_bytes()).unwrap();
        drop(listener.accept().unwrap());
        drop(first);
        // Shrink the backlog (std asks for the system maximum) so the
        // test fills it with a handful of sockets, not thousands.
        extern "C" {
            fn listen(fd: c_int, backlog: c_int) -> c_int;
        }
        // SAFETY: the fd is the live listener's; listen(2) on a
        // listening Unix socket only updates its backlog.
        cvt(unsafe { listen(listener.as_raw_fd(), 1) }).unwrap();
        // Nobody accepts from here on: connects queue until the backlog
        // is full, and the first one past it is refused at once instead
        // of parking.
        let mut queued = Vec::new();
        let err = loop {
            match connect_abstract(name.as_bytes()) {
                Ok(stream) => queued.push(stream),
                Err(e) => break e,
            }
            assert!(queued.len() < 16, "backlog of 1 never filled");
        };
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(connect_abstract(&[b'x'; 108]).is_err(), "over-long name");
    }

    #[test]
    fn wait_readable_times_out_then_sees_data_and_eof() {
        use std::io::Write;
        let (mut peer, ours) = UnixStream::pair().unwrap();
        let short = Some(std::time::Duration::from_millis(5));
        assert!(!wait_readable(ours.as_raw_fd(), short).unwrap(), "nothing to read yet");
        peer.write_all(b"x").unwrap();
        assert!(wait_readable(ours.as_raw_fd(), short).unwrap());
        assert!(wait_readable(ours.as_raw_fd(), None).unwrap());
        // EOF counts: the read that follows must get to report it.
        let (peer, ours) = UnixStream::pair().unwrap();
        drop(peer);
        assert!(wait_readable(ours.as_raw_fd(), None).unwrap());
    }

    #[test]
    fn sealed_memfd_maps_shared_read_only_and_rides_a_unix_socket() {
        use std::io::Read;
        use std::sync::atomic::Ordering;
        let (owner, fd) = Mapping::create(c"simfs-sys-test", 16).unwrap();
        owner.words()[3].store(42, Ordering::Relaxed);
        seal(&fd, true).unwrap();
        assert!(Mapping::map(&fd, true).is_err(), "sealed: no new writable mapping");
        assert_eq!(
            std::fs::File::from(fd.try_clone().unwrap()).set_len(8).unwrap_err().kind(),
            io::ErrorKind::PermissionDenied,
            "sealed: no shrinking under the owner"
        );

        let (a, b) = UnixStream::pair().unwrap();
        assert_eq!(send_with_fds(a.as_raw_fd(), b"hi", &[fd.as_raw_fd()]).unwrap(), 2);
        let (mut buf, mut fds) = ([0u8; 8], Vec::new());
        assert_eq!(recv_with_fds(b.as_raw_fd(), &mut buf, &mut fds).unwrap(), 2);
        assert_eq!((&buf[..2], fds.len()), (&b"hi"[..], 1));
        let peer = Mapping::map(&fds[0], false).unwrap();
        assert_eq!(peer.words().len(), 16);
        assert_eq!(peer.words()[3].load(Ordering::Relaxed), 42);
        // The owner's writes keep reaching the peer's read-only view.
        owner.words()[3].store(7, Ordering::Relaxed);
        assert_eq!(peer.words()[3].load(Ordering::Relaxed), 7);

        // A plain `read` takes the bytes; the kernel drops the
        // descriptors for it.
        send_with_fds(a.as_raw_fd(), b"x", &[fd.as_raw_fd()]).unwrap();
        let mut byte = [0u8; 1];
        (&b).read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
        assert!(monotonic_ns() > 0);
    }

    #[test]
    fn modify_and_delete_roundtrip() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 1).unwrap();
        ep.modify(ev.fd(), EPOLLIN | EPOLLOUT, 2).unwrap();
        ep.delete(ev.fd()).unwrap();
        // Deleted: a signal no longer surfaces.
        ev.signal();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
