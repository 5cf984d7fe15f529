//! The transport decision: same-host sessions ride an abstract Unix
//! socket, everything else rides TCP — and nothing above [`Stream`]
//! can tell.
//!
//! The wire protocol, the reactor and the request handlers are the
//! same over both; what differs is what a `write` costs. On
//! `127.0.0.1` every frame walks the TCP/IP stack inside the sender's
//! syscall (tcp_sendmsg → ip_output → loopback → softirq →
//! tcp_v4_rcv), three times per resident open (acquire, `Ready`,
//! release); a Unix stream socket queues the bytes on the peer and
//! returns.
//!
//! # The rendezvous rule
//!
//! A daemon that binds TCP `ip:port` also binds the abstract-namespace
//! Unix name `"\0simfs-dv/ip:port"` ([`local_name`]) for each loopback
//! address that port is reachable under ([`Listener::bind`]):
//!
//! * bound to a loopback address — that address;
//! * bound to `0.0.0.0` — `127.0.0.1` of that port; bound to `::` —
//!   `::1` of that port (whether `::` also covers `127.0.0.1` depends
//!   on a sysctl the daemon does not read, and a name must never
//!   promise more than the TCP bind holds);
//! * bound to any other address — none: it is not reachable over
//!   loopback.
//!
//! A dialer that targets a loopback address tries that name first and
//! falls back to TCP ([`dial`]); any other target is TCP exactly as
//! before. Nothing selects or disables this — the address is the
//! selector. A name that cannot be bound (someone else holds it) leaves
//! a TCP-only daemon.
//!
//! The name carries the **full socket address**, not the port alone:
//! two daemons on `127.0.0.1:P` and `127.0.0.2:P` are distinct TCP
//! endpoints and must stay distinct rendezvous points. The TCP bind
//! comes first and is the arbiter — two daemons cannot both listen on
//! one `ip:port`, so they never compete for one name either.
//!
//! Abstract names live in the kernel, not in the file system: they
//! vanish with the last descriptor, so a `kill -9` leaves no stale
//! socket file, a restart (`--recover`) rebinds at once, and a dialer
//! that finds no name simply meets TCP's `ECONNREFUSED` and runs its
//! backoff loop as it always did.
//!
//! # One behavioural difference, handled here
//!
//! The two families wake a sleeping thread for different things. A
//! thread asleep in `read` on a Unix socket is woken by *every* event
//! on that socket — including the write-space event raised when the
//! peer consumes what this side just sent (TCP raises it only for a
//! writer that ran out of space). For a request/response session that
//! is one spurious wake per request, at the very moment the daemon
//! picks the request up: on `hot_meta_durable` (two clients, two
//! cores) 2.6 voluntary context switches per open against TCP's 2.05,
//! and a tenth of the throughput. So sessions park in `poll`, whose
//! sleepers are woken only for the events they asked for
//! ([`Stream::wait_readable`]): 1.9 switches per open. The daemon's
//! side never sleeps in `read` — epoll filters by event the same way.
//!
//! # Trust model
//!
//! An abstract name has no file permissions. It is reachable by
//! exactly the processes that share this network namespace — the same
//! set that can reach `127.0.0.1:port` — so it widens nothing; and a
//! process that squats the name of a dead daemon is in the position
//! of one that binds the dead daemon's port.
//!
//! **What a mapping grants.** At hello a daemon hands a local session
//! of a solo, non-durable context two descriptors
//! ([`Stream::fd_reader`] keeps them; a plain `read` drops them): its
//! hit table and a session mapping (`crate::shm`). The table is sealed
//! read-only — residency is the daemon's to write, and the kernel
//! refuses a writable mapping of it — and both are sealed against
//! resizing, so no peer can truncate memory under the daemon. What the
//! session can write is its own mapping: pin slots, reference bits, a
//! hit counter and an access ring. A slot vetoes the eviction of a key
//! exactly as holding an `Acquire`d pin does, a reference bit is what an
//! acquire + release sets anyway, and the ring carries what an
//! `AccessDigest` frame could; the daemon bounds-checks every ring
//! index and key it reads back. Its hangup drops all of it. So a
//! mapping lets a client do nothing a frame could not — it saves the
//! exchange, not a permission. A TCP session gets no mapping.
//!
//! Linux-only, like [`crate::sys`]: the abstract namespace is a Linux
//! extension.

use crate::sys;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::io::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::{SocketAddr as UnixAddr, UnixListener, UnixStream};
use std::time::Duration;

/// Which arm a session rides (observability only — nothing branches on
/// it above this module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// The abstract Unix socket of a same-host daemon.
    Local,
    /// TCP: a remote daemon, or a local one that holds no name.
    Tcp,
}

impl Transport {
    /// `"local"` / `"tcp"`, as the bench JSON and the logs spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Local => "local",
            Transport::Tcp => "tcp",
        }
    }
}

/// A connected session socket of either family.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A connection to (or accepted from) a daemon's abstract name.
    Unix(UnixStream),
}

/// Runs `$body` with `$s` bound to whichever socket the stream holds.
macro_rules! either {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            Stream::Tcp($s) => $body,
            Stream::Unix($s) => $body,
        }
    };
}

impl Stream {
    /// Which arm this is.
    pub fn transport(&self) -> Transport {
        match self {
            Stream::Tcp(_) => Transport::Tcp,
            Stream::Unix(_) => Transport::Local,
        }
    }

    /// A second handle to the same socket.
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Parks a blocking reader until a `read` has something to report
    /// (data, EOF, an error) or `timeout` elapses — `Ok(false)`; `None`
    /// waits without limit. A session blocks *here*, not in `read`:
    ///
    /// * a thread asleep in `read` on a Unix socket is woken for every
    ///   event on that socket, including the write-space event the
    ///   kernel raises when the peer consumes what this side sent —
    ///   one spurious wake (and, across CPUs, one IPI and two context
    ///   switches) per request, just as the daemon picks the request
    ///   up. A `poll` sleeper is woken only for what it asked for;
    /// * a timeout costs no `SO_RCVTIMEO` set-and-clear around the read.
    ///
    /// An untimed wait on TCP returns at once — the `read` that follows
    /// blocks by itself, and TCP raises write-space wakes only for a
    /// writer that ran out of space.
    pub fn wait_readable(&self, timeout: Option<Duration>) -> io::Result<bool> {
        match (self, timeout) {
            (Stream::Tcp(_), None) => Ok(true),
            _ => sys::wait_readable(self.as_raw_fd(), timeout),
        }
    }

    /// Switches the socket between blocking and non-blocking mode.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        either!(self, s => s.set_nonblocking(on))
    }

    /// A reader over this socket that also keeps the descriptors riding
    /// the bytes it reads, appending them to `fds` — on the local arm,
    /// where a daemon hands its mapped hit path over at hello (see
    /// "Trust model"). TCP carries none.
    pub fn fd_reader<'a>(&'a self, fds: &'a mut Vec<OwnedFd>) -> impl Read + 'a {
        FdReader { stream: self, fds }
    }
}

/// See [`Stream::fd_reader`].
struct FdReader<'a> {
    stream: &'a Stream,
    fds: &'a mut Vec<OwnedFd>,
}

impl Read for FdReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.stream {
            Stream::Unix(s) => sys::recv_with_fds(s.as_raw_fd(), buf, self.fds),
            Stream::Tcp(s) => {
                let mut s = s;
                s.read(buf)
            }
        }
    }
}

/// Adopts a TCP socket as it is: its options are the caller's business
/// (the dialer and the listener here set `TCP_NODELAY` on theirs).
impl From<TcpStream> for Stream {
    fn from(s: TcpStream) -> Stream {
        Stream::Tcp(s)
    }
}

impl From<UnixStream> for Stream {
    fn from(s: UnixStream) -> Stream {
        Stream::Unix(s)
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        either!(self, s => s.as_raw_fd())
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(self, s => s.read(buf))
    }
}

/// On the shared reference too: the reactor writes through the handle
/// its `FrameReader` owns.
impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(*self, s => { let mut s = s; s.write(buf) })
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The abstract-namespace name (without its leading NUL) of the daemon
/// serving `addr`.
pub fn local_name(addr: &SocketAddr) -> String {
    format!("simfs-dv/{addr}")
}

/// The loopback address a daemon bound to `bound` registers its name
/// for (see the module docs), if any.
fn rendezvous_addr(bound: &SocketAddr) -> Option<SocketAddr> {
    let port = bound.port();
    match bound {
        _ if bound.ip().is_loopback() => Some(*bound),
        SocketAddr::V4(a) if a.ip().is_unspecified() => Some((Ipv4Addr::LOCALHOST, port).into()),
        SocketAddr::V6(a) if a.ip().is_unspecified() => Some((Ipv6Addr::LOCALHOST, port).into()),
        _ => None,
    }
}

/// Connects to the daemon at `addr`: over its abstract name iff `addr`
/// is a loopback address and the name accepts right now, else over TCP
/// with `TCP_NODELAY` set. `timeout` bounds the TCP connect (`None`:
/// the kernel's own limit, as `TcpStream::connect`); the name attempt
/// never waits at all ([`sys::connect_abstract`]) — a name nobody
/// holds, or one whose backlog is full, falls through to TCP at once,
/// so a timeout is honoured on both arms.
pub fn dial(addr: &SocketAddr, timeout: Option<Duration>) -> io::Result<Stream> {
    if addr.ip().is_loopback() {
        if let Ok(stream) = sys::connect_abstract(local_name(addr).as_bytes()) {
            return Ok(Stream::Unix(stream));
        }
    }
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true)?;
    Ok(Stream::Tcp(stream))
}

/// [`dial`] over every address `addrs` resolves to, in order, like
/// `TcpStream::connect`: the first that connects wins, and its
/// address — the TCP address, whichever arm answered — is returned
/// for reconnects.
pub fn dial_any(addrs: impl ToSocketAddrs) -> io::Result<(Stream, SocketAddr)> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
    for addr in addrs.to_socket_addrs()? {
        match dial(&addr, None) {
            Ok(stream) => return Ok((stream, addr)),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// A daemon's listening sockets: the TCP port and, where the
/// rendezvous rule grants one, its abstract name.
#[derive(Debug)]
pub struct Listener {
    // Declared before `tcp`: fields drop in order, so the name is gone
    // before the port is — a successor that wins the port never finds
    // its name still held by the daemon it replaces.
    local: Option<(String, UnixListener)>,
    tcp: TcpListener,
}

impl Listener {
    /// Binds TCP `addr` (the arbiter: a taken port is the error it
    /// always was), then the name the rendezvous rule derives from the
    /// address actually bound. A name that cannot be bound is skipped:
    /// the daemon is then TCP-only and dialers fall through to it.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        let tcp = TcpListener::bind(addr)?;
        let local = rendezvous_addr(&tcp.local_addr()?).and_then(|addr| {
            let name = local_name(&addr);
            let listener = UnixAddr::from_abstract_name(&name)
                .and_then(|unix| UnixListener::bind_addr(&unix))
                .ok()?;
            Some((name, listener))
        });
        Ok(Listener { local, tcp })
    }

    /// The TCP address clients are told to connect to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.tcp.local_addr()
    }

    /// The abstract name bound beside it (without the leading NUL), if
    /// the rendezvous rule granted one and the bind succeeded.
    pub fn local_name(&self) -> Option<&str> {
        self.local.as_ref().map(|(name, _)| name.as_str())
    }

    /// Switches every listening socket's `accept` mode.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.tcp.set_nonblocking(on)?;
        match &self.local {
            Some((_, unix)) => unix.set_nonblocking(on),
            None => Ok(()),
        }
    }

    /// The listening sockets' fds for an accept loop's epoll; the
    /// index of each is the `source` [`accept`](Self::accept) takes.
    pub fn fds(&self) -> impl Iterator<Item = RawFd> + '_ {
        std::iter::once(self.tcp.as_raw_fd())
            .chain(self.local.iter().map(|(_, unix)| unix.as_raw_fd()))
    }

    /// Accepts one connection from listening socket `source`. TCP
    /// sessions get `TCP_NODELAY` (best effort, as before); a Unix
    /// stream has no Nagle to disable.
    pub fn accept(&self, source: usize) -> io::Result<Stream> {
        match (source, &self.local) {
            (0, _) => {
                let (stream, _) = self.tcp.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            (1, Some((_, unix))) => Ok(Stream::Unix(unix.accept()?.0)),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no such listening socket",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(ip: [u8; 4], port: u16) -> SocketAddr {
        (Ipv4Addr::from(ip), port).into()
    }

    #[test]
    fn rendezvous_rule_follows_the_bound_address() {
        // Loopback: itself — and 127.0.0.2 is not 127.0.0.1.
        assert_eq!(
            rendezvous_addr(&v4([127, 0, 0, 1], 7878)),
            Some(v4([127, 0, 0, 1], 7878))
        );
        assert_eq!(
            rendezvous_addr(&v4([127, 0, 0, 2], 7878)),
            Some(v4([127, 0, 0, 2], 7878))
        );
        assert_ne!(
            local_name(&v4([127, 0, 0, 1], 7878)),
            local_name(&v4([127, 0, 0, 2], 7878))
        );
        assert_eq!(
            local_name(&v4([127, 0, 0, 1], 7878)),
            "simfs-dv/127.0.0.1:7878"
        );
        // Wildcards: the loopback address of their own family.
        assert_eq!(
            rendezvous_addr(&v4([0, 0, 0, 0], 9)),
            Some(v4([127, 0, 0, 1], 9))
        );
        let v6_any: SocketAddr = (Ipv6Addr::UNSPECIFIED, 9).into();
        let v6_lo: SocketAddr = (Ipv6Addr::LOCALHOST, 9).into();
        assert_eq!(rendezvous_addr(&v6_any), Some(v6_lo));
        assert_eq!(rendezvous_addr(&v6_lo), Some(v6_lo));
        assert_eq!(local_name(&v6_lo), "simfs-dv/[::1]:9");
        // A specific non-loopback address: no name.
        assert_eq!(rendezvous_addr(&v4([192, 168, 1, 5], 9)), None);
    }

    /// Echoes one byte per accepted connection from either socket.
    fn echo_once(listener: &Listener, source: usize) {
        let mut stream = listener.accept(source).unwrap();
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).unwrap();
        stream.write_all(&byte).unwrap();
    }

    #[test]
    fn loopback_dial_lands_on_the_name_and_anything_else_on_tcp() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        assert_eq!(listener.local_name(), Some(local_name(&addr).as_str()));
        assert_eq!(listener.fds().count(), 2);

        let mut stream = dial(&addr, None).unwrap();
        assert_eq!(stream.transport(), Transport::Local);
        let short = Some(Duration::from_millis(5));
        assert!(!stream.wait_readable(short).unwrap(), "nothing sent yet");
        stream.write_all(b"u").unwrap();
        echo_once(&listener, 1);
        assert!(stream.wait_readable(None).unwrap());
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"u");

        // Same daemon, an address its name does not cover (every
        // 127/8 address is loopback, but only the bound one is named
        // — and here it is not even the bound one, so TCP refuses):
        let other = v4([127, 0, 0, 2], addr.port());
        let err = dial(&other, Some(Duration::from_secs(1))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);

        // A raw TCP client still reaches the same daemon.
        let mut tcp = Stream::from(TcpStream::connect(addr).unwrap());
        assert_eq!(tcp.transport(), Transport::Tcp);
        // Timed waits poll on both arms; an untimed one leaves TCP to
        // its blocking read.
        assert!(!tcp.wait_readable(short).unwrap());
        assert!(tcp.wait_readable(None).unwrap());
        tcp.write_all(b"t").unwrap();
        echo_once(&listener, 0);
        tcp.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"t");
    }

    #[test]
    fn a_taken_name_leaves_a_tcp_only_listener_and_names_die_with_their_holder() {
        // Reserve a port, then squat its name before the daemon binds.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = v4([127, 0, 0, 1], port);
        let squatter =
            UnixListener::bind_addr(&UnixAddr::from_abstract_name(local_name(&addr)).unwrap())
                .unwrap();
        let listener = Listener::bind(addr).unwrap();
        assert_eq!(listener.local_name(), None);
        assert_eq!(listener.fds().count(), 1);
        assert!(listener.accept(1).is_err());
        drop(listener);
        drop(squatter);

        // The name is free again the moment its holder is gone, and a
        // dial after the daemon is gone meets TCP's refusal.
        let listener = Listener::bind(addr).unwrap();
        assert!(listener.local_name().is_some());
        drop(listener);
        let err = dial(&addr, Some(Duration::from_secs(1))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn wildcard_bind_is_reachable_by_name_via_localhost_only() {
        let listener = Listener::bind("0.0.0.0:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        assert_eq!(
            listener.local_name(),
            Some(local_name(&v4([127, 0, 0, 1], port)).as_str())
        );
        assert_eq!(
            dial(&v4([127, 0, 0, 1], port), None).unwrap().transport(),
            Transport::Local
        );
        // 127.0.0.2 reaches the wildcard TCP bind but holds no name.
        assert_eq!(
            dial(&v4([127, 0, 0, 2], port), None).unwrap().transport(),
            Transport::Tcp
        );
    }
}
