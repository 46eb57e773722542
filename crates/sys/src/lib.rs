//! Readiness polling for the tokq runtime: Linux `epoll` and `eventfd`
//! behind a small safe API.
//!
//! This is the one tokq crate that does not forbid `unsafe`. It declares
//! the C library functions it needs via `extern "C"` (std already links
//! the C library) and wraps every call so that no input safe code can
//! pass causes undefined behaviour. Everything above it, the node event
//! loops of `tokq-core` included, stays free of `unsafe`.
//!
//! * [`Poller`] — an epoll instance. Register, modify and deregister a
//!   file descriptor under a `u64` token, then [`Poller::wait`] for
//!   readiness with an optional timeout. Several threads may wait on one
//!   poller: a level-triggered readiness that one thread's wait reports
//!   stays ready for the others until its cause is consumed. One
//!   descriptor may be registered in several pollers, each reporting it
//!   under its own token.
//! * [`Waker`] — an eventfd. Registered with a poller, it lets another
//!   thread end that poller's wait; registered level-triggered, it stays
//!   ready until [`Waker::reset`].
//! * [`connect_nonblocking`] — starts a TCP connect without waiting for
//!   it: register the stream for [`Interest::WRITABLE`] and read the
//!   outcome with [`std::net::TcpStream::take_error`] once it is ready.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use tokq_sys::{Events, Interest, Poller, Waker};
//!
//! let poller = Poller::new()?;
//! let waker = Waker::new()?;
//! poller.register(&waker, 7, Interest::READABLE.edge())?;
//! waker.wake()?;
//! let mut events = Events::with_capacity(8);
//! poller.wait(&mut events, Some(Duration::from_secs(5)))?;
//! assert_eq!(events.tokens().collect::<Vec<_>>(), [7]);
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

#[cfg(not(target_os = "linux"))]
compile_error!("tokq-sys supports Linux only: it is built on epoll and eventfd");

use std::ffi::{c_int, c_long, c_uint, c_void};
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;
const ENOSYS: i32 = 38;
const EINPROGRESS: i32 = 115;
const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4_000;
const SOCK_CLOEXEC: c_int = 0o2_000_000;

/// `struct epoll_event`. The kernel declares it packed on x86-64 (12
/// bytes, the token unaligned) and naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` with the C library's default `time_t` (a `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct sockaddr_in`: family, port and address in network byte order,
/// padded to 16 bytes.
#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// `struct sockaddr_in6` (28 bytes).
#[repr(C)]
struct SockaddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
}

/// Set once `epoll_pwait2` has reported `ENOSYS` (kernels before 5.11):
/// later waits go straight to `epoll_wait`.
static NO_PWAIT2: AtomicBool = AtomicBool::new(false);

/// Turns a C return value into a `Result`, reading `errno` on failure.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Takes ownership of a descriptor a successful C call just returned.
fn owned(fd: c_int) -> OwnedFd {
    // SAFETY: `fd` was returned by a successful epoll_create1, eventfd or
    // socket call in this crate and has not been handed to anything else, so it
    // is open and this is its only owner.
    unsafe { OwnedFd::from_raw_fd(fd) }
}

/// The readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Data to read, or the peer closed its end. Level-triggered: reported
    /// by every wait for as long as it holds.
    pub const READABLE: Interest = Interest(EPOLLIN | EPOLLRDHUP);

    /// Room to write, or a nonblocking connect finished (either way).
    /// Level-triggered.
    pub const WRITABLE: Interest = Interest(EPOLLOUT);

    /// Both this readiness and `other`'s.
    #[must_use]
    pub const fn and(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// The same readiness, edge-triggered: reported once per change (for
    /// an eventfd, once per write) rather than for as long as it holds.
    #[must_use]
    pub const fn edge(self) -> Interest {
        Interest(self.0 | EPOLLET)
    }
}

/// The buffer [`Poller::wait`] fills: the tokens of the descriptors that
/// were ready.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.tokens()).finish()
    }
}

impl Events {
    /// Room for at most `capacity` ready descriptors per wait; more stay
    /// ready for the next wait.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a C `int`.
    pub fn with_capacity(capacity: usize) -> Events {
        assert!(
            capacity > 0 && c_int::try_from(capacity).is_ok(),
            "event capacity must be in 1..=c_int::MAX"
        );
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// The tokens of the descriptors the last wait found ready.
    pub fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf[..self.len].iter().map(|ev| ev.data)
    }
}

/// An epoll instance. Closed on drop.
#[derive(Debug)]
pub struct Poller {
    fd: OwnedFd,
}

impl Poller {
    /// A new epoll instance with no registrations.
    ///
    /// # Errors
    ///
    /// Any error of `epoll_create1`, such as the descriptor limit.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { fd: owned(fd) })
    }

    /// Starts reporting `fd`'s `interest` under `token`. The poller
    /// borrows nothing: closing `fd` ends its registration.
    ///
    /// # Errors
    ///
    /// Any error of `epoll_ctl`, such as `fd` already being registered.
    pub fn register(&self, fd: impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_fd(), token, interest)
    }

    /// Changes the token and interest of a registered `fd`.
    ///
    /// # Errors
    ///
    /// Any error of `epoll_ctl`, such as `fd` not being registered.
    pub fn modify(&self, fd: impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_fd(), token, interest)
    }

    /// Stops reporting `fd`.
    ///
    /// # Errors
    ///
    /// Any error of `epoll_ctl`, such as `fd` not being registered.
    pub fn deregister(&self, fd: impl AsFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_fd(), 0, Interest(0))
    }

    fn ctl(&self, op: c_int, fd: BorrowedFd<'_>, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.0,
            data: token,
        };
        // SAFETY: `ev` is a live epoll_event with the kernel's layout for
        // the whole call, which only reads it; both descriptors are open
        // for the call because they are borrowed.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd.as_raw_fd(), &mut ev) })?;
        Ok(())
    }

    /// Blocks until a registered descriptor is ready or `timeout` passes
    /// (`None`: no timeout), fills `events`, and returns how many are
    /// ready (0 on timeout). A signal does not end the wait early.
    ///
    /// The timeout has nanosecond precision on kernels with
    /// `epoll_pwait2` (5.11 on) and is rounded up to whole milliseconds
    /// on older ones, so the wait never ends before it.
    ///
    /// # Errors
    ///
    /// Any error of the wait other than `EINTR`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut timeout = timeout;
        loop {
            match self.wait_once(events, timeout) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    if let Some(deadline) = deadline {
                        timeout = Some(deadline.saturating_duration_since(Instant::now()));
                    }
                }
                result => return result,
            }
        }
    }

    fn wait_once(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.len = 0;
        let epfd = self.fd.as_raw_fd();
        let buf = events.buf.as_mut_ptr();
        let max = c_int::try_from(events.buf.len()).expect("bounded by Events::with_capacity");
        let n = 'wait: {
            if !NO_PWAIT2.load(Ordering::Relaxed) {
                let ts = timeout.map(|t| Timespec {
                    tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
                    // Below 10^9, which fits every `long`.
                    tv_nsec: t.subsec_nanos() as c_long,
                });
                let ts_ptr = ts
                    .as_ref()
                    .map_or(std::ptr::null(), |ts| ts as *const Timespec);
                // SAFETY: `buf` points at `max` writable epoll_events owned
                // by `events`, which outlives the call; `ts_ptr` is null or
                // points at `ts`, alive until the end of this block; a null
                // sigmask leaves the signal mask alone.
                let n = unsafe { epoll_pwait2(epfd, buf, max, ts_ptr, std::ptr::null()) };
                match cvt(n) {
                    Err(e) if e.raw_os_error() == Some(ENOSYS) => {
                        NO_PWAIT2.store(true, Ordering::Relaxed);
                    }
                    result => break 'wait result?,
                }
            }
            let ms = timeout.map_or(-1, |t| {
                c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            });
            // SAFETY: as above, `buf` points at `max` writable epoll_events.
            cvt(unsafe { epoll_wait(epfd, buf, max, ms) })?
        };
        events.len = usize::try_from(n).expect("non-negative after cvt");
        Ok(events.len)
    }
}

/// An eventfd that ends the wait of a [`Poller`] it is registered with,
/// from any thread. Closed on drop.
///
/// Each [`Waker::wake`] adds one to the eventfd's counter and makes it
/// readable. Registered edge-triggered ([`Interest::edge`]), every wake
/// is reported once even though nothing ever reads the counter back, so
/// a wakeup costs the waker one `write` and the woken thread no syscall
/// beyond its wait; but the first wait to report it takes it, whichever
/// thread that is. Registered level-triggered, a wake is reported to
/// every wait until [`Waker::reset`] reads the counter back to zero.
#[derive(Debug)]
pub struct Waker {
    file: File,
}

impl Waker {
    /// A new nonblocking eventfd with its counter at zero.
    ///
    /// # Errors
    ///
    /// Any error of `eventfd`, such as the descriptor limit.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker {
            file: File::from(owned(fd)),
        })
    }

    /// Makes the eventfd readable, waking a poller it is registered with.
    ///
    /// # Errors
    ///
    /// Any error of the `write`. The one it can meet in use, `EAGAIN`
    /// once the counter nears `u64::MAX`, needs about 2^64 wakes.
    pub fn wake(&self) -> io::Result<()> {
        (&self.file).write_all(&1u64.to_ne_bytes())
    }

    /// Reads the counter back to zero: the eventfd is no longer readable
    /// until the next [`Waker::wake`]. Resetting a waker nobody woke does
    /// nothing.
    ///
    /// # Errors
    ///
    /// Any error of the `read` other than `EAGAIN` (nothing to reset).
    pub fn reset(&self) -> io::Result<()> {
        let mut counter = [0u8; 8];
        match (&self.file).read(&mut counter) {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }
}

impl AsFd for Waker {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.file.as_fd()
    }
}

/// Opens a nonblocking TCP socket and starts connecting it to `addr`
/// without waiting: the connect goes on in the kernel. Register the
/// stream with a [`Poller`] for [`Interest::WRITABLE`]; once it is
/// reported, [`TcpStream::take_error`] returns `None` if the connection
/// is up and the connect's error (`ECONNREFUSED`, say) if it failed.
///
/// # Errors
///
/// Any error of `socket`, or a `connect` error other than `EINPROGRESS`.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: socket takes no pointers.
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    let stream = TcpStream::from(owned(fd));
    let ret = match addr {
        SocketAddr::V4(a) => {
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: a.port().to_be(),
                sin_addr: u32::from_ne_bytes(a.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live sockaddr_in of the kernel's layout for
            // the whole call, which only reads `size_of` bytes of it; the
            // descriptor is open because `stream` owns it.
            unsafe {
                connect(
                    stream.as_raw_fd(),
                    (&sa as *const SockaddrIn).cast(),
                    std::mem::size_of::<SockaddrIn>() as c_uint,
                )
            }
        }
        SocketAddr::V6(a) => {
            let sa = SockaddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: a.port().to_be(),
                sin6_flowinfo: a.flowinfo(),
                sin6_addr: a.ip().octets(),
                sin6_scope_id: a.scope_id(),
            };
            // SAFETY: as above, for a sockaddr_in6.
            unsafe {
                connect(
                    stream.as_raw_fd(),
                    (&sa as *const SockaddrIn6).cast(),
                    std::mem::size_of::<SockaddrIn6>() as c_uint,
                )
            }
        }
    };
    match cvt(ret) {
        Ok(_) => Ok(stream),
        // EINTR leaves the connect going on asynchronously, like EINPROGRESS.
        Err(e)
            if matches!(e.raw_os_error(), Some(EINPROGRESS))
                || e.kind() == io::ErrorKind::Interrupted =>
        {
            Ok(stream)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    const LONG: Option<Duration> = Some(Duration::from_secs(5));

    fn tokens(events: &Events) -> Vec<u64> {
        events.tokens().collect()
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn epoll_event_has_the_kernel_layout() {
        let size = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<EpollEvent>(), size);
    }

    #[test]
    fn sockaddr_structs_have_the_kernel_layout() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(size_of::<SockaddrIn>(), 16);
        assert_eq!(align_of::<SockaddrIn>(), 4);
        assert_eq!(offset_of!(SockaddrIn, sin_port), 2);
        assert_eq!(offset_of!(SockaddrIn, sin_addr), 4);
        assert_eq!(offset_of!(SockaddrIn, sin_zero), 8);
        assert_eq!(size_of::<SockaddrIn6>(), 28);
        assert_eq!(align_of::<SockaddrIn6>(), 4);
        assert_eq!(offset_of!(SockaddrIn6, sin6_port), 2);
        assert_eq!(offset_of!(SockaddrIn6, sin6_flowinfo), 4);
        assert_eq!(offset_of!(SockaddrIn6, sin6_addr), 8);
        assert_eq!(offset_of!(SockaddrIn6, sin6_scope_id), 24);
    }

    /// Starts a connect to `addr` and waits until the poller reports it
    /// finished, returning the stream.
    fn connect_and_wait(addr: &SocketAddr) -> TcpStream {
        let stream = connect_nonblocking(addr).expect("connect started");
        let poller = Poller::new().expect("poller");
        poller
            .register(&stream, 3, Interest::WRITABLE)
            .expect("register");
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
        assert_eq!(tokens(&events), [3]);
        stream
    }

    #[test]
    fn loopback_connects_complete_through_writability() {
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let listener = TcpListener::bind(bind).expect("bind loopback");
            let addr = listener.local_addr().expect("addr");
            let mut stream = connect_and_wait(&addr);
            assert!(stream.take_error().expect("SO_ERROR").is_none(), "{bind}");
            assert_eq!(stream.peer_addr().expect("connected"), addr);
            let (mut server, _) = listener.accept().expect("accept");
            stream.write_all(b"hi").expect("write");
            let mut buf = [0u8; 2];
            server.read_exact(&mut buf).expect("read");
            assert_eq!(&buf, b"hi");
        }
    }

    #[test]
    fn a_refused_connect_surfaces_through_take_error() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        }; // closed again: nothing listens there now
        let stream = connect_and_wait(&addr);
        let err = stream.take_error().expect("SO_ERROR").expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
    }

    #[test]
    fn a_wake_from_another_thread_ends_the_wait() {
        let poller = Poller::new().expect("poller");
        let waker = std::sync::Arc::new(Waker::new().expect("eventfd"));
        poller
            .register(&*waker, 7, Interest::READABLE.edge())
            .expect("register");
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            ready_rx.recv().expect("main thread is about to wait");
            remote.wake().expect("wake");
        });
        let mut events = Events::with_capacity(4);
        ready_tx.send(()).expect("waker thread alive");
        let started = Instant::now();
        assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
        assert_eq!(tokens(&events), [7]);
        assert!(started.elapsed() < Duration::from_secs(5));
        t.join().expect("waker thread");
    }

    /// What registering a descriptor in two pollers relies on: each
    /// reports it under its own token, a zero-timeout wait on one leaves
    /// it to a thread blocked on the other, and once its cause is consumed
    /// neither reports it.
    #[test]
    fn a_descriptor_in_two_pollers_is_reported_by_each_until_consumed() {
        let shared = std::sync::Arc::new(Poller::new().expect("poller"));
        let own = Poller::new().expect("poller");
        let (mut client, server) = socket_pair();
        shared
            .register(&server, 1 << 48 | 3, Interest::READABLE)
            .expect("register in the shared poller");
        own.register(&server, 3, Interest::READABLE)
            .expect("register in the node's poller");
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiting = std::sync::Arc::clone(&shared);
        let blocked = std::thread::spawn(move || {
            let mut events = Events::with_capacity(4);
            ready_tx.send(()).expect("main thread alive");
            waiting.wait(&mut events, LONG).expect("wait");
            tokens(&events)
        });
        ready_rx.recv().expect("waiter about to block");
        std::thread::sleep(Duration::from_millis(20));
        client.write_all(b"x").expect("write");
        let mut events = Events::with_capacity(4);
        assert_eq!(
            own.wait(&mut events, Some(Duration::ZERO)).expect("poll"),
            1
        );
        assert_eq!(tokens(&events), [3]);
        assert_eq!(blocked.join().expect("waiter"), [1 << 48 | 3]);
        (&server).read_exact(&mut [0u8; 1]).expect("read");
        for poller in [&*shared, &own] {
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::ZERO))
                    .expect("poll"),
                0,
                "consumed"
            );
        }
    }

    /// What a poller shared by several threads relies on: a zero-timeout
    /// wait by one thread reports a level-triggered readiness without
    /// taking it from a thread blocked on the same poller, for a socket
    /// and for a waker alike, until its cause is consumed.
    #[test]
    fn a_second_threads_poll_leaves_level_triggered_readiness_to_the_blocked_waiter() {
        let poller = std::sync::Arc::new(Poller::new().expect("poller"));
        let waker = Waker::new().expect("eventfd");
        let (mut client, server) = socket_pair();
        poller
            .register(&waker, 1, Interest::READABLE)
            .expect("register waker");
        poller
            .register(&server, 2, Interest::READABLE)
            .expect("register socket");
        let mut events = Events::with_capacity(4);
        for round in 0..2 {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let shared = std::sync::Arc::clone(&poller);
            let blocked = std::thread::spawn(move || {
                let mut events = Events::with_capacity(4);
                ready_tx.send(()).expect("main thread alive");
                shared.wait(&mut events, LONG).expect("wait");
                tokens(&events)
            });
            ready_rx.recv().expect("waiter about to block");
            std::thread::sleep(Duration::from_millis(20));
            // Make one descriptor ready and poll it at once, usually
            // before the blocked thread has run again.
            let token = if round == 0 {
                client.write_all(b"x").expect("write");
                2
            } else {
                waker.wake().expect("wake");
                1
            };
            let polled = poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll");
            assert!(polled <= 1, "round {round}: {:?}", tokens(&events));
            assert_eq!(blocked.join().expect("waiter"), [token], "round {round}");
            // Still ready for a third wait, until consumed.
            assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
            assert_eq!(tokens(&events), [token]);
            if round == 0 {
                (&server).read_exact(&mut [0u8; 1]).expect("read");
            } else {
                waker.reset().expect("reset");
            }
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::ZERO))
                    .expect("poll"),
                0,
                "round {round}: consumed"
            );
        }
        waker.reset().expect("resetting a waker nobody woke");
    }

    #[test]
    fn an_edge_triggered_eventfd_reports_each_wake_once_without_reads() {
        let poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("eventfd");
        poller
            .register(&waker, 1, Interest::READABLE.edge())
            .expect("register");
        let mut events = Events::with_capacity(4);
        for _ in 0..3 {
            waker.wake().expect("wake");
            assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
            // The counter stays non-zero, but edge-triggered readiness is
            // not reported again until the next write.
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::ZERO))
                    .expect("poll"),
                0
            );
        }
    }

    #[test]
    fn a_loopback_socket_is_ready_while_it_holds_data() {
        let poller = Poller::new().expect("poller");
        let (mut client, mut server) = socket_pair();
        poller
            .register(&server, 42, Interest::READABLE)
            .expect("register");
        let mut events = Events::with_capacity(4);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );
        client.write_all(b"ping").expect("write");
        assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
        assert_eq!(tokens(&events), [42]);
        // Level-triggered: unread data is reported again.
        assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );
        // A closed peer makes the socket ready too.
        drop(client);
        assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
    }

    #[test]
    fn a_wait_with_nothing_ready_times_out() {
        let poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("eventfd");
        poller
            .register(&waker, 1, Interest::READABLE.edge())
            .expect("register");
        let mut events = Events::with_capacity(4);
        let started = Instant::now();
        let timeout = Duration::from_millis(30);
        assert_eq!(poller.wait(&mut events, Some(timeout)).expect("wait"), 0);
        assert_eq!(events.tokens().count(), 0);
        assert!(started.elapsed() >= timeout, "{:?}", started.elapsed());
    }

    #[test]
    fn modify_changes_the_token_and_deregister_stops_reports() {
        let poller = Poller::new().expect("poller");
        let (mut client, server) = socket_pair();
        poller
            .register(&server, 1, Interest::READABLE)
            .expect("register");
        poller
            .modify(&server, 2, Interest::READABLE)
            .expect("modify");
        client.write_all(b"x").expect("write");
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, LONG).expect("wait"), 1);
        assert_eq!(tokens(&events), [2]);
        poller.deregister(&server).expect("deregister");
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .expect("wait"),
            0
        );
        assert!(poller.deregister(&server).is_err(), "no longer registered");
    }
}
