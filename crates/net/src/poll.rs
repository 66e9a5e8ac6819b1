//! A std-only readiness poller: the `poll(2)`-shaped primitive the
//! evented server is built on — no tokio, no mio, no new crates.
//!
//! One [`Poller`] belongs to one event-loop thread. Each loop iteration
//! hands it the current interest set (socket + read/write flags per
//! connection) and a timeout; the poller sleeps until a socket is
//! ready, the timeout expires, or another thread calls
//! [`Waker::wake`]. Readiness is **level-triggered**: a socket stays
//! ready until its condition is consumed, so a handler that reads or
//! writes less than everything simply sees the socket again on the
//! next iteration — there is no edge to lose.
//!
//! It is a real `ppoll(2)` over the raw fds, declared locally with
//! `extern "C"` (std already links libc; no `libc` crate), so the server
//! builds on Linux only; other targets stop at a `compile_error!`. The
//! wake channel is a nonblocking `pipe2(2)` whose read end rides the
//! poll set, so wakes interrupt the sleep immediately and coalesce when
//! the pipe is full. `ppoll`'s nanosecond timeout matters: the event
//! loop polls in-flight [`sofia_fleet::QueryTicket`]s between
//! iterations, and a millisecond floor (plain `poll(2)`) would put a
//! millisecond on every settled query.
//!
//! The poller counts the explicit wakes it observes
//! ([`Poller::wakeups`]); the server folds those into the `metrics`
//! verb's [`crate::NetStats`].
//!
//! The poller never owns the sockets — callers keep their `TcpStream`s
//! and lend raw fds per call, so fd lifetime stays where the `Conn`
//! state machine can reason about it.

#[cfg(not(target_os = "linux"))]
compile_error!("sofia-net's server polls with ppoll(2) and builds on Linux only");

/// Raw socket handle lent to the poller for one call.
pub type SocketId = std::os::unix::io::RawFd;

/// The fd of a socket, as the poller wants it.
pub fn socket_id(s: &std::net::TcpStream) -> SocketId {
    use std::os::unix::io::AsRawFd as _;
    s.as_raw_fd()
}

/// The listener's fd (the acceptor polls it like any socket).
pub fn listener_id(l: &std::net::TcpListener) -> SocketId {
    use std::os::unix::io::AsRawFd as _;
    l.as_raw_fd()
}

/// One entry of the interest set: what `token` wants to hear about.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// Caller-chosen identifier echoed in the matching [`Event`].
    pub token: usize,
    /// The socket to watch.
    pub socket: SocketId,
    /// Wake when readable (or closed by the peer).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The [`Interest::token`] this event answers.
    pub token: usize,
    /// Readable — data, EOF, or a socket error to be discovered by the
    /// next read (level-triggered, so `POLLHUP`/`POLLERR` fold in here:
    /// the handler's read sees the truth).
    pub readable: bool,
    /// Writable without blocking (at least one byte).
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::fs::File;
    use std::io::{self, Read as _, Write as _};
    use std::os::raw::{c_int, c_short, c_ulong, c_void};
    use std::os::unix::io::{AsRawFd as _, FromRawFd as _};
    use std::sync::Arc;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    // Declared locally instead of pulling in the `libc` crate: the
    // container has no crates.io access, std already links libc, and
    // these three are ABI-stable Linux syscall wrappers.
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    }

    const O_NONBLOCK: c_int = 0o4000;
    const O_CLOEXEC: c_int = 0o2000000;
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;
    const POLLNVAL: c_short = 0x20;

    /// Linux poller: `ppoll(2)` + a nonblocking wake pipe.
    pub struct Poller {
        /// Read end of the wake pipe; always slot 0 of the poll set.
        wake_rx: File,
        /// Write end, shared with every [`Waker`] clone.
        wake_tx: Arc<File>,
        /// Reused `pollfd` array (no per-iteration allocation).
        fds: Vec<PollFd>,
        /// Polls interrupted by an explicit wake (the pipe fired).
        wakeups: u64,
    }

    /// Cross-thread wake handle; see [`super::Waker`].
    #[derive(Clone)]
    pub struct Waker {
        wake_tx: Arc<File>,
    }

    impl Waker {
        pub fn wake(&self) {
            // A full pipe means a wake is already pending — coalescing
            // is exactly what we want. Any other failure (the poller
            // side closed) means nobody is listening; nothing to do.
            let _ = (&*self.wake_tx).write(&[1]);
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let mut ends = [0 as c_int; 2];
            // SAFETY: `ends` is a valid 2-slot buffer; pipe2 writes both
            // fds on success and we own them from here on.
            if unsafe { pipe2(ends.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: both fds were just created by pipe2 and are owned
            // exclusively by these two Files.
            let (wake_rx, wake_tx) =
                unsafe { (File::from_raw_fd(ends[0]), File::from_raw_fd(ends[1])) };
            Ok(Poller {
                wake_rx,
                wake_tx: Arc::new(wake_tx),
                fds: Vec::new(),
                wakeups: 0,
            })
        }

        pub fn waker(&self) -> Waker {
            Waker {
                wake_tx: Arc::clone(&self.wake_tx),
            }
        }

        pub fn wakeups(&self) -> u64 {
            self.wakeups
        }

        pub fn poll(
            &mut self,
            interests: &[Interest],
            timeout: Duration,
            events: &mut Vec<Event>,
        ) -> io::Result<()> {
            events.clear();
            self.fds.clear();
            self.fds.push(PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for it in interests {
                let mut ev = 0;
                if it.read {
                    ev |= POLLIN;
                }
                if it.write {
                    ev |= POLLOUT;
                }
                self.fds.push(PollFd {
                    fd: it.socket,
                    events: ev,
                    revents: 0,
                });
            }
            let ts = Timespec {
                tv_sec: timeout.as_secs() as i64,
                tv_nsec: i64::from(timeout.subsec_nanos()),
            };
            // SAFETY: fds points at a live, correctly sized array for
            // the duration of the call; the timespec outlives it; a
            // null sigmask means "don't touch the signal mask".
            let rc = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    &ts,
                    std::ptr::null(),
                )
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                // A signal landing mid-poll is a spurious wake, not an
                // error; the caller's loop re-polls.
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            if self.fds[0].revents != 0 {
                self.wakeups += 1;
                // Drain every pending wake byte (nonblocking read; the
                // pipe capacity bounds it).
                let mut sink = [0u8; 64];
                while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            for (fd, it) in self.fds[1..].iter().zip(interests) {
                // Errors and hangups report as readable so the
                // handler's next read discovers the real condition.
                let readable = fd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0;
                let writable = fd.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0;
                if readable || writable {
                    events.push(Event {
                        token: it.token,
                        readable,
                        writable,
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
pub use linux::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let mut p = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        p.poll(&[], Duration::from_millis(30), &mut events).unwrap();
        // Generous upper bound: the point is it returned, promptly-ish,
        // with nothing to report.
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events.is_empty());
        assert_eq!(p.wakeups(), 0, "a timeout is not a wake");
    }

    #[test]
    fn waker_interrupts_a_long_poll() {
        let mut p = Poller::new().unwrap();
        let waker = p.waker();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        p.poll(&[], Duration::from_secs(30), &mut events).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "wake must interrupt the sleep"
        );
        h.join().unwrap();
        // A signal can end the poll before the wake lands; poll until
        // the counter shows it (bounded).
        let deadline = Instant::now() + Duration::from_secs(10);
        while p.wakeups() == 0 {
            assert!(Instant::now() < deadline, "wake never counted");
            p.poll(&[], Duration::from_millis(5), &mut events).unwrap();
        }
    }

    #[test]
    fn readable_socket_reports_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.write_all(b"ping").unwrap();
        tx.flush().unwrap();

        let mut p = Poller::new().unwrap();
        let interests = [Interest {
            token: 7,
            socket: socket_id(&rx),
            read: true,
            write: false,
        }];
        let mut events = Vec::new();
        // The byte is in flight; poll until it shows (bounded).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            p.poll(&interests, Duration::from_millis(50), &mut events)
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "socket never reported readable");
        }
    }
}
