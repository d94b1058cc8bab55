//! `poll(2)`/`pipe(2)` — the OS readiness shim under the event loop.
//!
//! The build environment has no crate registry, so there is no mio or
//! libc crate to lean on; like `kron`'s signal hook, this module binds
//! the two syscalls it needs directly against the libc std already
//! links. It is the **only** unsafe code in this crate (the crate-level
//! `deny(unsafe_code)` is lifted for this module alone): everything
//! above it — connection state machines, parsing, dispatch — stays in
//! safe Rust over the `RawFd`s std hands out.
//!
//! `poll(2)` rather than `epoll`: the portable call covers every unix,
//! needs no extra kernel object to manage, and rebuilding the pollfd
//! array per iteration is O(connections) — measured flat to 10K+
//! connections by `stress_serve`, far past the point where the per-query
//! work dominates. The workspace builds for unix targets only (see
//! `kron-stream`'s `compile_error!`).

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable (or a pending accept on a listener).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (always polled, never requested).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (always polled, never requested).
pub(crate) const POLLHUP: i16 = 0x010;
/// The fd was not open (always polled, never requested).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`, laid out exactly as `poll(2)` expects.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events` (a bitwise-or of `POLLIN`/`POLLOUT`; the
    /// error conditions are always reported regardless).
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The events the kernel reported on the last [`poll`] call.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

mod sys {
    extern "C" {
        // `nfds_t` is `unsigned long` on every libc std links here.
        pub(super) fn poll(fds: *mut super::PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
        pub(super) fn pipe(fds: *mut i32) -> i32;
        pub(super) fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub(super) fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub(super) fn close(fd: i32) -> i32;
    }
}

/// Block until an fd in `fds` is ready or `timeout` elapses; returns the
/// number of ready fds (0 on timeout) and fills in each entry's
/// `revents`.
///
/// # Errors
///
/// The syscall's errno as an [`io::Error`]; notably
/// [`io::ErrorKind::Interrupted`] when a signal (SIGTERM) arrived — the
/// caller re-checks its shutdown flag and polls again.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` is a valid mutable slice of `#[repr(C)]` pollfd
    // structs and the length passed is its exact element count.
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, ms) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// The self-pipe that lets worker threads interrupt a blocked [`poll`]:
/// the read end sits in every poll set; a worker finishing a request
/// writes one byte to the write end.
///
/// Both ends stay blocking — [`WakePipe::drain`] reads at most once per
/// wakeup with a buffer large enough for every plausible pending
/// notification, so it never blocks in practice (and a rare short sleep
/// on a racing writer would be harmless, not a deadlock).
#[derive(Debug)]
pub(crate) struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Create the pipe pair.
    ///
    /// # Errors
    ///
    /// The syscall's errno (fd exhaustion, in practice).
    pub(crate) fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-element array for pipe(2) to fill.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The read end, for the poll set.
    pub(crate) fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wake the event thread (called from worker threads; `write(2)` on
    /// a pipe is thread-safe). A full pipe is fine — the event thread is
    /// already guaranteed to wake up.
    pub(crate) fn notify(&self) {
        let byte = [1u8];
        // SAFETY: writing one byte from a valid buffer to an open fd.
        let _ = unsafe { sys::write(self.write_fd, byte.as_ptr(), 1) };
    }

    /// Discard pending wakeup bytes (called by the event thread after
    /// `POLLIN` on the read end, before collecting completions — so a
    /// completion pushed after this drain posts a fresh wakeup).
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 4096];
        // SAFETY: reading into a valid buffer of the stated size from an
        // open fd.
        let _ = unsafe { sys::read(self.read_fd, sink.as_mut_ptr(), sink.len()) };
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closing fds this struct owns, exactly once.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_times_out_and_reports_readiness() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        // nothing written: times out with 0 ready
        let n = poll(&mut fds, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents(), 0);
        // one notify: read end becomes readable
        pipe.notify();
        let n = poll(&mut fds, Duration::from_millis(1000)).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
        // drained: back to quiet
        pipe.drain();
        let n = poll(&mut fds, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn poll_sees_a_listener_accept_and_a_stream_write() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Duration::from_millis(10)).unwrap(), 0);
        let client = std::net::TcpStream::connect(addr).unwrap();
        assert_eq!(poll(&mut fds, Duration::from_millis(1000)).unwrap(), 1);
        let (accepted, _) = listener.accept().unwrap();
        // a fresh stream is writable; readable only once the peer sends
        let mut fds = [PollFd::new(accepted.as_raw_fd(), POLLIN | POLLOUT)];
        poll(&mut fds, Duration::from_millis(1000)).unwrap();
        assert_ne!(fds[0].revents() & POLLOUT, 0);
        assert_eq!(fds[0].revents() & POLLIN, 0);
        use std::io::Write;
        (&client).write_all(b"x").unwrap();
        let mut fds = [PollFd::new(accepted.as_raw_fd(), POLLIN)];
        poll(&mut fds, Duration::from_millis(1000)).unwrap();
        assert_ne!(fds[0].revents() & POLLIN, 0);
    }
}
