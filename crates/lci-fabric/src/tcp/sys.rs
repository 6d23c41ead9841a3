//! Thin OS layer for the TCP transport: vectored socket I/O and epoll.
//!
//! Same discipline as [`crate::shm::os`]: no external crates, symbols
//! declared directly against the C runtime the standard library already
//! links. epoll is Linux-only; on other platforms [`Epoll`] reports
//! nothing and every poll attempts its reads ([`EVENTED`]), which keeps
//! the crate compiling and the in-process tcp mode testable everywhere.

#![cfg(unix)]

use std::io;
use std::os::raw::c_void;

/// Whether the platform reports socket readiness (epoll). Without it
/// every poll must attempt its reads and writes.
pub const EVENTED: bool = cfg!(target_os = "linux");

/// One gather/scatter segment (`struct iovec`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec {
    pub base: *mut c_void,
    pub len: usize,
}

impl IoVec {
    /// An iovec over an immutable slice. `writev` never writes through
    /// it; the const-to-mut cast mirrors the C prototype.
    pub fn from_slice(s: &[u8]) -> IoVec {
        IoVec { base: s.as_ptr() as *mut c_void, len: s.len() }
    }

    /// An iovec over a mutable slice (for `readv`).
    pub fn from_mut_slice(s: &mut [u8]) -> IoVec {
        IoVec { base: s.as_mut_ptr().cast(), len: s.len() }
    }
}

/// Gather-writes `iovs` to `fd`. Retries `EINTR`; every other error —
/// including `EAGAIN` — surfaces as `io::Error` for the caller to map.
pub fn writev(fd: i32, iovs: &[IoVec]) -> io::Result<usize> {
    loop {
        // SAFETY: each iovec points at caller-owned bytes that outlive
        // the call; the count is the array length (callers pass a
        // handful, far below IOV_MAX).
        let n = unsafe { ffi::writev(fd, iovs.as_ptr(), iovs.len() as i32) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Scatter-reads from `fd` into `iovs`. Retries `EINTR`; `Ok(0)` is
/// end-of-stream (peer closed).
pub fn readv(fd: i32, iovs: &mut [IoVec]) -> io::Result<usize> {
    loop {
        // SAFETY: each iovec points at caller-owned writable bytes that
        // outlive the call.
        let n = unsafe { ffi::readv(fd, iovs.as_mut_ptr(), iovs.len() as i32) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Edge-triggered epoll instance watching connection fds (Linux only).
/// `wait` decodes events into `(peer_index, readable, writable, hup)`.
#[cfg(target_os = "linux")]
pub struct Epoll {
    epfd: i32,
}

#[cfg(target_os = "linux")]
impl Epoll {
    pub const IN: u32 = 0x001;
    pub const OUT: u32 = 0x004;
    const ERR: u32 = 0x008;
    const HUP: u32 = 0x010;
    const RDHUP: u32 = 0x2000;
    const ET: u32 = 1 << 31;

    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { ffi::epoll_create1(0) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { epfd })
    }

    /// Registers `fd` edge-triggered for both directions; `tag` comes
    /// back verbatim in [`wait`](Epoll::wait) events.
    pub fn add(&self, fd: i32, tag: u64) -> io::Result<()> {
        let mut ev =
            ffi::EpollEvent { events: Self::IN | Self::OUT | Self::RDHUP | Self::ET, data: tag };
        // SAFETY: `ev` is a valid epoll_event for the duration of the call.
        let r = unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_ADD, fd, &mut ev) };
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits up to `timeout_ms` for events; invokes `f(tag, readable,
    /// writable, hup)` per event, `hup` when the peer hung up or the
    /// socket failed (the last bytes may have come with it, in the same
    /// edge). Returns the event count.
    pub fn wait(
        &self,
        timeout_ms: i32,
        mut f: impl FnMut(u64, bool, bool, bool),
    ) -> io::Result<usize> {
        let mut evs = [ffi::EpollEvent { events: 0, data: 0 }; 64];
        // SAFETY: the event buffer is valid for `evs.len()` entries.
        let n =
            unsafe { ffi::epoll_wait(self.epfd, evs.as_mut_ptr(), evs.len() as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for ev in &evs[..n as usize] {
            let bits = ev.events;
            let readable = bits & (Self::IN | Self::ERR | Self::HUP | Self::RDHUP) != 0;
            let writable = bits & (Self::OUT | Self::ERR | Self::HUP) != 0;
            let hup = bits & (Self::ERR | Self::HUP | Self::RDHUP) != 0;
            f(ev.data, readable, writable, hup);
        }
        Ok(n as usize)
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd is a live fd owned by this instance.
        unsafe { ffi::close(self.epfd) };
    }
}

/// Where there is no epoll nothing is ever reported ([`EVENTED`] is
/// false and nobody waits for a report).
#[cfg(not(target_os = "linux"))]
pub struct Epoll;

#[cfg(not(target_os = "linux"))]
impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        Ok(Epoll)
    }

    pub fn add(&self, _fd: i32, _tag: u64) -> io::Result<()> {
        Ok(())
    }

    pub fn wait(
        &self,
        _timeout_ms: i32,
        _f: impl FnMut(u64, bool, bool, bool),
    ) -> io::Result<usize> {
        Ok(0)
    }
}

mod ffi {
    use super::IoVec;
    use std::os::raw::c_int;

    extern "C" {
        pub fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
        pub fn readv(fd: c_int, iov: *mut IoVec, iovcnt: c_int) -> isize;
        #[cfg(target_os = "linux")]
        pub fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: c_int = 1;

    /// `struct epoll_event`; packed on x86_64 (the kernel ABI), natural
    /// alignment elsewhere.
    #[cfg(target_os = "linux")]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            max: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn writev_gathers_across_iovecs() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = std::net::TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let parts: [&[u8]; 3] = [b"hel", b"lo ", b"tcp"];
        let iovs: Vec<IoVec> = parts.iter().map(|p| IoVec::from_slice(p)).collect();
        let n = writev(tx.as_raw_fd(), &iovs).unwrap();
        assert_eq!(n, 9);
        let mut buf = [0u8; 9];
        rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello tcp");
    }

    #[test]
    fn readv_scatters_and_sees_eof() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = std::net::TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.write_all(b"abcdef").unwrap();
        drop(tx);
        let (mut a, mut b) = ([0u8; 4], [0u8; 4]);
        let mut iovs = [IoVec::from_mut_slice(&mut a), IoVec::from_mut_slice(&mut b)];
        let n = readv(rx.as_raw_fd(), &mut iovs).unwrap();
        assert_eq!(n, 6);
        assert_eq!(&a, b"abcd");
        assert_eq!(&b[..2], b"ef");
        let mut iovs = [IoVec::from_mut_slice(&mut a)];
        assert_eq!(readv(rx.as_raw_fd(), &mut iovs).unwrap(), 0); // EOF
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_readiness_edges() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = std::net::TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), 42).unwrap();
        // Fresh socket: writable edge arrives immediately.
        let mut saw = None;
        ep.wait(1000, |tag, r, w, _| saw = Some((tag, r, w))).unwrap();
        let (tag, _, w) = saw.expect("expected initial writability event");
        assert_eq!(tag, 42);
        assert!(w);
        // Data arrival: readable edge.
        tx.write_all(b"x").unwrap();
        let mut readable = false;
        while !readable {
            ep.wait(1000, |_, r, _, _| readable |= r).unwrap();
        }
    }
}
