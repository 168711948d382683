//! One client connection speaking the line-delimited JSON wire
//! protocol, with a precise wait-for-readable.
//!
//! The open-loop generator must wake at each request's due time even
//! while it waits for replies. The kernel rounds a socket read timeout
//! (`SO_RCVTIMEO`) up to whole scheduler ticks (4 ms at `HZ=250`), so a
//! generator that waits that way sends late, in bursts, and charges the
//! server for its own lateness; `ppoll` sleeps on a high-resolution
//! timer instead.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 * 1024), start: 0 })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        // One write per request: the server reads whole lines.
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.stream.write_all(&out)
    }

    /// Pops one complete buffered line, if any.
    fn take_line(&mut self) -> Option<String> {
        let nl = self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[self.start..self.start + nl]).into_owned();
        self.start += nl + 1;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Some(line)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Blocks until a full line arrives.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// A full line if one arrives before `deadline`, else `None`.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            let now = Instant::now();
            if now >= deadline || !wait_readable(&self.stream, deadline - now)? {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    /// One request/response round trip.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(target_os = "linux")]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // duration of the call; a null sigmask leaves the mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match rc {
        r if r > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut probe = [0u8; 1];
    stream.set_read_timeout(Some(timeout.max(Duration::from_micros(1))))?;
    let r = match stream.peek(&mut probe) {
        Ok(_) => Ok(true),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(false)
        }
        Err(e) => Err(e),
    };
    stream.set_read_timeout(None)?;
    r
}

/// Keeps every CPU out of its idle halt while the benchmark runs: one
/// spinning thread per CPU at `SCHED_IDLE` priority, which the kernel
/// preempts as soon as any normal thread wants the CPU. On a virtual
/// machine a halted vCPU is woken through the hypervisor, which under
/// host contention adds milliseconds to every cross-thread handoff;
/// a spinning one is woken by the guest scheduler in microseconds.
/// Dropping the guard stops and joins the spinners.
pub struct IdleSpinners {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl IdleSpinners {
    pub fn start() -> IdleSpinners {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = (0..cpus)
            .filter_map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("idle-spin-{cpu}"))
                    .spawn(move || {
                        if !lower_to_idle_class(cpu) {
                            return;
                        }
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })
                    .ok()
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Pins the calling thread to `cpu` and moves it to `SCHED_IDLE`.
#[cfg(target_os = "linux")]
fn lower_to_idle_class(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    let priority = 0i32;
    // SAFETY: `mask` is a live cpu_set_t-sized buffer and `priority` a
    // live `struct sched_param`; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
            && sched_setscheduler(0, SCHED_IDLE, &priority) == 0
    }
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_class(_cpu: usize) -> bool {
    false
}
