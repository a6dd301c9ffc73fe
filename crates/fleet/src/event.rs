//! Event-driven connection layer on pure `std`.
//!
//! A replica fronting thousands of mostly-idle clients cannot spend a
//! thread per connection. This module multiplexes every connection onto
//! **one** loop thread using non-blocking sockets and `poll(2)`: the loop
//! blocks until the listener has a pending connection, a socket is
//! readable (or writable while output is queued), or a worker has
//! answered a request; then it accepts, reads and parses only what `poll`
//! reported ready, flushes whatever is answered, and blocks again. An idle
//! loop makes no syscalls. `poll` is bound with one hand-declared
//! `extern "C"` (std already links the C library), so nothing beyond `std`
//! is needed.
//!
//! Request handling is decoupled from the loop through [`ResponseSlot`]: the
//! loop hands each parsed line to a [`LineHandler`] together with a slot,
//! the handler fills the slot now (inline answers) or later from a worker
//! thread (planning), and the loop writes slots back **in arrival order**
//! per connection — the JSONL protocol promises in-order responses, so a
//! filled slot waits behind its connection's earlier unfilled ones. A fill
//! that lands while the loop is blocked writes one byte to the loop's wake
//! socket (one end of a `UnixStream` pair), so the answer goes out at once.
//!
//! A connection whose first line starts with `GET ` is treated as a
//! one-shot HTTP scrape (`/metrics`, `/healthz`), answered from
//! [`LineHandler::on_http_get`] and closed after the flush, so one port
//! serves both the JSONL protocol and Prometheus.

use std::collections::VecDeque;
use std::ffi::c_ulong;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reject lines longer than this (a plan request with a large model JSON
/// is ~100 KiB; 32 MiB is a defensive ceiling, not a tuning knob).
const MAX_LINE_BYTES: usize = 32 << 20;

/// How long `stop` waits for in-flight responses to flush before closing
/// connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Interest in `events` on `fd`. No interest becomes a negative
    /// descriptor, which `poll` skips — so a hung-up socket the loop is
    /// not reading cannot spin it.
    fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }

    fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    // std links the C library on every supported Unix target.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
}

/// Block until one of `fds` is ready or `timeout_ms` elapses (`-1` waits
/// indefinitely). A failed or interrupted wait reports nothing ready; the
/// caller just goes round again.
fn wait_ready(fds: &mut [PollFd], timeout_ms: i32) {
    // SAFETY: `fds` is a live, writable array of `fds.len()` `struct
    // pollfd`s for the duration of the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        fds.iter_mut().for_each(|fd| fd.revents = 0);
    }
}

/// The loop's doorbell. `armed` is raised just before the loop blocks, so
/// only the first fill after it went idle pays for a write; fills made
/// while the loop is awake are picked up by the pass already running.
struct Waker {
    tx: UnixStream,
    armed: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.ring();
        }
    }

    /// Write the wake byte unconditionally. The socket is non-blocking: if
    /// its buffer is full, a wake-up is already due.
    fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// A one-response mailbox connecting a worker thread back to the event
/// loop. The handler clones it freely; the first `fill` wins and wakes
/// the loop.
#[derive(Clone)]
pub struct ResponseSlot {
    cell: Arc<Mutex<Option<String>>>,
    waker: Arc<Waker>,
}

impl ResponseSlot {
    fn new(waker: &Arc<Waker>) -> Self {
        ResponseSlot {
            cell: Arc::new(Mutex::new(None)),
            waker: Arc::clone(waker),
        }
    }

    /// Deposit the response line (no trailing newline). Later fills of an
    /// already-filled slot are ignored — the first answer stands.
    pub fn fill(&self, line: String) {
        let mut cell = self.cell.lock().expect("no thread panics holding a slot");
        if cell.is_some() {
            return;
        }
        *cell = Some(line);
        drop(cell);
        self.waker.wake();
    }

    /// Whether a response has been deposited.
    pub fn is_filled(&self) -> bool {
        self.cell
            .lock()
            .expect("no thread panics holding a slot")
            .is_some()
    }

    fn take(&self) -> Option<String> {
        self.cell
            .lock()
            .expect("no thread panics holding a slot")
            .take()
    }
}

/// What the event loop calls with each complete request line and each
/// HTTP scrape. Implementations must not block the calling thread — hand
/// slow work (planning) to a worker pool and fill the slot from there.
pub trait LineHandler: Send + Sync + 'static {
    /// Handle one JSONL request line. Fill `slot` now or later; the loop
    /// flushes it in arrival order once filled.
    fn on_line(&self, line: &str, slot: ResponseSlot);

    /// Answer a one-shot HTTP GET for `path`. Returns
    /// `(status line, content type, body)`.
    fn on_http_get(&self, path: &str) -> (String, String, String);
}

/// Tunables for [`spawn_event_loop`].
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// closed immediately.
    pub max_connections: usize,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            max_connections: 16_384,
        }
    }
}

/// Handle to a running event loop.
pub struct EventLoopHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    connections: Arc<AtomicUsize>,
    accepted: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl EventLoopHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently open connections.
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Connections accepted over the loop's lifetime.
    pub fn accepted_total(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Shared live-connection counter, for embedding in a metrics gauge.
    pub(crate) fn connections_shared(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.connections)
    }

    /// Stop accepting, flush pending responses (bounded by an internal
    /// deadline), close every connection and join the thread. Call only
    /// after the handler's workers have filled every outstanding slot —
    /// unfilled slots at the deadline are dropped with their connections.
    pub fn stop_and_join(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.ring();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for EventLoopHandle {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Bind `addr` and start the loop thread.
pub fn spawn_event_loop(
    addr: &str,
    handler: Arc<dyn LineHandler>,
    config: EventLoopConfig,
) -> std::io::Result<EventLoopHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let waker = Arc::new(Waker {
        tx: wake_tx,
        armed: AtomicBool::new(false),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(AtomicUsize::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let mut state = LoopState {
        listener,
        wake_rx,
        waker: Arc::clone(&waker),
        handler,
        config,
        conns: Vec::new(),
        stop: Arc::clone(&stop),
        connections: Arc::clone(&connections),
        accepted: Arc::clone(&accepted),
    };
    let thread = std::thread::Builder::new()
        .name("fleet-event-loop".to_string())
        .spawn(move || state.run())?;
    Ok(EventLoopHandle {
        addr,
        stop,
        waker,
        connections,
        accepted,
        thread: Some(thread),
    })
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Bytes queued for writing; `out_pos` marks how much already went out.
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Slots for parsed-but-unanswered lines, in arrival order.
    pending: VecDeque<ResponseSlot>,
    read_closed: bool,
    /// Set for HTTP scrapes: close once the outbuf drains.
    close_after_flush: bool,
    /// Lines handled so far (the HTTP sniff applies only to a connection's
    /// first bytes).
    served_lines: u64,
    dead: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.outbuf.len() == self.out_pos
    }

    /// Nothing is owed to the client.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.flushed()
    }

    /// Whether the oldest unanswered line has its answer.
    fn answered(&self) -> bool {
        self.pending.front().is_some_and(ResponseSlot::is_filled)
    }

    fn interest(&self) -> PollFd {
        let mut events = 0;
        if !self.dead && !self.read_closed {
            events |= POLLIN;
        }
        if !self.dead && !self.flushed() {
            events |= POLLOUT;
        }
        PollFd::new(self.stream.as_raw_fd(), events)
    }
}

struct LoopState {
    listener: TcpListener,
    wake_rx: UnixStream,
    waker: Arc<Waker>,
    handler: Arc<dyn LineHandler>,
    config: EventLoopConfig,
    conns: Vec<Conn>,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
    accepted: Arc<AtomicU64>,
}

impl LoopState {
    fn run(&mut self) {
        let mut drain_deadline: Option<Instant> = None;
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
                if self.conns.iter().all(Conn::idle) || Instant::now() >= deadline {
                    self.conns.clear();
                    self.connections.store(0, Ordering::SeqCst);
                    return;
                }
            }
            // Interest set: the wake socket, the listener (until drain),
            // then one entry per connection, index-aligned with `conns`.
            fds.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let accept = if stopping { 0 } else { POLLIN };
            fds.push(PollFd::new(self.listener.as_raw_fd(), accept));
            fds.extend(self.conns.iter().map(Conn::interest));
            // Arm the doorbell, then look once more: a slot filled before
            // arming rang nothing, so it must be seen here.
            self.waker.armed.store(true, Ordering::SeqCst);
            let timeout_ms = if self.conns.iter().any(Conn::answered) {
                0
            } else if let Some(deadline) = drain_deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                i32::try_from(left.as_millis())
                    .unwrap_or(i32::MAX)
                    .saturating_add(1)
            } else {
                -1
            };
            wait_ready(&mut fds, timeout_ms);
            self.waker.armed.store(false, Ordering::SeqCst);
            if fds[0].ready() {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            let known = self.conns.len();
            if fds[1].ready() {
                self.accept_pending();
            }
            for (i, conn) in self.conns.iter_mut().enumerate() {
                // A fresh connection gets one optimistic read: clients
                // usually write right after connecting.
                let ready = i >= known || fds[i + 2].ready();
                if ready {
                    read_available(conn);
                    // During drain no new work is started; half-received
                    // lines never complete and go with the connection.
                    if !stopping {
                        parse_lines(conn, self.handler.as_ref(), &self.waker);
                    }
                }
                if ready || !conn.pending.is_empty() {
                    promote_ready(conn);
                    flush(conn);
                }
            }
            self.reap(stopping);
            self.connections.store(self.conns.len(), Ordering::SeqCst);
        }
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accepted.fetch_add(1, Ordering::SeqCst);
                    if self.conns.len() >= self.config.max_connections {
                        drop(stream); // over the cap: refuse by closing
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.conns.push(Conn {
                        stream,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        out_pos: 0,
                        pending: VecDeque::new(),
                        read_closed: false,
                        close_after_flush: false,
                        served_lines: 0,
                        dead: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: nothing more is pending
            }
        }
    }

    /// Drop connections that are finished or broken. During drain, any
    /// connection with nothing left to say is closed immediately.
    fn reap(&mut self, stopping: bool) {
        self.conns.retain(|conn| {
            let done = conn.close_after_flush || conn.read_closed || stopping;
            let close = conn.dead || (done && conn.idle());
            !close
        });
    }
}

fn read_available(conn: &mut Conn) {
    if conn.read_closed || conn.dead {
        return;
    }
    let mut chunk = [0u8; 8192];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                if conn.inbuf.len() > MAX_LINE_BYTES {
                    conn.dead = true;
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

fn parse_lines(conn: &mut Conn, handler: &dyn LineHandler, waker: &Arc<Waker>) {
    if conn.close_after_flush {
        conn.inbuf.clear(); // trailing HTTP headers are irrelevant
        return;
    }
    while let Some(newline) = conn.inbuf.iter().position(|&b| b == b'\n') {
        let line_bytes: Vec<u8> = conn.inbuf.drain(..=newline).collect();
        let line = String::from_utf8_lossy(&line_bytes);
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        if conn.served_lines == 0 && conn.pending.is_empty() {
            if let Some(rest) = line.strip_prefix("GET ") {
                let path = rest.split_whitespace().next().unwrap_or("/");
                let (status, content_type, body) = handler.on_http_get(path);
                conn.outbuf.extend_from_slice(
                    format!(
                        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                );
                conn.outbuf.extend_from_slice(body.as_bytes());
                conn.close_after_flush = true;
                conn.inbuf.clear();
                return;
            }
        }
        let slot = ResponseSlot::new(waker);
        handler.on_line(line, slot.clone());
        conn.pending.push_back(slot);
        conn.served_lines += 1;
    }
}

/// Move filled slots (respecting arrival order) into the write buffer.
fn promote_ready(conn: &mut Conn) {
    while let Some(line) = conn.pending.front().and_then(ResponseSlot::take) {
        conn.outbuf.extend_from_slice(line.as_bytes());
        conn.outbuf.push(b'\n');
        conn.pending.pop_front();
    }
}

fn flush(conn: &mut Conn) {
    while !conn.dead && !conn.flushed() {
        match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => conn.dead = true,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => conn.dead = true,
        }
    }
    if conn.flushed() {
        conn.outbuf.clear();
        conn.out_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    struct Echo;
    impl LineHandler for Echo {
        fn on_line(&self, line: &str, slot: ResponseSlot) {
            slot.fill(format!("echo:{line}"));
        }
        fn on_http_get(&self, path: &str) -> (String, String, String) {
            (
                "200 OK".to_string(),
                "text/plain".to_string(),
                format!("path={path}\n"),
            )
        }
    }

    /// Fills even-numbered lines immediately and odd-numbered ones only
    /// when `release` flips — exercises in-order flushing.
    struct Staggered {
        release: Arc<AtomicBool>,
        held: Mutex<Vec<(String, ResponseSlot)>>,
    }
    impl LineHandler for Staggered {
        fn on_line(&self, line: &str, slot: ResponseSlot) {
            let n: u64 = line.parse().unwrap();
            if n.is_multiple_of(2) {
                slot.fill(format!("even:{n}"));
            } else if self.release.load(Ordering::SeqCst) {
                slot.fill(format!("odd:{n}"));
            } else {
                self.held.lock().unwrap().push((line.to_string(), slot));
            }
        }
        fn on_http_get(&self, _path: &str) -> (String, String, String) {
            (
                "404 Not Found".to_string(),
                "text/plain".to_string(),
                String::new(),
            )
        }
    }

    #[test]
    fn echoes_lines_and_handles_pipelining() {
        let handle =
            spawn_event_loop("127.0.0.1:0", Arc::new(Echo), EventLoopConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Two requests in one write (pipelined), plus a partial third
        // completed by a second write.
        stream.write_all(b"one\ntwo\nthr").unwrap();
        stream.write_all(b"ee\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for expect in ["echo:one", "echo:two", "echo:three"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expect);
        }
        handle.stop_and_join();
    }

    #[test]
    fn responses_flush_in_arrival_order() {
        let release = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(Staggered {
            release: Arc::clone(&release),
            held: Mutex::new(Vec::new()),
        });
        let handle = spawn_event_loop(
            "127.0.0.1:0",
            Arc::clone(&handler) as Arc<dyn LineHandler>,
            EventLoopConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"1\n2\n3\n4\n").unwrap();
        // Wait until the loop parsed everything: 2 and 4 are filled, 1 and
        // 3 held. Nothing may be delivered yet — 1 blocks the queue.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handler.held.lock().unwrap().len() < 2 {
            assert!(Instant::now() < deadline, "handler never saw held lines");
            std::thread::sleep(Duration::from_millis(1));
        }
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut probe = [0u8; 1];
        match stream.read(&mut probe) {
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            other => panic!("expected no bytes before slot 1 fills, got {other:?}"),
        }
        // Release the held slots; all four responses arrive in order.
        release.store(true, Ordering::SeqCst);
        for (line, slot) in handler.held.lock().unwrap().drain(..) {
            slot.fill(format!("odd:{line}"));
        }
        stream.set_read_timeout(None).unwrap();
        let mut reader = BufReader::new(stream);
        for expect in ["odd:1", "even:2", "odd:3", "even:4"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expect);
        }
        handle.stop_and_join();
    }

    #[test]
    fn http_get_is_answered_and_closed() {
        let handle =
            spawn_event_loop("127.0.0.1:0", Arc::new(Echo), EventLoopConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap(); // server closes
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("path=/healthz\n"), "{response}");
        handle.stop_and_join();
    }

    #[test]
    fn holds_many_idle_connections_without_threads() {
        let handle =
            spawn_event_loop("127.0.0.1:0", Arc::new(Echo), EventLoopConfig::default()).unwrap();
        let mut streams = Vec::new();
        for _ in 0..256 {
            streams.push(TcpStream::connect(handle.addr()).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.connections() < 256 {
            assert!(Instant::now() < deadline, "loop never accepted all conns");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Every connection still answers.
        let (first, last) = (&mut streams[0], 255);
        first.write_all(b"hello\n").unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:hello");
        let last = &mut streams[last];
        last.write_all(b"world\n").unwrap();
        let mut reader = BufReader::new(last.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:world");
        handle.stop_and_join();
    }

    #[test]
    fn connection_cap_refuses_extras_but_keeps_serving() {
        let handle = spawn_event_loop(
            "127.0.0.1:0",
            Arc::new(Echo),
            EventLoopConfig { max_connections: 4 },
        )
        .unwrap();
        let mut keep: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.connections() < 4 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        }
        // The fifth is accepted then closed; reading yields EOF.
        let mut extra = TcpStream::connect(handle.addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(extra.read(&mut buf).unwrap_or(0), 0);
        // Existing connections are unaffected.
        keep[0].write_all(b"still-here\n").unwrap();
        let mut reader = BufReader::new(keep[0].try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:still-here");
        handle.stop_and_join();
    }

    #[test]
    fn stop_wakes_a_loop_blocked_in_poll() {
        let handle =
            spawn_event_loop("127.0.0.1:0", Arc::new(Echo), EventLoopConfig::default()).unwrap();
        let _idle = TcpStream::connect(handle.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.connections() < 1 {
            assert!(
                Instant::now() < deadline,
                "loop never accepted the connection"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Nothing is readable and nothing is owed, so the loop parks in
        // poll with no timeout; only the stop doorbell can move it. The
        // pause just gives it time to park — a loop that has not parked
        // yet stops promptly too.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        handle.stop_and_join();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stop took {:?} to wake an idle loop",
            started.elapsed()
        );
    }

    #[test]
    fn fill_from_another_thread_wakes_an_idle_loop() {
        let handler = Arc::new(Staggered {
            release: Arc::new(AtomicBool::new(false)),
            held: Mutex::new(Vec::new()),
        });
        let handle = spawn_event_loop(
            "127.0.0.1:0",
            Arc::clone(&handler) as Arc<dyn LineHandler>,
            EventLoopConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"2\n3\n").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "even:2", "the inline answer goes first");
        // Let the loop park in poll, then answer the held line from a
        // thread of its own: the fill alone must get it onto the wire.
        std::thread::sleep(Duration::from_millis(50));
        let held = handler.held.lock().unwrap().pop().expect("line 3 is held");
        std::thread::spawn(move || held.1.fill(format!("odd:{}", held.0)))
            .join()
            .unwrap();
        line.clear();
        reader
            .read_line(&mut line)
            .expect("a worker's fill must wake the loop");
        assert_eq!(line.trim_end(), "odd:3");
        handle.stop_and_join();
    }
}
