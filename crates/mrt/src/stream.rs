//! Continuous BGP update streams: sources, resumable delivery, and the
//! bounded ingest queue behind `bgpcomm watch`.
//!
//! A [`StreamSource`] abstracts "where the bytes come from" down to one
//! operation: *(re)connect and resume delivery at an absolute byte offset*.
//! Everything a live daemon needs on top — a bounded ingest queue with
//! explicit backpressure, disconnect and stall detection, deterministic
//! [`RetryPolicy`] reconnects, and an exactly-resumable cursor — lives in
//! [`ResumingStream`], a plain `io::Read` adapter. Stacking the usual
//! decode chain on top of it (`ResumingStream` →
//! [`crate::obs::StreamDecoder`]) gives a stream consumer the same
//! quarantine-and-resync semantics as file ingestion, because it *is* the
//! same code.
//!
//! Three sources ship here and share that one path:
//!
//! * [`MemoryFeed`] — an in-memory byte buffer (the simulator feed);
//! * [`SocketFeed`] — a framed TCP or unix-domain socket feed speaking the
//!   tiny resume protocol served by [`FeedServer`];
//! * [`FileTailFeed`] — tail a growing file on disk.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use crate::faults::{FaultyStream, StreamFaultConfig};
use crate::retry::RetryPolicy;

/// The resume-protocol magic a [`SocketFeed`] client sends on connect,
/// followed by the big-endian `u64` byte offset to resume from.
pub const FEED_MAGIC: &[u8; 4] = b"BGPW";

/// A (re)connectable source of MRT stream bytes.
///
/// The one contract that makes crash recovery work: `connect(offset)`
/// resumes delivery at exactly `offset` bytes into the logical stream, so a
/// consumer that remembers how far it folded can reconnect — after a
/// disconnect, a stall, or a whole process restart — and see the remaining
/// bytes as if nothing happened. Offsets past the currently available end
/// yield a connection that delivers nothing (EOF), which the consumer
/// treats as "quiet, poll again later".
pub trait StreamSource: Send {
    /// Open a connection resuming delivery at absolute byte `offset`.
    fn connect(&mut self, offset: u64) -> io::Result<Box<dyn Read + Send>>;

    /// Human-readable description for logs and error messages.
    fn describe(&self) -> String;
}

/// A boxed source is a source, so a caller can pick one at runtime.
impl<S: StreamSource + ?Sized> StreamSource for Box<S> {
    fn connect(&mut self, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        (**self).connect(offset)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// An in-memory byte-buffer source: the simulator feed, and the test
/// workhorse. Delivery starts at the requested offset into the buffer.
#[derive(Debug, Clone)]
pub struct MemoryFeed {
    bytes: Arc<Vec<u8>>,
}

impl MemoryFeed {
    /// Serve the given bytes.
    pub fn new(bytes: Arc<Vec<u8>>) -> Self {
        MemoryFeed { bytes }
    }

    /// Total bytes available.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the feed is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// One connection's view into a [`MemoryFeed`].
struct MemoryConn {
    bytes: Arc<Vec<u8>>,
    pos: usize,
}

impl Read for MemoryConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rest = &self.bytes[self.pos.min(self.bytes.len())..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

impl StreamSource for MemoryFeed {
    fn connect(&mut self, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(MemoryConn {
            bytes: self.bytes.clone(),
            pos: offset.min(self.bytes.len() as u64) as usize,
        }))
    }

    fn describe(&self) -> String {
        format!("mem:{}B", self.bytes.len())
    }
}

/// Tail a file on disk: each connection opens the file and seeks to the
/// resume offset. A writer appending to the file between connections is
/// exactly how new data arrives.
#[derive(Debug, Clone)]
pub struct FileTailFeed {
    path: PathBuf,
}

impl FileTailFeed {
    /// Tail the given path.
    pub fn new(path: PathBuf) -> Self {
        FileTailFeed { path }
    }
}

impl StreamSource for FileTailFeed {
    fn connect(&mut self, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        use std::io::Seek;
        let mut file = std::fs::File::open(&self.path)?;
        file.seek(io::SeekFrom::Start(offset))?;
        Ok(Box::new(io::BufReader::new(file)))
    }

    fn describe(&self) -> String {
        format!("tail:{}", self.path.display())
    }
}

/// Where a [`SocketFeed`] connects.
#[derive(Debug, Clone)]
pub enum FeedAddr {
    /// A TCP `host:port` address.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for FeedAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            FeedAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A framed socket source speaking the [`FeedServer`] resume protocol: on
/// connect the client sends [`FEED_MAGIC`] plus the resume offset, and the
/// server streams bytes from that offset. The socket read timeout doubles
/// as the transport-level stall detector — a connection that stops making
/// progress surfaces `TimedOut`, which the [`ResumingStream`] turns into a
/// reconnect.
#[derive(Debug, Clone)]
pub struct SocketFeed {
    addr: FeedAddr,
    read_timeout: Duration,
}

impl SocketFeed {
    /// Connect to the given address; `read_timeout` bounds how long one
    /// read may sit without data before the connection is declared stalled.
    pub fn new(addr: FeedAddr, read_timeout: Duration) -> Self {
        SocketFeed { addr, read_timeout }
    }

    fn hello(offset: u64) -> [u8; 12] {
        let mut hello = [0u8; 12];
        hello[..4].copy_from_slice(FEED_MAGIC);
        hello[4..].copy_from_slice(&offset.to_be_bytes());
        hello
    }
}

impl StreamSource for SocketFeed {
    fn connect(&mut self, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        match &self.addr {
            FeedAddr::Tcp(addr) => {
                let mut stream = TcpStream::connect(addr.as_str())?;
                stream.set_read_timeout(Some(self.read_timeout))?;
                stream.write_all(&Self::hello(offset))?;
                Ok(Box::new(stream))
            }
            #[cfg(unix)]
            FeedAddr::Unix(path) => {
                let mut stream = std::os::unix::net::UnixStream::connect(path)?;
                stream.set_read_timeout(Some(self.read_timeout))?;
                stream.write_all(&Self::hello(offset))?;
                Ok(Box::new(stream))
            }
        }
    }

    fn describe(&self) -> String {
        self.addr.to_string()
    }
}

/// Wraps any source with seeded *delivery* fault injection: every
/// connection's stream is run through a [`FaultyStream`] whose schedule is
/// reseeded per connection (`seed ^ connection index`), so a run's entire
/// fault history is a pure function of one seed.
pub struct FaultyFeed<S> {
    inner: S,
    cfg: StreamFaultConfig,
    connections: u64,
}

impl<S: StreamSource> FaultyFeed<S> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: S, cfg: StreamFaultConfig) -> Self {
        FaultyFeed {
            inner,
            cfg,
            connections: 0,
        }
    }
}

impl<S: StreamSource> StreamSource for FaultyFeed<S> {
    fn connect(&mut self, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        let stream = self.inner.connect(offset)?;
        let seed = self.cfg.seed ^ self.connections.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.connections += 1;
        Ok(Box::new(FaultyStream::new(
            stream,
            &self.cfg.reseeded(seed),
        )))
    }

    fn describe(&self) -> String {
        format!("faulty({})", self.inner.describe())
    }
}

/// Ingest-queue and reconnect tuning for [`ResumingStream`].
#[derive(Debug, Clone)]
pub struct StreamTuning {
    /// Hard cap on bytes buffered in the ingest queue. The producer blocks
    /// (and counts a backpressure stall) when the queue is full, so RSS
    /// from queued data never exceeds roughly this plus one chunk.
    pub queue_bytes: usize,
    /// Producer read size; also the queue's accounting granularity.
    pub chunk_bytes: usize,
    /// How long the consumer waits for the next chunk before declaring the
    /// connection stalled and reconnecting.
    pub stall_timeout: Duration,
    /// Reconnect policy: attempts bound consecutive *failed* connects, and
    /// `backoff` paces both reconnects and quiet-poll loops.
    pub retry: RetryPolicy,
    /// After this many consecutive connections that deliver zero new
    /// bytes, report end-of-stream (the quiescent point). `None` polls
    /// forever — the live-daemon mode.
    pub quiesce_after: Option<u32>,
}

impl Default for StreamTuning {
    fn default() -> Self {
        StreamTuning {
            queue_bytes: 4 << 20,
            chunk_bytes: 64 << 10,
            stall_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            quiesce_after: None,
        }
    }
}

/// Shared counters a [`ResumingStream`] maintains; the daemon surfaces them
/// as `ingest/*` and `watch/*` metrics.
#[derive(Debug, Default)]
pub struct StreamCounters {
    /// Connections opened (the first one included).
    pub connections: AtomicU64,
    /// Reconnects after a disconnect, stall, or quiet poll.
    pub reconnects: AtomicU64,
    /// Stalls detected (consumer-side deadline or transport timeout).
    pub stalls: AtomicU64,
    /// Connections that ended in a transport error.
    pub disconnects: AtomicU64,
    /// Times the producer found the ingest queue full and had to block —
    /// the explicit backpressure signal.
    pub backpressure_stalls: AtomicU64,
    /// Bytes handed to the consumer so far (the stream cursor).
    pub delivered_bytes: AtomicU64,
    /// Bytes currently sitting in the ingest queue.
    pub queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes`.
    pub queue_peak_bytes: AtomicU64,
}

impl StreamCounters {
    fn add_queued(&self, n: u64) {
        let now = self.queued_bytes.fetch_add(n, Ordering::SeqCst) + n;
        self.queue_peak_bytes.fetch_max(now, Ordering::SeqCst);
    }

    fn sub_queued(&self, n: u64) {
        self.queued_bytes.fetch_sub(n, Ordering::SeqCst);
    }
}

/// Why a producer stopped delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnEnd {
    /// Clean EOF: the source has no more bytes right now.
    Eof,
    /// The transport timed out mid-connection.
    Stalled,
    /// The transport failed (reset, aborted, broken pipe, ...).
    Errored,
    /// Shutdown was requested; the producer quit voluntarily.
    Shutdown,
}

enum Delivery {
    Bytes(Vec<u8>),
    End(ConnEnd),
}

/// The delivery layer of a streaming daemon, as a plain `io::Read`:
/// reconnection, resumable cursor, stall detection, and a bounded ingest
/// queue with explicit backpressure.
///
/// A producer thread reads each connection into fixed-size chunks and
/// pushes them through a bounded channel — when the consumer falls behind,
/// the producer blocks on the full queue (counted in
/// [`StreamCounters::backpressure_stalls`]), so memory stays bounded no
/// matter how fast the source is. The consumer side (this `Read` impl)
/// reassembles the byte sequence, transparently reconnecting from the
/// current cursor whenever a connection ends; because every source resumes
/// exactly at the requested offset, the delivered sequence is bit-identical
/// to an uninterrupted read.
///
/// End of stream (`Ok(0)`) means one of: shutdown was requested, the
/// quiesce threshold was reached, or (as an error) the reconnect budget was
/// exhausted.
pub struct ResumingStream<S: StreamSource> {
    source: S,
    tuning: StreamTuning,
    shutdown: Arc<AtomicBool>,
    counters: Arc<StreamCounters>,
    /// Bytes handed to the caller — the resume offset for the next connect.
    cursor: u64,
    rx: Option<Receiver<Delivery>>,
    pending: Vec<u8>,
    pending_pos: usize,
    /// Bytes received over the current connection.
    conn_bytes: u64,
    /// Consecutive connections that delivered nothing.
    quiet_connections: u32,
    /// Terminal state reached; all further reads return `Ok(0)`.
    finished: bool,
}

impl<S: StreamSource> ResumingStream<S> {
    /// Wrap `source`, resuming delivery at `cursor` (0 for a fresh run).
    /// `shutdown` is the graceful-stop flag: once set, reads drain what is
    /// already pending and then report EOF.
    pub fn new(
        source: S,
        tuning: StreamTuning,
        cursor: u64,
        shutdown: Arc<AtomicBool>,
        counters: Arc<StreamCounters>,
    ) -> Self {
        counters.delivered_bytes.store(cursor, Ordering::SeqCst);
        ResumingStream {
            source,
            tuning,
            shutdown,
            counters,
            cursor,
            rx: None,
            pending: Vec::new(),
            pending_pos: 0,
            conn_bytes: 0,
            quiet_connections: 0,
            finished: false,
        }
    }

    /// Bytes delivered to the caller so far.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<StreamCounters> {
        self.counters.clone()
    }

    /// Spawn a producer for a fresh connection. Retries failed connects
    /// under the retry policy; a budget of consecutive failures exhausts
    /// into the returned error.
    fn open_connection(&mut self) -> io::Result<()> {
        let mut failures = 0u32;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.finished = true;
                return Ok(());
            }
            match self.source.connect(self.cursor) {
                Ok(stream) => {
                    let opened = self.counters.connections.fetch_add(1, Ordering::SeqCst);
                    if opened > 0 {
                        self.counters.reconnects.fetch_add(1, Ordering::SeqCst);
                    }
                    let cap = (self.tuning.queue_bytes / self.tuning.chunk_bytes).max(1);
                    let (tx, rx) = std::sync::mpsc::sync_channel(cap);
                    let chunk = self.tuning.chunk_bytes.max(1);
                    let counters = self.counters.clone();
                    let shutdown = self.shutdown.clone();
                    std::thread::Builder::new()
                        .name("bgp-stream-producer".into())
                        .spawn(move || produce(stream, tx, chunk, counters, shutdown))
                        .map_err(|e| {
                            io::Error::new(e.kind(), format!("spawn stream producer: {e}"))
                        })?;
                    self.rx = Some(rx);
                    self.conn_bytes = 0;
                    return Ok(());
                }
                Err(e) => {
                    failures += 1;
                    if failures >= self.tuning.retry.max_attempts {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            format!(
                                "reconnect budget exhausted after {} attempts on {}: {e}",
                                failures,
                                self.source.describe()
                            ),
                        ));
                    }
                    std::thread::sleep(self.tuning.retry.backoff(failures));
                }
            }
        }
    }

    /// A connection ended (`why`); decide whether to quiesce or reconnect.
    /// Returns `true` when the stream is finished.
    fn connection_ended(&mut self, why: ConnEnd) -> bool {
        self.rx = None;
        match why {
            ConnEnd::Stalled => {
                self.counters.stalls.fetch_add(1, Ordering::SeqCst);
            }
            ConnEnd::Errored => {
                self.counters.disconnects.fetch_add(1, Ordering::SeqCst);
            }
            ConnEnd::Eof | ConnEnd::Shutdown => {}
        }
        if self.shutdown.load(Ordering::SeqCst) {
            self.finished = true;
            return true;
        }
        if self.conn_bytes == 0 && why == ConnEnd::Eof {
            self.quiet_connections += 1;
            if let Some(limit) = self.tuning.quiesce_after {
                if self.quiet_connections >= limit {
                    self.finished = true;
                    return true;
                }
            }
            // Pace quiet polling with the retry backoff so an idle source
            // is not hammered.
            std::thread::sleep(self.tuning.retry.backoff(self.quiet_connections.min(16)));
        } else if self.conn_bytes > 0 {
            self.quiet_connections = 0;
        }
        false
    }
}

/// The producer loop: read `stream` into chunks and push them through the
/// bounded queue, blocking (and counting a backpressure stall) when full.
fn produce(
    mut stream: Box<dyn Read + Send>,
    tx: SyncSender<Delivery>,
    chunk: usize,
    counters: Arc<StreamCounters>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            let _ = tx.send(Delivery::End(ConnEnd::Shutdown));
            return;
        }
        let mut buf = vec![0u8; chunk];
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = tx.send(Delivery::End(ConnEnd::Eof));
                return;
            }
            Ok(n) => {
                buf.truncate(n);
                counters.add_queued(n as u64);
                match tx.try_send(Delivery::Bytes(buf)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(msg)) => {
                        counters.backpressure_stalls.fetch_add(1, Ordering::SeqCst);
                        if tx.send(msg).is_err() {
                            // Consumer abandoned this connection (stall
                            // teardown); quit quietly.
                            counters.sub_queued(n as u64);
                            return;
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        counters.sub_queued(n as u64);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut || e.kind() == io::ErrorKind::WouldBlock =>
            {
                let _ = tx.send(Delivery::End(ConnEnd::Stalled));
                return;
            }
            Err(_) => {
                let _ = tx.send(Delivery::End(ConnEnd::Errored));
                return;
            }
        }
    }
}

impl<S: StreamSource> Read for ResumingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            // Drain pending bytes first: data already delivered must reach
            // the decoder even while shutting down, so the cursor and the
            // folded state stay consistent.
            if self.pending_pos < self.pending.len() {
                let rest = &self.pending[self.pending_pos..];
                let n = rest.len().min(buf.len());
                buf[..n].copy_from_slice(&rest[..n]);
                self.pending_pos += n;
                self.cursor += n as u64;
                self.counters
                    .delivered_bytes
                    .store(self.cursor, Ordering::SeqCst);
                return Ok(n);
            }
            if self.finished {
                return Ok(0);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                self.finished = true;
                return Ok(0);
            }
            if self.rx.is_none() {
                self.open_connection()?;
                continue;
            }
            let rx = self.rx.as_ref().expect("connection just ensured");
            match rx.recv_timeout(self.tuning.stall_timeout) {
                Ok(Delivery::Bytes(chunk)) => {
                    self.counters.sub_queued(chunk.len() as u64);
                    self.conn_bytes += chunk.len() as u64;
                    self.pending = chunk;
                    self.pending_pos = 0;
                }
                Ok(Delivery::End(why)) => {
                    if self.connection_ended(why) {
                        return Ok(0);
                    }
                }
                // Consumer-side stall deadline: the producer is stuck in a
                // read that is not returning. Abandon the connection (the
                // producer exits on its next failed send) and reconnect
                // from the cursor.
                Err(RecvTimeoutError::Timeout) => {
                    if self.connection_ended(ConnEnd::Stalled) {
                        return Ok(0);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if self.connection_ended(ConnEnd::Errored) {
                        return Ok(0);
                    }
                }
            }
        }
    }
}

/// Options for [`FeedServer`].
#[derive(Debug, Clone, Default)]
pub struct FeedServerOptions {
    /// Pace delivery: sleep this long between `chunk` writes. `None`
    /// serves as fast as the socket accepts.
    pub throttle: Option<(usize, Duration)>,
}

/// A minimal feed server for the [`SocketFeed`] resume protocol: serves one
/// static byte buffer, resuming each connection at the offset the client
/// requests. Real deployments would put a collector behind this; tests and
/// CI put a generated scenario archive behind it.
pub struct FeedServer {
    bytes: Arc<Vec<u8>>,
    opts: FeedServerOptions,
}

impl FeedServer {
    /// Serve the given bytes.
    pub fn new(bytes: Arc<Vec<u8>>, opts: FeedServerOptions) -> Self {
        FeedServer { bytes, opts }
    }

    /// Accept loop on an already-bound TCP listener; returns when
    /// `shutdown` is set. Serves connections sequentially — the resume
    /// protocol makes per-connection service short-lived, and a feed has
    /// one daemon consumer in practice.
    pub fn serve_tcp(
        &self,
        listener: std::net::TcpListener,
        shutdown: &AtomicBool,
    ) -> io::Result<u64> {
        listener.set_nonblocking(true)?;
        let mut served = 0u64;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(served);
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    served += 1;
                    // Per-connection errors (client went away) are normal.
                    let _ = self.serve_conn(stream, shutdown);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Serve one accepted connection: read the hello, stream from the
    /// requested offset, close.
    fn serve_conn<C: Read + Write>(&self, mut conn: C, shutdown: &AtomicBool) -> io::Result<()> {
        let mut hello = [0u8; 12];
        conn.read_exact(&mut hello)?;
        if &hello[..4] != FEED_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad feed hello magic",
            ));
        }
        let offset = u64::from_be_bytes(hello[4..].try_into().expect("8 bytes"));
        let start = (offset.min(self.bytes.len() as u64)) as usize;
        let rest = &self.bytes[start..];
        match self.opts.throttle {
            None => conn.write_all(rest)?,
            Some((chunk, pause)) => {
                for piece in rest.chunks(chunk.max(1)) {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    conn.write_all(piece)?;
                    std::thread::sleep(pause);
                }
            }
        }
        conn.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{StreamFaultKind, ALL_STREAM_FAULT_KINDS};

    fn payload(n: usize) -> Arc<Vec<u8>> {
        Arc::new((0..n).map(|i| (i % 251) as u8).collect())
    }

    fn quick_tuning() -> StreamTuning {
        StreamTuning {
            queue_bytes: 64 << 10,
            chunk_bytes: 4 << 10,
            stall_timeout: Duration::from_millis(100),
            retry: RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(4),
                per_file_deadline: None,
            },
            quiesce_after: Some(2),
        }
    }

    fn drain<S: StreamSource>(source: S, tuning: StreamTuning) -> (Vec<u8>, Arc<StreamCounters>) {
        let counters = Arc::new(StreamCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut stream = ResumingStream::new(source, tuning, 0, shutdown, counters.clone());
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("drain stream");
        (out, counters)
    }

    #[test]
    fn memory_feed_delivers_everything_and_quiesces() {
        let bytes = payload(300_000);
        let (out, counters) = drain(MemoryFeed::new(bytes.clone()), quick_tuning());
        assert_eq!(out, **bytes);
        assert_eq!(
            counters.delivered_bytes.load(Ordering::SeqCst),
            bytes.len() as u64
        );
        // One full connection plus the quiet polls that prove quiescence.
        assert!(counters.connections.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn resume_from_cursor_skips_delivered_prefix() {
        let bytes = payload(10_000);
        let counters = Arc::new(StreamCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut stream = ResumingStream::new(
            MemoryFeed::new(bytes.clone()),
            quick_tuning(),
            4_000,
            shutdown,
            counters,
        );
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        assert_eq!(out, bytes[4_000..]);
        assert_eq!(stream.cursor(), bytes.len() as u64);
    }

    #[test]
    fn delivery_faults_do_not_lose_or_reorder_bytes() {
        let bytes = payload(500_000);
        let faulty = FaultyFeed::new(
            MemoryFeed::new(bytes.clone()),
            StreamFaultConfig {
                seed: 77,
                rate: 0.9,
                kinds: ALL_STREAM_FAULT_KINDS.to_vec(),
                mean_fault_position: 40_000,
            },
        );
        let (out, counters) = drain(faulty, quick_tuning());
        assert_eq!(out, **bytes, "reconnect-and-resume must be lossless");
        assert!(
            counters.reconnects.load(Ordering::SeqCst) > 0,
            "fault schedule must actually interrupt delivery"
        );
    }

    #[test]
    fn injected_stall_is_detected_and_survived() {
        let bytes = payload(200_000);
        let faulty = FaultyFeed::new(
            MemoryFeed::new(bytes.clone()),
            StreamFaultConfig {
                seed: 3,
                rate: 1.0,
                kinds: vec![StreamFaultKind::IndefiniteStall],
                mean_fault_position: 20_000,
            },
        );
        let (out, counters) = drain(faulty, quick_tuning());
        assert_eq!(out, **bytes);
        assert!(counters.stalls.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn backpressure_counter_fires_with_tiny_queue() {
        let bytes = payload(400_000);
        let counters = Arc::new(StreamCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let tuning = StreamTuning {
            queue_bytes: 2 << 10,
            chunk_bytes: 1 << 10,
            ..quick_tuning()
        };
        // The queue proper is capped at `queue_bytes`; one chunk can sit in
        // the producer's hand (blocked on a full queue) and one in the
        // consumer's (received, not yet accounted), so the true occupancy
        // bound is cap + 2 chunks.
        let cap = tuning.queue_bytes as u64 + 2 * tuning.chunk_bytes as u64;
        let mut stream = ResumingStream::new(
            MemoryFeed::new(bytes.clone()),
            tuning,
            0,
            shutdown,
            counters.clone(),
        );
        let mut out = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            // A deliberately slow consumer.
            std::thread::sleep(Duration::from_micros(200));
            match stream.read(&mut buf).unwrap() {
                0 => break,
                n => out.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(out, **bytes);
        assert!(
            counters.backpressure_stalls.load(Ordering::SeqCst) > 0,
            "slow consumer must observe backpressure"
        );
        assert!(
            counters.queue_peak_bytes.load(Ordering::SeqCst) <= cap,
            "queue occupancy must respect the configured cap"
        );
    }

    #[test]
    fn shutdown_drains_pending_then_eofs() {
        let bytes = payload(100_000);
        let counters = Arc::new(StreamCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut stream = ResumingStream::new(
            MemoryFeed::new(bytes.clone()),
            quick_tuning(),
            0,
            shutdown.clone(),
            counters,
        );
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0);
        shutdown.store(true, Ordering::SeqCst);
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        // Whatever was delivered is a strict prefix; nothing garbled.
        let total = n + rest.len();
        assert!(total <= bytes.len());
        let mut seen = buf[..n].to_vec();
        seen.extend_from_slice(&rest);
        assert_eq!(seen, bytes[..total]);
    }

    #[test]
    fn reconnect_budget_exhausts_into_error() {
        struct DeadSource;
        impl StreamSource for DeadSource {
            fn connect(&mut self, _offset: u64) -> io::Result<Box<dyn Read + Send>> {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "nothing listening",
                ))
            }
            fn describe(&self) -> String {
                "dead".into()
            }
        }
        let counters = Arc::new(StreamCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut stream = ResumingStream::new(DeadSource, quick_tuning(), 0, shutdown, counters);
        let err = stream.read(&mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
    }

    #[test]
    fn socket_feed_round_trips_with_resume() {
        let bytes = payload(150_000);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server_shutdown = shutdown.clone();
        let server_bytes = bytes.clone();
        let server = std::thread::spawn(move || {
            FeedServer::new(server_bytes, FeedServerOptions::default())
                .serve_tcp(listener, &server_shutdown)
                .unwrap()
        });

        let feed = SocketFeed::new(FeedAddr::Tcp(addr), Duration::from_secs(2));
        let (out, counters) = drain(feed, quick_tuning());
        assert_eq!(out, **bytes);
        assert!(counters.connections.load(Ordering::SeqCst) >= 3);

        shutdown.store(true, Ordering::SeqCst);
        let served = server.join().unwrap();
        assert!(served >= 3, "full read + quiet polls");
    }

    #[cfg(unix)]
    #[test]
    fn unix_feed_round_trips() {
        use std::os::unix::net::UnixListener;
        let bytes = payload(80_000);
        let dir = std::env::temp_dir().join(format!("bgp-stream-unix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("feed.sock");
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).unwrap();
        listener.set_nonblocking(true).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server_shutdown = shutdown.clone();
        let server_bytes = bytes.clone();
        let server = std::thread::spawn(move || {
            let srv = FeedServer::new(server_bytes, FeedServerOptions::default());
            loop {
                if server_shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((conn, _)) => {
                        let _ = srv.serve_conn(conn, &server_shutdown);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return,
                }
            }
        });

        let feed = SocketFeed::new(FeedAddr::Unix(sock.clone()), Duration::from_secs(2));
        let (out, _) = drain(feed, quick_tuning());
        assert_eq!(out, **bytes);

        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap();
        let _ = std::fs::remove_file(&sock);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn file_tail_sees_appended_data_across_connections() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("bgp-stream-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grow.mrt");
        std::fs::write(&path, b"first half ").unwrap();

        let counters = Arc::new(StreamCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut stream = ResumingStream::new(
            FileTailFeed::new(path.clone()),
            StreamTuning {
                quiesce_after: Some(4),
                ..quick_tuning()
            },
            0,
            shutdown,
            counters,
        );
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        let mut appended = false;
        loop {
            match stream.read(&mut buf).unwrap() {
                0 => break,
                n => {
                    out.extend_from_slice(&buf[..n]);
                    if !appended {
                        // Grow the file after the first connection's data.
                        let mut f = std::fs::OpenOptions::new()
                            .append(true)
                            .open(&path)
                            .unwrap();
                        f.write_all(b"second half").unwrap();
                        appended = true;
                    }
                }
            }
        }
        assert_eq!(out, b"first half second half");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
