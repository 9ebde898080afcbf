//! The one MRT framing loop: a resynchronizing reader with bounded
//! degradation.
//!
//! Framing damage — truncation, a corrupted length field, garbage between
//! records — loses the byte position of the next record. A reader that
//! stopped there would let one flipped bit early in a multi-gigabyte
//! RouteViews file discard the rest. [`RecoveringReader`] instead *scans
//! forward* for the next plausible record header (bounded by
//! [`RecoverConfig::max_resync_scan`]), counts everything it had to skip,
//! and keeps going, under a configurable error budget. A record whose body
//! cannot be decoded (an unknown type, a malformed attribute) is skipped by
//! its header length when the bytes after it frame as the next record.
//!
//! Every decode failure is still surfaced through the iterator so callers
//! can log it, and iteration continues afterwards. The final
//! [`IngestReport`] accounts for every byte: `bytes_ok + bytes_skipped ==
//! bytes_read` always holds, so "how much of this archive did we actually
//! use?" has an exact answer. Ingestion ([`crate::obs::StreamDecoder`]),
//! `bgpcomm validate` and the owned-decode parity oracle all frame through
//! this one loop, so they agree on every byte of a damaged archive.

use std::io::Read;

use serde::{Deserialize, Serialize};

use crate::error::{MrtError, MrtErrorKind};
use crate::records::{self, TimestampedRecord};

/// Knobs for [`RecoveringReader`].
#[derive(Debug, Clone)]
pub struct RecoverConfig {
    /// Stop (with [`MrtError::BudgetExceeded`]) after this many decode
    /// errors. `None` means unlimited: degrade, count, continue.
    pub max_errors: Option<u64>,
    /// A header length field above this is treated as framing damage rather
    /// than an instruction to swallow that many bytes.
    pub max_record_len: usize,
    /// How far past a framing error to scan for the next plausible header
    /// before giving up on the stream.
    pub max_resync_scan: usize,
}

impl Default for RecoverConfig {
    fn default() -> Self {
        RecoverConfig {
            max_errors: None,
            max_record_len: 1 << 20,
            max_resync_scan: 4 << 20,
        }
    }
}

/// Per-[`MrtErrorKind`] decode-error counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorCounters {
    /// I/O failures from the underlying stream.
    pub io: u64,
    /// Records cut short (EOF or corrupted length field).
    pub truncated: u64,
    /// Well-framed but semantically invalid bytes, including implausible
    /// header length fields.
    pub malformed: u64,
    /// Unknown record/message/attribute types.
    pub unsupported: u64,
    /// Values too large for their wire field.
    pub too_long: u64,
    /// Error-budget aborts (0 or 1).
    pub budget_exceeded: u64,
}

impl ErrorCounters {
    /// Count one error.
    pub fn bump(&mut self, e: &MrtError) {
        match e.kind() {
            MrtErrorKind::Io => self.io += 1,
            MrtErrorKind::Truncated => self.truncated += 1,
            MrtErrorKind::Malformed => self.malformed += 1,
            MrtErrorKind::Unsupported => self.unsupported += 1,
            MrtErrorKind::TooLong => self.too_long += 1,
            MrtErrorKind::BudgetExceeded => self.budget_exceeded += 1,
        }
    }

    /// Decode errors charged against the error budget (everything except
    /// the budget marker itself).
    pub fn decode_errors(&self) -> u64 {
        self.io + self.truncated + self.malformed + self.unsupported + self.too_long
    }

    /// Whether nothing went wrong.
    pub fn is_clean(&self) -> bool {
        self.decode_errors() == 0 && self.budget_exceeded == 0
    }

    /// Add another set of counters (multi-file ingests).
    pub fn merge(&mut self, other: &ErrorCounters) {
        self.io += other.io;
        self.truncated += other.truncated;
        self.malformed += other.malformed;
        self.unsupported += other.unsupported;
        self.too_long += other.too_long;
        self.budget_exceeded += other.budget_exceeded;
    }
}

/// Structured account of one (or several merged) resilient ingest runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Records successfully decoded.
    pub records_read: u64,
    /// Well-framed records whose bodies could not be decoded.
    pub records_skipped: u64,
    /// Records cut short by end-of-stream or a corrupted length field.
    pub records_truncated: u64,
    /// Bytes of successfully decoded records.
    pub bytes_ok: u64,
    /// Bytes discarded: failed records, resync scans, unframeable tails.
    pub bytes_skipped: u64,
    /// Total bytes consumed from the stream; always `bytes_ok +
    /// bytes_skipped`.
    pub bytes_read: u64,
    /// Times the reader lost framing and had to scan for the next header.
    pub resync_events: u64,
    /// Decode-error counts by kind.
    pub errors: ErrorCounters,
    /// Transient I/O failures absorbed by the retry layer (open + read).
    /// Data is complete despite a nonzero count — this is a storage-health
    /// signal, not a data-loss signal.
    pub retries: u64,
    /// Worker panics captured by the supervision layer (each one is a file
    /// that contributed nothing and carries an `aborted` reason).
    pub panicked: u64,
    /// Set when the input file could not be opened at all (after retries),
    /// with the error string — distinguishing "open failed" from "file
    /// decoded empty", which both yield zero observations.
    pub open_failed: Option<String>,
    /// Set when ingestion stopped before end-of-stream, with the reason.
    pub aborted: Option<String>,
    /// Shards that exhausted their retry budget in a supervised sharded
    /// run and were dropped under `--allow-shard-failures`. Zero for
    /// single-process runs.
    #[serde(default)]
    pub shards_failed: u64,
    /// Input files whose observations are missing from the merged result
    /// because their shard permanently failed.
    #[serde(default)]
    pub files_lost: u64,
    /// On-disk bytes of the lost input files — the exact coverage
    /// shortfall of a degraded sharded run.
    #[serde(default)]
    pub bytes_lost: u64,
    /// Readahead blocks consumed from the prefetch thread. Deterministic
    /// for a given input (blocks are filled completely regardless of how
    /// the underlying reader chunks its reads); zero when the read path
    /// had no readahead stage.
    #[serde(default)]
    pub readahead_blocks: u64,
    /// High-water footprint in bytes of the view decoder's scratch arena —
    /// the *entire* per-stream heap of the zero-copy decode path. Zero for
    /// owned-decode reads.
    #[serde(default)]
    pub arena_bytes: u64,
}

impl IngestReport {
    /// Fold another report into this one (e.g. one per input file).
    pub fn merge(&mut self, other: &IngestReport) {
        self.records_read += other.records_read;
        self.records_skipped += other.records_skipped;
        self.records_truncated += other.records_truncated;
        self.bytes_ok += other.bytes_ok;
        self.bytes_skipped += other.bytes_skipped;
        self.bytes_read += other.bytes_read;
        self.resync_events += other.resync_events;
        self.errors.merge(&other.errors);
        self.retries += other.retries;
        self.panicked += other.panicked;
        if self.open_failed.is_none() {
            self.open_failed = other.open_failed.clone();
        }
        if self.aborted.is_none() {
            self.aborted = other.aborted.clone();
        }
        self.shards_failed += other.shards_failed;
        self.files_lost += other.files_lost;
        self.bytes_lost += other.bytes_lost;
        self.readahead_blocks += other.readahead_blocks;
        self.arena_bytes += other.arena_bytes;
    }

    /// Whether the stream decoded without a single problem.
    pub fn is_clean(&self) -> bool {
        self.errors.is_clean() && self.aborted.is_none() && self.shards_failed == 0
    }

    /// Record this report under the `ingest/` metric namespace —
    /// counters, plus gauges for the two report-level failure markers.
    /// Every field lands in the snapshot, so degradation previously only
    /// reachable via `--report` (retries, injected faults, resyncs) shows
    /// up in `--metrics-out` too. Recording several reports records their
    /// [`merge`](Self::merge): counters add, and a marker gauge stays 1
    /// once any recorded report set it.
    pub fn record_metrics(&self, metrics: &bgp_types::MetricsRegistry) {
        metrics
            .counter("ingest/records_read")
            .add(self.records_read);
        metrics
            .counter("ingest/records_skipped")
            .add(self.records_skipped);
        metrics
            .counter("ingest/records_truncated")
            .add(self.records_truncated);
        metrics.counter("ingest/bytes_ok").add(self.bytes_ok);
        metrics
            .counter("ingest/bytes_skipped")
            .add(self.bytes_skipped);
        metrics.counter("ingest/bytes_read").add(self.bytes_read);
        metrics
            .counter("ingest/resync_events")
            .add(self.resync_events);
        metrics.counter("ingest/retries").add(self.retries);
        metrics.counter("ingest/worker_panics").add(self.panicked);
        metrics.counter("ingest/errors/io").add(self.errors.io);
        metrics
            .counter("ingest/errors/truncated")
            .add(self.errors.truncated);
        metrics
            .counter("ingest/errors/malformed")
            .add(self.errors.malformed);
        metrics
            .counter("ingest/errors/unsupported")
            .add(self.errors.unsupported);
        metrics
            .counter("ingest/errors/too_long")
            .add(self.errors.too_long);
        metrics
            .counter("ingest/errors/budget_exceeded")
            .add(self.errors.budget_exceeded);
        metrics
            .counter("ingest/shards_failed")
            .add(self.shards_failed);
        metrics.counter("ingest/files_lost").add(self.files_lost);
        metrics.counter("ingest/bytes_lost").add(self.bytes_lost);
        metrics
            .counter("ingest/readahead_blocks")
            .add(self.readahead_blocks);
        metrics.counter("ingest/arena_bytes").add(self.arena_bytes);
        let marker = |name: &str, set: bool| {
            let gauge = metrics.gauge(name);
            gauge.set(gauge.get().max(i64::from(set)));
        };
        marker("ingest/open_failed", self.open_failed.is_some());
        marker("ingest/aborted", self.aborted.is_some());
    }

    /// One-line human summary, for CLI output and logs.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} records decoded, {} skipped, {} truncated; {} resync(s), {}/{} bytes used",
            self.records_read,
            self.records_skipped,
            self.records_truncated,
            self.resync_events,
            self.bytes_ok,
            self.bytes_read,
        );
        if self.retries > 0 {
            out.push_str(&format!("; {} I/O retry(s)", self.retries));
        }
        if self.panicked > 0 {
            out.push_str(&format!("; {} worker panic(s)", self.panicked));
        }
        if let Some(why) = &self.open_failed {
            out.push_str(&format!("; open failed: {why}"));
        }
        if let Some(why) = &self.aborted {
            out.push_str(&format!("; aborted: {why}"));
        }
        if self.shards_failed > 0 {
            out.push_str(&format!(
                "; {} shard(s) failed permanently ({} file(s), {} byte(s) not covered)",
                self.shards_failed, self.files_lost, self.bytes_lost
            ));
        }
        out
    }
}

/// Does this 12-byte window look like the start of an MRT record?
///
/// Checks a known type, a subtype in that type's defined range, and a sane
/// length. Random bytes pass with probability ≈ `3/65536 × subtypes/65536`,
/// so a resync scan essentially never locks onto garbage.
fn plausible_header(window: &[u8], max_record_len: usize) -> bool {
    debug_assert!(window.len() >= 12);
    let mrt_type = u16::from_be_bytes([window[4], window[5]]);
    let subtype = u16::from_be_bytes([window[6], window[7]]);
    let length = u32::from_be_bytes([window[8], window[9], window[10], window[11]]) as usize;
    if length > max_record_len {
        return false;
    }
    match mrt_type {
        records::TYPE_TABLE_DUMP => (1..=2).contains(&subtype),
        records::TYPE_TABLE_DUMP_V2 => (1..=6).contains(&subtype),
        records::TYPE_BGP4MP => subtype <= 7,
        _ => false,
    }
}

/// Streaming MRT reader that survives framing damage.
///
/// As an [`Iterator`] it yields owned records and per-record errors: a
/// clean end of stream ends iteration, and truncation or corrupted framing
/// resynchronizes and continues instead of ending it. Obtain the
/// accounting with [`RecoveringReader::report`] once iteration ends.
#[derive(Debug)]
pub struct RecoveringReader<R> {
    inner: R,
    cfg: RecoverConfig,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    fused: bool,
    budget_pending: bool,
    report: IngestReport,
}

const FILL_CHUNK: usize = 64 * 1024;
const COMPACT_THRESHOLD: usize = 256 * 1024;

impl<R: Read> RecoveringReader<R> {
    /// Wrap an input stream with the given recovery policy.
    pub fn with_config(inner: R, cfg: RecoverConfig) -> Self {
        RecoveringReader {
            inner,
            cfg,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            fused: false,
            budget_pending: false,
            report: IngestReport::default(),
        }
    }

    /// Wrap an input stream with [`RecoverConfig::default`].
    pub fn new(inner: R) -> Self {
        Self::with_config(inner, RecoverConfig::default())
    }

    /// The accounting so far (final once iteration returns `None`).
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Consume the reader, returning the final report.
    pub fn into_report(self) -> IngestReport {
        self.report
    }

    /// Bytes read from the input but not yet consumed by decoding — the
    /// lookahead tail sitting in the internal buffer. Streaming consumers
    /// subtract this from `report().bytes_read` to get a frame-aligned
    /// resume position: everything before it has been decoded (or skipped
    /// by resync) and folded, everything after it has not.
    pub fn buffered(&self) -> usize {
        self.available()
    }

    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Ensure at least `want` bytes are buffered past `pos`, or `eof` is
    /// set. Counts every byte pulled from the stream into `bytes_read`.
    fn fill(&mut self, want: usize) -> Result<(), MrtError> {
        if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        while !self.eof && self.available() < want {
            let old_len = self.buf.len();
            self.buf.resize(old_len + FILL_CHUNK, 0);
            match self.inner.read(&mut self.buf[old_len..]) {
                Ok(0) => {
                    self.buf.truncate(old_len);
                    self.eof = true;
                }
                Ok(n) => {
                    self.buf.truncate(old_len + n);
                    self.report.bytes_read += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.buf.truncate(old_len);
                }
                Err(e) => {
                    self.buf.truncate(old_len);
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Count `e`, arm the budget trip-wire if it pushed us over, and hand
    /// the error back for yielding.
    fn emit(&mut self, e: MrtError) -> MrtError {
        self.report.errors.bump(&e);
        if let Some(limit) = self.cfg.max_errors {
            if self.report.errors.decode_errors() > limit {
                self.budget_pending = true;
            }
        }
        e
    }

    /// Discard everything still buffered, attributing it to `bytes_skipped`.
    fn drain_rest(&mut self) {
        self.report.bytes_skipped += self.available() as u64;
        self.pos = self.buf.len();
    }

    /// Scan forward (from one byte past the current position) for the next
    /// plausible record header, within the configured bound. Updates
    /// position and skip/resync accounting; fuses the reader if the scan
    /// limit is exhausted before plausible bytes or EOF.
    fn resync(&mut self) {
        // `fill` may compact the buffer (moving `pos`), so scan with an
        // offset relative to `pos`, never an absolute index.
        let mut off = 1usize;
        loop {
            if off > self.cfg.max_resync_scan {
                self.report.bytes_skipped += off as u64;
                self.pos += off;
                self.report.aborted = Some(format!(
                    "resync scan exceeded {} bytes",
                    self.cfg.max_resync_scan
                ));
                self.fused = true;
                return;
            }
            if self.available() < off + 12
                && (self.fill(off + 12).is_err() || self.available() < off + 12)
            {
                // EOF (or I/O death) before another full header fits:
                // nothing left to resync onto.
                self.drain_rest();
                return;
            }
            let q = self.pos + off;
            if plausible_header(&self.buf[q..q + 12], self.cfg.max_record_len) {
                self.report.resync_events += 1;
                self.report.bytes_skipped += off as u64;
                self.pos = q;
                return;
            }
            off += 1;
        }
    }

    /// After a failed body decode, decide whether the record's claimed frame
    /// can be trusted: the bytes right after it must look like another
    /// record header, or be exactly end-of-stream.
    fn frame_end_plausible(&mut self, total: usize) -> bool {
        if self.fill(total + 12).is_err() {
            return false;
        }
        if self.available() == total && self.eof {
            return true; // frame ends exactly at EOF
        }
        if self.available() < total + 12 {
            return false; // partial garbage tail follows
        }
        let q = self.pos + total;
        plausible_header(&self.buf[q..q + 12], self.cfg.max_record_len)
    }

    fn io_fatal(&mut self, e: MrtError) -> MrtError {
        self.drain_rest();
        self.report.aborted = Some(format!("I/O error: {e}"));
        self.fused = true;
        self.emit(e)
    }

    fn next_item(&mut self) -> Option<Result<TimestampedRecord, MrtError>> {
        self.process_next(|timestamp, mrt_type, subtype, body| {
            records::decode_body(mrt_type, subtype, body)
                .map(|record| TimestampedRecord { timestamp, record })
        })
    }

    /// Advance to the next record and hand its framed body to `decode`.
    ///
    /// This is the framing loop shared by the owned and borrowed-view
    /// decode paths: header parsing, truncation handling, resync, the
    /// error budget, and the byte ledger are identical no matter what
    /// `decode` does with the body — so the zero-copy path inherits fault
    /// recovery by construction rather than by reimplementation. The
    /// closure sees `(timestamp, mrt_type, subtype, body)`; an `Err` from
    /// it receives exactly the skip-or-resync treatment a failed
    /// [`records::decode_body`] would.
    ///
    /// Note the body slice is assembled in this reader's own buffer, so a
    /// record that straddles readahead (or any upstream) block boundaries
    /// always reaches `decode` contiguous and complete.
    pub fn process_next<T>(
        &mut self,
        decode: impl FnOnce(u32, u16, u16, &[u8]) -> Result<T, MrtError>,
    ) -> Option<Result<T, MrtError>> {
        if self.fused {
            return None;
        }
        if self.budget_pending {
            self.budget_pending = false;
            self.fused = true;
            let limit = self.cfg.max_errors.unwrap_or(0);
            self.drain_rest();
            self.report.aborted = Some(format!("error budget of {limit} exceeded"));
            let e = MrtError::BudgetExceeded { limit };
            self.report.errors.bump(&e);
            return Some(Err(e));
        }

        if let Err(e) = self.fill(12) {
            return Some(Err(self.io_fatal(e)));
        }
        let avail = self.available();
        if avail == 0 {
            self.fused = true;
            return None;
        }
        if avail < 12 {
            // EOF inside a header: unrecoverable by definition (no more
            // bytes will ever arrive), but counted precisely.
            self.report.records_truncated += 1;
            let e = MrtError::Truncated {
                context: "MRT header",
                needed: 12 - avail,
            };
            self.drain_rest();
            return Some(Err(self.emit(e)));
        }

        let h = &self.buf[self.pos..self.pos + 12];
        let timestamp = u32::from_be_bytes([h[0], h[1], h[2], h[3]]);
        let mrt_type = u16::from_be_bytes([h[4], h[5]]);
        let subtype = u16::from_be_bytes([h[6], h[7]]);
        let length = u32::from_be_bytes([h[8], h[9], h[10], h[11]]) as usize;

        if length > self.cfg.max_record_len {
            let e = MrtError::malformed(
                "MRT header",
                format!(
                    "implausible record length {length} (cap {})",
                    self.cfg.max_record_len
                ),
            );
            self.resync();
            return Some(Err(self.emit(e)));
        }

        let total = 12 + length;
        if let Err(e) = self.fill(total) {
            return Some(Err(self.io_fatal(e)));
        }
        if self.available() < total {
            // The length field points past EOF: either a genuinely
            // truncated tail or a corrupted length. Resync in what's left —
            // real records may well follow.
            let e = MrtError::Truncated {
                context: "MRT record body",
                needed: total - self.available(),
            };
            self.report.records_truncated += 1;
            self.resync();
            return Some(Err(self.emit(e)));
        }

        let body = &self.buf[self.pos + 12..self.pos + total];
        match decode(timestamp, mrt_type, subtype, body) {
            Ok(value) => {
                self.report.records_read += 1;
                self.report.bytes_ok += total as u64;
                self.pos += total;
                Some(Ok(value))
            }
            Err(e) => {
                // A failed body is only skippable if its claimed frame is
                // believable; otherwise the length field itself is suspect
                // and forward-scanning beats trusting it.
                if self.frame_end_plausible(total) {
                    self.report.records_skipped += 1;
                    self.report.bytes_skipped += total as u64;
                    self.pos += total;
                } else {
                    self.resync();
                }
                Some(Err(self.emit(e)))
            }
        }
    }
}

impl<R: Read> Iterator for RecoveringReader<R> {
    type Item = Result<TimestampedRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{corrupt_stream, FaultConfig, FaultInjector, FaultKind};
    use crate::records::{Bgp4mpStateChange, BgpState, MrtRecord};
    use crate::writer::MrtWriter;
    use bgp_types::Asn;
    use std::net::IpAddr;

    fn state_change() -> MrtRecord {
        MrtRecord::StateChange(Bgp4mpStateChange {
            peer_asn: Asn::new(64500),
            local_asn: Asn::new(6447),
            if_index: 0,
            peer_addr: IpAddr::from([192, 0, 2, 2]),
            local_addr: IpAddr::from([192, 0, 2, 1]),
            old_state: BgpState::Idle,
            new_state: BgpState::Established,
        })
    }

    fn clean_stream(n: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        for ts in 0..n {
            w.write_record(ts, &state_change()).unwrap();
        }
        buf
    }

    /// A 4-byte record of MRT type 99, which no implementation knows.
    fn unsupported_record(timestamp: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&timestamp.to_be_bytes());
        buf.extend_from_slice(&99u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[0xAA; 4]);
        buf
    }

    /// `(records_read, records_skipped, records_truncated)`.
    fn outcomes(report: &IngestReport) -> (u64, u64, u64) {
        (
            report.records_read,
            report.records_skipped,
            report.records_truncated,
        )
    }

    #[test]
    fn clean_stream_decodes_every_record_in_order() {
        let buf = clean_stream(25);
        let mut r = RecoveringReader::new(&buf[..]);
        let recs: Vec<u32> = r.by_ref().map(|x| x.unwrap().timestamp).collect();
        assert_eq!(recs, (0..25).collect::<Vec<_>>());
        let report = r.into_report();
        assert!(report.is_clean());
        assert_eq!(report.records_read, 25);
        assert_eq!(report.bytes_ok, buf.len() as u64);
        assert_eq!(report.bytes_read, buf.len() as u64);
        assert_eq!(report.bytes_skipped, 0);
        assert_eq!(report.resync_events, 0);
    }

    #[test]
    fn multiple_records_in_order() {
        // Records come back in stream order, each with the timestamp and
        // body it was written with.
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        for ts in [10, 20, 30] {
            w.write_record(ts, &state_change()).unwrap();
        }
        let recs: Vec<_> = RecoveringReader::new(&buf[..])
            .map(Result::unwrap)
            .collect();
        assert_eq!(
            recs.iter().map(|r| r.timestamp).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert!(recs.iter().all(|r| r.record == state_change()));
    }

    #[test]
    fn records_read_counts() {
        // The live report counts each record as it is handed out.
        let buf = clean_stream(2);
        let mut r = RecoveringReader::new(&buf[..]);
        for read in 1..=2 {
            r.next().unwrap().unwrap();
            assert_eq!(r.report().records_read, read);
        }
        assert!(r.next().is_none());
        assert_eq!(outcomes(r.report()), (2, 0, 0));
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut r = RecoveringReader::new(&[][..]);
        assert!(r.next().is_none());
        let report = r.into_report();
        assert!(report.is_clean());
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut buf = clean_stream(1);
        buf.truncate(6); // mid-header
        let mut r = RecoveringReader::new(&buf[..]);
        match r.next() {
            Some(Err(MrtError::Truncated { context, needed })) => {
                assert_eq!((context, needed), ("MRT header", 6));
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(r.next().is_none());
        let report = r.into_report();
        assert_eq!(outcomes(&report), (0, 0, 1));
        assert_eq!(report.errors.truncated, 1);
        assert_eq!((report.bytes_skipped, report.bytes_read), (6, 6));
    }

    #[test]
    fn truncated_body_is_an_error() {
        // A good record, then one cut short at EOF: the first comes back,
        // the second is a truncation error, and the stream ends there.
        let mut buf = clean_stream(2);
        buf.truncate(buf.len() - 2);
        let mut r = RecoveringReader::new(&buf[..]);
        assert_eq!(r.next().unwrap().unwrap().timestamp, 0);
        assert!(matches!(r.next(), Some(Err(MrtError::Truncated { .. }))));
        assert!(r.next().is_none());
        assert_eq!(outcomes(&r.into_report()), (1, 0, 1));
    }

    #[test]
    fn truncated_body_reports_accurate_needed() {
        // The header claims a body longer than what remains: `needed` must
        // be exactly the missing byte count, not the whole body length.
        let mut buf = clean_stream(1);
        let body_len = buf.len() - 12;
        buf.truncate(buf.len() - 5); // 5 body bytes missing
        let mut r = RecoveringReader::new(&buf[..]);
        match r.next() {
            Some(Err(MrtError::Truncated { context, needed })) => {
                assert_eq!(context, "MRT record body");
                assert_eq!(needed, 5);
                assert!(needed < body_len);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(r.next().is_none());
        // Truncation is accounted separately from body-level skips.
        let report = r.into_report();
        assert_eq!(outcomes(&report), (0, 0, 1));
        assert_eq!(report.bytes_skipped, report.bytes_read);
    }

    #[test]
    fn oversized_length_field_is_truncation_not_skip() {
        // A header whose length field exceeds the remaining stream entirely.
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_be_bytes()); // timestamp
        buf.extend_from_slice(&13u16.to_be_bytes()); // TABLE_DUMP_V2
        buf.extend_from_slice(&2u16.to_be_bytes()); // RIB_IPV4_UNICAST
        buf.extend_from_slice(&1000u32.to_be_bytes()); // body "length"
        buf.extend_from_slice(&[0xAB; 24]); // only 24 bytes follow
        let mut r = RecoveringReader::new(&buf[..]);
        match r.next() {
            Some(Err(MrtError::Truncated { needed, .. })) => assert_eq!(needed, 1000 - 24),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(r.next().is_none());
        let report = r.into_report();
        assert_eq!(outcomes(&report), (0, 0, 1));
        assert_eq!(report.errors.truncated, 1);
        assert_eq!(report.bytes_skipped, buf.len() as u64);
    }

    #[test]
    fn unsupported_record_is_skippable() {
        // A good record, an unknown-type record, then another good one:
        // the reader reports the middle error, skips it by its length and
        // keeps going without a resync.
        let mut buf = clean_stream(1);
        buf.extend_from_slice(&unsupported_record(2));
        let mut w = MrtWriter::new(&mut buf);
        w.write_record(3, &state_change()).unwrap();
        let mut r = RecoveringReader::new(&buf[..]);
        assert!(r.next().unwrap().is_ok());
        assert!(matches!(r.next(), Some(Err(MrtError::Unsupported { .. }))));
        assert_eq!(r.next().unwrap().unwrap().timestamp, 3);
        assert!(r.next().is_none());
        let report = r.into_report();
        assert_eq!(outcomes(&report), (2, 1, 0));
        assert_eq!(report.errors.unsupported, 1);
        assert_eq!((report.resync_events, report.bytes_skipped), (0, 16));
    }

    #[test]
    fn counters_partition_outcomes() {
        // good, unsupported, good, truncated: each outcome lands in exactly
        // one counter.
        let mut buf = clean_stream(1);
        buf.extend_from_slice(&unsupported_record(2));
        let mut w = MrtWriter::new(&mut buf);
        w.write_record(3, &state_change()).unwrap();
        let tail = buf.len();
        MrtWriter::new(&mut buf)
            .write_record(4, &state_change())
            .unwrap();
        buf.truncate(tail + 13); // cut the last record mid-body
        let mut r = RecoveringReader::new(&buf[..]);
        let oks: Vec<bool> = r.by_ref().map(|item| item.is_ok()).collect();
        assert_eq!(oks, vec![true, false, true, false]);
        let report = r.into_report();
        assert_eq!(outcomes(&report), (2, 1, 1));
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
    }

    #[test]
    fn resyncs_past_interleaved_garbage() {
        let mut buf = clean_stream(3);
        let one = clean_stream(1);
        // Garbage that cannot be mistaken for a header, then a real record.
        buf.extend_from_slice(&[0xFF; 37]);
        buf.extend_from_slice(&one);
        let mut r = RecoveringReader::new(&buf[..]);
        let decoded = r.by_ref().filter(|x| x.is_ok()).count();
        assert_eq!(decoded, 4, "all real records recovered");
        let report = r.report();
        assert_eq!(report.resync_events, 1);
        assert_eq!(report.bytes_skipped, 37);
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
    }

    #[test]
    fn recovers_after_mid_record_truncation() {
        let first = clean_stream(1);
        let mut buf = first[..first.len() - 7].to_vec(); // cut record 0 short
        buf.extend_from_slice(&clean_stream(2));
        let mut r = RecoveringReader::new(&buf[..]);
        let results: Vec<bool> = r.by_ref().map(|x| x.is_ok()).collect();
        // One framing error surfaced, both following records recovered.
        assert_eq!(results.iter().filter(|ok| **ok).count(), 2);
        assert!(r.report().resync_events >= 1);
        assert_eq!(r.report().records_read, 2);
    }

    #[test]
    fn truncated_tail_is_counted_not_fatal_looping() {
        let mut buf = clean_stream(2);
        buf.truncate(buf.len() - 3);
        let mut r = RecoveringReader::new(&buf[..]);
        let oks = r.by_ref().filter(|x| x.is_ok()).count();
        assert_eq!(oks, 1);
        let report = r.report();
        assert_eq!(report.records_truncated, 1);
        assert_eq!(report.errors.truncated, 1);
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
    }

    #[test]
    fn error_budget_stops_the_stream() {
        let clean = clean_stream(50);
        let inj = FaultInjector::new(FaultConfig {
            seed: 5,
            rate: 0.5,
            kinds: vec![FaultKind::UnknownType],
        });
        let (corrupted, log) = inj.corrupt(&clean);
        assert_eq!(log.count(), 25);
        let mut r = RecoveringReader::with_config(
            &corrupted[..],
            RecoverConfig {
                max_errors: Some(3),
                ..RecoverConfig::default()
            },
        );
        let mut saw_budget = false;
        for item in r.by_ref() {
            if matches!(item, Err(MrtError::BudgetExceeded { limit: 3 })) {
                saw_budget = true;
            }
        }
        assert!(saw_budget);
        let report = r.into_report();
        assert_eq!(report.errors.budget_exceeded, 1);
        assert_eq!(report.errors.unsupported, 4); // limit + the one that tripped it
        assert!(report.aborted.is_some());
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
    }

    #[test]
    fn oversized_length_field_does_not_swallow_the_stream() {
        let mut buf = clean_stream(5);
        // Inflate record 2's length field by 20 bytes: its "body" now eats
        // record 3's header, and decode (or framing) must recover record 4.
        let rec_len = clean_stream(1).len();
        let at = 2 * rec_len + 8;
        let body_len = (rec_len - 12) as u32;
        buf[at..at + 4].copy_from_slice(&(body_len + 20).to_be_bytes());
        let mut r = RecoveringReader::new(&buf[..]);
        let oks: Vec<u32> = r
            .by_ref()
            .filter_map(|x| x.ok().map(|t| t.timestamp))
            .collect();
        assert!(
            oks.len() >= 3,
            "records before and after the damage must survive: {oks:?}"
        );
        assert!(oks.contains(&4), "resync must reach the last record");
        let report = r.report();
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
        assert!(report.resync_events >= 1);
    }

    #[test]
    fn every_fault_kind_terminates_and_accounts_bytes() {
        let clean = clean_stream(60);
        for (i, &kind) in crate::faults::ALL_FAULT_KINDS.iter().enumerate() {
            let inj = FaultInjector::new(FaultConfig {
                seed: 100 + i as u64,
                rate: 0.3,
                kinds: vec![kind],
            });
            let (corrupted, _) = inj.corrupt(&clean);
            let mut r = RecoveringReader::new(&corrupted[..]);
            let mut items = 0u64;
            for _ in r.by_ref() {
                items += 1;
                assert!(items < 100_000, "{kind:?}: runaway iteration");
            }
            let report = r.into_report();
            assert_eq!(
                report.bytes_ok + report.bytes_skipped,
                report.bytes_read,
                "{kind:?}: byte accounting must balance"
            );
            assert_eq!(report.bytes_read, corrupted.len() as u64, "{kind:?}");
            assert!(report.records_read > 0, "{kind:?}: most records survive");
        }
    }

    #[test]
    fn heavy_corruption_still_terminates() {
        let clean = clean_stream(40);
        let (corrupted, _) = corrupt_stream(&clean, 42, 1.0);
        let mut r = RecoveringReader::new(&corrupted[..]);
        let n = r.by_ref().count();
        assert!(n <= corrupted.len() + 1);
        let report = r.into_report();
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
    }

    #[test]
    fn report_merge_sums_counts() {
        let mut a = IngestReport {
            records_read: 3,
            bytes_ok: 100,
            bytes_read: 120,
            bytes_skipped: 20,
            ..IngestReport::default()
        };
        let b = IngestReport {
            records_read: 2,
            resync_events: 1,
            bytes_ok: 50,
            bytes_read: 60,
            bytes_skipped: 10,
            aborted: Some("x".into()),
            ..IngestReport::default()
        };
        a.merge(&b);
        assert_eq!(a.records_read, 5);
        assert_eq!(a.resync_events, 1);
        assert_eq!(a.bytes_read, 180);
        assert_eq!(a.aborted.as_deref(), Some("x"));
        assert!(a.summary().contains("5 records decoded"));
    }

    #[test]
    fn recording_reports_one_by_one_records_their_merge() {
        let aborted = IngestReport {
            records_read: 2,
            bytes_read: 60,
            bytes_ok: 60,
            aborted: Some("x".into()),
            ..IngestReport::default()
        };
        let clean = IngestReport {
            records_read: 3,
            bytes_read: 90,
            bytes_ok: 80,
            bytes_skipped: 10,
            ..IngestReport::default()
        };
        let mut merged = aborted.clone();
        merged.merge(&clean);
        let (one_by_one, at_once) = (
            bgp_types::MetricsRegistry::new(),
            bgp_types::MetricsRegistry::new(),
        );
        aborted.record_metrics(&one_by_one);
        clean.record_metrics(&one_by_one);
        merged.record_metrics(&at_once);
        let snapshot = one_by_one.snapshot();
        assert_eq!(snapshot, at_once.snapshot());
        assert_eq!(snapshot.gauges["ingest/aborted"], 1);
        assert_eq!(snapshot.counters["ingest/records_read"], 5);
    }
}
