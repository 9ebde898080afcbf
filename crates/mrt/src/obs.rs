//! Bridging [`Observation`]s and MRT files.
//!
//! The simulator serializes its collector state through these functions and
//! the analysis pipeline reads it back, so every experiment exercises the
//! full wire path (RIB dumps like RouteViews `rib.*.bz2` files, update
//! streams like `updates.*.bz2`).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bgp_types::par::{effective_threads, try_par_map_indexed};
use bgp_types::span;
use bgp_types::store::{ObservationSink, ObservationStore};
use bgp_types::{Asn, Observation, Prefix, RouteAttrs, Telemetry};

use crate::bgpmsg::BgpMessage;
use crate::error::MrtError;
use crate::faults::{FlakyConfig, FlakyReader};
use crate::readahead::Readahead;
use crate::records::{
    MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibSnapshot, TimestampedRecord,
};
use crate::recover::{IngestReport, RecoverConfig, RecoveringReader};
use crate::retry::{RetryPolicy, RetryingReader};
use crate::view::{EntryPolicy, RecordScratch};
use crate::writer::MrtWriter;

/// Synthesize a stable address for vantage point number `idx`.
fn vp_addr(idx: usize) -> Ipv4Addr {
    // 172.16.0.0/12 private space: room for ~1M vantage points.
    let n = idx as u32;
    Ipv4Addr::new(
        172,
        (16 + (n >> 16)) as u8,
        ((n >> 8) & 0xFF) as u8,
        (n & 0xFF) as u8,
    )
}

/// Write a `TABLE_DUMP_V2` RIB dump of the observations: one
/// `PEER_INDEX_TABLE` followed by one RIB record per prefix.
///
/// If several observations share a `(vantage point, prefix)` pair, the
/// latest by timestamp wins — exactly how a RIB snapshot collapses updates.
/// Returns the number of MRT records written.
pub fn write_rib_dump<W: Write>(
    out: W,
    timestamp: u32,
    observations: &[Observation],
) -> Result<u64, MrtError> {
    let mut vps: Vec<Asn> = observations.iter().map(|o| o.vp).collect();
    vps.sort_unstable();
    vps.dedup();
    let vp_index: BTreeMap<Asn, u16> = vps
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u16))
        .collect();

    let table = PeerIndexTable {
        collector_bgp_id: Ipv4Addr::new(192, 0, 2, 1),
        view_name: String::new(),
        peers: vps
            .iter()
            .enumerate()
            .map(|(i, &asn)| PeerEntry {
                bgp_id: vp_addr(i),
                addr: IpAddr::V4(vp_addr(i)),
                asn,
            })
            .collect(),
    };

    // Latest observation per (prefix, vp); BTreeMap gives deterministic
    // prefix order for the RIB records.
    let mut by_prefix: BTreeMap<Prefix, BTreeMap<u16, &Observation>> = BTreeMap::new();
    for obs in observations {
        let idx = vp_index[&obs.vp];
        let slot = by_prefix
            .entry(obs.prefix)
            .or_default()
            .entry(idx)
            .or_insert(obs);
        if obs.time >= slot.time {
            *slot = obs;
        }
    }

    let mut writer = MrtWriter::new(out);
    writer.write_record(timestamp, &MrtRecord::PeerIndexTable(table))?;
    for (sequence, (prefix, entries)) in by_prefix.into_iter().enumerate() {
        let rib = RibSnapshot {
            sequence: sequence as u32,
            prefix,
            entries: entries
                .into_iter()
                .map(|(peer_index, obs)| {
                    let mut route = RouteAttrs::originated(
                        obs.path.clone(),
                        IpAddr::V4(vp_addr(peer_index as usize)),
                    );
                    route.communities = obs.communities.clone();
                    route.large_communities = obs.large_communities.clone();
                    RibEntry {
                        peer_index,
                        originated_time: obs.time,
                        route,
                    }
                })
                .collect(),
        };
        writer.write_record(timestamp, &MrtRecord::Rib(rib))?;
    }
    writer.flush()?;
    Ok(writer.records_written())
}

/// Write a `BGP4MP` update stream: one UPDATE record per observation, in
/// input order (callers sort by time for realistic archives).
pub fn write_update_stream<W: Write>(
    out: W,
    collector_asn: Asn,
    observations: &[Observation],
) -> Result<u64, MrtError> {
    let mut vps: Vec<Asn> = observations.iter().map(|o| o.vp).collect();
    vps.sort_unstable();
    vps.dedup();
    let vp_index: BTreeMap<Asn, usize> = vps.iter().enumerate().map(|(i, &a)| (a, i)).collect();

    let collector_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1));
    let mut writer = MrtWriter::new(out);
    for obs in observations {
        let mut route =
            RouteAttrs::originated(obs.path.clone(), IpAddr::V4(vp_addr(vp_index[&obs.vp])));
        route.communities = obs.communities.clone();
        route.large_communities = obs.large_communities.clone();
        writer.write_update(
            obs.time,
            obs.vp,
            collector_asn,
            IpAddr::V4(vp_addr(vp_index[&obs.vp])),
            collector_addr,
            &route,
            std::slice::from_ref(&obs.prefix),
            &[],
        )?;
    }
    writer.flush()?;
    Ok(writer.records_written())
}

/// Fold one owned record into an [`ObservationSink`]: the owned-decode
/// path behind the [`read_observations_resilient_reference`] oracle.
/// Returns the number of RIB entries dropped because their peer index
/// falls outside the peer table.
fn accumulate<S: ObservationSink>(
    rec: TimestampedRecord,
    peers: &mut Vec<PeerEntry>,
    sink: &mut S,
) -> u64 {
    let mut dropped = 0u64;
    match rec.record {
        MrtRecord::PeerIndexTable(t) => *peers = t.peers,
        MrtRecord::Rib(rib) => {
            for entry in rib.entries {
                let Some(peer) = peers.get(entry.peer_index as usize) else {
                    dropped += 1;
                    continue;
                };
                sink.push_observation(Observation {
                    vp: peer.asn,
                    prefix: rib.prefix,
                    path: entry.route.as_path,
                    communities: entry.route.communities,
                    large_communities: entry.route.large_communities,
                    time: entry.originated_time,
                });
            }
        }
        MrtRecord::Message(m) => {
            if let BgpMessage::Update(u) = m.message {
                if let Some(attrs) = u.attrs {
                    for prefix in u.announced.iter().chain(attrs.mp_announced.iter()) {
                        sink.push_observation(Observation {
                            vp: m.peer_asn,
                            prefix: *prefix,
                            path: attrs.route.as_path.clone(),
                            communities: attrs.route.communities.clone(),
                            large_communities: attrs.route.large_communities.clone(),
                            time: rec.timestamp,
                        });
                    }
                }
            }
        }
        MrtRecord::TableDump(t) => {
            sink.push_observation(Observation {
                vp: t.peer_asn,
                prefix: t.prefix,
                path: t.route.as_path,
                communities: t.route.communities,
                large_communities: t.route.large_communities,
                time: t.originated_time,
            });
        }
        MrtRecord::StateChange(_) => {}
    }
    dropped
}

/// Read observations back from an MRT stream containing RIB dumps and/or
/// update streams: [`StreamDecoder`] drained under the strict policy, so
/// the first error of any kind (I/O, framing, an undecodable body, an
/// unresolvable peer index) fails the read. A convenience for tests and
/// small tools reading their own output: ingestion proper goes through
/// [`read_files`].
pub fn read_observations<R: Read>(input: R) -> Result<Vec<Observation>, MrtError> {
    let mut observations = Vec::new();
    let mut decoder = StreamDecoder::new(input, RecoverConfig::default());
    decoder.policy = EntryPolicy::Abort;
    while let Some(step) = decoder.next_record(&mut observations) {
        step?;
    }
    Ok(observations)
}

/// Lenient ingestion of one stream into any [`ObservationSink`]: survive
/// framing damage, truncation and semantically invalid entries, and return
/// an exact [`IngestReport`] of everything that could not be decoded (the
/// salvaged observations are in the sink).
///
/// Never fails: I/O errors and an exhausted error budget stop the read
/// early but are reported through [`IngestReport::aborted`]. RIB entries
/// whose peer index falls outside the peer table are dropped individually
/// and counted under `errors.malformed` (their bytes stay in `bytes_ok`,
/// since the record frame itself decoded). This is [`StreamDecoder`]
/// drained to the end.
pub fn read_observations_resilient_into<R: Read, S: ObservationSink>(
    input: R,
    cfg: &RecoverConfig,
    sink: &mut S,
) -> IngestReport {
    let mut decoder = StreamDecoder::new(input, cfg.clone());
    while decoder.next_record(sink).is_some() {}
    decoder.report()
}

/// The owned-decode reference implementation of
/// [`read_observations_resilient_into`]: identical semantics, but every
/// record is materialized through [`crate::records::decode_body`] and
/// folded from the owned tree.
///
/// This exists as the oracle for the differential tests that pin the
/// zero-copy view decoder bit-identical to the owned path (same
/// observations, same [`IngestReport`] up to the view-only `arena_bytes`
/// field).
pub fn read_observations_resilient_reference<R: Read, S: ObservationSink>(
    input: R,
    cfg: &RecoverConfig,
    sink: &mut S,
) -> IngestReport {
    let mut reader = RecoveringReader::with_config(input, cfg.clone());
    let mut peers: Vec<PeerEntry> = Vec::new();
    let mut dropped_entries = 0u64;
    for rec in reader.by_ref().flatten() {
        dropped_entries += accumulate(rec, &mut peers, sink);
    }
    let mut report = reader.into_report();
    report.errors.malformed += dropped_entries;
    report
}

/// Record-at-a-time decoding: the one decode loop every ingest path runs.
///
/// It wraps the [`RecoveringReader`] quarantine-and-resync loop and the
/// zero-copy [`RecordScratch`] fold: record bodies are parsed in place into
/// a reusable arena and handed to the sink as borrowed views, with no owned
/// record tree and no per-record heap allocation. [`read_files`] drains one
/// per input file; a daemon instead folds observations *as records arrive*
/// and needs, at any record boundary, the exact byte position everything
/// before which has been folded, which is what a crash-safe checkpoint
/// stores as its resume cursor.
#[derive(Debug)]
pub struct StreamDecoder<R: Read> {
    reader: RecoveringReader<R>,
    peers: Vec<PeerEntry>,
    scratch: RecordScratch,
    /// What an unresolvable peer index does: lenient decoders skip and
    /// count the entry, strict ones fail the record.
    policy: EntryPolicy,
    dropped_entries: u64,
    records_decoded: u64,
}

impl<R: Read> StreamDecoder<R> {
    /// Wrap a byte stream with the given lenient decode policy.
    pub fn new(input: R, cfg: RecoverConfig) -> Self {
        StreamDecoder {
            reader: RecoveringReader::with_config(input, cfg),
            peers: Vec::new(),
            scratch: RecordScratch::new(),
            policy: EntryPolicy::Skip,
            dropped_entries: 0,
            records_decoded: 0,
        }
    }

    /// Decode the next record into `sink`, or quarantine the next damaged
    /// span. Returns `Some(Ok(()))` for a decoded record (its observations,
    /// possibly none, are in the sink), `Some(Err(e))` for a span that was
    /// skipped and counted in the report, and `None` at the end of the
    /// stream: clean EOF, a fatal I/O error, or an exhausted error budget
    /// (distinguished by the report).
    pub fn next_record<S: ObservationSink>(
        &mut self,
        sink: &mut S,
    ) -> Option<Result<(), MrtError>> {
        let scratch = &mut self.scratch;
        let item = self.reader.process_next(|ts, mrt_type, subtype, body| {
            scratch.parse(ts, mrt_type, subtype, body)
        })?;
        Some(item.and_then(|()| {
            self.records_decoded += 1;
            match self.scratch.emit(&mut self.peers, sink, self.policy) {
                Ok(dropped) => {
                    self.dropped_entries += dropped;
                    Ok(())
                }
                Err(e) => {
                    self.dropped_entries += 1;
                    Err(e)
                }
            }
        }))
    }

    /// Records decoded so far.
    pub fn records_decoded(&self) -> u64 {
        self.records_decoded
    }

    /// The frame-aligned resume position: every byte before it has been
    /// decoded (or skipped by resync) and delivered to the sink; every byte
    /// after it is still lookahead. Checkpoints store this as the stream
    /// cursor.
    pub fn consumed_bytes(&self) -> u64 {
        self.reader.report().bytes_read - self.reader.buffered() as u64
    }

    /// The accounting so far, with entry-level drops and the arena's
    /// high-water mark folded in.
    pub fn report(&self) -> IngestReport {
        let mut report = self.reader.report().clone();
        report.errors.malformed += self.dropped_entries;
        report.arena_bytes = self.scratch.arena_bytes();
        report
    }

    /// Stop before the end of the stream: the lookahead already read
    /// counts as skipped, so the byte ledger still balances, and the report
    /// is marked aborted with `why` unless the reader already aborted.
    fn abort(self, why: String) -> IngestReport {
        let mut report = self.report();
        report.bytes_skipped += self.reader.buffered() as u64;
        report.aborted.get_or_insert(why);
        report
    }
}

/// How [`read_files`] treats damage, and its supervision knobs.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Fail a file at its first decode error or unresolvable peer index
    /// (its report is then aborted) instead of skipping, resyncing and
    /// counting. The framing checks, such as the record-length cap in
    /// [`RecoverConfig::max_record_len`], are the lenient reader's.
    pub strict: bool,
    /// Decode policy: error budget and resync bounds.
    pub recover: RecoverConfig,
    /// Retry policy applied to file open and every read.
    pub retry: RetryPolicy,
    /// Fault injection: wrap every file's byte stream in a seeded
    /// [`FlakyReader`] (the per-file seed is `cfg.seed + file index`, so
    /// schedules decorrelate across files). `None` in production.
    pub flaky: Option<FlakyConfig>,
    /// Fault injection: panic (deliberately) inside the worker once this
    /// many records have decoded in one file, simulating a decoder bug so
    /// supervision tests can prove one poisoned worker cannot abort a whole
    /// run. `None` in production.
    pub panic_after_records: Option<u64>,
    /// Files decoded in parallel (`0` = one per CPU).
    pub threads: usize,
}

/// One input file's outcome from [`read_files`].
#[derive(Debug, Clone)]
pub struct FileIngest<S = ObservationStore> {
    /// The input file.
    pub path: PathBuf,
    /// The sink this file decoded into. A strict file that failed holds
    /// what decoded before its first error.
    pub store: S,
    /// This file's ingest accounting. A file that could not even be opened
    /// shows up as an aborted, zero-byte report (the ledger still
    /// balances: `0 + 0 == 0`), never as a panic or a lost slot.
    pub report: IngestReport,
}

/// Open `path` under the retry policy and stack the supervised read chain:
/// `File → BufReader → [FlakyReader] → RetryingReader → Readahead`.
///
/// The retrying reader runs on the readahead producer thread, so transient
/// faults are absorbed (and counted into the shared `retries` counter)
/// while the decode thread keeps draining already-fetched blocks; `blocks`
/// counts delivered readahead blocks for the ingest report.
fn open_supervised(
    path: &Path,
    index: usize,
    opts: &IngestOptions,
    retries: &Arc<AtomicU64>,
    blocks: &Arc<AtomicU64>,
) -> std::io::Result<Readahead> {
    let file = opts.retry.run(retries, || File::open(path))?;
    let base: Box<dyn Read + Send> = match &opts.flaky {
        Some(cfg) => Box::new(FlakyReader::new(
            BufReader::new(file),
            cfg.reseeded(cfg.seed.wrapping_add(index as u64)),
        )),
        None => Box::new(BufReader::new(file)),
    };
    let retrying = RetryingReader::new(base, opts.retry.clone(), retries.clone());
    Ok(Readahead::new(retrying, blocks.clone()))
}

/// Drain one file's [`StreamDecoder`] into a fresh sink under `opts`:
/// the strict policy stops at the first error, and the panic hook fires
/// once `panic_after_records` records have decoded.
fn decode_file<S: ObservationSink + Default>(
    input: impl Read,
    opts: &IngestOptions,
) -> (S, IngestReport) {
    let mut sink = S::default();
    let mut decoder = StreamDecoder::new(input, opts.recover.clone());
    if opts.strict {
        decoder.policy = EntryPolicy::Abort;
    }
    while let Some(step) = decoder.next_record(&mut sink) {
        if let Some(n) = opts.panic_after_records {
            if decoder.records_decoded() >= n {
                panic!("injected fault: panic after {n} decoded records");
            }
        }
        if let (true, Err(e)) = (opts.strict, step) {
            return (sink, decoder.abort(e.to_string()));
        }
    }
    (sink, decoder.report())
}

/// The [`IngestReport`] for a file that produced nothing, with the failure
/// accounted: `why` lands in `aborted`, and the dedicated counters record
/// whether it was an open failure or a captured worker panic.
fn failed_report(why: String, open_error: Option<String>, panic: bool) -> IngestReport {
    let mut report = IngestReport::default();
    if open_error.is_some() {
        report.errors.io = 1;
    }
    report.open_failed = open_error;
    report.panicked = u64::from(panic);
    report.aborted = Some(why);
    report
}

/// Ingest many MRT files into one sink each: the one multi-file reader.
///
/// Each file is decoded sequentially (MRT framing is a byte stream;
/// records cannot be split mid-file) by [`StreamDecoder`]'s loop, but files
/// fan out across `opts.threads` workers. Returns one [`FileIngest`] per
/// input path *in input order* regardless of scheduling, plus the merged
/// [`IngestReport`] (merged in input order, so its `aborted` reason comes
/// from the earliest aborted file). Reads are supervised: transient
/// open/read failures are retried with deterministic backoff (counted in
/// `retries`), a file that cannot be opened after retries is reported as
/// `open_failed`, and a worker panic is captured and reported as a failed
/// file (`panicked`) instead of aborting the process. This never fails; a
/// file that failed, under either policy, has an `aborted` report.
/// Merging the per-file stores in input order (see
/// [`ObservationStore::merge`]) yields exactly what a sequential
/// single-sink read of the concatenated files produces.
///
/// Under observation each file's decode runs inside an `ingest/file` span,
/// the fan-out inside the `ingest` stage, and the merged report lands in
/// the metrics registry under `ingest/*` (see
/// [`IngestReport::record_metrics`]).
pub fn read_files<S: ObservationSink + Default + Send>(
    paths: &[PathBuf],
    opts: &IngestOptions,
    tel: &Telemetry,
) -> (Vec<FileIngest<S>>, IngestReport) {
    let slots = tel.stage("ingest", || {
        try_par_map_indexed(paths.len(), effective_threads(opts.threads), |i| {
            let path = &paths[i];
            let retries = Arc::new(AtomicU64::new(0));
            let blocks = Arc::new(AtomicU64::new(0));
            match open_supervised(path, i, opts, &retries, &blocks) {
                Ok(reader) => {
                    let mut span = span!(tel.tracer, "ingest/file", file = path.display());
                    let (store, mut report) = decode_file::<S>(reader, opts);
                    report.retries += retries.load(Ordering::Relaxed);
                    report.readahead_blocks += blocks.load(Ordering::Relaxed);
                    if span.enabled() {
                        span.set("observations", &store.observation_count());
                        span.set("bytes_read", &report.bytes_read);
                        span.set("bytes_ok", &report.bytes_ok);
                        span.set("records", &report.records_read);
                        span.set("retries", &report.retries);
                        span.set("faults", &report.errors.decode_errors());
                        span.set("resyncs", &report.resync_events);
                        span.set("readahead_blocks", &report.readahead_blocks);
                        span.set("arena_bytes", &report.arena_bytes);
                    }
                    (store, report)
                }
                Err(e) => {
                    let retried = retries.load(Ordering::Relaxed);
                    let why = format!("{e} (after {retried} retry(s))");
                    (
                        S::default(),
                        failed_report(format!("open: {e}"), Some(why), false),
                    )
                }
            }
        })
    });
    let mut merged = IngestReport::default();
    let files: Vec<FileIngest<S>> = slots
        .into_iter()
        .zip(paths)
        .map(|(slot, path)| {
            let (store, report) = slot.unwrap_or_else(|p| {
                let why = format!("worker panicked: {}", p.message);
                (S::default(), failed_report(why, None, true))
            });
            merged.merge(&report);
            FileIngest {
                path: path.clone(),
                store,
                report,
            }
        })
        .collect();
    if let Some(metrics) = tel.registry() {
        merged.record_metrics(metrics);
        metrics.counter("ingest/files").add(paths.len() as u64);
    }
    (files, merged)
}

/// [`read_files`] into per-file [`ObservationStore`]s under the lenient
/// policy `cfg`, default supervision and no telemetry.
pub fn read_observations_parallel_store(
    paths: &[PathBuf],
    cfg: &RecoverConfig,
    threads: usize,
) -> (Vec<FileIngest>, IngestReport) {
    let opts = IngestOptions {
        recover: cfg.clone(),
        threads,
        ..IngestOptions::default()
    };
    read_files(paths, &opts, &Telemetry::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Community;

    fn obs(vp: u32, prefix: &str, path: &str, comms: &[(u16, u16)], time: u32) -> Observation {
        Observation {
            vp: Asn::new(vp),
            prefix: prefix.parse().unwrap(),
            path: path.parse().unwrap(),
            communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
            large_communities: Vec::new(),
            time,
        }
    }

    fn sample() -> Vec<Observation> {
        vec![
            obs(
                64500,
                "10.0.0.0/24",
                "64500 1299 64496",
                &[(1299, 2569)],
                100,
            ),
            obs(
                64501,
                "10.0.0.0/24",
                "64501 7018 1299 64496",
                &[(1299, 2569), (7018, 100)],
                100,
            ),
            obs(
                64500,
                "10.0.1.0/24",
                "64500 3356 64497",
                &[(3356, 35130)],
                100,
            ),
            obs(64501, "2001:db8:5::/48", "64501 3356 64498", &[], 100),
        ]
    }

    #[test]
    fn rib_dump_roundtrip() {
        let observations = sample();
        let mut buf = Vec::new();
        let n = write_rib_dump(&mut buf, 100, &observations).unwrap();
        assert_eq!(n, 1 + 3); // peer table + 3 prefixes
        let mut back = read_observations(&buf[..]).unwrap();
        let mut expected = observations;
        let key = |o: &Observation| (o.prefix, o.vp);
        back.sort_by_key(key);
        expected.sort_by_key(key);
        assert_eq!(back, expected);
    }

    #[test]
    fn rib_dump_keeps_latest_per_vp_prefix() {
        let mut observations = sample();
        let mut newer = observations[0].clone();
        newer.time = 200;
        newer.communities = vec![Community::new(1299, 666)];
        observations.push(newer.clone());
        let mut buf = Vec::new();
        write_rib_dump(&mut buf, 200, &observations).unwrap();
        let back = read_observations(&buf[..]).unwrap();
        let hit: Vec<&Observation> = back
            .iter()
            .filter(|o| o.vp == newer.vp && o.prefix == newer.prefix)
            .collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].communities, newer.communities);
        assert_eq!(hit[0].time, 200);
    }

    #[test]
    fn update_stream_roundtrip() {
        let observations = sample();
        let mut buf = Vec::new();
        let n = write_update_stream(&mut buf, Asn::new(6447), &observations).unwrap();
        assert_eq!(n, 4);
        let back = read_observations(&buf[..]).unwrap();
        assert_eq!(back, observations);
    }

    #[test]
    fn mixed_stream_concatenates() {
        let observations = sample();
        let mut buf = Vec::new();
        write_rib_dump(&mut buf, 100, &observations[..2]).unwrap();
        write_update_stream(&mut buf, Asn::new(6447), &observations[2..]).unwrap();
        let back = read_observations(&buf[..]).unwrap();
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn legacy_table_dump_records_become_observations() {
        use crate::records::{MrtRecord, TableDumpEntry};
        use crate::writer::MrtWriter;
        use bgp_types::RouteAttrs;
        use std::net::IpAddr;

        let mut route = RouteAttrs::originated(
            "7018 1299 64496".parse().unwrap(),
            IpAddr::from([192, 0, 2, 9]),
        );
        route.communities.push(Community::new(1299, 35130));
        let rec = MrtRecord::TableDump(TableDumpEntry {
            view: 0,
            sequence: 1,
            prefix: "10.0.0.0/24".parse().unwrap(),
            status: 1,
            originated_time: 777,
            peer_addr: IpAddr::from([192, 0, 2, 9]),
            peer_asn: Asn::new(7018),
            route,
        });
        let mut wire = Vec::new();
        MrtWriter::new(&mut wire).write_record(777, &rec).unwrap();
        let back = read_observations(&wire[..]).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].vp, Asn::new(7018));
        assert_eq!(back[0].prefix, "10.0.0.0/24".parse().unwrap());
        assert_eq!(back[0].communities, vec![Community::new(1299, 35130)]);
        assert_eq!(back[0].time, 777);
    }

    #[test]
    fn empty_roundtrip() {
        let mut buf = Vec::new();
        write_rib_dump(&mut buf, 1, &[]).unwrap();
        assert_eq!(read_observations(&buf[..]).unwrap(), vec![]);
    }

    /// Four identical update records, so every record has the same length.
    fn uniform_updates() -> (Vec<u8>, usize) {
        let one = vec![obs(
            64500,
            "10.0.0.0/24",
            "64500 1299 64496",
            &[(1299, 1)],
            100,
        )];
        let mut buf = Vec::new();
        write_update_stream(&mut buf, Asn::new(6447), &one).unwrap();
        let rec_len = buf.len();
        for _ in 0..3 {
            write_update_stream(&mut buf, Asn::new(6447), &one).unwrap();
        }
        (buf, rec_len)
    }

    /// One in-memory stream through the per-file decode of [`read_files`].
    fn decode(buf: &[u8], strict: bool) -> (Vec<Observation>, IngestReport) {
        let opts = IngestOptions {
            strict,
            ..IngestOptions::default()
        };
        decode_file(buf, &opts)
    }

    fn resilient(buf: &[u8]) -> (Vec<Observation>, IngestReport) {
        let mut observations = Vec::new();
        let report =
            read_observations_resilient_into(buf, &RecoverConfig::default(), &mut observations);
        (observations, report)
    }

    fn strict_opts(threads: usize) -> IngestOptions {
        IngestOptions {
            strict: true,
            threads,
            ..IngestOptions::default()
        }
    }

    #[test]
    fn strict_aborts_on_first_bad_record() {
        let (mut buf, rec_len) = uniform_updates();
        // Make record 2's MRT type unknown: strict ingest and
        // `read_observations` must fail.
        buf[2 * rec_len + 5] = 0xEE;
        let (back, report) = decode(&buf, true);
        assert_eq!(back.len(), 2, "records before the damage were folded");
        assert_eq!(report.errors.unsupported, 1);
        assert!(report.aborted.as_deref().unwrap().contains("MRT type"));
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
        assert!(read_observations(&buf[..]).is_err());
    }

    #[test]
    fn read_observations_rejects_undecodable_records() {
        // An unsupported record before a valid dump: the strict drain fails
        // on it, while the resilient reader skips it and keeps the dump.
        let observations = vec![obs(64500, "10.0.0.0/24", "64500 1299 64496", &[], 9)];
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&99u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0, 0]);
        write_rib_dump(&mut buf, 9, &observations).unwrap();
        assert!(matches!(
            read_observations(&buf[..]),
            Err(MrtError::Unsupported { .. })
        ));
        let (back, report) = resilient(&buf);
        assert_eq!(back, observations);
        assert_eq!(report.records_skipped, 1);
        assert_eq!(report.errors.unsupported, 1);
    }

    #[test]
    fn strict_matches_default_reader_on_clean_input() {
        let observations = sample();
        let mut buf = Vec::new();
        write_rib_dump(&mut buf, 100, &observations).unwrap();
        let (back, report) = decode(&buf, true);
        assert!(report.is_clean());
        assert_eq!(back, read_observations(&buf[..]).unwrap());
    }

    #[test]
    fn resilient_survives_framing_damage_the_plain_reader_cannot() {
        let (buf, rec_len) = uniform_updates();
        // Drop 5 bytes from the middle of record 0: its length field now
        // points into record 1, so the strict `read_observations` fails
        // (truncation / framing loss), while the resilient reader resyncs.
        let damaged = buf[..rec_len - 5]
            .iter()
            .chain(&buf[rec_len..])
            .copied()
            .collect::<Vec<u8>>();
        assert!(read_observations(&damaged[..]).is_err());
        let (back, report) = resilient(&damaged);
        assert_eq!(back.len(), 3, "records after the damage recovered");
        assert_eq!(report.records_read, 3);
        assert!(report.resync_events >= 1);
        assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
        assert!(report.aborted.is_none());
    }

    #[test]
    fn resilient_drops_rib_entries_with_bad_peer_index() {
        // RIB records with no preceding peer index table: every entry
        // references a missing peer. Entries are dropped one by one and
        // counted; the record frames themselves still decode.
        let observations = sample();
        let mut route = RouteAttrs::originated(
            "64500 1299 64496".parse().unwrap(),
            IpAddr::from([192, 0, 2, 9]),
        );
        route.communities.push(Community::new(1299, 1));
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        for (i, o) in observations.iter().enumerate() {
            let rib = RibSnapshot {
                sequence: i as u32,
                prefix: o.prefix,
                entries: vec![RibEntry {
                    peer_index: 7, // no table loaded: always out of range
                    originated_time: o.time,
                    route: route.clone(),
                }],
            };
            w.write_record(100, &MrtRecord::Rib(rib)).unwrap();
        }
        w.flush().unwrap();
        let _ = w;
        let (back, report) = resilient(&buf);
        assert_eq!(back, vec![]);
        assert_eq!(report.errors.malformed, 4, "one per dropped RIB entry");
        assert_eq!(report.records_read, 4, "record frames still decoded");
        // Strict fails the file at the first unresolvable entry.
        let (_, strict) = decode(&buf, true);
        assert_eq!(strict.errors.malformed, 1);
        assert!(strict.aborted.as_deref().unwrap().contains("peer index 7"));
        assert!(read_observations(&buf[..]).is_err());
    }

    /// Write three distinct single-record archives to a fresh temp dir.
    fn archive_trio(name: &str) -> Vec<PathBuf> {
        let dir = std::env::temp_dir().join(format!("bgp-mrt-par-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (0..3u32)
            .map(|i| {
                let one = vec![obs(
                    64500 + i,
                    "10.0.0.0/24",
                    &format!("{} 1299 64496", 64500 + i),
                    &[(1299, i as u16)],
                    100 + i,
                )];
                let mut buf = Vec::new();
                write_update_stream(&mut buf, Asn::new(6447), &one).unwrap();
                let path = dir.join(format!("updates.{i}.mrt"));
                std::fs::write(&path, buf).unwrap();
                path
            })
            .collect()
    }

    fn read_vecs(paths: &[PathBuf], opts: &IngestOptions) -> Vec<FileIngest<Vec<Observation>>> {
        read_files(paths, opts, &Telemetry::disabled()).0
    }

    #[test]
    fn parallel_read_matches_sequential_at_any_thread_count() {
        let paths = archive_trio("clean");
        let sequential: Vec<Vec<Observation>> = paths
            .iter()
            .map(|p| resilient(&std::fs::read(p).unwrap()).0)
            .collect();
        for threads in [1, 2, 8] {
            let opts = IngestOptions {
                threads,
                ..IngestOptions::default()
            };
            let (files, merged) =
                read_files::<Vec<Observation>>(&paths, &opts, &Telemetry::disabled());
            assert_eq!(files.len(), 3);
            for (file, expected) in files.iter().zip(&sequential) {
                assert_eq!(&file.store, expected, "threads = {threads}");
                assert!(file.report.is_clean());
            }
            assert!(merged.is_clean());
            assert_eq!(merged.records_read, 3);
            assert_eq!(merged.bytes_ok + merged.bytes_skipped, merged.bytes_read);
        }
    }

    #[test]
    fn store_parallel_read_matches_vec_parallel_read() {
        let paths = archive_trio("store");
        let cfg = RecoverConfig::default();
        let (vec_files, vec_merged) = read_files::<Vec<Observation>>(
            &paths,
            &IngestOptions {
                threads: 2,
                ..IngestOptions::default()
            },
            &Telemetry::disabled(),
        );
        for threads in [1, 2, 8] {
            let (store_files, store_merged) =
                read_observations_parallel_store(&paths, &cfg, threads);
            assert_eq!(store_files.len(), vec_files.len());
            let mut folded = ObservationStore::new();
            for (sf, vf) in store_files.iter().zip(&vec_files) {
                assert_eq!(sf.path, vf.path);
                assert_eq!(sf.report, vf.report, "threads = {threads}");
                assert_eq!(sf.store.len(), vf.store.len());
                for (i, o) in vf.store.iter().enumerate() {
                    assert_eq!(sf.store.get(i), *o, "threads = {threads}");
                }
                folded.merge(&sf.store);
            }
            assert_eq!(store_merged, vec_merged);
            // Folding per-file stores in input order reproduces the
            // sequential single-sink read of the concatenated files.
            let all: Vec<Observation> = vec_files
                .iter()
                .flat_map(|f| f.store.iter().cloned())
                .collect();
            assert_eq!(folded.len(), all.len());
            for (i, o) in all.iter().enumerate() {
                assert_eq!(folded.get(i), *o);
            }
        }
    }

    #[test]
    fn sink_readers_match_vec_readers() {
        let observations = sample();
        let mut buf = Vec::new();
        write_rib_dump(&mut buf, 100, &observations).unwrap();
        let via_vec = read_observations(&buf[..]).unwrap();
        let opts = IngestOptions {
            strict: true,
            ..IngestOptions::default()
        };
        let (strict_store, strict_report) = decode_file::<ObservationStore>(&buf[..], &opts);
        assert!(strict_report.is_clean());
        let mut resilient_store = ObservationStore::new();
        let report = read_observations_resilient_into(
            &buf[..],
            &RecoverConfig::default(),
            &mut resilient_store,
        );
        assert!(report.is_clean());
        assert_eq!(strict_store.len(), via_vec.len());
        for (i, o) in via_vec.iter().enumerate() {
            assert_eq!(strict_store.get(i), *o);
            assert_eq!(resilient_store.get(i), *o);
        }
    }

    #[test]
    fn parallel_read_reports_unopenable_file_as_aborted() {
        let mut paths = archive_trio("missing");
        paths.insert(1, paths[0].with_file_name("does-not-exist.mrt"));
        let opts = IngestOptions {
            threads: 2,
            ..IngestOptions::default()
        };
        let (files, merged) = read_files::<Vec<Observation>>(&paths, &opts, &Telemetry::disabled());
        assert_eq!(files.len(), 4);
        assert!(files[1].store.is_empty());
        assert!(files[1].report.aborted.is_some());
        assert_eq!(files[1].report.errors.io, 1);
        // Open failure is distinguished from "file decoded empty": only the
        // missing file carries the open error string.
        assert!(files[1].report.open_failed.is_some());
        assert!(files[0].report.open_failed.is_none());
        // Other files are unaffected; the ledger still balances.
        assert_eq!(files[0].store.len(), 1);
        assert_eq!(merged.records_read, 3);
        assert_eq!(merged.bytes_ok + merged.bytes_skipped, merged.bytes_read);
        assert!(merged.aborted.is_some());
        assert!(merged.open_failed.is_some());
    }

    #[test]
    fn worker_panic_is_isolated_to_its_file() {
        let paths = archive_trio("panic");
        // Give file 1 three records; its worker trips the injected panic
        // at record 2 while the single-record neighbors stay below it.
        let many: Vec<Observation> = (0..3)
            .map(|i| {
                obs(
                    64600 + i,
                    "10.9.0.0/24",
                    "64600 1299 64496",
                    &[(1299, 9)],
                    i,
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_update_stream(&mut buf, Asn::new(6447), &many).unwrap();
        std::fs::write(&paths[1], buf).unwrap();
        for threads in [1, 2, 8] {
            let opts = IngestOptions {
                panic_after_records: Some(2),
                threads,
                ..IngestOptions::default()
            };
            let (files, merged) =
                read_files::<Vec<Observation>>(&paths, &opts, &Telemetry::disabled());
            assert_eq!(files.len(), 3, "threads = {threads}");
            assert!(files[1].store.is_empty());
            assert_eq!(files[1].report.panicked, 1);
            let why = files[1].report.aborted.as_deref().unwrap();
            assert!(why.contains("panicked"), "aborted reason: {why}");
            assert!(why.contains("injected fault"), "payload preserved: {why}");
            // Neighbors are untouched and the run as a whole completed.
            assert_eq!(files[0].store.len(), 1);
            assert_eq!(files[2].store.len(), 1);
            assert_eq!(merged.panicked, 1);
            assert!(merged.aborted.is_some());
            assert!(merged.open_failed.is_none());
        }
    }

    #[test]
    fn parallel_strict_surfaces_panic_as_clean_error() {
        let paths = archive_trio("panic-strict");
        for threads in [1, 2, 8] {
            let opts = IngestOptions {
                panic_after_records: Some(1),
                ..strict_opts(threads)
            };
            let (files, merged) =
                read_files::<Vec<Observation>>(&paths, &opts, &Telemetry::disabled());
            // Every file panics at its first record; each is failed, and
            // the merged reason is the earliest by input order.
            assert!(files.iter().all(|f| f.report.panicked == 1));
            let why = merged.aborted.unwrap();
            assert!(why.contains("panicked"), "threads = {threads}: {why}");
            assert_eq!(files[0].report.aborted.as_deref(), Some(why.as_str()));
        }
    }

    #[test]
    fn flaky_delivery_is_absorbed_by_retries_bit_identically() {
        let paths = archive_trio("flaky");
        let (clean_files, clean_merged) = read_files::<Vec<Observation>>(
            &paths,
            &IngestOptions {
                threads: 2,
                ..IngestOptions::default()
            },
            &Telemetry::disabled(),
        );
        for threads in [1, 2, 8] {
            let (files, merged) = read_files::<Vec<Observation>>(
                &paths,
                &flaky_opts(threads),
                &Telemetry::disabled(),
            );
            for (flaky, clean) in files.iter().zip(&clean_files) {
                assert_eq!(flaky.store, clean.store, "threads = {threads}");
                assert!(flaky.report.aborted.is_none());
            }
            assert!(merged.retries > 0, "faults were actually injected");
            assert!(merged.is_clean(), "retries alone do not dirty a report");
            assert_eq!(merged.records_read, clean_merged.records_read);
            assert_eq!(merged.bytes_ok, clean_merged.bytes_ok);
        }
    }

    /// Tiny archives mean only a handful of read calls per file, so the
    /// rates are cranked high enough that the fixed schedule is certain to
    /// fire (the retry budget absorbs them all).
    fn flaky_opts(threads: usize) -> IngestOptions {
        IngestOptions {
            retry: RetryPolicy {
                max_attempts: 64,
                base_delay: std::time::Duration::ZERO,
                max_delay: std::time::Duration::ZERO,
                per_file_deadline: None,
            },
            flaky: Some(FlakyConfig {
                seed: 7,
                interrupt_rate: 0.45,
                stall_rate: 0.25,
                short_read_rate: 0.25,
            }),
            threads,
            ..IngestOptions::default()
        }
    }

    #[test]
    fn injected_faults_surface_in_metrics_with_exact_counts() {
        use bgp_types::obs::CaptureSink;
        use bgp_types::Tracer;

        let paths = archive_trio("flaky_metrics");
        let sink = Arc::new(CaptureSink::new());
        let tel = Telemetry {
            tracer: Tracer::new(sink.clone()),
            ..Telemetry::with_metrics()
        };
        let (_, merged) = read_files::<ObservationStore>(&paths, &flaky_opts(2), &tel);
        assert!(merged.retries > 0, "faults were actually injected");

        // Every report counter lands in the snapshot with its exact value —
        // the accounting that used to be reachable only via `--report`.
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counters["ingest/retries"], merged.retries);
        assert_eq!(snap.counters["ingest/records_read"], merged.records_read);
        assert_eq!(snap.counters["ingest/bytes_ok"], merged.bytes_ok);
        assert_eq!(snap.counters["ingest/bytes_read"], merged.bytes_read);
        assert_eq!(snap.counters["ingest/errors/io"], merged.errors.io);
        assert_eq!(snap.counters["ingest/worker_panics"], 0);
        assert_eq!(snap.counters["ingest/files"], paths.len() as u64);
        assert_eq!(snap.gauges["ingest/aborted"], 0);

        // One per-file span each, with its own retry count attached, under
        // the ingest stage span.
        let spans = sink.take();
        let files: Vec<_> = spans.iter().filter(|s| s.name == "ingest/file").collect();
        assert_eq!(files.len(), paths.len());
        let per_file_retries: u64 = files
            .iter()
            .map(|s| {
                s.fields
                    .iter()
                    .find(|(k, _)| k == "retries")
                    .expect("retries field")
                    .1
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(per_file_retries, merged.retries);
        assert!(spans.iter().any(|s| s.name == "ingest"));
    }

    #[test]
    fn parallel_strict_fails_on_earliest_bad_file() {
        let paths = archive_trio("strict");
        // Damage the *second* file's MRT type byte.
        let mut bytes = std::fs::read(&paths[1]).unwrap();
        bytes[5] = 0xEE;
        std::fs::write(&paths[1], &bytes).unwrap();
        for threads in [1, 2, 8] {
            let files = read_vecs(&paths, &strict_opts(threads));
            let failed: Vec<bool> = files.iter().map(|f| f.report.aborted.is_some()).collect();
            assert_eq!(failed, [false, true, false], "threads = {threads}");
        }
        // Clean trio succeeds and preserves input order.
        let clean = archive_trio("strict-clean");
        let files = read_vecs(&clean, &strict_opts(8));
        assert_eq!(files.len(), 3);
        for (i, file) in files.iter().enumerate() {
            assert!(file.report.is_clean());
            assert_eq!(file.store.len(), 1);
            assert_eq!(file.store[0].vp, Asn::new(64500 + i as u32));
        }
    }

    #[test]
    fn resilient_report_is_clean_on_clean_input() {
        let observations = sample();
        let mut buf = Vec::new();
        write_rib_dump(&mut buf, 100, &observations).unwrap();
        let (back, report) = resilient(&buf);
        assert_eq!(back.len(), observations.len());
        assert!(report.is_clean());
        assert_eq!(report.bytes_ok, buf.len() as u64);
    }
}
