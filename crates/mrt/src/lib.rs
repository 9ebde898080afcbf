//! MRT (RFC 6396) and BGP (RFC 4271) wire codecs.
//!
//! The paper's pipeline consumes MRT archives published by RouteViews and
//! RIPE RIS: `TABLE_DUMP_V2` RIB snapshots and `BGP4MP` update streams. This
//! crate implements both directions — the simulator *writes* MRT files and
//! the analysis pipeline *reads* them back — so the reproduction exercises
//! the same parse path a real deployment would (cf. `bgpkit-parser`).
//!
//! Layout:
//!
//! * [`nlri`] — RFC 4271 prefix (NLRI) encoding for IPv4 and IPv6.
//! * [`attrs`] — path attribute codec: ORIGIN, AS_PATH (4-byte ASNs),
//!   NEXT_HOP, MED, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES
//!   (RFC 1997), LARGE_COMMUNITIES (RFC 8092), MP_REACH/MP_UNREACH_NLRI
//!   (RFC 4760) for IPv6.
//! * [`bgpmsg`] — BGP message framing and the UPDATE body.
//! * [`records`] — MRT record model: `PEER_INDEX_TABLE`, `RIB_IPV4_UNICAST`,
//!   `RIB_IPV6_UNICAST`, `BGP4MP_MESSAGE_AS4`, `BGP4MP_STATE_CHANGE_AS4`.
//! * [`writer`] — streaming record output over `std::io`.
//! * [`recover`] — the one framing loop: a resynchronizing reader that
//!   survives framing damage (truncation, corrupted lengths, interleaved
//!   garbage) under an error budget and accounts for every byte in a
//!   structured [`IngestReport`]. Every reader of MRT bytes frames through
//!   it: the zero-copy [`obs::StreamDecoder`] that ingestion runs, and the
//!   owned record iterator that `bgpcomm validate` and the parity oracle
//!   use.
//! * [`retry`] — bounded retry with deterministic exponential backoff for
//!   transient I/O (stalls, interrupts), counted into the ingest report.
//! * [`faults`] — deterministic, seeded fault injection for MRT byte
//!   streams *and* their delivery (transient-I/O faults via
//!   [`FlakyReader`], stream-level faults via [`FaultyStream`]), so
//!   robustness is a tested invariant rather than a hope.
//! * [`stream`] — continuous-feed sources behind the [`StreamSource`]
//!   trait, the bounded-queue [`ResumingStream`] delivery layer with
//!   reconnects and backpressure, and the [`FeedServer`] resume protocol.
//!
//! # Example
//!
//! ```
//! use bgp_mrt::{records::MrtRecord, writer::MrtWriter, RecoveringReader};
//! use bgp_mrt::records::{PeerEntry, PeerIndexTable};
//! use std::net::IpAddr;
//!
//! let table = PeerIndexTable {
//!     collector_bgp_id: [192, 0, 2, 1].into(),
//!     view_name: String::new(),
//!     peers: vec![PeerEntry {
//!         bgp_id: [192, 0, 2, 2].into(),
//!         addr: IpAddr::from([192, 0, 2, 2]),
//!         asn: bgp_types::Asn::new(64500),
//!     }],
//! };
//! let mut buf = Vec::new();
//! MrtWriter::new(&mut buf)
//!     .write_record(0, &MrtRecord::PeerIndexTable(table.clone()))
//!     .unwrap();
//! let mut reader = RecoveringReader::new(&buf[..]);
//! let parsed: Vec<_> = reader.by_ref().map(Result::unwrap).collect();
//! assert_eq!(parsed.len(), 1);
//! assert_eq!(parsed[0].record, MrtRecord::PeerIndexTable(table));
//! assert!(reader.report().is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod bgpmsg;
pub mod cursor;
pub mod error;
pub mod faults;
pub mod nlri;
pub mod obs;
pub mod readahead;
pub mod records;
pub mod recover;
pub mod retry;
pub mod stream;
pub mod view;
pub mod writer;

pub use error::{MrtError, MrtErrorKind};
pub use faults::{
    FaultConfig, FaultInjector, FaultKind, FaultLog, FaultyStream, FlakyConfig, FlakyReader,
    StreamFaultConfig, StreamFaultInjector, StreamFaultKind, StreamFaultLog,
};
pub use obs::{FileIngest, IngestOptions, StreamDecoder};
pub use readahead::Readahead;
pub use records::{MrtRecord, TimestampedRecord};
pub use recover::{ErrorCounters, IngestReport, RecoverConfig, RecoveringReader};
pub use retry::{RetryPolicy, RetryingReader};
pub use stream::{
    FaultyFeed, FeedAddr, FeedServer, FeedServerOptions, FileTailFeed, MemoryFeed, ResumingStream,
    SocketFeed, StreamCounters, StreamSource, StreamTuning,
};
pub use view::RecordScratch;
pub use writer::MrtWriter;
