//! Borrowed-view record decoding: the zero-copy hot path.
//!
//! [`crate::records::decode_body`] materializes every record as an owned
//! tree — `Vec<PathSegment>` per AS path, `Vec<Community>` per route — that
//! the observation layer immediately tears apart again. For bulk ingestion
//! that per-record heap churn dominates decode time, so this module parses
//! a record body **in place**: AS paths, community sets, and prefixes land
//! in a reusable [`RecordScratch`] arena (flat arrays, cleared but never
//! shrunk between records) and are handed to the sink as borrowed
//! [`ObservationView`]s. An [`ObservationStore`] sink interns directly from
//! the borrowed slices; nothing record-sized ever hits the allocator in
//! steady state.
//!
//! Correctness contract: this decoder is **bit-identical** to the owned
//! path. It performs exactly the same validation, in the same order, with
//! the same error strings, as `decode_body` + the owned observation fold —
//! the differential proptests in `tests/view_parity.rs` pin that equivalence
//! across the fault matrix. Record types that produce no observations in
//! bulk (peer index tables, state changes) are delegated to the owned
//! decoder outright; they are rare (once per file) and reusing the owned
//! code keeps parity trivially.
//!
//! Decode is two-phase so damage cannot leak: phase one
//! (`RecordScratch::parse`) validates the *whole* record into the arena
//! and a mid-record error discards everything; phase two
//! (`RecordScratch::emit`) pushes views to the sink only after the record
//! proved well-formed — mirroring how the owned path only folds a record
//! that decoded completely.
//!
//! [`ObservationStore`]: bgp_types::store::ObservationStore

use bgp_types::aspath::{SEG_SEQUENCE, SEG_SET};
use bgp_types::store::{ObservationSink, ObservationView};
use bgp_types::{AsPathView, Asn, Community, LargeCommunity, Origin, Prefix};

use crate::attrs::{flag, type_code, AttrCtx};
use crate::cursor::Cursor;
use crate::error::MrtError;
use crate::nlri::{self, Afi};
use crate::records::{
    self, MrtRecord, PeerEntry, SUBTYPE_BGP4MP_MESSAGE, SUBTYPE_BGP4MP_MESSAGE_AS4,
    SUBTYPE_BGP4MP_STATE_CHANGE_AS4, SUBTYPE_PEER_INDEX_TABLE, SUBTYPE_RIB_IPV4_UNICAST,
    SUBTYPE_RIB_IPV6_UNICAST, TYPE_BGP4MP, TYPE_TABLE_DUMP, TYPE_TABLE_DUMP_V2,
};

/// What to do with a semantically invalid entry (e.g. a RIB entry whose
/// peer index points outside the peer table) inside an otherwise decodable
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryPolicy {
    /// Fail the record: strict ingestion and `read_observations`.
    Abort,
    /// Drop the entry, keep the rest of the record and stream.
    Skip,
}

/// Where an entry's vantage point comes from at emit time.
#[derive(Debug, Clone, Copy)]
enum EntryOrigin {
    /// A RIB entry: resolve through the current peer index table.
    Peer(u16),
    /// The record itself named the peer ASN (updates, legacy table dumps).
    Direct(Asn),
}

/// One observation-producing entry parsed from the current record, as
/// ranges into the [`RecordScratch`] arenas.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    origin: EntryOrigin,
    time: u32,
    segs: (u32, u32),
    asns: (u32, u32),
    comms: (u32, u32),
    large: (u32, u32),
    prefixes: (u32, u32),
}

/// What the current record turned out to be.
#[derive(Debug, Default)]
enum ParsedKind {
    /// Nothing to emit (state-less message types, withdrawals).
    #[default]
    Quiet,
    /// A rare record delegated to the owned decoder (peer index table,
    /// state change) — folded owned at emit time.
    Owned(Box<MrtRecord>),
    /// View-parsed entries in the arenas.
    Entries,
}

/// Reusable per-stream decode arena. One instance lives for a whole file:
/// every vector is cleared between records but keeps its capacity, so after
/// the first few records the hot loop allocates nothing.
#[derive(Debug, Default)]
pub struct RecordScratch {
    kind: ParsedKind,
    /// `(tag, ASN count)` segment descriptors, all entries concatenated.
    segs: Vec<(u8, u32)>,
    /// Flat ASN values backing `segs`.
    asns: Vec<u32>,
    comms: Vec<Community>,
    large: Vec<LargeCommunity>,
    prefixes: Vec<Prefix>,
    /// MP_REACH NLRI staging: appended to `prefixes` *after* the plain NLRI
    /// so emission order matches the owned path (announced, then
    /// mp_announced).
    mp_prefixes: Vec<Prefix>,
    entries: Vec<EntryMeta>,
    /// High-water arena footprint in bytes, for the ingest report.
    max_footprint: usize,
}

impl RecordScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// High-water footprint of the arenas in bytes — the whole per-stream
    /// "heap" of the view decoder. Deterministic for a given input.
    pub fn arena_bytes(&self) -> u64 {
        self.max_footprint as u64
    }

    fn footprint(&self) -> usize {
        self.segs.capacity() * std::mem::size_of::<(u8, u32)>()
            + self.asns.capacity() * std::mem::size_of::<u32>()
            + self.comms.capacity() * std::mem::size_of::<Community>()
            + self.large.capacity() * std::mem::size_of::<LargeCommunity>()
            + self.prefixes.capacity() * std::mem::size_of::<Prefix>()
            + self.mp_prefixes.capacity() * std::mem::size_of::<Prefix>()
            + self.entries.capacity() * std::mem::size_of::<EntryMeta>()
    }

    fn clear(&mut self) {
        self.kind = ParsedKind::Quiet;
        self.segs.clear();
        self.asns.clear();
        self.comms.clear();
        self.large.clear();
        self.prefixes.clear();
        self.mp_prefixes.clear();
        self.entries.clear();
    }

    /// Phase one: validate and parse one record body into the arena.
    ///
    /// Mirrors [`records::decode_body`] exactly — same field order, same
    /// checks, same error strings — but without materializing owned
    /// records for the observation-producing types.
    pub(crate) fn parse(
        &mut self,
        timestamp: u32,
        mrt_type: u16,
        subtype: u16,
        body: &[u8],
    ) -> Result<(), MrtError> {
        self.clear();
        let mut cur = Cursor::new(body);
        match (mrt_type, subtype) {
            (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE)
            | (TYPE_BGP4MP, SUBTYPE_BGP4MP_STATE_CHANGE_AS4) => {
                // Rare, observation-free record types: the owned decoder is
                // the parity reference, so just use it (including its
                // trailing-bytes check).
                self.kind =
                    ParsedKind::Owned(Box::new(records::decode_body(mrt_type, subtype, body)?));
                return Ok(());
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) => {
                self.parse_rib(&mut cur, Afi::Ipv4)?;
            }
            (TYPE_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST) => {
                self.parse_rib(&mut cur, Afi::Ipv6)?;
            }
            (TYPE_TABLE_DUMP, afi_raw) => {
                let afi = Afi::from_u16(afi_raw).ok_or(MrtError::Unsupported {
                    context: "TABLE_DUMP subtype (AFI)",
                    value: afi_raw as u32,
                })?;
                self.parse_table_dump(&mut cur, afi)?;
            }
            (TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4 | SUBTYPE_BGP4MP_MESSAGE) => {
                let as4 = subtype == SUBTYPE_BGP4MP_MESSAGE_AS4;
                self.parse_bgp4mp_message(&mut cur, as4, timestamp)?;
            }
            (t, s) => {
                return Err(MrtError::Unsupported {
                    context: "MRT type/subtype",
                    value: ((t as u32) << 16) | s as u32,
                })
            }
        }
        if !cur.is_empty() {
            return Err(MrtError::malformed(
                "MRT record body",
                format!("{} trailing byte(s)", cur.remaining()),
            ));
        }
        self.max_footprint = self.max_footprint.max(self.footprint());
        Ok(())
    }

    /// Phase two: resolve vantage points and push one [`ObservationView`]
    /// per (entry, prefix) into the sink, in the owned path's order.
    ///
    /// Returns the number of entries dropped under [`EntryPolicy::Skip`];
    /// under [`EntryPolicy::Abort`] the first unresolvable peer index
    /// aborts (entries before it have already been pushed, exactly like the
    /// owned fold).
    pub(crate) fn emit<S: ObservationSink>(
        &mut self,
        peers: &mut Vec<PeerEntry>,
        sink: &mut S,
        policy: EntryPolicy,
    ) -> Result<u64, MrtError> {
        match std::mem::take(&mut self.kind) {
            ParsedKind::Quiet => Ok(0),
            ParsedKind::Owned(rec) => {
                if let MrtRecord::PeerIndexTable(t) = *rec {
                    *peers = t.peers;
                }
                Ok(0)
            }
            ParsedKind::Entries => {
                let mut dropped = 0u64;
                for e in &self.entries {
                    let vp = match e.origin {
                        EntryOrigin::Direct(asn) => asn,
                        EntryOrigin::Peer(idx) => match peers.get(idx as usize) {
                            Some(peer) => peer.asn,
                            None if policy == EntryPolicy::Skip => {
                                dropped += 1;
                                continue;
                            }
                            None => {
                                return Err(MrtError::malformed(
                                    "RIB entry",
                                    format!("peer index {idx} out of range"),
                                ))
                            }
                        },
                    };
                    let path = AsPathView {
                        segs: &self.segs[e.segs.0 as usize..e.segs.1 as usize],
                        asns: &self.asns[e.asns.0 as usize..e.asns.1 as usize],
                    };
                    let communities = &self.comms[e.comms.0 as usize..e.comms.1 as usize];
                    let large_communities = &self.large[e.large.0 as usize..e.large.1 as usize];
                    for prefix in &self.prefixes[e.prefixes.0 as usize..e.prefixes.1 as usize] {
                        sink.push_observation_view(&ObservationView {
                            vp,
                            prefix: *prefix,
                            path,
                            communities,
                            large_communities,
                            time: e.time,
                        });
                    }
                }
                Ok(dropped)
            }
        }
    }

    fn parse_rib(&mut self, cur: &mut Cursor<'_>, afi: Afi) -> Result<(), MrtError> {
        let _sequence = cur.u32("RIB sequence")?;
        let prefix = nlri::decode_prefix(cur, afi)?;
        self.prefixes.push(prefix);
        let count = cur.u16("RIB entry count")? as usize;
        for _ in 0..count {
            let peer_index = cur.u16("RIB peer index")?;
            let originated_time = cur.u32("RIB originated time")?;
            let alen = cur.u16("RIB attribute length")? as usize;
            let mut acur = cur.slice(alen, "RIB attributes")?;
            let attrs = self.parse_attrs(&mut acur, AttrCtx::TABLE_DUMP_V2)?;
            self.entries.push(EntryMeta {
                origin: EntryOrigin::Peer(peer_index),
                time: originated_time,
                prefixes: (0, 1),
                ..attrs
            });
        }
        self.kind = ParsedKind::Entries;
        Ok(())
    }

    fn parse_table_dump(&mut self, cur: &mut Cursor<'_>, afi: Afi) -> Result<(), MrtError> {
        let _view = cur.u16("TABLE_DUMP view")?;
        let _sequence = cur.u16("TABLE_DUMP sequence")?;
        let addr = nlri::decode_addr(cur, afi)?;
        let len = cur.u8("TABLE_DUMP prefix length")?;
        let prefix = Prefix::new(addr, len)
            .ok_or_else(|| MrtError::malformed("TABLE_DUMP prefix", format!("/{len}")))?;
        let _status = cur.u8("TABLE_DUMP status")?;
        let originated_time = cur.u32("TABLE_DUMP originated time")?;
        let _peer_addr = nlri::decode_addr(cur, afi)?;
        let peer_asn = Asn::new(cur.u16("TABLE_DUMP peer ASN")? as u32);
        let alen = cur.u16("TABLE_DUMP attribute length")? as usize;
        let mut acur = cur.slice(alen, "TABLE_DUMP attributes")?;
        let attrs = self.parse_attrs(&mut acur, AttrCtx::BGP4MP_AS2)?;
        self.prefixes.push(prefix);
        self.entries.push(EntryMeta {
            origin: EntryOrigin::Direct(peer_asn),
            time: originated_time,
            prefixes: (self.prefixes.len() as u32 - 1, self.prefixes.len() as u32),
            ..attrs
        });
        self.kind = ParsedKind::Entries;
        Ok(())
    }

    fn parse_bgp4mp_message(
        &mut self,
        cur: &mut Cursor<'_>,
        as4: bool,
        timestamp: u32,
    ) -> Result<(), MrtError> {
        // Endpoints, exactly as records::decode_bgp4mp_endpoints.
        let peer_asn = if as4 {
            Asn::new(cur.u32("peer ASN")?)
        } else {
            Asn::new(cur.u16("peer ASN")? as u32)
        };
        let _local_asn = if as4 {
            Asn::new(cur.u32("local ASN")?)
        } else {
            Asn::new(cur.u16("local ASN")? as u32)
        };
        let _if_index = cur.u16("interface index")?;
        let afi_raw = cur.u16("BGP4MP AFI")?;
        let afi = Afi::from_u16(afi_raw).ok_or(MrtError::Unsupported {
            context: "BGP4MP AFI",
            value: afi_raw as u32,
        })?;
        let _peer_addr = nlri::decode_addr(cur, afi)?;
        let _local_addr = nlri::decode_addr(cur, afi)?;
        let ctx = if as4 {
            AttrCtx::BGP4MP_AS4
        } else {
            AttrCtx::BGP4MP_AS2
        };

        // BGP message framing, exactly as bgpmsg::decode_message.
        let marker = cur.take(16, "BGP marker")?;
        if marker != [0xFF; 16] {
            return Err(MrtError::malformed("BGP marker", "not all-ones"));
        }
        let length = cur.u16("BGP length")? as usize;
        const HEADER_LEN: usize = crate::bgpmsg::HEADER_LEN;
        if length < HEADER_LEN {
            return Err(MrtError::malformed(
                "BGP length",
                format!("{length} < {HEADER_LEN}"),
            ));
        }
        let msg_type = cur.u8("BGP type")?;
        let mut body = cur.slice(length - HEADER_LEN, "BGP body")?;
        match msg_type {
            1 => {
                let _version = body.u8("OPEN version")?;
                let _asn = body.u16("OPEN ASN")?;
                let _hold_time = body.u16("OPEN hold time")?;
                let _id = body.take(4, "OPEN BGP id")?;
                let opt_len = body.u8("OPEN optional parameter length")? as usize;
                let _ = body.take(opt_len, "OPEN optional parameters")?;
            }
            2 => {
                let wlen = body.u16("withdrawn routes length")? as usize;
                let mut wcur = body.slice(wlen, "withdrawn routes")?;
                while !wcur.is_empty() {
                    let _ = nlri::decode_prefix(&mut wcur, Afi::Ipv4)?;
                }
                let alen = body.u16("path attribute length")? as usize;
                let mut acur = body.slice(alen, "path attributes")?;
                let attrs = if alen == 0 {
                    None
                } else {
                    Some(self.parse_attrs(&mut acur, ctx)?)
                };
                let nlri_start = self.prefixes.len();
                while !body.is_empty() {
                    let p = nlri::decode_prefix(&mut body, Afi::Ipv4)?;
                    self.prefixes.push(p);
                }
                // Observation order in the owned fold is plain NLRI first,
                // then MP_REACH NLRI — the staging vec preserves that even
                // though MP_REACH parsed before the trailing NLRI field.
                self.prefixes.append(&mut self.mp_prefixes);
                if let Some(attrs) = attrs {
                    self.entries.push(EntryMeta {
                        origin: EntryOrigin::Direct(peer_asn),
                        time: timestamp,
                        prefixes: (nlri_start as u32, self.prefixes.len() as u32),
                        ..attrs
                    });
                    self.kind = ParsedKind::Entries;
                }
            }
            3 => {
                let _code = body.u8("NOTIFICATION code")?;
                let _subcode = body.u8("NOTIFICATION subcode")?;
                let _ = body.take(body.remaining(), "NOTIFICATION data")?;
            }
            4 => {
                if !body.is_empty() {
                    return Err(MrtError::malformed("KEEPALIVE", "non-empty body"));
                }
            }
            other => {
                return Err(MrtError::Unsupported {
                    context: "BGP message type",
                    value: other as u32,
                })
            }
        }
        Ok(())
    }

    /// Parse one attribute block into the arenas, mirroring
    /// [`crate::attrs::decode_attrs`] check for check. Returns an
    /// [`EntryMeta`] template holding the path/community ranges (origin,
    /// time, and prefixes are filled by the caller).
    ///
    /// Duplicate-attribute semantics match the owned decoder: a second
    /// AS_PATH (or MP_REACH) *replaces* the first, while COMMUNITIES and
    /// LARGE_COMMUNITIES *append*.
    fn parse_attrs(&mut self, cur: &mut Cursor<'_>, ctx: AttrCtx) -> Result<EntryMeta, MrtError> {
        let seg_mark = self.segs.len();
        let asn_mark = self.asns.len();
        let comm_mark = self.comms.len();
        let large_mark = self.large.len();
        let mp_mark = self.mp_prefixes.len();
        while !cur.is_empty() {
            let flags = cur.u8("attribute flags")?;
            let code = cur.u8("attribute type")?;
            let len = if flags & flag::EXTENDED_LENGTH != 0 {
                cur.u16("attribute extended length")? as usize
            } else {
                cur.u8("attribute length")? as usize
            };
            let mut body = cur.slice(len, "attribute body")?;
            match code {
                type_code::ORIGIN => {
                    let v = body.u8("ORIGIN")?;
                    Origin::from_u8(v)
                        .ok_or_else(|| MrtError::malformed("ORIGIN", format!("value {v}")))?;
                }
                type_code::AS_PATH => {
                    // Last AS_PATH wins, like the owned assignment.
                    self.segs.truncate(seg_mark);
                    self.asns.truncate(asn_mark);
                    while !body.is_empty() {
                        let ty = body.u8("AS_PATH segment type")?;
                        let count = body.u8("AS_PATH segment count")? as usize;
                        for _ in 0..count {
                            let v = if ctx.as4 {
                                body.u32("AS_PATH ASN")?
                            } else {
                                body.u16("AS_PATH ASN")? as u32
                            };
                            self.asns.push(v);
                        }
                        let tag = match ty {
                            1 => SEG_SET,
                            2 => SEG_SEQUENCE,
                            other => {
                                return Err(MrtError::malformed(
                                    "AS_PATH",
                                    format!("unknown segment type {other}"),
                                ))
                            }
                        };
                        self.segs.push((tag, count as u32));
                    }
                }
                type_code::NEXT_HOP => {
                    let _ = nlri::decode_addr(&mut body, Afi::Ipv4)?;
                }
                type_code::MED => {
                    let _ = body.u32("MED")?;
                }
                type_code::LOCAL_PREF => {
                    let _ = body.u32("LOCAL_PREF")?;
                }
                type_code::ATOMIC_AGGREGATE => {}
                type_code::AGGREGATOR => {
                    let _asn = if ctx.as4 {
                        body.u32("AGGREGATOR ASN")?
                    } else {
                        body.u16("AGGREGATOR ASN")? as u32
                    };
                    let _ = nlri::decode_addr(&mut body, Afi::Ipv4)?;
                }
                type_code::COMMUNITIES => {
                    if len % 4 != 0 {
                        return Err(MrtError::malformed(
                            "COMMUNITIES",
                            format!("length {len} not a multiple of 4"),
                        ));
                    }
                    while !body.is_empty() {
                        self.comms
                            .push(Community::from_u32(body.u32("COMMUNITIES")?));
                    }
                }
                type_code::LARGE_COMMUNITIES => {
                    if len % 12 != 0 {
                        return Err(MrtError::malformed(
                            "LARGE_COMMUNITIES",
                            format!("length {len} not a multiple of 12"),
                        ));
                    }
                    while !body.is_empty() {
                        self.large.push(LargeCommunity::new(
                            body.u32("LARGE_COMMUNITIES global")?,
                            body.u32("LARGE_COMMUNITIES local1")?,
                            body.u32("LARGE_COMMUNITIES local2")?,
                        ));
                    }
                }
                type_code::MP_REACH_NLRI => {
                    // Last MP_REACH wins, like the owned assignment.
                    self.mp_prefixes.truncate(mp_mark);
                    self.parse_mp_reach(&mut body, ctx)?;
                }
                type_code::MP_UNREACH_NLRI => {
                    let afi_raw = body.u16("MP_UNREACH AFI")?;
                    let afi = Afi::from_u16(afi_raw).ok_or(MrtError::Unsupported {
                        context: "MP_UNREACH AFI",
                        value: afi_raw as u32,
                    })?;
                    let safi = body.u8("MP_UNREACH SAFI")?;
                    if safi != 1 {
                        return Err(MrtError::Unsupported {
                            context: "MP_UNREACH SAFI",
                            value: safi as u32,
                        });
                    }
                    while !body.is_empty() {
                        let _ = nlri::decode_prefix(&mut body, afi)?;
                    }
                }
                _other => {} // unknown optional attributes tolerated
            }
        }
        Ok(EntryMeta {
            origin: EntryOrigin::Direct(Asn::new(0)), // caller overrides
            time: 0,                                  // caller overrides
            segs: (seg_mark as u32, self.segs.len() as u32),
            asns: (asn_mark as u32, self.asns.len() as u32),
            comms: (comm_mark as u32, self.comms.len() as u32),
            large: (large_mark as u32, self.large.len() as u32),
            prefixes: (0, 0), // caller overrides
        })
    }

    fn parse_mp_reach(&mut self, cur: &mut Cursor<'_>, ctx: AttrCtx) -> Result<(), MrtError> {
        if ctx.tdv2 {
            let nh_len = cur.u8("MP_REACH next-hop length")? as usize;
            let afi = match nh_len {
                4 => Afi::Ipv4,
                16 | 32 => Afi::Ipv6,
                other => {
                    return Err(MrtError::malformed(
                        "MP_REACH next-hop",
                        format!("unexpected length {other}"),
                    ))
                }
            };
            let _ = nlri::decode_addr(cur, afi)?;
            if nh_len == 32 {
                let _ = nlri::decode_addr(cur, Afi::Ipv6)?; // discard link-local
            }
            return Ok(());
        }
        let afi_raw = cur.u16("MP_REACH AFI")?;
        let afi = Afi::from_u16(afi_raw).ok_or(MrtError::Unsupported {
            context: "MP_REACH AFI",
            value: afi_raw as u32,
        })?;
        let safi = cur.u8("MP_REACH SAFI")?;
        if safi != 1 {
            return Err(MrtError::Unsupported {
                context: "MP_REACH SAFI",
                value: safi as u32,
            });
        }
        let nh_len = cur.u8("MP_REACH next-hop length")? as usize;
        let mut nh_cur = cur.slice(nh_len, "MP_REACH next-hop")?;
        match nh_len {
            4 => {
                let _ = nlri::decode_addr(&mut nh_cur, Afi::Ipv4)?;
            }
            16 | 32 => {
                let _ = nlri::decode_addr(&mut nh_cur, Afi::Ipv6)?;
            }
            other => {
                return Err(MrtError::malformed(
                    "MP_REACH next-hop",
                    format!("unexpected length {other}"),
                ))
            }
        }
        let _ = cur.u8("MP_REACH reserved")?;
        while !cur.is_empty() {
            let p = nlri::decode_prefix(cur, afi)?;
            self.mp_prefixes.push(p);
        }
        Ok(())
    }
}
