//! Property-based tests: arbitrary routes and records survive the wire.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;

use bgp_mrt::attrs::{decode_attrs, encode_attrs, AttrCtx, EncodeOpts};
use bgp_mrt::cursor::Cursor;
use bgp_mrt::faults::corrupt_stream;
use bgp_mrt::obs::{
    read_observations, read_observations_resilient_into, write_rib_dump, write_update_stream,
};
use bgp_mrt::records::{decode_body, encode_body, MrtRecord, RibEntry, RibSnapshot};
use bgp_mrt::{ErrorCounters, IngestReport, RecoverConfig, RecoveringReader};
use bgp_types::{
    AsPath, Asn, Community, LargeCommunity, Observation, Origin, PathSegment, Prefix, RouteAttrs,
};

fn arb_asn() -> impl Strategy<Value = Asn> {
    any::<u32>().prop_map(Asn::new)
}

fn arb_v4_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
        Prefix::new(Ipv4Addr::from(addr).into(), len).expect("valid v4 length")
    })
}

fn arb_v6_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
        Prefix::new(Ipv6Addr::from(addr).into(), len).expect("valid v6 length")
    })
}

fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(arb_asn(), 1..6).prop_map(PathSegment::Sequence),
            prop::collection::vec(arb_asn(), 1..4).prop_map(PathSegment::Set),
        ],
        0..3,
    )
    .prop_map(AsPath::from_segments)
}

fn arb_route(v4_next_hop: bool) -> impl Strategy<Value = RouteAttrs> {
    (
        arb_path(),
        if v4_next_hop {
            any::<u32>()
                .prop_map(|a| IpAddr::V4(Ipv4Addr::from(a)))
                .boxed()
        } else {
            any::<u128>()
                .prop_map(|a| IpAddr::V6(Ipv6Addr::from(a)))
                .boxed()
        },
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        prop::collection::vec((any::<u16>(), any::<u16>()), 0..12),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..4),
        any::<bool>(),
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
    )
        .prop_map(
            |(as_path, next_hop, med, local_pref, comms, large, atomic, origin)| {
                let mut r = RouteAttrs::originated(as_path, next_hop);
                r.med = med;
                r.local_pref = local_pref;
                for (a, b) in comms {
                    r.add_community(Community::new(a, b));
                }
                for (g, l1, l2) in large {
                    let lc = LargeCommunity::new(g, l1, l2);
                    if !r.large_communities.contains(&lc) {
                        r.large_communities.push(lc);
                    }
                }
                r.atomic_aggregate = atomic;
                r.origin = origin;
                r
            },
        )
}

fn arb_observation() -> impl Strategy<Value = Observation> {
    (
        1u32..100_000,
        prop_oneof![arb_v4_prefix(), arb_v6_prefix()],
        prop::collection::vec(arb_asn(), 1..6),
        prop::collection::vec((any::<u16>(), any::<u16>()), 0..8),
        any::<u32>(),
    )
        .prop_map(|(vp, prefix, asns, comms, time)| {
            let mut communities: Vec<Community> = comms
                .into_iter()
                .map(|(a, b)| Community::new(a, b))
                .collect();
            communities.sort_unstable();
            communities.dedup();
            // Derive a couple of large communities deterministically so the
            // roundtrips cover both attribute kinds.
            let large_communities: Vec<LargeCommunity> = communities
                .iter()
                .take(2)
                .map(|c| LargeCommunity::new(c.asn as u32, c.value as u32, 7))
                .collect();
            Observation {
                vp: Asn::new(vp),
                prefix,
                path: AsPath::from_sequence(asns),
                communities,
                large_communities,
                time,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn attrs_roundtrip_tdv2(route in arb_route(true)) {
        let ctx = AttrCtx::TABLE_DUMP_V2;
        let wire = encode_attrs(&route, ctx, &EncodeOpts::default()).unwrap();
        let mut cur = Cursor::new(&wire);
        let decoded = decode_attrs(&mut cur, ctx).unwrap();
        prop_assert!(cur.is_empty());
        prop_assert_eq!(decoded.route, route);
    }

    #[test]
    fn attrs_roundtrip_v6_nexthop(route in arb_route(false)) {
        let ctx = AttrCtx::TABLE_DUMP_V2;
        let wire = encode_attrs(&route, ctx, &EncodeOpts::default()).unwrap();
        let mut cur = Cursor::new(&wire);
        let decoded = decode_attrs(&mut cur, ctx).unwrap();
        prop_assert_eq!(decoded.route, route);
    }

    #[test]
    fn rib_record_roundtrip(
        route in arb_route(true),
        prefix in arb_v4_prefix(),
        seq in any::<u32>(),
        time in any::<u32>(),
    ) {
        let rec = MrtRecord::Rib(RibSnapshot {
            sequence: seq,
            prefix,
            entries: vec![RibEntry { peer_index: 0, originated_time: time, route }],
        });
        let (t, s, body) = encode_body(&rec).unwrap();
        prop_assert_eq!(decode_body(t, s, &body).unwrap(), rec);
    }

    #[test]
    fn decoder_never_panics_on_junk(t in any::<u16>(), s in any::<u16>(), body in prop::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not.
        let _ = decode_body(t, s, &body);
    }

    #[test]
    fn decoder_never_panics_on_truncated_valid_record(
        route in arb_route(true),
        prefix in arb_v4_prefix(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let rec = MrtRecord::Rib(RibSnapshot {
            sequence: 1,
            prefix,
            entries: vec![RibEntry { peer_index: 0, originated_time: 0, route }],
        });
        let (t, s, body) = encode_body(&rec).unwrap();
        let cut = (body.len() as f64 * cut_fraction) as usize;
        let _ = decode_body(t, s, &body[..cut]);
    }

    #[test]
    fn rib_dump_roundtrips_observations(mut observations in prop::collection::vec(arb_observation(), 0..20)) {
        // RIB dumps keep the latest entry per (vp, prefix): dedupe input the
        // same way before comparing.
        observations.sort_by_key(|o| (o.prefix, o.vp, o.time));
        observations.dedup_by_key(|o| (o.prefix, o.vp));
        let mut wire = Vec::new();
        write_rib_dump(&mut wire, 0, &observations).unwrap();
        let mut back = read_observations(&wire[..]).unwrap();
        back.sort_by_key(|o| (o.prefix, o.vp, o.time));
        prop_assert_eq!(back, observations);
    }

    #[test]
    fn update_stream_roundtrips_observations(observations in prop::collection::vec(arb_observation(), 0..20)) {
        let mut wire = Vec::new();
        write_update_stream(&mut wire, Asn::new(6447), &observations).unwrap();
        let back = read_observations(&wire[..]).unwrap();
        prop_assert_eq!(back, observations);
    }
}

// Robustness properties: no input — random bytes or seeded corruption of a
// valid stream — may panic the reader or keep it iterating forever, and its
// accounting must balance to the byte.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovering_reader_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut reader = RecoveringReader::new(&bytes[..]);
        let mut items = 0u32;
        for _ in reader.by_ref() {
            items += 1;
            prop_assert!(items < 10_000, "runaway iteration");
        }
        let report = reader.into_report();
        prop_assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
        prop_assert_eq!(report.bytes_read, bytes.len() as u64);
    }

    #[test]
    fn recovering_reader_survives_injected_corruption(
        observations in prop::collection::vec(arb_observation(), 1..12),
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        write_update_stream(&mut wire, Asn::new(6447), &observations).unwrap();
        let (damaged, _log) = corrupt_stream(&wire, seed, rate);

        let mut reader = RecoveringReader::new(&damaged[..]);
        let mut items = 0u32;
        for _ in reader.by_ref() {
            items += 1;
            prop_assert!(items < 100_000, "recovering reader runaway");
        }
        let report = reader.into_report();
        prop_assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
        prop_assert_eq!(report.bytes_read, damaged.len() as u64);
    }

    #[test]
    fn resilient_obs_extraction_never_fails(
        observations in prop::collection::vec(arb_observation(), 1..12),
        seed in any::<u64>(),
        rate in 0.0f64..0.5,
    ) {
        let mut wire = Vec::new();
        write_rib_dump(&mut wire, 0, &observations).unwrap();
        let (damaged, _log) = corrupt_stream(&wire, seed, rate);
        let mut salvaged = Vec::new();
        let report =
            read_observations_resilient_into(&damaged[..], &RecoverConfig::default(), &mut salvaged);
        prop_assert!(salvaged.len() <= observations.len() * 2);
        prop_assert_eq!(report.bytes_ok + report.bytes_skipped, report.bytes_read);
    }
}

/// A structurally arbitrary per-file report whose own byte ledger balances
/// (`bytes_read` is derived), as every real per-file report's does.
fn arb_ingest_report() -> impl Strategy<Value = IngestReport> {
    (
        (any::<u16>(), any::<u16>(), any::<u16>()),
        (any::<u32>(), any::<u32>()),
        any::<u16>(),
        (any::<u16>(), 0u64..3),
        prop::option::of("[a-z]{1,8}"),
        prop::option::of("[a-z]{1,8}"),
        (any::<u8>(), any::<u8>(), any::<u8>()),
        (any::<u8>(), any::<u8>(), 0u64..2),
        (0u64..3, 0u64..8, any::<u32>()),
    )
        .prop_map(
            |(
                (records_read, records_skipped, records_truncated),
                (bytes_ok, bytes_skipped),
                resync_events,
                (retries, panicked),
                open_failed,
                aborted,
                (io, truncated, malformed),
                (unsupported, too_long, budget_exceeded),
                (shards_failed, files_lost, bytes_lost),
            )| IngestReport {
                records_read: records_read as u64,
                records_skipped: records_skipped as u64,
                records_truncated: records_truncated as u64,
                bytes_ok: bytes_ok as u64,
                bytes_skipped: bytes_skipped as u64,
                bytes_read: bytes_ok as u64 + bytes_skipped as u64,
                resync_events: resync_events as u64,
                errors: ErrorCounters {
                    io: io as u64,
                    truncated: truncated as u64,
                    malformed: malformed as u64,
                    unsupported: unsupported as u64,
                    too_long: too_long as u64,
                    budget_exceeded,
                },
                retries: retries as u64,
                panicked,
                open_failed,
                aborted,
                shards_failed,
                files_lost,
                bytes_lost: bytes_lost as u64,
                readahead_blocks: records_skipped as u64,
                arena_bytes: bytes_skipped as u64,
            },
        )
}

proptest! {
    /// The multi-file accounting invariant: merging per-file reports in any
    /// order preserves the byte ledger and sums every counter exactly —
    /// including the supervision counters (`retries`, `panicked`) — while
    /// `open_failed`/`aborted` keep the first reason in merge order.
    #[test]
    fn report_merge_accounting_holds_in_any_order(
        parts in prop::collection::vec(arb_ingest_report(), 0..8),
        rotation in any::<u8>(),
    ) {
        let merge_all = |ordered: &[IngestReport]| {
            let mut merged = IngestReport::default();
            for part in ordered {
                merged.merge(part);
            }
            merged
        };
        let merged = merge_all(&parts);

        prop_assert_eq!(merged.bytes_ok + merged.bytes_skipped, merged.bytes_read);
        let sum = |f: fn(&IngestReport) -> u64| parts.iter().map(f).sum::<u64>();
        prop_assert_eq!(merged.bytes_read, sum(|p| p.bytes_read));
        prop_assert_eq!(merged.records_read, sum(|p| p.records_read));
        prop_assert_eq!(merged.records_skipped, sum(|p| p.records_skipped));
        prop_assert_eq!(merged.records_truncated, sum(|p| p.records_truncated));
        prop_assert_eq!(merged.resync_events, sum(|p| p.resync_events));
        prop_assert_eq!(merged.retries, sum(|p| p.retries));
        prop_assert_eq!(merged.panicked, sum(|p| p.panicked));
        prop_assert_eq!(merged.shards_failed, sum(|p| p.shards_failed));
        prop_assert_eq!(merged.files_lost, sum(|p| p.files_lost));
        prop_assert_eq!(merged.bytes_lost, sum(|p| p.bytes_lost));
        prop_assert_eq!(merged.readahead_blocks, sum(|p| p.readahead_blocks));
        prop_assert_eq!(merged.arena_bytes, sum(|p| p.arena_bytes));
        prop_assert_eq!(merged.errors.decode_errors(), parts.iter().map(|p| p.errors.decode_errors()).sum::<u64>());
        prop_assert_eq!(
            merged.open_failed.as_ref(),
            parts.iter().find_map(|p| p.open_failed.as_ref())
        );
        prop_assert_eq!(
            merged.aborted.as_ref(),
            parts.iter().find_map(|p| p.aborted.as_ref())
        );

        // Counter sums are permutation-invariant: any rotation of the merge
        // order agrees on every numeric field.
        if !parts.is_empty() {
            let k = rotation as usize % parts.len();
            let mut rotated = parts[k..].to_vec();
            rotated.extend_from_slice(&parts[..k]);
            let other = merge_all(&rotated);
            prop_assert_eq!(other.bytes_read, merged.bytes_read);
            prop_assert_eq!(other.records_read, merged.records_read);
            prop_assert_eq!(other.retries, merged.retries);
            prop_assert_eq!(other.panicked, merged.panicked);
            prop_assert_eq!(other.errors, merged.errors);
        }
    }
}
