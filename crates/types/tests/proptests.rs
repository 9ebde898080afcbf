//! Property-based tests for the core BGP types.

use proptest::prelude::*;

use bgp_types::obs::Histogram;
use bgp_types::{AsPath, Asn, Community, LargeCommunity, PathSegment, Prefix};

fn arb_asn() -> impl Strategy<Value = Asn> {
    any::<u32>().prop_map(Asn::new)
}

fn arb_community() -> impl Strategy<Value = Community> {
    (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Community::new(a, b))
}

fn arb_segment() -> impl Strategy<Value = PathSegment> {
    prop_oneof![
        prop::collection::vec(arb_asn(), 1..8).prop_map(PathSegment::Sequence),
        prop::collection::vec(arb_asn(), 1..4).prop_map(PathSegment::Set),
    ]
}

fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(arb_segment(), 0..4).prop_map(AsPath::from_segments)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
            Prefix::new(std::net::Ipv4Addr::from(addr).into(), len).expect("len <= 32")
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
            Prefix::new(std::net::Ipv6Addr::from(addr).into(), len).expect("len <= 128")
        }),
    ]
}

/// Strictly increasing, non-empty bucket bounds.
fn arb_bounds() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(1u64..10_000, 1..12).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn histogram_totals_match_input(
        bounds in arb_bounds(),
        values in prop::collection::vec(0u64..20_000, 0..64),
    ) {
        let hist = Histogram::new(&bounds);
        for &v in &values {
            hist.observe(v);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.counts.iter().sum::<u64>(), values.len() as u64);
        // One overflow bucket past the last bound.
        prop_assert_eq!(snap.counts.len(), bounds.len() + 1);
    }

    #[test]
    fn community_u32_roundtrip(c in arb_community()) {
        prop_assert_eq!(Community::from_u32(c.to_u32()), c);
    }

    #[test]
    fn community_display_parse_roundtrip(c in arb_community()) {
        let s = c.to_string();
        prop_assert_eq!(s.parse::<Community>().unwrap(), c);
    }

    #[test]
    fn large_community_display_parse_roundtrip(
        g in any::<u32>(), l1 in any::<u32>(), l2 in any::<u32>()
    ) {
        let lc = LargeCommunity::new(g, l1, l2);
        prop_assert_eq!(lc.to_string().parse::<LargeCommunity>().unwrap(), lc);
    }

    #[test]
    fn asn_display_parse_roundtrip(asn in arb_asn()) {
        prop_assert_eq!(asn.to_string().parse::<Asn>().unwrap(), asn);
    }

    #[test]
    fn asn_private_and_reserved_are_disjoint(asn in arb_asn()) {
        prop_assert!(!(asn.is_private() && asn.is_reserved()));
        prop_assert_eq!(asn.is_public(), !asn.is_private() && !asn.is_reserved());
    }

    #[test]
    fn prefix_is_canonical_and_self_contained(p in arb_prefix()) {
        // Reconstructing from the canonical address is a no-op.
        let again = Prefix::new(p.addr(), p.len()).unwrap();
        prop_assert_eq!(again, p);
        prop_assert!(p.contains(&p));
    }

    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        prop_assert_eq!(p.to_string().parse::<Prefix>().unwrap(), p);
    }

    #[test]
    fn prefix_containment_is_antisymmetric_for_distinct(p in arb_prefix(), q in arb_prefix()) {
        if p != q && p.contains(&q) {
            prop_assert!(!q.contains(&p));
        }
    }

    #[test]
    fn path_display_parse_roundtrip(path in arb_path()) {
        let s = path.to_string();
        let parsed: AsPath = s.parse().unwrap();
        // Empty sets/segments may normalize; compare via the ASN stream.
        let a: Vec<Asn> = path.iter().collect();
        let b: Vec<Asn> = parsed.iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn prepend_increases_length_by_count(path in arb_path(), asn in arb_asn(), count in 0usize..5) {
        let before = path.path_length();
        let after = path.prepended(asn, count).path_length();
        prop_assert_eq!(after, before + count);
    }

    #[test]
    fn prepended_path_contains_the_prepended_asn(path in arb_path(), asn in arb_asn()) {
        prop_assert!(path.prepended(asn, 1).contains(asn));
        prop_assert_eq!(path.prepended(asn, 1).head(), Some(asn));
    }

    #[test]
    fn unique_asns_has_no_duplicates(path in arb_path()) {
        let unique = path.unique_asns();
        let mut sorted = unique.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), unique.len());
        // And every unique ASN is on-path.
        for asn in unique {
            prop_assert!(path.contains(asn));
        }
    }

    #[test]
    fn path_length_counts_sets_once(asns in prop::collection::vec(arb_asn(), 1..6)) {
        let set_path = AsPath::from_segments(vec![PathSegment::Set(asns.clone())]);
        prop_assert_eq!(set_path.path_length(), 1);
        let seq_path = AsPath::from_segments(vec![PathSegment::Sequence(asns.clone())]);
        prop_assert_eq!(seq_path.path_length(), asns.len());
    }

    #[test]
    fn next_toward_origin_is_on_path(path in arb_path(), asn in arb_asn()) {
        if let Some(next) = path.next_toward_origin(asn) {
            prop_assert!(path.contains(asn));
            prop_assert!(path.contains(next));
            prop_assert_ne!(next, asn);
        }
    }
}
