//! Vantage-point observations — the analytical unit of the paper.
//!
//! The method consumes "unique AS path and BGP Community tuples observed in
//! RIBs and updates" (§4). An [`Observation`] is one such sighting: a
//! vantage point, the prefix, the AS path as recorded at the collector, and
//! the communities on the route.

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::aspath::AsPath;
use crate::community::{Community, LargeCommunity};
use crate::prefix::Prefix;

/// One route sighting at a collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// The vantage point (collector peer) that exported the route.
    pub vp: Asn,
    /// The observed prefix.
    pub prefix: Prefix,
    /// The AS path as recorded (vantage point first, origin last).
    pub path: AsPath,
    /// Regular communities on the route.
    pub communities: Vec<Community>,
    /// Large communities (RFC 8092) on the route.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub large_communities: Vec<LargeCommunity>,
    /// Unix seconds when the route was (last) observed.
    pub time: u32,
}

impl Observation {
    /// The `(path, communities)` tuple identity used for "unique tuple"
    /// counting in §4. Two observations of the same tuple from different
    /// vantage points or prefixes still count once.
    pub fn tuple_key(&self) -> (&AsPath, &[Community]) {
        (&self.path, &self.communities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_key_ignores_vp_prefix_time() {
        let path: AsPath = "64500 1299 64496".parse().unwrap();
        let communities = vec![Community::new(1299, 2569)];
        let a = Observation {
            vp: Asn::new(64500),
            prefix: "192.0.2.0/24".parse().unwrap(),
            path: path.clone(),
            communities: communities.clone(),
            large_communities: Vec::new(),
            time: 1,
        };
        let b = Observation {
            vp: Asn::new(64501),
            prefix: "198.51.100.0/24".parse().unwrap(),
            path,
            communities,
            large_communities: Vec::new(),
            time: 9,
        };
        assert_eq!(a.tuple_key(), b.tuple_key());
    }

    fn sample() -> Observation {
        Observation {
            vp: Asn::new(64500),
            prefix: "192.0.2.0/24".parse().unwrap(),
            path: "64500 1299 {64496,64497}".parse().unwrap(),
            communities: vec![Community::new(1299, 2569), Community::new(1299, 1)],
            large_communities: Vec::new(),
            time: 1_682_899_200,
        }
    }

    #[test]
    fn json_omits_absent_large_communities_and_roundtrips() {
        let plain = sample();
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains("large_communities"), "{json}");
        assert_eq!(serde_json::from_str::<Observation>(&json).unwrap(), plain);

        let mut large = sample();
        large.large_communities = vec![LargeCommunity::new(64496, 1, 2)];
        let json = serde_json::to_string(&large).unwrap();
        assert!(json.contains("large_communities"), "{json}");
        assert_eq!(serde_json::from_str::<Observation>(&json).unwrap(), large);
    }

    #[test]
    fn tuple_key_keeps_community_order_and_path_shape() {
        let a = sample();
        let mut reordered = sample();
        reordered.communities.reverse();
        assert_ne!(a.tuple_key(), reordered.tuple_key());
        let mut prepended = sample();
        prepended.path = "64500 1299 1299 {64496,64497}".parse().unwrap();
        assert_ne!(a.tuple_key(), prepended.tuple_key());
        let mut large = sample();
        large.large_communities = vec![LargeCommunity::new(1, 2, 3)];
        assert_eq!(
            a.tuple_key(),
            large.tuple_key(),
            "large communities are not part of it"
        );
    }
}
