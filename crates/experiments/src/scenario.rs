//! The end-to-end scenario every experiment starts from: a synthetic
//! Internet, its community dictionaries, the documented ground-truth
//! subset, vantage points, and collector output **round-tripped through
//! MRT** so the full wire path is exercised on every run.

use bgp_dictionary::{select_documented, GroundTruthDictionary};
use bgp_mrt::obs::{read_observations, write_rib_dump, write_update_stream};
use bgp_mrt::MrtError;
use bgp_policy::{generate_policies, PolicyConfig, PolicySet};
use bgp_relationships::SiblingMap;
use bgp_sim::{select_vantage_points, SimConfig, Simulator, VantagePoint, VpConfig};
use bgp_topology::{generate, Topology, TopologyConfig};
use bgp_types::{Asn, Observation};

use crate::args::{Args, Flags};

/// Scenario parameters. `scale` multiplies every population of the default
/// world (≈1,000 ASes at 1.0 — about 1/75 of the Internet the paper
/// measured).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed; all component seeds derive from it.
    pub seed: u64,
    /// World size multiplier.
    pub scale: f64,
    /// Number of documented ASes (the paper had 59).
    pub documented: usize,
    /// Fraction of each documented AS's value runs that actually made it
    /// into the assembled dictionary (operator documentation is partial).
    pub doc_completeness: f64,
    /// Vantage point sampling (mid/stub counts also scale with `scale`).
    pub vp_mid: usize,
    /// Stub vantage points.
    pub vp_stub: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 20230501,
            scale: 1.0,
            documented: 59,
            doc_completeness: 0.85,
            vp_mid: 60,
            vp_stub: 80,
        }
    }
}

impl ScenarioConfig {
    /// The six flags [`from_args`](Self::from_args) reads.
    pub const FLAGS: Flags = Flags::new("seed scale docs completeness vp-mid vp-stub", "");

    /// Build from parsed CLI args (`--seed`, `--scale`, `--docs`,
    /// `--completeness`, `--vp-mid`, `--vp-stub`).
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let base = ScenarioConfig::default();
        Ok(ScenarioConfig {
            seed: args.get("seed", base.seed)?,
            scale: args.get("scale", base.scale)?,
            documented: args.get("docs", base.documented)?,
            doc_completeness: args.get("completeness", base.doc_completeness)?,
            vp_mid: args.get("vp-mid", base.vp_mid)?,
            vp_stub: args.get("vp-stub", base.vp_stub)?,
        })
    }
}

/// A fully built world plus everything the method consumes.
#[derive(Debug)]
pub struct Scenario {
    /// The AS-level Internet.
    pub topo: Topology,
    /// Every AS's true dictionary (simulation ground truth).
    pub policies: PolicySet,
    /// as2org sibling map.
    pub siblings: SiblingMap,
    /// Which ASes are documented.
    pub documented: Vec<Asn>,
    /// The validation dictionary summarizing the documented ASes.
    pub dict: GroundTruthDictionary,
    /// Collector peers.
    pub vps: Vec<VantagePoint>,
    /// Simulation knobs (derived seed).
    pub sim_cfg: SimConfig,
}

impl Scenario {
    /// Build a scenario deterministically from its config.
    pub fn build(cfg: &ScenarioConfig) -> Scenario {
        let topo_cfg = TopologyConfig {
            seed: cfg.seed,
            ..TopologyConfig::with_scale(cfg.scale)
        };
        let topo = generate(&topo_cfg);
        let policies = generate_policies(
            &topo,
            &PolicyConfig {
                seed: cfg.seed ^ 0x9_011C1E5,
                ..PolicyConfig::default()
            },
        );
        let siblings = SiblingMap::from_topology(&topo);
        let documented = select_documented(&policies, cfg.documented);
        let dict = GroundTruthDictionary::from_policies_partial(
            &policies,
            &documented,
            cfg.doc_completeness,
            cfg.seed ^ 0xD0C5,
        );
        let scaled = |n: usize| ((n as f64 * cfg.scale) as usize).max(4);
        let vps = select_vantage_points(
            &topo,
            &VpConfig {
                seed: cfg.seed ^ 0xC011_EC70,
                mid_count: scaled(cfg.vp_mid),
                stub_count: scaled(cfg.vp_stub),
                partial_fraction: 0.2,
            },
        );
        let sim_cfg = SimConfig {
            seed: cfg.seed ^ 0x51E5,
            ..SimConfig::default()
        };
        Scenario {
            topo,
            policies,
            siblings,
            documented,
            dict,
            vps,
            sim_cfg,
        }
    }

    /// Borrowing simulator for this scenario.
    pub fn simulator(&self) -> Simulator<'_> {
        Simulator::new(&self.topo, &self.policies, &self.sim_cfg)
    }

    /// Collect the §4 dataset: a day-1 RIB snapshot plus `days - 1` days of
    /// update churn, serialized to MRT and parsed back so every experiment
    /// exercises the wire codecs end to end.
    pub fn collect(&self, days: u32) -> Vec<Observation> {
        let sim = self.simulator();
        self.collect_with(&sim, days)
    }

    /// Same as [`Scenario::collect`] but reusing an existing simulator
    /// (building one plans originations, which costs a little).
    pub fn collect_with(&self, sim: &Simulator<'_>, days: u32) -> Vec<Observation> {
        let mut wire = Vec::new();
        let rib = sim.collect_rib(&self.vps);
        write_rib_dump(&mut wire, self.sim_cfg.base_timestamp, &rib)
            .expect("in-memory MRT write cannot fail");
        for day in 1..days {
            let updates = sim.collect_churn_day(&self.vps, day);
            write_update_stream(&mut wire, Asn::new(6447), &updates)
                .expect("in-memory MRT write cannot fail");
        }
        read_observations(&wire[..]).expect("round-trip of own MRT output")
    }

    /// Stream the same dataset straight to a writer without ever holding
    /// more than one day of observations in memory: the day-1 RIB dump
    /// followed by `days - 1` churn days, byte-for-byte the archive
    /// [`Scenario::collect`] round-trips. This is the large-archive
    /// generation mode — peak memory is bounded by the biggest single day
    /// no matter how many days (or gigabytes) go out the wire.
    pub fn stream_collect<W: std::io::Write>(
        &self,
        sim: &Simulator<'_>,
        days: u32,
        mut out: W,
    ) -> Result<StreamSummary, MrtError> {
        let rib = sim.collect_rib(&self.vps);
        let mut summary = StreamSummary {
            observations: rib.len() as u64,
            records: write_rib_dump(&mut out, self.sim_cfg.base_timestamp, &rib)?,
        };
        drop(rib);
        for day in 1..days {
            let updates = sim.collect_churn_day(&self.vps, day);
            summary.observations += updates.len() as u64;
            summary.records += write_update_stream(&mut out, Asn::new(6447), &updates)?;
        }
        Ok(summary)
    }
}

/// What [`Scenario::stream_collect`] wrote: the observation count (one per
/// RIB entry or update) and the MRT record count (framing units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Observations serialized.
    pub observations: u64,
    /// MRT records written (peer-index tables and RIB records included).
    pub records: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            scale: 0.08,
            documented: 10,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Scenario::build(&tiny());
        let b = Scenario::build(&tiny());
        assert_eq!(a.topo, b.topo);
        assert_eq!(a.policies, b.policies);
        assert_eq!(a.documented, b.documented);
        assert_eq!(a.dict, b.dict);
        assert_eq!(a.vps, b.vps);
    }

    #[test]
    fn collect_round_trips_mrt() {
        let s = Scenario::build(&tiny());
        let sim = s.simulator();
        let direct = sim.collect_rib(&s.vps);
        let via_mrt = s.collect(1);
        // Same multiset of (vp, prefix, path, communities); MRT reorders by
        // prefix and drops nothing.
        assert_eq!(direct.len(), via_mrt.len());
        let key = |o: &Observation| (o.prefix, o.vp, o.path.to_string());
        let mut a: Vec<_> = direct.iter().map(key).collect();
        let mut b: Vec<_> = via_mrt.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn more_days_more_tuples() {
        let s = Scenario::build(&tiny());
        let d1 = s.collect(1).len();
        let d3 = s.collect(3).len();
        assert!(d3 > d1, "day3 {d3} <= day1 {d1}");
    }

    #[test]
    fn stream_collect_matches_collect() {
        let s = Scenario::build(&tiny());
        let sim = s.simulator();
        let mut wire = Vec::new();
        let summary = s.stream_collect(&sim, 3, &mut wire).unwrap();
        let streamed = read_observations(&wire[..]).expect("own MRT output");
        let collected = s.collect_with(&sim, 3);
        assert_eq!(streamed, collected);
        assert_eq!(summary.observations as usize, collected.len());
        // RIB records group one entry per peer under a shared prefix record,
        // so the record count sits below the observation count but above 0.
        assert!(summary.records > 0);
        assert!(summary.records <= summary.observations);
    }

    #[test]
    fn documented_subset_is_covered_by_dict() {
        let s = Scenario::build(&tiny());
        assert_eq!(s.documented.len(), 10);
        let covered = s.dict.covered_ases();
        for asn in &s.documented {
            assert!(covered.contains(&(asn.value() as u16)));
        }
    }
}
