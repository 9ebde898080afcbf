//! Seeded workload generation.
//!
//! Every workload comes from the default synthetic world (scale 1.0: its
//! topology, policies and vantage points). The benchmark seed draws the
//! route-level randomness, which vantage points peer with the collectors
//! and where damage lands, so the same seed always gives the same bytes and
//! another seed gives other inputs of the same size. Generation runs
//! before anything is timed.
//!
//! Each workload also gets a damaged copy of its archives, which only the
//! traced pass decodes: it measures the `mrt::recover` resync and skip
//! paths, which clean archives never enter.

use std::collections::{BTreeMap, BTreeSet};
use std::io;

use bgp_experiments::{Scenario, ScenarioConfig};
use bgp_mrt::faults::ALL_FAULT_KINDS;
use bgp_mrt::obs::{read_observations_resilient_into, write_rib_dump, write_update_stream};
use bgp_mrt::{FaultConfig, FaultInjector, IngestReport, RecoverConfig};
use bgp_types::{Asn, Observation, ObservationStore};

/// One of the benchmark's input shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Collector RIB dumps (TABLE_DUMP_V2), all at one dump time. This is
    /// the paper's bulk input: large records and heavy path reuse put the
    /// work in decode, interning and merging, the stats kernel and the
    /// shard snapshots, while `watch` crosses no window boundary.
    Ribs,
    /// Hourly BGP4MP update files over two days of churn. One observation
    /// per record and many small files move ingest cost to framing and
    /// per-file overhead, and `watch` crosses 47 window boundaries, so its
    /// reclassification and checkpoint writes dominate.
    Updates,
}

impl Workload {
    /// Parse a workload name as the benchmark command line spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ribs" => Some(Workload::Ribs),
            "updates" => Some(Workload::Updates),
            _ => None,
        }
    }

    /// How many observations the workload is cut to (before the dumps'
    /// multihomed copies): a fixed size, so that a throughput figure
    /// compares the same amount of work at every seed. `Ribs` comes to
    /// about 244,000 observations, so its shortest command runs about
    /// 0.3 s; `Updates` is two days of churn at about 48,000, where one
    /// `watch` already runs about 15 s.
    pub fn target(self) -> u64 {
        match self {
            Workload::Ribs => 200_000,
            Workload::Updates => 48_000,
        }
    }
}

/// Collectors the RIB workloads are split across.
pub const COLLECTORS: usize = 4;
/// Every `MULTIHOME_EVERY`-th collector peer also peers with a second
/// collector, so the dumps overlap the way RouteViews and RIS feeds do.
pub const MULTIHOME_EVERY: usize = 5;
/// Days of churn in the `updates` workload, cut into one file per hour.
pub const UPDATE_DAYS: u32 = 2;
/// Share of records the damaged copy corrupts.
pub const DAMAGE_RATE: f64 = 0.05;
/// Collector ASN stamped on the BGP4MP records.
const UPDATE_COLLECTOR: u32 = 6447;

/// The generated archives of one workload, in input order.
pub struct Archives {
    /// File names, in input order.
    pub names: Vec<String>,
    /// File contents, in the same order.
    pub files: Vec<Vec<u8>>,
    /// Observations the generator serialized.
    pub written: u64,
    /// MRT records the generator serialized.
    pub records: u64,
    /// The world the archives were collected from.
    pub scenario: Scenario,
}

/// The default world (topology, policies, sibling map, vantage points) at
/// `scale`, with the route-level randomness — which customers signal
/// which communities, which links fail on a churn day — drawn from `seed`.
pub fn world(seed: u64, scale: f64) -> Scenario {
    let mut scenario = Scenario::build(&ScenarioConfig {
        scale,
        ..ScenarioConfig::default()
    });
    scenario.sim_cfg.seed ^= SplitMix64(seed).next();
    scenario
}

/// Generate the archives of `workload` from `seed`, cut to `target`
/// observations by choosing collector peers.
pub fn generate(workload: Workload, seed: u64, scale: f64, target: u64) -> io::Result<Archives> {
    let scenario = world(seed, scale);
    let sim = scenario.simulator();
    let (mut names, mut files) = (Vec::new(), Vec::new());
    let (mut written, mut records) = (0u64, 0u64);
    match workload {
        Workload::Ribs => {
            let rib = sim.collect_rib(&scenario.vps);
            let peers = choose_peers(&scenario, rib.iter(), seed, target);
            let timestamp = scenario.sim_cfg.base_timestamp;
            for (c, observations) in split_by_collector(&rib, &peers).iter().enumerate() {
                let mut bytes = Vec::new();
                records += write_rib_dump(&mut bytes, timestamp, observations)
                    .map_err(io::Error::other)?;
                written += observations.len() as u64;
                names.push(format!("rib.c{c}.mrt"));
                files.push(bytes);
            }
        }
        Workload::Updates => {
            let days: Vec<Vec<Observation>> = (1..=UPDATE_DAYS)
                .map(|day| sim.collect_churn_day(&scenario.vps, day))
                .collect();
            let peers = choose_peers(&scenario, days.iter().flatten(), seed, target);
            for (day, updates) in (1..=UPDATE_DAYS).zip(days) {
                let mut kept: Vec<Observation> = updates
                    .into_iter()
                    .filter(|o| peers.contains(&o.vp))
                    .collect();
                for (hour, observations) in spread_over_day(&mut kept).iter().enumerate() {
                    let mut bytes = Vec::new();
                    records +=
                        write_update_stream(&mut bytes, Asn::new(UPDATE_COLLECTOR), observations)
                            .map_err(io::Error::other)?;
                    written += observations.len() as u64;
                    names.push(format!("updates.d{day}.h{hour:02}.mrt"));
                    files.push(bytes);
                }
            }
        }
    }
    drop(sim);
    Ok(Archives {
        names,
        files,
        written,
        records,
        scenario,
    })
}

/// SplitMix64: a small seeded generator for peer order and seed mixing.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The collector peers: the world's vantage points in a seeded order,
/// each kept while the observations of the kept ones stay within
/// `target`. The result comes in that order.
fn choose_peers<'a>(
    scenario: &Scenario,
    observations: impl Iterator<Item = &'a Observation>,
    seed: u64,
    target: u64,
) -> Vec<Asn> {
    let mut counts: BTreeMap<Asn, u64> = BTreeMap::new();
    for obs in observations {
        *counts.entry(obs.vp).or_insert(0) += 1;
    }
    let mut order: Vec<Asn> = scenario.vps.iter().map(|vp| vp.asn).collect();
    let mut rng = SplitMix64(seed ^ 0x5EED_C011_EC70_0000);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut kept = Vec::new();
    let mut total = 0u64;
    for asn in order {
        let n = counts.get(&asn).copied().unwrap_or(0);
        if n > 0 && total + n <= target {
            kept.push(asn);
            total += n;
        }
    }
    kept
}

/// Deal the RIB across the collectors: peer `i` (in the chosen order)
/// peers with collector `i % COLLECTORS`, and every fifth one also with
/// the next collector.
fn split_by_collector(rib: &[Observation], peers: &[Asn]) -> Vec<Vec<Observation>> {
    let mut homes: BTreeMap<Asn, Vec<usize>> = BTreeMap::new();
    for (i, &asn) in peers.iter().enumerate() {
        let mut collectors = vec![i % COLLECTORS];
        if i % MULTIHOME_EVERY == MULTIHOME_EVERY - 1 {
            collectors.push((i + 1) % COLLECTORS);
        }
        homes.insert(asn, collectors);
    }
    let mut out: Vec<Vec<Observation>> = vec![Vec::new(); COLLECTORS];
    for obs in rib {
        for &c in homes.get(&obs.vp).map(Vec::as_slice).unwrap_or(&[]) {
            out[c].push(obs.clone());
        }
    }
    out
}

/// The simulator stamps a whole churn day with one timestamp. Spread the
/// day's updates evenly over its 86,400 seconds, keeping their order, and
/// cut them into 24 hourly slices.
fn spread_over_day(updates: &mut [Observation]) -> Vec<Vec<Observation>> {
    let n = updates.len().max(1) as u64;
    let mut hours: Vec<Vec<Observation>> = vec![Vec::new(); 24];
    for (i, obs) in updates.iter_mut().enumerate() {
        let offset = (i as u64 * 86_400 / n) as u32;
        obs.time += offset;
        hours[(offset / 3_600) as usize].push(obs.clone());
    }
    hours
}

/// The damaged copy of every archive, in input order.
pub fn damaged(files: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    files
        .iter()
        .enumerate()
        .map(|(i, bytes)| damage(bytes, seed, i))
        .collect()
}

/// Damage one archive: `DAMAGE_RATE` of its records after the first, drawn
/// from all nine fault kinds, seeded from the workload seed and the file's
/// place in the input. The first record stays intact: in a RIB dump it is
/// the PEER_INDEX_TABLE, without which every entry of the dump is
/// undecodable, which measures nothing about recovery.
fn damage(clean: &[u8], seed: u64, file: usize) -> Vec<u8> {
    let injector = FaultInjector::new(FaultConfig {
        seed: seed ^ 0xDA3A_6ED0_0000_0000 ^ file as u64,
        rate: DAMAGE_RATE,
        kinds: ALL_FAULT_KINDS.to_vec(),
    });
    let split = first_record_len(clean).min(clean.len());
    let mut out = clean[..split].to_vec();
    out.extend_from_slice(&injector.corrupt(&clean[split..]).0);
    out
}

/// Length of the first MRT record: the 12-byte common header (timestamp,
/// type, subtype, body length) plus its body.
fn first_record_len(bytes: &[u8]) -> usize {
    match bytes.get(8..12) {
        Some(len) => 12 + u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize,
        None => bytes.len(),
    }
}

/// What the archives decode to, counted by the benchmark's own decode of
/// every file in input order.
pub struct Decoded {
    /// Every observation, folded in input order.
    pub store: ObservationStore,
    /// The merged decode accounting.
    pub report: IngestReport,
}

/// Decode every file in input order into one store.
pub fn decode(files: &[Vec<u8>]) -> Decoded {
    let mut store = ObservationStore::new();
    let mut report = IngestReport::default();
    for bytes in files {
        report.merge(&read_observations_resilient_into(
            &bytes[..],
            &RecoverConfig::default(),
            &mut store,
        ));
    }
    Decoded { store, report }
}

/// The lookup key stream: every regular community of every observation, in
/// archive order, packed as `asn << 16 | value`.
pub fn key_stream(store: &ObservationStore) -> Vec<u32> {
    let mut keys = Vec::new();
    for i in 0..store.len() {
        for c in store.cset(store.obs_cset_id(i)) {
            keys.push((u32::from(c.asn) << 16) | u32::from(c.value));
        }
    }
    keys
}

/// Distinct community owners among the decoded communities.
pub fn owner_count(store: &ObservationStore) -> usize {
    (0..store.community_count() as u32)
        .map(|slot| store.community(slot).asn)
        .collect::<BTreeSet<u16>>()
        .len()
}

/// The complete policy truth: every community an owner defined, with its
/// intent, as `"asn:value"` keys.
pub fn truth(scenario: &Scenario) -> BTreeMap<String, &'static str> {
    let mut out = BTreeMap::new();
    for asn in scenario.policies.asns_sorted() {
        let Some(policy) = scenario.policies.get(asn) else {
            continue;
        };
        for (&beta, purpose) in &policy.defs {
            let intent = match purpose.intent() {
                bgp_types::Intent::Action => "action",
                bgp_types::Intent::Information => "information",
            };
            out.insert(format!("{}:{}", asn, beta), intent);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small world and target keep these tests quick in a debug build;
    /// the benchmark itself always runs at scale 1.0.
    const SCALE: f64 = 0.1;
    const TARGET: u64 = 2_000;

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        for workload in [Workload::Ribs, Workload::Updates] {
            let a = generate(workload, 11, SCALE, TARGET).unwrap();
            let b = generate(workload, 11, SCALE, TARGET).unwrap();
            assert_eq!(a.names, b.names, "{workload:?}");
            assert!(
                a.files == b.files,
                "{workload:?}: bytes differ for one seed"
            );
            assert_eq!((a.written, a.records), (b.written, b.records));
            assert!(
                damaged(&a.files, 11) == damaged(&b.files, 11),
                "{workload:?}: damaged bytes differ for one seed"
            );
        }
    }

    #[test]
    fn another_seed_gives_other_bytes() {
        let a = generate(Workload::Ribs, 11, SCALE, TARGET).unwrap();
        let b = generate(Workload::Ribs, 12, SCALE, TARGET).unwrap();
        assert!(a.files != b.files);
    }

    #[test]
    fn damage_is_seeded_and_spares_each_peer_table() {
        let clean = generate(Workload::Ribs, 5, SCALE, TARGET).unwrap();
        let damaged_files = damaged(&clean.files, 5);
        assert!(
            damaged_files != damaged(&clean.files, 6),
            "damage ignores the seed"
        );
        assert_eq!(clean.files.len(), COLLECTORS);
        for (c, d) in clean.files.iter().zip(&damaged_files) {
            let head = first_record_len(c);
            assert!(head > 12 && head < c.len());
            assert_eq!(&c[..head], &d[..head], "peer index table was damaged");
            assert!(c != d, "a dump came through undamaged");
        }
        let survived = decode(&damaged_files);
        assert!(survived.report.records_read < clean.records);
        assert!((survived.store.len() as u64) < clean.written);
        assert!(survived.store.len() as u64 > clean.written / 2);
        let pristine = decode(&clean.files);
        assert_eq!(pristine.store.len() as u64, clean.written);
        assert_eq!(pristine.report.resync_events, 0);
    }

    #[test]
    fn updates_come_in_hourly_files_in_stream_order() {
        let archives = generate(Workload::Updates, 3, SCALE, TARGET).unwrap();
        assert_eq!(archives.files.len(), 24 * UPDATE_DAYS as usize);
        let base = archives.scenario.sim_cfg.base_timestamp;
        let mut last = 0u32;
        for (i, bytes) in archives.files.iter().enumerate() {
            let decoded = decode(std::slice::from_ref(bytes));
            let hour_start = base + 86_400 + i as u32 * 3_600;
            for row in 0..decoded.store.len() {
                let t = decoded.store.time(row);
                assert!(
                    (hour_start..hour_start + 3_600).contains(&t),
                    "file {i}: {t}"
                );
                assert!(t >= last, "timestamps go backwards in file {i}");
                last = t;
            }
        }
        assert_eq!(decode(&archives.files).store.len() as u64, archives.written);
    }

    #[test]
    fn peers_fill_the_target_and_every_fifth_peers_twice() {
        let scenario = world(9, SCALE);
        let rib = scenario.simulator().collect_rib(&scenario.vps);
        let peers = choose_peers(&scenario, rib.iter(), 9, TARGET);
        let kept = rib.iter().filter(|o| peers.contains(&o.vp)).count() as u64;
        assert!(kept <= TARGET && kept > TARGET * 9 / 10, "kept {kept}");
        assert_eq!(peers, choose_peers(&scenario, rib.iter(), 9, TARGET));
        assert_ne!(peers, choose_peers(&scenario, rib.iter(), 10, TARGET));

        let split = split_by_collector(&rib, &peers);
        let total: usize = split.iter().map(Vec::len).sum();
        let multihomed: BTreeSet<Asn> = peers
            .iter()
            .enumerate()
            .filter(|(i, _)| i % MULTIHOME_EVERY == MULTIHOME_EVERY - 1)
            .map(|(_, &asn)| asn)
            .collect();
        let extra = rib.iter().filter(|o| multihomed.contains(&o.vp)).count();
        assert_eq!(total as u64, kept + extra as u64);
    }
}
