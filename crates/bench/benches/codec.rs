//! Wire codec throughput: the MRT/BGP encode and parse paths every
//! experiment exercises, the checksum that seals every persisted file,
//! and the segment load and merge behind every checkpoint restart and
//! every multi-file or sharded run.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bgp_intent::{Checkpoint, StatsAccumulator};
use bgp_relationships::SiblingMap;

use bgp_mrt::attrs::{decode_attrs, encode_attrs, AttrCtx, EncodeOpts};
use bgp_mrt::cursor::Cursor;
use bgp_mrt::obs::{read_observations, write_rib_dump, write_update_stream};
use bgp_types::persist::checksum;
use bgp_types::{AsPath, Asn, Community, Observation, RouteAttrs};

fn sample_route(communities: usize) -> RouteAttrs {
    let mut route = RouteAttrs::originated(
        AsPath::from_sequence([64500, 7018, 1299, 399260].map(Asn::new)),
        std::net::IpAddr::from([203, 0, 113, 1]),
    );
    route.med = Some(70);
    for i in 0..communities as u16 {
        route.add_community(Community::new(1299, 20_000 + i));
    }
    route
}

fn sample_observations(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|i| Observation {
            vp: Asn::new(64_500 + (i as u32 % 40)),
            prefix: format!("10.{}.{}.0/24", (i / 250) % 250, i % 250)
                .parse()
                .unwrap(),
            path: AsPath::from_sequence(
                [
                    64_500 + (i as u32 % 40),
                    7018,
                    1299,
                    40_000 + (i as u32 % 500),
                ]
                .map(Asn::new),
            ),
            communities: (0..8).map(|k| Community::new(1299, 20_000 + k)).collect(),
            large_communities: Vec::new(),
            time: 1_682_899_200,
        })
        .collect()
}

fn bench_attrs(c: &mut Criterion) {
    let mut group = c.benchmark_group("attrs");
    for n_comm in [2usize, 16, 64] {
        let route = sample_route(n_comm);
        let wire = encode_attrs(&route, AttrCtx::TABLE_DUMP_V2, &EncodeOpts::default()).unwrap();
        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_function(format!("encode/{n_comm}comms"), |b| {
            b.iter(|| encode_attrs(&route, AttrCtx::TABLE_DUMP_V2, &EncodeOpts::default()).unwrap())
        });
        group.bench_function(format!("decode/{n_comm}comms"), |b| {
            b.iter(|| {
                let mut cur = Cursor::new(&wire);
                decode_attrs(&mut cur, AttrCtx::TABLE_DUMP_V2).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_mrt_files(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrt");
    group.sample_size(20);
    let observations = sample_observations(10_000);

    let mut rib_wire = Vec::new();
    write_rib_dump(&mut rib_wire, 0, &observations).unwrap();
    group.throughput(Throughput::Bytes(rib_wire.len() as u64));
    group.bench_function("write_rib_dump/10k", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(rib_wire.len());
            write_rib_dump(&mut out, 0, &observations).unwrap();
            out
        })
    });
    group.bench_function("read_rib_dump/10k", |b| {
        b.iter(|| read_observations(&rib_wire[..]).unwrap())
    });

    let mut upd_wire = Vec::new();
    write_update_stream(&mut upd_wire, Asn::new(6447), &observations).unwrap();
    group.throughput(Throughput::Bytes(upd_wire.len() as u64));
    group.bench_function("write_updates/10k", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(upd_wire.len());
            write_update_stream(&mut out, Asn::new(6447), &observations).unwrap();
            out
        })
    });
    group.bench_function("read_updates/10k", |b| {
        b.iter(|| read_observations(&upd_wire[..]).unwrap())
    });
    group.finish();
}

/// The checksum every sealed file, watch log range and input fingerprint
/// uses, over a buffer a sealed manifest might be and one the size of a
/// shard artifact.
fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist");
    for (name, len) in [("64KiB", 64 << 10), ("16MiB", 16 << 20)] {
        let bytes: Vec<u8> = (0..len).map(|i: usize| (i * 37 + 11) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(format!("checksum/{name}"), |b| {
            b.iter(|| checksum(black_box(&bytes)))
        });
    }
    group.finish();
}

/// `n` observations on `n` distinct paths, from the `first`-th on, with
/// lists of six communities drawn from a few thousand, so lists repeat
/// across paths as in a collector dump.
fn segment_observations(first: u32, n: u32) -> Vec<Observation> {
    (first..first + n)
        .map(|i| Observation {
            vp: Asn::new(64_500 + i % 40),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: AsPath::from_sequence([64_500 + i % 40, 7018, 1299, 200_000 + i].map(Asn::new)),
            communities: (0..6)
                .map(|k| Community::new(1299 + (k % 3) as u16, ((i * 7 + k * 131) % 3_000) as u16))
                .collect(),
            large_communities: Vec::new(),
            time: 1_682_899_200,
        })
        .collect()
}

/// A bench body timing `routine` once per sample, which also prints the
/// mean per tuple of the `tuples` it reads.
fn per_tuple(
    name: &'static str,
    tuples: usize,
    mut routine: impl FnMut() -> Duration,
) -> impl FnMut(&mut criterion::Bencher) {
    move |b| {
        let (mut spent, mut runs) = (Duration::ZERO, 0u64);
        b.iter_custom(|iters| {
            let elapsed: Duration = (0..iters).map(|_| routine()).sum();
            spent += elapsed;
            runs += iters;
            elapsed
        });
        let ns = spent.as_nanos() as f64 / (runs * tuples as u64) as f64;
        println!("{name}: {ns:.1} ns per tuple");
    }
}

/// The segment layer under a restart and a merge, warn-only like the
/// checksum: `checkpoint/load` loads a batch checkpoint whose segment holds
/// 120k paths (manifest, mapped log range, checksum, the three tables
/// built), and `segment/merge` merges a 120k-path segment, half of its
/// paths new, into another. Both report ns per tuple of the segment they
/// read.
fn bench_segment(c: &mut Criterion) {
    let siblings = SiblingMap::default();
    let mut base = StatsAccumulator::new();
    base.ingest_ordered(&segment_observations(0, 120_000), &siblings);
    let mut other = StatsAccumulator::new();
    other.ingest_ordered(&segment_observations(60_000, 120_000), &siblings);

    let dir = std::env::temp_dir().join(format!("bgp-bench-segment-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("load.ckpt");
    let mut checkpoint = Checkpoint::new();
    checkpoint.snapshot = base.clone();
    checkpoint.save_atomic(&path).unwrap();
    let tuples = base.to_stats().unique_tuples;
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(10);
    group.throughput(Throughput::Elements(tuples as u64));
    group.bench_function(
        "load",
        per_tuple("checkpoint/load", tuples, || {
            let start = Instant::now();
            black_box(Checkpoint::load(&path).unwrap());
            start.elapsed()
        }),
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);

    let tuples = other.to_stats().unique_tuples;
    let mut group = c.benchmark_group("segment");
    group.sample_size(10);
    group.throughput(Throughput::Elements(tuples as u64));
    group.bench_function(
        "merge",
        per_tuple("segment/merge", tuples, || {
            // A change ends the sharing with `base`: its copy is made here,
            // before the timer starts.
            let mut into = base.clone();
            into.ingest_ordered(&segment_observations(0, 1), &siblings);
            let start = Instant::now();
            into.merge(other.clone());
            let spent = start.elapsed();
            black_box(into);
            spent
        }),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_attrs,
    bench_mrt_files,
    bench_checksum,
    bench_segment
);
criterion_main!(benches);
