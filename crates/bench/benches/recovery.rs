//! Throughput of the one MRT framing loop, the recovering reader: on a
//! clean stream, and on damaged input where it resyncs past framing
//! damage.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bgp_mrt::faults::corrupt_stream;
use bgp_mrt::obs::write_update_stream;
use bgp_mrt::RecoveringReader;
use bgp_types::{AsPath, Asn, Community, Observation};

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

fn update_stream(n: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    write_update_stream(&mut wire, Asn::new(6447), &sample_observations(n)).unwrap();
    wire
}

fn bench_clean(c: &mut Criterion) {
    let wire = update_stream(2_000);
    let mut group = c.benchmark_group("recovery/clean");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("recovering_reader", |b| {
        b.iter(|| {
            RecoveringReader::new(&wire[..])
                .filter(|r| r.is_ok())
                .count()
        })
    });
    group.finish();
}

fn bench_corrupted(c: &mut Criterion) {
    let clean = update_stream(2_000);
    let mut group = c.benchmark_group("recovery/corrupted");
    for percent in [1u32, 5] {
        let (damaged, _) = corrupt_stream(&clean, 42, percent as f64 / 100.0);
        group.throughput(Throughput::Bytes(damaged.len() as u64));
        group.bench_function(format!("recovering_reader/{percent}pct"), |b| {
            b.iter(|| {
                RecoveringReader::new(&damaged[..])
                    .filter(|r| r.is_ok())
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clean, bench_corrupted);
criterion_main!(benches);
