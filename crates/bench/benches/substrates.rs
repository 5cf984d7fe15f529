//! Substrate benchmarks: SDF encode/decode/verify (the data-plane cost
//! of every produced step and every resident open) and the two digests
//! behind them, simulator stepping (what a re-simulation spends its
//! `tau_sim` on), and trace generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simkit::SeedSeq;
use simstore::{fnv1a64, sdf, xxh64, Data, Dataset};
use simtrace::EcmwfSpec;
use simulators::{build_sim, SimKind};
use std::hint::black_box;

fn bench_sdf(c: &mut Criterion) {
    let mut ds = Dataset::new(7, 1.25);
    ds.set_attr("simulator", "heat2d");
    let field: Vec<f64> = (0..64 * 64).map(|i| (i as f64).sin()).collect();
    ds.add_var("u", vec![64, 64], Data::F64(field)).unwrap();
    let encoded = ds.encode();

    let mut group = c.benchmark_group("sdf");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_64x64_f64", |b| b.iter(|| black_box(ds.encode())));
    group.bench_function("decode_64x64_f64", |b| {
        b.iter(|| black_box(Dataset::decode(&encoded).unwrap()))
    });
    group.bench_function("verify_64x64_f64", |b| {
        b.iter(|| black_box(sdf::verify(&encoded)))
    });
    group.finish();
}

/// The two digests over one output step's worth of bytes (8 KiB, what
/// `simfs_bench`'s heat2d step weighs): FNV-1a is the whole-file
/// Bitrep digest, XXH64 the SDF footer.
fn bench_checksum(c: &mut Criterion) {
    let data: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("fnv1a64_8k", |b| b.iter(|| black_box(fnv1a64(black_box(&data)))));
    group.bench_function("xxh64_8k", |b| b.iter(|| black_box(xxh64(black_box(&data)))));
    group.finish();
}

fn bench_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_step");
    for kind in [SimKind::Synthetic, SimKind::Heat2d, SimKind::Sedov] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                let mut sim = build_sim(kind, 1);
                b.iter(|| {
                    sim.step();
                    black_box(sim.timestep())
                })
            },
        );
    }
    group.finish();
}

fn bench_traces(c: &mut Criterion) {
    c.bench_function("ecmwf_trace_10k", |b| {
        let spec = EcmwfSpec::scaled(10_000);
        b.iter(|| {
            let mut rng = SeedSeq::new(5).rng(0);
            black_box(spec.generate(&mut rng).len())
        })
    });
}

criterion_group!(benches, bench_sdf, bench_checksum, bench_simulators, bench_traces);
criterion_main!(benches);
