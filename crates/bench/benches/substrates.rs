//! Substrate benchmarks: SDF encode/decode/verify (the data-plane cost
//! of every produced step and every resident open) and the two digests
//! behind them, simulator stepping (what a re-simulation spends its
//! `tau_sim` on), trace generation, and the transport under the
//! reactor: one acquire-sized echo round trip over each socket family
//! `simfs_core::net` chooses between; and a step read by name against
//! the cached `StepReader` a transparent open uses, checked on disk or
//! proven by a pin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simfs_core::reactor::{ConnCtx, Handler, Reactor};
use simfs_core::wire::{self, FrameBatch, Request, Response};
use simkit::SeedSeq;
use simstore::{fnv1a64, sdf, xxh64, Data, Dataset, StorageArea};
use simtrace::EcmwfSpec;
use simulators::{build_sim, SimKind};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;

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

/// Null handler: every frame is answered with one `Ready`, no DV
/// behind it — what is left is the socket, the wake and the framing.
struct Echo;

impl Handler for Echo {
    fn on_frame(&mut self, _frame: &[u8], cx: &mut ConnCtx<'_>) -> bool {
        let mut reply = FrameBatch::new();
        reply.push_response(&Response::Ready { req_id: 1, key: 1 });
        cx.write(reply.as_bytes());
        true
    }

    fn on_close(&mut self) {}
}

/// One blocking request/response exchange, as DVLib's `acquire` does it.
fn echo_round_trip(stream: &mut (impl Read + Write), body: &[u8]) -> usize {
    wire::write_frame(stream, body).unwrap();
    wire::read_frame(stream).unwrap().expect("echo").len()
}

/// Acquire-sized echo round trips through the shipping `Reactor`, once
/// over a loopback `TcpStream` pair and once over a `UnixStream` pair:
/// the two arms of `simfs_core::net`, same frames, same reactor, same
/// handler. (`simfs_bench`'s `probe.reactor.echo_*` brings its own
/// `TcpStream` and so measures the first arm only.)
fn bench_transport(c: &mut Criterion) {
    let reactor = Reactor::start(1).unwrap();
    let body = Request::Acquire {
        req_id: 1,
        keys: vec![1],
    }
    .encode();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut tcp = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    tcp.set_nodelay(true).unwrap();
    let (served, _) = listener.accept().unwrap();
    served.set_nodelay(true).unwrap();
    served.set_nonblocking(true).unwrap();
    reactor.submit(served, Box::new(Echo));

    let (mut unix, served) = UnixStream::pair().unwrap();
    served.set_nonblocking(true).unwrap();
    reactor.submit(served, Box::new(Echo));

    let mut group = c.benchmark_group("transport");
    group.bench_function("echo_rtt_tcp", |b| {
        b.iter(|| black_box(echo_round_trip(&mut tcp, &body)))
    });
    group.bench_function("echo_rtt_unix", |b| {
        b.iter(|| black_box(echo_round_trip(&mut unix, &body)))
    });
    group.finish();
    reactor.shutdown();
}

/// One step read three ways: by name (`StorageArea::read`: path join,
/// path walk, open, statx, read to end, close), through a `StepReader`
/// whose file is already cached and checked on disk (`fstat` + `pread`
/// into a reused buffer, plus the sweep's `fstat` of another entry), and
/// through the same reader behind a pin's residency proof (`pread`
/// only, the sweep judged by the table) — at the 8 KiB step of the
/// end-to-end benchmark and at 1 MiB, where the copy dominates. Beside
/// them, `resident_open` is the data plane of a steady-state resident
/// open: a proven read of an 8 KiB SDF step plus its decode. The area
/// sits a few directories deep, as a real storage area does, so the
/// by-name walk is not flattered.
fn bench_step_read(c: &mut Criterion) {
    let root = std::env::temp_dir().join(format!(
        "simfs-step-read-{}/work/run/ctx/storage",
        std::process::id()
    ));
    let area = StorageArea::create(&root, u64::MAX).unwrap();
    // Every key resident under one epoch, as a mapped session's table
    // would prove it.
    let table = |key: u64| Some(key << 32 | 1);
    let mut group = c.benchmark_group("step_read");
    for (label, size) in [("8KiB", 8 << 10), ("1MiB", 1 << 20)] {
        let name = format!("out-{size:06}.sdf");
        let bytes: Vec<u8> = (0..size).map(|i| i as u8).collect();
        area.publish(&name, &bytes).unwrap();
        // The second read caches the file; a neighbour gives the sweep
        // an entry to probe.
        let mut reader = area.reader();
        area.publish("neighbour", b"n").unwrap();
        for _ in 0..2 {
            assert_eq!(reader.read(1, &name).unwrap(), &bytes[..]);
            reader.read(2, "neighbour").unwrap();
        }
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::new("by_name", label), |b| {
            b.iter(|| black_box(area.read(black_box(&name)).unwrap().len()))
        });
        group.bench_function(BenchmarkId::new("cached", label), |b| {
            b.iter(|| black_box(reader.read(1, black_box(&name)).unwrap().len()))
        });
        reader.read_proven(2, "neighbour", table(2), &table).unwrap();
        group.bench_function(BenchmarkId::new("proven", label), |b| {
            b.iter(|| {
                let read = reader.read_proven(1, black_box(&name), table(1), &table);
                black_box(read.unwrap().len())
            })
        });
    }
    // The 8 KiB step of the end-to-end benchmark, as an SDF dataset.
    let mut ds = Dataset::new(3, 0.5);
    ds.set_attr("simulator", "heat2d");
    let field: Vec<f64> = (0..1024).map(|i| f64::from(i).sqrt()).collect();
    ds.add_var("u", vec![32, 32], Data::F64(field)).unwrap();
    let step = ds.encode();
    area.publish("out-000003.sdf", &step).unwrap();
    let mut reader = area.reader();
    for _ in 0..2 {
        reader.read_proven(3, "out-000003.sdf", table(3), &table).unwrap();
    }
    group.throughput(Throughput::Bytes(step.len() as u64));
    group.bench_function(BenchmarkId::new("resident_open", "8KiB"), |b| {
        b.iter(|| {
            let bytes = reader.read_proven(3, black_box("out-000003.sdf"), table(3), &table);
            black_box(Dataset::decode(bytes.unwrap()).unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(root.ancestors().nth(4).unwrap());
}

criterion_group!(
    benches,
    bench_sdf,
    bench_checksum,
    bench_simulators,
    bench_traces,
    bench_transport,
    bench_step_read
);
criterion_main!(benches);
