//! Substrate benchmarks: SDF encode/decode/verify (the data-plane cost
//! of every produced step and every resident open) and the two digests
//! behind them, simulator stepping (what a re-simulation spends its
//! `tau_sim` on), trace generation, and the transport under the
//! reactor: one acquire-sized echo round trip over each socket family
//! `simfs_core::net` chooses between.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simfs_core::reactor::{ConnCtx, Handler, Reactor};
use simfs_core::wire::{self, FrameBatch, Request, Response};
use simkit::SeedSeq;
use simstore::{fnv1a64, sdf, xxh64, Data, Dataset};
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

criterion_group!(
    benches,
    bench_sdf,
    bench_checksum,
    bench_simulators,
    bench_traces,
    bench_transport
);
criterion_main!(benches);
