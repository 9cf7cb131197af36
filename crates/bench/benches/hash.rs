//! Hashing micro-benchmarks: the cost model behind §4.1's computational
//! overhead analysis (the paper cites ~32 MB/s MD5 throughput; these
//! benches report this machine's numbers for EXPERIMENTS.md).

use avmon::{Config, HashSelector, MonitorSelector, NodeId};
use avmon_hash::{Fast64PairHasher, Md5PairHasher, PairHasher};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn pair_hashers(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_hash_12B");
    // The consistency condition hashes exactly 12 bytes.
    let input = NodeId::pair_bytes(NodeId::from_index(17), NodeId::from_index(39));
    group.throughput(Throughput::Bytes(12));
    group.bench_function("md5", |b| {
        let h = Md5PairHasher::new();
        b.iter(|| h.point(std::hint::black_box(&input)))
    });
    group.bench_function("fast64", |b| {
        let h = Fast64PairHasher::new();
        b.iter(|| h.point(std::hint::black_box(&input)))
    });
    group.finish();
}

fn digest_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("digest_throughput");
    let data = vec![0xa5u8; 64 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("md5_64k", |b| {
        b.iter(|| avmon_hash::md5(std::hint::black_box(&data)))
    });
    group.finish();
}

fn consistency_scan(c: &mut Criterion) {
    // The Fig. 2 pair scan: 2·(cvs+2)² condition checks — the paper's §4.1
    // estimates ~1000 checks per period at cvs = 32.
    let mut group = c.benchmark_group("consistency_scan");
    for cvs in [16usize, 32, 64] {
        let config = Config::builder(1_000_000).cvs(cvs).build().unwrap();
        let selector = HashSelector::from_config(&config);
        let side_a: Vec<NodeId> = (0..cvs as u32 + 2).map(NodeId::from_index).collect();
        let side_b: Vec<NodeId> = (1000..1000 + cvs as u32 + 2)
            .map(NodeId::from_index)
            .collect();
        group.throughput(Throughput::Elements(
            (2 * side_a.len() * side_b.len()) as u64,
        ));
        group.bench_with_input(BenchmarkId::new("fast64", cvs), &cvs, |b, _| {
            b.iter(|| {
                let mut matches = 0u32;
                for &u in &side_a {
                    for &v in &side_b {
                        matches += u32::from(selector.is_monitor(u, v));
                        matches += u32::from(selector.is_monitor(v, u));
                    }
                }
                matches
            })
        });
        let md5_selector = {
            let (k, n) = config.threshold_ratio();
            HashSelector::new(Md5PairHasher::new(), k, n)
        };
        group.bench_with_input(BenchmarkId::new("md5", cvs), &cvs, |b, _| {
            b.iter(|| {
                let mut matches = 0u32;
                for &u in &side_a {
                    for &v in &side_b {
                        matches += u32::from(md5_selector.is_monitor(u, v));
                        matches += u32::from(md5_selector.is_monitor(v, u));
                    }
                }
                matches
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = pair_hashers, digest_throughput, consistency_scan
}
criterion_main!(benches);
