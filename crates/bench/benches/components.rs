//! Component micro-benchmarks: cache access paths, synthetic trace
//! generation and admission tests (Section 7.5's cost scaling). Raw node
//! simulation throughput is timed by `cmpqos bench`
//! (`node_four_pinned_gobmk`, ns per simulated instruction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cmpqos_cache::{CacheConfig, DuplicateTagMonitor, L1Cache, PartitionPolicy, SharedL2};
use cmpqos_core::{AdmissionRequest, Lac, LacConfig, ResourceRequest};
use cmpqos_trace::{spec, TraceSource};
use cmpqos_types::{CoreId, Cycles, JobId, Ways};

fn bench_l1(c: &mut Criterion) {
    let mut group = c.benchmark_group("l1_cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("access_hit", |b| {
        let mut l1 = L1Cache::new(CacheConfig::paper_l1());
        l1.access(0x1000, false);
        b.iter(|| black_box(l1.access(black_box(0x1000), false)));
    });
    group.bench_function("access_miss_stream", |b| {
        let mut l1 = L1Cache::new(CacheConfig::paper_l1());
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64;
            black_box(l1.access(black_box(addr), false))
        });
    });
    group.finish();
}

fn bench_l2(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_cache");
    group.throughput(Throughput::Elements(1));
    for policy in [
        PartitionPolicy::Unpartitioned,
        PartitionPolicy::PerSet,
        PartitionPolicy::Global,
    ] {
        group.bench_with_input(
            BenchmarkId::new("miss_stream", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                let mut l2 = SharedL2::new(CacheConfig::paper_l2(), 4, policy);
                l2.set_targets(&[Ways::new(4); 4]).unwrap();
                let mut addr = 0u64;
                b.iter(|| {
                    addr += 64;
                    black_box(l2.access(CoreId::new((addr / 64 % 4) as u32), addr, false))
                });
            },
        );
    }
    group.bench_function("shadow_observe", |b| {
        let mut mon = DuplicateTagMonitor::new(Ways::new(7), 2048, 8);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            mon.observe((i % 2048) as u32, i % 4096, i.is_multiple_of(5));
        });
    });
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(1));
    for bench in ["bzip2", "gobmk", "libquantum"] {
        group.bench_with_input(
            BenchmarkId::new("next_instruction", bench),
            &bench,
            |b, n| {
                let mut t = spec::benchmark(n).unwrap().instantiate(1, 0);
                b.iter(|| black_box(t.next_instruction()));
            },
        );
    }
    group.finish();
}

/// Section 7.5: the admission test's cost grows linearly with the live
/// reservation count and stays trivially small in absolute terms.
fn bench_lac(c: &mut Criterion) {
    let mut group = c.benchmark_group("lac_admission");
    for reservations in [0usize, 10, 100] {
        group.bench_with_input(
            BenchmarkId::new("admit", reservations),
            &reservations,
            |b, &n| {
                let mut lac = Lac::new(LacConfig::default());
                for i in 0..n {
                    let _ = lac.admit(
                        &AdmissionRequest::builder(
                            JobId::new(i as u32),
                            ResourceRequest::new(1, Ways::new(1)),
                            Cycles::new(1_000_000),
                        )
                        .build(),
                    );
                }
                let mut next = n as u32;
                b.iter(|| {
                    next += 1;
                    let req = AdmissionRequest::builder(
                        JobId::new(next),
                        ResourceRequest::paper_job(),
                        Cycles::new(100),
                    )
                    .deadline(Cycles::new(150))
                    .build();
                    let d = lac.admit(&req);
                    lac.cancel(JobId::new(next));
                    black_box(d)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_l1, bench_l2, bench_trace, bench_lac);
criterion_main!(benches);
