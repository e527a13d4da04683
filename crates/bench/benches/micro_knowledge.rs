//! Criterion micro-benchmarks for the knowledge (version vector +
//! exceptions) structure: insert, merge, and membership — the hot path of
//! every synchronization — and, at the knowledge sizes the ledger reports
//! (`pfr.knowledge_entries_mean` 26 / 74 / 145) plus one past a block
//! split of the sorted arrays behind it (4,096), what a clone, a merge
//! and a sync candidate walk cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pfr::{Filter, Item, ItemId, Knowledge, Replica, ReplicaId, SimTime, Version};

/// The ledger's three mean knowledge sizes, and one past a block split.
const ENTRY_COUNTS: [u64; 4] = [26, 74, 145, 4096];

/// Knowledge of `entries` entries shaped like a DTN node's: a third
/// vector entries (prefix 10), the rest exceptions above them (even
/// counters, so none folds). `offset` shifts the exceptions, so two
/// builds with different offsets each hold versions the other lacks.
fn sized_knowledge(entries: u64, offset: u64) -> Knowledge {
    let origins = (entries / 3).max(1);
    let mut k = Knowledge::new();
    for r in 1..=origins {
        k.insert_prefix(ReplicaId::new(r), 10);
    }
    for i in 0..entries - origins {
        let (origin, nth) = (1 + i % origins, i / origins);
        k.insert(Version::new(ReplicaId::new(origin), 12 + offset + 4 * nth));
    }
    k
}

/// A replica storing `items` foreign items from 34 origins, counters
/// 1..: what a flooding node's store looks like to a requester.
fn stocked_replica(items: u64) -> Replica {
    let mut replica = Replica::new(ReplicaId::new(1_000_000), Filter::None);
    for i in 0..items {
        let (origin, seq) = (ReplicaId::new(1 + i % 34), 1 + i / 34);
        let item = Item::builder(ItemId::new(origin, seq), Version::new(origin, seq)).build();
        replica.apply_remote(item, SimTime::ZERO);
    }
    replica
}

fn build_knowledge(replicas: u64, versions_each: u64) -> Knowledge {
    let mut k = Knowledge::new();
    for r in 1..=replicas {
        k.insert_prefix(ReplicaId::new(r), versions_each);
    }
    k
}

fn bench_insert_in_order(c: &mut Criterion) {
    c.bench_function("knowledge/insert_in_order_1k", |b| {
        b.iter(|| {
            let mut k = Knowledge::new();
            for counter in 1..=1000u64 {
                k.insert(Version::new(ReplicaId::new(1), counter));
            }
            black_box(k)
        })
    });
}

fn bench_insert_out_of_order(c: &mut Criterion) {
    c.bench_function("knowledge/insert_reverse_1k", |b| {
        b.iter(|| {
            let mut k = Knowledge::new();
            for counter in (1..=1000u64).rev() {
                k.insert(Version::new(ReplicaId::new(1), counter));
            }
            black_box(k)
        })
    });
}

fn bench_contains(c: &mut Criterion) {
    let k = build_knowledge(50, 1000);
    c.bench_function("knowledge/contains_hit", |b| {
        b.iter(|| black_box(k.contains(Version::new(ReplicaId::new(25), 500))))
    });
    c.bench_function("knowledge/contains_miss", |b| {
        b.iter(|| black_box(k.contains(Version::new(ReplicaId::new(25), 5000))))
    });
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge/merge");
    for replicas in [10u64, 50, 200] {
        let a = build_knowledge(replicas, 100);
        let b_k = build_knowledge(replicas, 200);
        group.bench_with_input(BenchmarkId::from_parameter(replicas), &replicas, |b, _| {
            b.iter(|| {
                let mut merged = a.clone();
                merged.merge(&b_k);
                black_box(merged)
            })
        });
    }
    group.finish();
}

fn bench_sized(c: &mut Criterion) {
    for entries in ENTRY_COUNTS {
        let (a, b_k) = (sized_knowledge(entries, 0), sized_knowledge(entries, 2));
        let mut group = c.benchmark_group(&format!("knowledge/{entries}_entries"));
        group.bench_function("clone", |b| b.iter(|| black_box(a.clone())));
        group.bench_function("merge_learning", |b| {
            b.iter(|| {
                let mut merged = a.clone();
                black_box(merged.merge(&b_k));
                merged
            })
        });
        let superset = {
            let mut merged = a.clone();
            merged.merge(&b_k);
            merged
        };
        group.bench_function("merge_nothing_new", |b| {
            b.iter(|| {
                let mut merged = superset.clone();
                black_box(merged.merge(&b_k));
                merged
            })
        });
        // The store a requester of that size meets: the paper trace's
        // 490 messages, or one past a block split of the indexes.
        let replica = stocked_replica(if entries > 490 { entries } else { 490 });
        group.bench_function("candidate_walk", |b| {
            b.iter(|| black_box(replica.versions_unknown_to(&a)))
        });
        group.finish();
    }
}

/// Short sampling profile: micro-benchmarks here are stable enough that
/// 2-second measurement windows give tight intervals.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .nresamples(10_000)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_insert_in_order,
    bench_insert_out_of_order,
    bench_contains,
    bench_merge,
    bench_sized
}
criterion_main!(benches);
