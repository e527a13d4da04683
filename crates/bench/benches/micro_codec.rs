//! Criterion micro-benchmarks for the wire codec: the paper's "compact
//! metadata" claim in numbers — encoded sizes and encode/decode speed for
//! knowledge and sync batches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pfr::wire::{from_bytes, to_bytes};
use pfr::{AttributeMap, Filter, Item, ItemId, Knowledge, ReplicaId, Version};

fn sample_knowledge() -> Knowledge {
    let mut k = Knowledge::new();
    for r in 1..=34 {
        k.insert_prefix(ReplicaId::new(r), 500);
    }
    for c in [600u64, 612, 700] {
        k.insert(Version::new(ReplicaId::new(1), c));
    }
    k
}

fn sample_item() -> Item {
    let mut attrs = AttributeMap::new();
    attrs.set("dest", "bus-17");
    attrs.set("src", "bus-3");
    attrs.set("sent_at", 28_800i64);
    Item::builder(
        ItemId::new(ReplicaId::new(3), 42),
        Version::new(ReplicaId::new(3), 42),
    )
    .attrs(attrs)
    .transient_attr("dtn.ttl", 10i64)
    .payload(vec![0xab; 120])
    .build()
}

fn bench_knowledge_codec(c: &mut Criterion) {
    let k = sample_knowledge();
    let bytes = to_bytes(&k);
    println!(
        "encoded knowledge (34 replicas x 500 versions): {} bytes",
        bytes.len()
    );
    c.bench_function("codec/knowledge_encode", |b| {
        b.iter(|| black_box(to_bytes(&k)))
    });
    c.bench_function("codec/knowledge_decode", |b| {
        b.iter(|| black_box(from_bytes::<Knowledge>(&bytes).expect("decode")))
    });
}

/// Knowledge of `entries` entries, a third of them vector entries and
/// the rest exceptions — the sizes the ledger reports as
/// `pfr.knowledge_entries_mean` (26 / 74 / 145) and one past a block
/// split of the decoded arrays (4,096).
fn sized_knowledge(entries: u64) -> Knowledge {
    let origins = (entries / 3).max(1);
    let mut k = Knowledge::new();
    for r in 1..=origins {
        k.insert_prefix(ReplicaId::new(r), 10);
    }
    for i in 0..entries - origins {
        k.insert(Version::new(
            ReplicaId::new(1 + i % origins),
            12 + 4 * (i / origins),
        ));
    }
    k
}

fn bench_sized_knowledge_codec(c: &mut Criterion) {
    for entries in [26u64, 74, 145, 4096] {
        let k = sized_knowledge(entries);
        let bytes = to_bytes(&k);
        println!(
            "encoded knowledge ({entries} entries): {} bytes",
            bytes.len()
        );
        c.bench_function(&format!("codec/knowledge_{entries}_encode"), |b| {
            b.iter(|| black_box(to_bytes(&k)))
        });
        c.bench_function(&format!("codec/knowledge_{entries}_decode"), |b| {
            b.iter(|| black_box(from_bytes::<Knowledge>(&bytes).expect("decode")))
        });
    }
}

fn bench_item_codec(c: &mut Criterion) {
    let item = sample_item();
    let bytes = to_bytes(&item);
    println!(
        "encoded message item (120-byte payload): {} bytes",
        bytes.len()
    );
    c.bench_function("codec/item_encode", |b| {
        b.iter(|| black_box(to_bytes(&item)))
    });
    c.bench_function("codec/item_decode", |b| {
        b.iter(|| black_box(from_bytes::<Item>(&bytes).expect("decode")))
    });
}

fn bench_filter_codec(c: &mut Criterion) {
    let filter = Filter::any_address(
        "dest",
        (0..16)
            .map(|i| format!("bus-{i}"))
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str),
    );
    let bytes = to_bytes(&filter);
    println!("encoded 16-address filter: {} bytes", bytes.len());
    c.bench_function("codec/filter_encode", |b| {
        b.iter(|| black_box(to_bytes(&filter)))
    });
    c.bench_function("codec/filter_decode", |b| {
        b.iter(|| black_box(from_bytes::<Filter>(&bytes).expect("decode")))
    });
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
    targets = bench_knowledge_codec,
    bench_sized_knowledge_codec,
    bench_item_codec,
    bench_filter_codec
}
criterion_main!(benches);
