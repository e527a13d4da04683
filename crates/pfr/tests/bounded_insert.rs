//! One insert moves a bounded block, pinned as a ratio.
//!
//! Knowledge entries and stored items arrive one at a time from socket
//! input, in whatever order a peer chooses. The sorted arrays behind
//! [`Knowledge`] and the item store are cut into fixed-size blocks so
//! that the worst order — descending, every insert at the very front —
//! costs a constant factor over the best, not a factor of the size (a
//! single `Vec` is ≈ 1000× slower descending at these sizes). The tests
//! compare the two orders on the same host in the same process, so the
//! bound holds wherever they run; they need an optimised build to mean
//! anything and are ignored without one
//! (`cargo test -p replidtn-pfr --release`).

use std::time::{Duration, Instant};

use pfr::{
    Filter, Item, ItemId, Knowledge, Replica, ReplicaId, ReplicaParts, SimTime, StoreKind, Version,
};

const ENTRIES: u64 = 200_000;
const PER_ORIGIN: u64 = 200;
/// How much slower than ascending the descending order may be.
const BOUND: u32 = 20;

/// The fastest of five runs of `work` on a fresh `input()`.
fn fastest<I, O>(input: impl Fn() -> I, work: impl Fn(I) -> O) -> Duration {
    (0..5)
        .map(|_| {
            let input = input();
            let started = Instant::now();
            let output = work(input);
            let took = started.elapsed();
            std::hint::black_box(output);
            took
        })
        .min()
        .expect("five runs")
}

fn assert_bounded(what: &str, ascending: Duration, descending: Duration) {
    eprintln!(
        "{what}: ascending {ascending:?}, descending {descending:?} ({:.1}x)",
        descending.as_secs_f64() / ascending.as_secs_f64()
    );
    assert!(
        descending <= ascending * BOUND,
        "{what}: descending {descending:?} is more than {BOUND}x ascending {ascending:?}"
    );
}

/// Learning [`ENTRIES`] exceptions, [`PER_ORIGIN`] an origin `stride`
/// counters apart, descending costs a constant factor over ascending.
fn assert_learning_bounded(what: &str, stride: u64) {
    // Counters from 2 up: every version stays an exception, none folds.
    let versions = || -> Vec<Version> {
        (0..ENTRIES)
            .map(|i| {
                let counter = 2 + stride * (i % PER_ORIGIN);
                Version::new(ReplicaId::new(1 + i / PER_ORIGIN), counter)
            })
            .collect()
    };
    let learn = |versions: Vec<Version>| {
        let mut k = Knowledge::new();
        for v in versions {
            k.insert(v);
        }
        assert_eq!(k.exception_count() as u64, ENTRIES);
        k
    };
    let ascending = fastest(versions, learn);
    let descending = fastest(
        || {
            let mut versions = versions();
            versions.reverse();
            versions
        },
        learn,
    );
    assert_bounded(what, ascending, descending);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio: run with --release")]
fn learning_single_versions_in_descending_order_stays_within_a_constant_factor() {
    // Two apart: 32 exceptions share each 64-bit word.
    assert_learning_bounded("Knowledge::insert", 2);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio: run with --release")]
fn learning_versions_that_each_open_a_word_in_descending_order_stays_within_a_constant_factor() {
    // A word apart: every insert opens a new word, so the word map takes
    // one entry per version, each at its front when descending.
    assert_learning_bounded("Knowledge::insert, a word each", 64);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio: run with --release")]
fn putting_items_in_descending_id_order_stays_within_a_constant_factor() {
    let parts = |descending: bool| {
        let mut items: Vec<(Item, StoreKind, SimTime)> = (0..ENTRIES)
            .map(|i| {
                let (origin, seq) = (ReplicaId::new(1 + i / PER_ORIGIN), 1 + i % PER_ORIGIN);
                let item =
                    Item::builder(ItemId::new(origin, seq), Version::new(origin, seq)).build();
                (item, StoreKind::InFilter, SimTime::ZERO)
            })
            .collect();
        if descending {
            items.reverse();
        }
        ReplicaParts {
            id: ReplicaId::new(9_999_999),
            filter: Filter::All,
            knowledge: Knowledge::new(),
            next_item_seq: 0,
            next_version_counter: 0,
            relay_limit: None,
            items,
            relay_fifo: Vec::new(),
        }
    };
    // `from_parts` puts the items one by one, in the order given.
    let build = |parts: ReplicaParts| {
        let replica = Replica::from_parts(parts);
        assert_eq!(replica.item_count() as u64, ENTRIES);
        replica
    };
    let ascending = fastest(|| parts(false), build);
    let descending = fastest(|| parts(true), build);
    assert_bounded("ItemStore::put", ascending, descending);
}
