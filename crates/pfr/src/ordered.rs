//! The one ordered container on the sync path: a sorted array of
//! `(key, value)` entries, cut into blocks of bounded size.
//!
//! [`crate::Knowledge`] and the item store's indexes hold a few dozen to a
//! few hundred entries and are read far more often than written, so they
//! want contiguous memory: a lookup is a binary search, a walk is a slice
//! iteration, a clone is a `memcpy`. A plain `Vec` gives that but makes
//! one insert cost a `memmove` of everything behind it — and entries
//! arrive one at a time from socket input, so a hostile batch in
//! descending order would cost quadratic time. Here an insert moves at
//! most one block of [`BLOCK`] entries; a full block splits in two. Up to
//! `BLOCK` entries the map *is* one contiguous array.
//!
//! A knowledge is two maps: a vector entry per replica and a 64-bit word
//! per origin and stretch of 64 counters that holds exceptions. At the
//! end of a paper-scale replay (34 replicas) that is at most 34 vector
//! entries and 28 words, which stand for up to ≈ 280 exceptions; the
//! words never outnumber the exceptions, however sparse. The item store
//! files its versions under the same keys, one entry per origin and
//! stretch: a mask of the stored counters and their index entries.

/// Entries a block holds before it splits. A constant, not an option:
/// large enough that every knowledge of the paper-scale replay and every
/// store index up to this many items is a single block, small enough that
/// moving one is a few KiB of `memmove` — the worst insert order then
/// costs about ten times the best
/// (`tests/bounded_insert.rs` pins it under twenty; at 512 it measured
/// twenty to thirty).
pub(crate) const BLOCK: usize = 256;

/// A map ordered by key, stored as ascending blocks of ascending entries.
/// No block is empty and none exceeds `B` entries.
#[derive(Clone, Debug)]
pub(crate) struct OrdMap<K, V, const B: usize = BLOCK> {
    blocks: Vec<Vec<(K, V)>>,
    len: usize,
}

impl<K, V, const B: usize> Default for OrdMap<K, V, B> {
    fn default() -> Self {
        OrdMap {
            blocks: Vec::new(),
            len: 0,
        }
    }
}

/// Equality is over the entries, never over where the blocks were cut.
impl<K: PartialEq, V: PartialEq, const B: usize> PartialEq for OrdMap<K, V, B> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && match (self.blocks.as_slice(), other.blocks.as_slice()) {
                // The common case, compared as two slices.
                ([a], [b]) => a == b,
                (a, b) => a.iter().flatten().eq(b.iter().flatten()),
            }
    }
}

impl<K: Eq, V: Eq, const B: usize> Eq for OrdMap<K, V, B> {}

impl<K: Ord, V, const B: usize> OrdMap<K, V, B> {
    /// Builds the map from entries already in strictly ascending key
    /// order (the caller's obligation; checked in debug builds). Up to
    /// `B` entries the vector becomes the one block as it is.
    pub fn from_ascending(entries: Vec<(K, V)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let len = entries.len();
        let mut blocks = Vec::with_capacity(len.div_ceil(B));
        if len <= B {
            blocks.extend((len > 0).then_some(entries));
        } else {
            let mut entries = entries.into_iter();
            while entries.len() > 0 {
                blocks.push(entries.by_ref().take(B).collect());
            }
        }
        OrdMap { blocks, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry, ascending by key; also a forward reader from the
    /// first entry (see [`Cursor::seek`]).
    pub fn iter(&self) -> Cursor<'_, K, V> {
        Cursor {
            head: &[],
            rest: &self.blocks,
        }
    }

    /// The entries from the first key at or above `key` on, found by
    /// search; a forward reader from there like [`OrdMap::iter`].
    pub fn iter_from(&self, key: &K) -> Cursor<'_, K, V> {
        let b = self.block_of(key);
        match self.blocks.get(b) {
            Some(block) => Cursor {
                head: &block[block.partition_point(|(k, _)| k < key)..],
                rest: &self.blocks[b + 1..],
            },
            None => self.iter(),
        }
    }

    /// Every value, mutably, in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.blocks.iter_mut().flatten().map(|(_, v)| v)
    }

    /// Index of the block that holds `key` or would take it: the first
    /// whose last key is not below it, else the last block.
    fn block_of(&self, key: &K) -> usize {
        let at = self
            .blocks
            .partition_point(|block| block.last().is_some_and(|(last, _)| last < key));
        at.min(self.blocks.len().saturating_sub(1))
    }

    /// Where `key` is (`Ok`) or would go (`Err`): a block and a position
    /// in it. `None` only for a map without blocks.
    fn locate(&self, key: &K) -> Option<(usize, Result<usize, usize>)> {
        let b = self.block_of(key);
        let at = self.blocks.get(b)?.binary_search_by(|(k, _)| k.cmp(key));
        Some((b, at))
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        let (b, Ok(at)) = self.locate(key)? else {
            return None;
        };
        Some(&self.blocks[b][at].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (b, Ok(at)) = self.locate(key)? else {
            return None;
        };
        Some(&mut self.blocks[b][at].1)
    }

    /// The entry with the greatest key below `key`.
    pub fn below(&self, key: &K) -> Option<&(K, V)> {
        match self.locate(key)? {
            (b, Ok(0) | Err(0)) => self.blocks.get(b.checked_sub(1)?)?.last(),
            (b, Ok(at) | Err(at)) => self.blocks[b].get(at - 1),
        }
    }

    /// Inserts or replaces, returning the value replaced. A key above
    /// every held one — how decoders, merges and a replica's own writes
    /// arrive — is appended without a search; any other moves at most the
    /// tail of one block.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(last) = self.blocks.last_mut() else {
            self.blocks.push(vec![(key, value)]);
            self.len = 1;
            return None;
        };
        if last.last().is_some_and(|(k, _)| *k < key) {
            if last.len() < B {
                last.push((key, value));
            } else {
                self.blocks.push(vec![(key, value)]);
            }
            self.len += 1;
            return None;
        }
        let (mut b, mut at) = match self.locate(&key).expect("there is a last block") {
            (b, Ok(at)) => return Some(std::mem::replace(&mut self.blocks[b][at].1, value)),
            (b, Err(at)) => (b, at),
        };
        if self.blocks[b].len() >= B {
            let upper = self.blocks[b].split_off(B / 2);
            self.blocks.insert(b + 1, upper);
            if at > B / 2 {
                b += 1;
                at -= B / 2;
            }
        }
        self.blocks[b].insert(at, (key, value));
        self.len += 1;
        None
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (b, Ok(at)) = self.locate(key)? else {
            return None;
        };
        let (_, value) = self.blocks[b].remove(at);
        self.len -= 1;
        self.settle(b);
        Some(value)
    }

    /// Removes the run of consecutive entries, starting at the first key
    /// at or above `from`, for which `take` holds; stops at the first it
    /// refuses. One pass however long the run: each block it crosses is
    /// drained once.
    pub fn remove_run(&mut self, from: &K, mut take: impl FnMut(&(K, V)) -> bool) {
        let first = self.block_of(from);
        let (mut b, mut start) = match self.blocks.get(first) {
            Some(block) => (first, block.partition_point(|(k, _)| k < from)),
            None => return,
        };
        while let Some(block) = self.blocks.get_mut(b) {
            let run = block[start..]
                .iter()
                .take_while(|entry| take(entry))
                .count();
            let reached_end = start + run == block.len();
            block.drain(start..start + run);
            self.len -= run;
            if !reached_end {
                break;
            }
            // The run may go on in the next block.
            if block.is_empty() {
                self.blocks.remove(b);
            } else {
                b += 1;
            }
            start = 0;
        }
        self.settle(first.min(self.blocks.len().saturating_sub(1)));
    }

    /// Restores the block invariants around block `b` after a removal:
    /// drops it if empty, and joins it with its successor when the two
    /// fit in half a block, so a shrinking map does not keep a trail of
    /// near-empty blocks.
    fn settle(&mut self, b: usize) {
        let Some(block) = self.blocks.get(b) else {
            return;
        };
        if block.is_empty() {
            self.blocks.remove(b);
            return;
        }
        if let Some(next) = self.blocks.get(b + 1) {
            if block.len() + next.len() <= B / 2 {
                let next = self.blocks.remove(b + 1);
                self.blocks[b].extend(next);
            }
        }
    }
}

/// A forward-only reader of a map's entries: an iterator that can also
/// *seek*. Looking up keys that come in ascending order through one
/// cursor costs one pass over the map in total — a comparison per entry,
/// no search.
#[derive(Clone, Debug)]
pub(crate) struct Cursor<'a, K, V> {
    /// What is left of the block being read.
    head: &'a [(K, V)],
    /// The blocks not yet started.
    rest: &'a [Vec<(K, V)>],
}

impl<'a, K: Ord, V> Cursor<'a, K, V> {
    /// Starts on the next block once the current one is read through;
    /// `None` at the end of the map.
    fn next_block(&mut self) -> Option<()> {
        let (block, rest) = self.rest.split_first()?;
        (self.head, self.rest) = (block, rest);
        Some(())
    }

    /// Skips the entries below `key` and returns the value at `key`, if
    /// the map holds it, without moving past it. Keys must not descend
    /// from one call to the next.
    pub fn seek(&mut self, key: &K) -> Option<&'a V> {
        loop {
            let Some(((k, value), tail)) = self.head.split_first() else {
                self.next_block()?;
                continue;
            };
            match k.cmp(key) {
                std::cmp::Ordering::Less => self.head = tail,
                std::cmp::Ordering::Equal => return Some(value),
                std::cmp::Ordering::Greater => return None,
            }
        }
    }
}

impl<'a, K: Ord, V> Iterator for Cursor<'a, K, V> {
    type Item = &'a (K, V);

    fn next(&mut self) -> Option<&'a (K, V)> {
        loop {
            if let Some((entry, tail)) = self.head.split_first() {
                self.head = tail;
                return Some(entry);
            }
            self.next_block()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.head.len() + self.rest.iter().map(Vec::len).sum::<usize>();
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// Small blocks, so a script of a few dozen steps splits, joins and
    /// drops blocks many times over.
    type Small = OrdMap<u16, u32, 4>;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        /// Remove the run of keys from `.0` up that stay below `.1`.
        RemoveRun(u16, u16),
        /// Look up these keys, sorted first, through one cursor.
        Seek(Vec<u16>),
        Rebuild,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let key = || 0u16..48;
        let op = prop_oneof![
            (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            key().prop_map(Op::Remove),
            (key(), key()).prop_map(|(from, below)| Op::RemoveRun(from, below)),
            proptest::collection::vec(key(), 0..12).prop_map(Op::Seek),
            Just(Op::Rebuild),
        ];
        proptest::collection::vec(op, 0..120)
    }

    fn assert_matches_model(map: &Small, model: &BTreeMap<u16, u32>) {
        assert!(map.blocks.iter().all(|b| !b.is_empty() && b.len() <= 4));
        assert_eq!(map.len(), model.len());
        assert_eq!(map.is_empty(), model.is_empty());
        assert!(map.iter().copied().eq(model.iter().map(|(&k, &v)| (k, v))));
        assert_eq!(map.iter().size_hint(), (model.len(), Some(model.len())));
        for key in 0..50 {
            assert_eq!(map.get(&key), model.get(&key), "key {key}");
            let below = model.range(..key).next_back().map(|(&k, &v)| (k, v));
            assert_eq!(map.below(&key).copied(), below, "below {key}");
        }
    }

    proptest! {
        /// Every operation, at every block boundary a script reaches,
        /// leaves the map equal to a `BTreeMap` given the same script.
        #[test]
        fn matches_a_btreemap_model(ops in arb_ops()) {
            let (mut map, mut model) = (Small::default(), BTreeMap::new());
            for op in ops {
                match op {
                    Op::Insert(k, v) if v % 4 == 0 && model.contains_key(&k) => {
                        *map.get_mut(&k).expect("held") = v;
                        model.insert(k, v);
                    }
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    Op::RemoveRun(from, below) => {
                        let mut taken = Vec::new();
                        map.remove_run(&from, |&(k, _)| {
                            taken.push(k);
                            k < below
                        });
                        let run: Vec<u16> = model.range(from..).map(|(&k, _)| k).collect();
                        let gone = run.iter().take_while(|&&k| k < below).count();
                        // The predicate saw the run and the key that ended it.
                        prop_assert_eq!(&taken[..], &run[..run.len().min(gone + 1)]);
                        for k in &run[..gone] {
                            model.remove(k);
                        }
                    }
                    Op::Seek(mut keys) => {
                        keys.sort_unstable();
                        let mut cursor = map.iter();
                        for k in keys {
                            prop_assert_eq!(cursor.seek(&k), model.get(&k));
                        }
                        // What the cursor has not passed is still there to read.
                        let rest: Vec<(u16, u32)> = cursor.copied().collect();
                        prop_assert!(model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>().ends_with(&rest));
                    }
                    Op::Rebuild => {
                        let rebuilt = Small::from_ascending(map.iter().copied().collect());
                        prop_assert!(rebuilt == map, "equal whatever the block cuts");
                        map = rebuilt;
                    }
                }
                assert_matches_model(&map, &model);
            }
        }
    }

    #[test]
    fn ascending_inserts_fill_blocks_and_descending_ones_split_them() {
        let mut up = Small::default();
        let mut down = Small::default();
        for k in 0..32u16 {
            up.insert(k, 0);
            down.insert(31 - k, 0);
        }
        assert_eq!(up.blocks.len(), 8, "appends leave every block full");
        assert!(down.blocks.iter().all(|b| (2..=4).contains(&b.len())));
        assert!(up == down);
    }

    #[test]
    fn a_map_up_to_one_block_is_one_contiguous_array() {
        let entries: Vec<(u64, ())> = (0..BLOCK as u64).map(|k| (k, ())).collect();
        let map = OrdMap::<u64, ()>::from_ascending(entries);
        assert_eq!(map.blocks.len(), 1);
        let mut map = map;
        map.insert(BLOCK as u64 / 2, ());
        assert_eq!(map.blocks.len(), 1, "a replace moves nothing");
        map.remove(&7);
        map.insert(7, ());
        assert_eq!(map.blocks.len(), 1);
    }
}
