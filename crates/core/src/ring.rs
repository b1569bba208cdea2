//! A bounded map from sequence numbers to values, stored as a ring.
//!
//! The sender keeps two such stores: the RTX history (the newest released
//! packets by RTP seq, for NACKs) and the frame store (encoded frames by
//! number, until the client scores them). Each behaves as a `BTreeMap`
//! trimmed with `pop_first`, but its keys arrive almost in order, so a
//! `VecDeque` indexed by `key - base` gives the same answers without a
//! tree: for in-order keys every operation is O(1) amortised, and once the
//! ring has grown to its working size it does not allocate.

use std::collections::VecDeque;

/// A map from `u64` keys to values holding at most `cap` entries: an
/// insert that takes it past `cap` evicts the smallest key, exactly as
/// `BTreeMap::insert` followed by `pop_first` would.
///
/// Slots are indexed by `key - base`. A removed key leaves a hole; holes at
/// either end are trimmed at once, so the first and last slots always hold
/// a value and the ring spans only its smallest to its largest held key.
#[derive(Clone, Debug)]
pub struct SeqRing<T> {
    /// Key of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Values present (slots that are not holes).
    len: usize,
    cap: usize,
}

impl<T> SeqRing<T> {
    /// An empty ring that holds at most `cap` values.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a ring must hold something");
        SeqRing { base: 0, slots: VecDeque::new(), len: 0, cap }
    }

    /// Values held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value under `key`, if held.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slots.get(self.index(key)?)?.as_ref()
    }

    /// Insert or overwrite `key`, then evict the smallest keys while more
    /// than `cap` values are held. Re-inserting a key below every held key
    /// into a full ring — an already-evicted seq — therefore changes
    /// nothing: it would be the one evicted.
    pub fn insert(&mut self, key: u64, value: T) {
        if self.slots.is_empty() {
            self.base = key;
        }
        if key < self.base {
            if self.len == self.cap {
                return;
            }
            for _ in key + 1..self.base {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = key;
            self.len += 1;
            return;
        }
        let idx = (key - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx, || None);
            self.slots.push_back(Some(value));
            self.len += 1;
        } else if self.slots[idx].replace(value).is_none() {
            self.len += 1;
        }
        while self.len > self.cap {
            // The first slot always holds a value.
            self.slots.pop_front();
            self.base += 1;
            self.len -= 1;
            self.trim();
        }
    }

    /// Take the value under `key` out of the ring.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let value = self.slots.get_mut(self.index(key)?)?.take()?;
        self.len -= 1;
        self.trim();
        Some(value)
    }

    /// Held `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let base = self.base;
        self.slots.iter().enumerate().filter_map(move |(k, v)| Some((base + k as u64, v.as_ref()?)))
    }

    /// The slot `key` maps to, if the ring reaches that far down.
    fn index(&self, key: u64) -> Option<usize> {
        usize::try_from(key.checked_sub(self.base)?).ok()
    }

    /// Drop the holes at both ends.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }
}
