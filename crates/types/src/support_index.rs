//! Indexed sparse vectors over bit strings — the calibration engine's
//! working representation.
//!
//! [`ProbDist`] is the right *interchange* type for distributions (hash-map
//! keyed, order-free, serializable), but it is a poor *iteration* type: every
//! accumulation pays a `BitString` clone and every pass re-sorts the support.
//! [`SupportIndex`] interns each distinct bit string **once**, assigning it a
//! dense `u32` id, and keeps the amplitudes in a parallel `Vec<f64>` — so the
//! engine's inner loop does array arithmetic (`values[id] += v`) instead of
//! hash-map scatter, and keys are compared/hashed as raw `u64` word slices
//! without constructing `BitString`s.
//!
//! Conversions to and from [`ProbDist`] are lossless: support (including
//! exact-zero entries), width, and every `f64` bit pattern are preserved.

use crate::{BitString, ProbDist};

/// Sentinel marking an unoccupied slot of the open-addressing id table.
/// Ids are capped strictly below it by [`SupportIndex::intern`].
const EMPTY_SLOT: u32 = u32::MAX;

/// Deterministic 64-bit hash of a packed key (FNV-1a over the words with a
/// SplitMix64 finisher so the low bits used by the power-of-two table mask
/// are well mixed). Purely a probe-start function: interning order — and
/// therefore every assigned id — is independent of it.
#[inline]
fn hash_words(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Table length (a power of two) comfortably holding `entries` ids at a
/// load factor below 7/8.
fn table_len_for(entries: usize) -> usize {
    (entries.max(4) * 2).next_power_of_two()
}

/// A sparse (quasi-)probability vector with interned keys.
///
/// Entry `id` (a dense `u32`) has key [`SupportIndex::key_words`]`(id)` and
/// amplitude [`SupportIndex::value`]`(id)`. Ids are assigned in interning
/// order; [`SupportIndex::from_dist`] interns in the distribution's sorted
/// key order, and [`SupportIndex::sort`] restores that canonical order after
/// arbitrary interning.
///
/// Key lookup runs over a flat open-addressing id table probing the flat key
/// storage directly — no per-key boxing — so a cleared index
/// ([`SupportIndex::clear`] / [`SupportIndex::reset`]) re-interns into its
/// retained buffers **without touching the heap** until it outgrows a
/// previous high-water mark. This is the allocation contract the engine's
/// steady-state `apply` path is built on.
///
/// # Example
///
/// ```
/// use qufem_types::{BitString, ProbDist, SupportIndex};
///
/// let mut p = ProbDist::new(2);
/// p.add(BitString::from_binary_str("01").unwrap(), 0.25);
/// p.add(BitString::from_binary_str("10").unwrap(), 0.75);
/// let idx = SupportIndex::from_dist(&p);
/// assert_eq!(idx.len(), 2);
/// assert_eq!(idx.to_dist(), p);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SupportIndex {
    width: usize,
    words_per_key: usize,
    /// Flat key storage: entry `id` occupies
    /// `keys[id * words_per_key .. (id + 1) * words_per_key]`.
    keys: Vec<u64>,
    values: Vec<f64>,
    /// Open-addressing id table: power-of-two length, [`EMPTY_SLOT`]-marked
    /// free slots, linear probing. Probes compare candidate ids' words in
    /// `keys` against the query slice, so lookups allocate nothing.
    table: Vec<u32>,
}

impl SupportIndex {
    /// Creates an empty index over `width`-bit keys.
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// Creates an empty index with room for `capacity` entries.
    pub fn with_capacity(width: usize, capacity: usize) -> Self {
        let words_per_key = BitString::words_for_width(width);
        SupportIndex {
            width,
            words_per_key,
            keys: Vec::with_capacity(capacity * words_per_key),
            values: Vec::with_capacity(capacity),
            table: vec![EMPTY_SLOT; table_len_for(capacity)],
        }
    }

    /// Builds an index from a distribution, interning keys in sorted
    /// ([`BitString`] order) so ids equal sorted ranks. Lossless: every
    /// stored entry is carried over bit-for-bit, including exact zeros.
    pub fn from_dist(dist: &ProbDist) -> Self {
        let mut index = Self::with_capacity(dist.width(), dist.support_len());
        for (key, value) in dist.sorted_refs() {
            let id = index.intern(key.as_words());
            index.values[id as usize] = value;
        }
        index
    }

    /// [`SupportIndex::from_dist`] restricted to entries with `value > 0.0`
    /// — the "observed support" extraction shared by the subspace-restricted
    /// calibration methods (M3, IBU, QuFEM's sharded engine input).
    pub fn positive_from_dist(dist: &ProbDist) -> Self {
        let mut index = Self::with_capacity(dist.width(), dist.support_len());
        for (key, value) in dist.sorted_refs() {
            if value > 0.0 {
                let id = index.intern(key.as_words());
                index.values[id as usize] = value;
            }
        }
        index
    }

    /// Converts back to a hash-map distribution. Lossless inverse of
    /// [`SupportIndex::from_dist`]: the result compares equal to the source
    /// distribution (same support, same `f64` bits).
    pub fn to_dist(&self) -> ProbDist {
        let mut out = ProbDist::new(self.width);
        for id in 0..self.len() {
            out.set(self.key(id as u32), self.values[id]);
        }
        out
    }

    /// Bit width of the keys.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of 64-bit words per key.
    pub fn words_per_key(&self) -> usize {
        self.words_per_key
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The packed key words of entry `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn key_words(&self, id: u32) -> &[u64] {
        let start = id as usize * self.words_per_key;
        &self.keys[start..start + self.words_per_key]
    }

    /// The key of entry `id` as a [`BitString`] (allocates).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn key(&self, id: u32) -> BitString {
        BitString::from_words(self.width, self.key_words(id).to_vec())
            .expect("interned words are always a valid key")
    }

    /// The amplitude of entry `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn value(&self, id: u32) -> f64 {
        self.values[id as usize]
    }

    /// All amplitudes, indexed by id.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The id of `words`, if interned.
    #[inline]
    pub fn get(&self, words: &[u64]) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        probe(&self.table, &self.keys, self.words_per_key, words).1
    }

    /// Interns `words`, returning its id. New entries start at amplitude
    /// `0.0`; the key is copied only on first insertion. Allocation-free
    /// while the entry count stays within retained capacity.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from [`SupportIndex::words_per_key`].
    pub fn intern(&mut self, words: &[u64]) -> u32 {
        assert_eq!(words.len(), self.words_per_key, "key word count mismatch");
        // Keep the load factor below 7/8 so probe chains stay short and the
        // insert probe below always finds an empty slot.
        if (self.values.len() + 1) * 8 > self.table.len() * 7 {
            self.grow_table();
        }
        let (slot, found) = probe(&self.table, &self.keys, self.words_per_key, words);
        if let Some(id) = found {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("support exceeds u32 ids");
        assert!(id != EMPTY_SLOT, "support exceeds u32 ids");
        self.keys.extend_from_slice(words);
        self.values.push(0.0);
        self.table[slot] = id;
        id
    }

    /// Adds `delta` to the amplitude of `words`, interning if absent — the
    /// engine's accumulation primitive. One hash probe, no allocation unless
    /// the key is new.
    #[inline]
    pub fn accumulate(&mut self, words: &[u64], delta: f64) {
        match self.get(words) {
            Some(id) => self.values[id as usize] += delta,
            None => {
                let id = self.intern(words);
                self.values[id as usize] = delta;
            }
        }
    }

    /// Adds `delta` to the amplitude of an already-interned entry (the
    /// shard-merge fast path: ids pre-translated, no hashing).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn accumulate_id(&mut self, id: u32, delta: f64) {
        self.values[id as usize] += delta;
    }

    /// Reorders entries into canonical [`BitString`] order (width-equal keys
    /// compare as word slices), reassigning ids to sorted ranks. Amplitudes
    /// travel with their keys unchanged. After sorting, the index is
    /// id-for-id identical to [`SupportIndex::from_dist`] of
    /// [`SupportIndex::to_dist`].
    pub fn sort(&mut self) {
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| self.key_words(a).cmp(self.key_words(b)));
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut values = Vec::with_capacity(n);
        for &id in &order {
            keys.extend_from_slice(self.key_words(id));
            values.push(self.values[id as usize]);
        }
        self.keys = keys;
        self.values = values;
        self.rebuild_table();
    }

    /// Writes the canonically sorted copy of `self` into `dest`, reusing
    /// `dest`'s retained buffers and the caller-provided `order` scratch.
    /// Produces exactly the state [`SupportIndex::sort`] would leave `self`
    /// in, but allocation-free once `dest`/`order` capacity covers `self` —
    /// the engine's between-iteration re-canonicalization primitive.
    pub fn sorted_copy_into(&self, dest: &mut SupportIndex, order: &mut Vec<u32>) {
        dest.reset(self.width);
        order.clear();
        order.extend(0..self.len() as u32);
        // Interned keys are distinct, so the comparator never returns
        // `Equal` and the unstable sort yields the same permutation the
        // stable sort in `sort` would.
        order.sort_unstable_by(|&a, &b| self.key_words(a).cmp(self.key_words(b)));
        dest.keys.reserve(self.keys.len());
        dest.values.reserve(self.values.len());
        for &id in order.iter() {
            dest.keys.extend_from_slice(self.key_words(id));
            dest.values.push(self.values[id as usize]);
        }
        dest.rebuild_table();
    }

    /// Removes every entry while keeping the key width and all retained
    /// buffer capacity — subsequent interning is allocation-free up to the
    /// previous high-water mark.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.table.fill(EMPTY_SLOT);
    }

    /// [`SupportIndex::clear`] plus a key-width change (capacity is still
    /// retained across widths).
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.words_per_key = BitString::words_for_width(width);
        self.clear();
    }

    /// Makes `self` an id-for-id copy of `other` (keys, amplitudes, and the
    /// probe table), reusing retained buffers — allocation-free once `self`'s
    /// capacity covers `other`.
    pub fn copy_from(&mut self, other: &SupportIndex) {
        self.width = other.width;
        self.words_per_key = other.words_per_key;
        self.keys.clear();
        self.keys.extend_from_slice(&other.keys);
        self.values.clear();
        self.values.extend_from_slice(&other.values);
        self.table.clear();
        self.table.extend_from_slice(&other.table);
    }

    /// Rebuilds the probe table for the current `keys`/`values`, reusing the
    /// existing table buffer when its **capacity** still covers the need —
    /// the current length may be smaller (e.g. after [`SupportIndex::copy_from`]
    /// of a smaller index) without forcing a reallocation.
    fn rebuild_table(&mut self) {
        let needed = table_len_for(self.values.len());
        if self.table.capacity() < needed {
            self.table = Vec::with_capacity(needed);
        }
        self.table.clear();
        self.table.resize(needed, EMPTY_SLOT);
        self.fill_table();
    }

    /// Doubles (at least) the probe table and re-inserts every id.
    #[cold]
    fn grow_table(&mut self) {
        let new_len = table_len_for(self.values.len() + 1).max(self.table.len() * 2);
        self.table = vec![EMPTY_SLOT; new_len];
        self.fill_table();
    }

    /// Inserts every current id into the (all-empty) probe table.
    fn fill_table(&mut self) {
        let (table, keys) = (&mut self.table, &self.keys);
        let mask = table.len() - 1;
        for id in 0..self.values.len() as u32 {
            let start = id as usize * self.words_per_key;
            let words = &keys[start..start + self.words_per_key];
            let mut slot = (hash_words(words) as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
    }

    /// Sum of all amplitudes.
    pub fn total_mass(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Iterator over `(id, key words, amplitude)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u64], f64)> {
        (0..self.len() as u32).map(|id| (id, self.key_words(id), self.values[id as usize]))
    }

    /// Approximate heap usage in bytes (benchmark memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

/// Linear probe over the id table: returns the slot the probe ended on and,
/// if the key is present, its id. The table must be non-empty and below full
/// load (both invariants are maintained by `intern`).
#[inline]
fn probe(table: &[u32], keys: &[u64], words_per_key: usize, words: &[u64]) -> (usize, Option<u32>) {
    debug_assert!(table.len().is_power_of_two());
    let mask = table.len() - 1;
    let mut slot = (hash_words(words) as usize) & mask;
    loop {
        let id = table[slot];
        if id == EMPTY_SLOT {
            return (slot, None);
        }
        let start = id as usize * words_per_key;
        if &keys[start..start + words_per_key] == words {
            return (slot, Some(id));
        }
        slot = (slot + 1) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    #[test]
    fn from_dist_assigns_sorted_ranks() {
        let p =
            ProbDist::from_pairs(2, [(bs("01"), 0.5), (bs("10"), 0.25), (bs("00"), 0.25)]).unwrap();
        let idx = SupportIndex::from_dist(&p);
        // BitString order is numeric with bit 0 least significant:
        // "00" (0) < "10" (1) < "01" (2).
        assert_eq!(idx.key(0), bs("00"));
        assert_eq!(idx.key(1), bs("10"));
        assert_eq!(idx.key(2), bs("01"));
        assert_eq!(idx.value(1), 0.25);
    }

    #[test]
    fn roundtrip_preserves_support_width_and_bits() {
        let mut p = ProbDist::new(3);
        p.set(bs("010"), 0.1 + 0.2); // deliberately non-representable sum
        p.set(bs("111"), -1e-300);
        p.set(bs("000"), 0.0); // exact zero must survive
        let idx = SupportIndex::from_dist(&p);
        let back = idx.to_dist();
        assert_eq!(back.width(), 3);
        assert_eq!(back.support_len(), 3);
        assert_eq!(back, p);
    }

    #[test]
    fn positive_from_dist_filters_nonpositive() {
        let p =
            ProbDist::from_pairs(2, [(bs("00"), 0.5), (bs("11"), -0.1), (bs("01"), 0.0)]).unwrap();
        let idx = SupportIndex::positive_from_dist(&p);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.key(0), bs("00"));
    }

    #[test]
    fn accumulate_interns_once_and_sums() {
        let mut idx = SupportIndex::new(2);
        let k = bs("01");
        idx.accumulate(k.as_words(), 0.25);
        idx.accumulate(k.as_words(), 0.25);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.value(0), 0.5);
        assert_eq!(idx.get(k.as_words()), Some(0));
        assert_eq!(idx.get(bs("10").as_words()), None);
    }

    #[test]
    fn sort_matches_from_dist_ids() {
        let mut idx = SupportIndex::new(2);
        for key in ["11", "00", "01", "10"] {
            idx.accumulate(bs(key).as_words(), 1.0);
        }
        idx.sort();
        let canonical = SupportIndex::from_dist(&idx.to_dist());
        for id in 0..idx.len() as u32 {
            assert_eq!(idx.key(id), canonical.key(id));
            assert_eq!(idx.value(id), canonical.value(id));
            assert_eq!(idx.get(idx.key_words(id)), Some(id), "lookup must follow the sort");
        }
    }

    #[test]
    fn sorted_copy_into_matches_sort() {
        let mut idx = SupportIndex::new(3);
        for key in ["110", "001", "111", "000", "010"] {
            idx.accumulate(bs(key).as_words(), 0.125);
        }
        let mut dest = SupportIndex::new(0);
        let mut order = Vec::new();
        idx.sorted_copy_into(&mut dest, &mut order);
        let mut sorted = idx.clone();
        sorted.sort();
        assert_eq!(dest.width(), sorted.width());
        assert_eq!(dest.len(), sorted.len());
        for id in 0..sorted.len() as u32 {
            assert_eq!(dest.key(id), sorted.key(id));
            assert_eq!(dest.value(id).to_bits(), sorted.value(id).to_bits());
            assert_eq!(dest.get(dest.key_words(id)), Some(id));
        }
    }

    #[test]
    fn clear_reset_and_copy_from_reuse_buffers() {
        let mut idx = SupportIndex::new(2);
        for key in ["11", "00", "01"] {
            idx.accumulate(bs(key).as_words(), 1.0);
        }
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.get(bs("11").as_words()), None);
        idx.accumulate(bs("10").as_words(), 2.0);
        assert_eq!(idx.get(bs("10").as_words()), Some(0));

        idx.reset(3);
        assert_eq!(idx.width(), 3);
        idx.accumulate(bs("101").as_words(), 0.5);
        assert_eq!(idx.len(), 1);

        let src = SupportIndex::from_dist(
            &ProbDist::from_pairs(2, [(bs("01"), 0.25), (bs("10"), 0.75)]).unwrap(),
        );
        let mut copy = SupportIndex::new(0);
        copy.copy_from(&src);
        assert_eq!(copy.width(), 2);
        assert_eq!(copy.len(), 2);
        for id in 0..src.len() as u32 {
            assert_eq!(copy.key(id), src.key(id));
            assert_eq!(copy.value(id).to_bits(), src.value(id).to_bits());
            assert_eq!(copy.get(src.key_words(id)), Some(id));
        }
    }

    #[test]
    fn intern_survives_table_growth() {
        let mut idx = SupportIndex::new(10);
        let mut ids = Vec::new();
        for i in 0..300u64 {
            let mut key = BitString::zeros(10);
            for bit in 0..10 {
                key.set(bit, (i >> bit) & 1 == 1);
            }
            ids.push((key.clone(), idx.intern(key.as_words())));
        }
        for (key, id) in &ids {
            assert_eq!(idx.get(key.as_words()), Some(*id));
        }
        assert_eq!(idx.len(), 300);
    }

    #[test]
    fn zero_width_distribution_roundtrips() {
        let mut p = ProbDist::new(0);
        p.set(BitString::zeros(0), 1.0);
        let idx = SupportIndex::from_dist(&p);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.to_dist(), p);
    }

    #[test]
    fn wide_keys_cross_word_boundaries() {
        let mut key = BitString::zeros(130);
        key.set(0, true);
        key.set(129, true);
        let p = ProbDist::from_pairs(130, [(key.clone(), 0.7)]).unwrap();
        let idx = SupportIndex::from_dist(&p);
        assert_eq!(idx.words_per_key(), 3);
        assert_eq!(idx.key(0), key);
        assert_eq!(idx.to_dist(), p);
    }
}
