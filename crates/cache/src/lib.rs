//! Epoch-keyed result caching for skewed social reads.
//!
//! The SNB interactive workload is read-dominated and heavily skewed
//! toward hub vertices (the LDBC spec prescribes power-law degree *and*
//! access distributions), so the same point lookups, one-hop rings, and
//! hot frontiers are computed over and over. [`ResultCache`] memoizes
//! them with two properties that make it safe to drop in front of a
//! live, concurrently-written store:
//!
//! * **Correct by construction.** Every key embeds the store's write
//!   sequence at the time the result was computed. A write advances the
//!   epoch, so every cached entry for the old epoch simply *stops
//!   matching* — there is no invalidation traffic, no broadcast, no
//!   version check on the store. Stale entries are detected on the next
//!   probe of the same key material (counted in
//!   [`CacheStats::stale_evicted`]) and reclaimed, or age out through
//!   the LRU like any cold entry.
//!
//! * **Frequency-admitted.** A TinyLFU-style counting sketch (a packed
//!   4-bit count-min sketch with periodic halving) estimates how often
//!   each key has been asked for. When the cache is full, a new entry is
//!   admitted only if it is estimated *at least as hot* as the eviction
//!   victim, so a scan of one-off reads cannot wash out the hub entries
//!   the skewed workload will ask for again. Admission feeds a segmented
//!   LRU: new entries land in a probationary segment and are promoted to
//!   the protected segment on re-reference, the classic SLRU shape
//!   TinyLFU was designed around.
//!
//! The cache is sharded (segment-per-lock) so readers on different keys
//! do not contend, and every outcome is counted: hits, misses, stale
//! evictions, admission rejections, and the bypasses the *integration*
//! layers record when they decline to consult the cache at all (a
//! mutation, an unbounded traversal, a backend with no epoch). The
//! `stale_served` counter is a correctness tripwire: the hit path
//! re-verifies the epoch match and harnesses that re-validate cached
//! results against fresh execution report mismatches here, so "exactly
//! zero" is asserted by CI, not assumed.

use parking_lot::Mutex;
use snb_core::FastMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a over the key material; keys are short (query text + params
/// or an encoded traversal) and the full material is compared on every
/// probe, so the hash only has to spread, not to be collision-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Monotonically-updated counters, readable without any lock.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stale_evicted: AtomicU64,
    stale_served: AtomicU64,
    bypass: AtomicU64,
    inserts: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
}

/// A point-in-time snapshot of a cache's counters.
///
/// Accounting invariants (asserted by `cache_smoke` in CI):
/// * `hits + misses` equals the number of `get` calls;
/// * `stale_evicted <= misses` (a stale probe is a miss that also
///   reclaimed the dead entry);
/// * `stale_served == 0` always — a hit whose epoch does not match the
///   probe, or a cached result that disagrees with fresh execution,
///   would land here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that found nothing current (includes `stale_evicted`).
    pub misses: u64,
    /// Misses that found the key material at an older epoch and
    /// reclaimed the entry on the spot.
    pub stale_evicted: u64,
    /// Correctness violations observed (must stay 0; see type docs).
    pub stale_served: u64,
    /// Times an integration layer declined to consult the cache.
    pub bypass: u64,
    /// Entries stored (including in-place refreshes of a stale entry).
    pub inserts: u64,
    /// Inserts refused by TinyLFU admission (candidate colder than the
    /// eviction victim).
    pub rejected: u64,
    /// Entries evicted to make room (stale reclaims not included).
    pub evicted: u64,
}

impl CacheStats {
    /// Total `get` probes.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction over all probes (0.0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Packed 4-bit count-min sketch with periodic halving — the TinyLFU
/// frequency estimator. One flat table, four probes per key derived by
/// remixing the key hash; the estimate is the minimum of the four.
/// After `sample` increments every counter is halved, so frequencies
/// decay and yesterday's hot key cannot squat on the cache forever.
struct FreqSketch {
    /// 16 packed 4-bit counters per word.
    table: Vec<u64>,
    /// Counter-index mask (counter count is a power of two).
    mask: usize,
    additions: u32,
    sample: u32,
}

impl FreqSketch {
    fn new(capacity: usize) -> Self {
        // ~8 counters per cached entry keeps estimate error low at 4
        // probes; 16 counters per u64 word.
        let counters = (capacity.max(16) * 8).next_power_of_two();
        FreqSketch {
            table: vec![0u64; counters / 16],
            mask: counters - 1,
            additions: 0,
            // The canonical TinyLFU sample size: 10x capacity.
            sample: (capacity.max(16) as u32).saturating_mul(10),
        }
    }

    /// The four probe indexes for a key hash: remix with four odd
    /// constants so one 64-bit hash yields four independent positions.
    fn indexes(&self, hash: u64) -> [usize; 4] {
        const SEEDS: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0xD6E8_FEB8_6659_FD93,
        ];
        let mut out = [0usize; 4];
        for (i, seed) in SEEDS.iter().enumerate() {
            let mut h = hash.wrapping_mul(*seed);
            h ^= h >> 32;
            out[i] = (h as usize) & self.mask;
        }
        out
    }

    fn counter(&self, ix: usize) -> u64 {
        (self.table[ix / 16] >> ((ix % 16) * 4)) & 0xF
    }

    fn bump(&mut self, ix: usize) {
        let shift = (ix % 16) * 4;
        let cur = (self.table[ix / 16] >> shift) & 0xF;
        if cur < 15 {
            self.table[ix / 16] += 1u64 << shift;
        }
    }

    /// Record one access.
    fn increment(&mut self, hash: u64) {
        for ix in self.indexes(hash) {
            self.bump(ix);
        }
        self.additions += 1;
        if self.additions >= self.sample {
            self.halve();
        }
    }

    /// Estimated access frequency (min over the four probes).
    fn estimate(&self, hash: u64) -> u64 {
        self.indexes(hash).into_iter().map(|ix| self.counter(ix)).min().unwrap_or(0)
    }

    /// Halve every 4-bit counter in place (the aging step).
    fn halve(&mut self) {
        for word in &mut self.table {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions = 0;
    }
}

const NIL: u32 = u32::MAX;

/// Which LRU list a node is on.
#[derive(Clone, Copy, PartialEq)]
enum Seg {
    Probation,
    Protected,
}

struct Node<V> {
    key: Box<[u8]>,
    epoch: u64,
    hash: u64,
    value: V,
    prev: u32,
    next: u32,
    seg: Seg,
}

/// Intrusive doubly-linked LRU list over the slab (head = MRU).
#[derive(Clone, Copy)]
struct LruList {
    head: u32,
    tail: u32,
    len: usize,
}

impl LruList {
    fn new() -> Self {
        LruList { head: NIL, tail: NIL, len: 0 }
    }
}

/// One lock's worth of cache: sketch + map + slab + two LRU lists.
struct Segment<V> {
    map: FastMap<u64, u32>,
    nodes: Vec<Option<Node<V>>>,
    free: Vec<u32>,
    probation: LruList,
    protected: LruList,
    cap: usize,
    protected_cap: usize,
    sketch: FreqSketch,
}

impl<V: Clone> Segment<V> {
    fn new(cap: usize) -> Self {
        Segment {
            map: FastMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            probation: LruList::new(),
            protected: LruList::new(),
            cap,
            // The classic SLRU split: 20% probation, 80% protected.
            protected_cap: (cap * 4 / 5).max(1).min(cap.saturating_sub(1).max(1)),
            sketch: FreqSketch::new(cap),
        }
    }

    fn len(&self) -> usize {
        self.probation.len + self.protected.len
    }

    fn list(&mut self, seg: Seg) -> &mut LruList {
        match seg {
            Seg::Probation => &mut self.probation,
            Seg::Protected => &mut self.protected,
        }
    }

    fn detach(&mut self, ix: u32) {
        let (prev, next, seg) = {
            let n = self.nodes[ix as usize].as_ref().expect("detach live node");
            (n.prev, n.next, n.seg)
        };
        if prev != NIL {
            self.nodes[prev as usize].as_mut().unwrap().next = next;
        }
        if next != NIL {
            self.nodes[next as usize].as_mut().unwrap().prev = prev;
        }
        let list = self.list(seg);
        if list.head == ix {
            list.head = next;
        }
        if list.tail == ix {
            list.tail = prev;
        }
        list.len -= 1;
    }

    fn push_front(&mut self, ix: u32, seg: Seg) {
        let old_head = self.list(seg).head;
        {
            let n = self.nodes[ix as usize].as_mut().expect("push live node");
            n.seg = seg;
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].as_mut().unwrap().prev = ix;
        }
        let list = self.list(seg);
        list.head = ix;
        if list.tail == NIL {
            list.tail = ix;
        }
        list.len += 1;
    }

    /// Remove a node entirely (map + list + slab).
    fn remove(&mut self, ix: u32) -> Node<V> {
        self.detach(ix);
        let node = self.nodes[ix as usize].take().expect("remove live node");
        self.map.remove(&node.hash);
        self.free.push(ix);
        node
    }

    fn alloc(&mut self, node: Node<V>) -> u32 {
        if let Some(ix) = self.free.pop() {
            self.nodes[ix as usize] = Some(node);
            ix
        } else {
            self.nodes.push(Some(node));
            (self.nodes.len() - 1) as u32
        }
    }

    /// A hit promotes: probation → protected, protected → its own MRU.
    /// Protected overflow demotes that list's LRU back to probation
    /// (never out of the cache — it must re-earn eviction in probation).
    fn promote(&mut self, ix: u32) {
        self.detach(ix);
        self.push_front(ix, Seg::Protected);
        if self.protected.len > self.protected_cap {
            let demote = self.protected.tail;
            if demote != NIL && demote != ix {
                self.detach(demote);
                self.push_front(demote, Seg::Probation);
            }
        }
    }

    fn get(&mut self, key: &[u8], epoch: u64, hash: u64, c: &Counters) -> Option<V> {
        self.sketch.increment(hash);
        let ix = match self.map.get(&hash) {
            Some(&ix) => ix,
            None => {
                c.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let (key_match, epoch_match) = {
            let n = self.nodes[ix as usize].as_ref().expect("mapped node is live");
            (&*n.key == key, n.epoch == epoch)
        };
        if !key_match {
            // 64-bit collision with different key material: treat as
            // absent (the insert path will replace the squatter).
            c.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if !epoch_match {
            // The entry's epoch no longer matches the live epoch: the
            // write that advanced it already invalidated this entry by
            // construction. Reclaim it now rather than waiting for LRU.
            self.remove(ix);
            c.stale_evicted.fetch_add(1, Ordering::Relaxed);
            c.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Correctness tripwire: the hit path serves only exact epoch
        // matches; verify once more so any future regression is counted
        // rather than silently served.
        let n = self.nodes[ix as usize].as_ref().expect("mapped node is live");
        if n.epoch != epoch {
            c.stale_served.fetch_add(1, Ordering::Relaxed);
        }
        let value = n.value.clone();
        self.promote(ix);
        c.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    fn insert(&mut self, key: &[u8], epoch: u64, hash: u64, value: V, c: &Counters) -> bool {
        if self.cap == 0 {
            c.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if let Some(&ix) = self.map.get(&hash) {
            let n = self.nodes[ix as usize].as_mut().expect("mapped node is live");
            // Same key at a new epoch (refresh) or a hash collision:
            // either way the slot holds exactly one entry per hash, so
            // replace in place and move to the MRU of its list.
            n.key = key.into();
            n.epoch = epoch;
            n.value = value;
            let seg = n.seg;
            self.detach(ix);
            self.push_front(ix, seg);
            c.inserts.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if self.len() >= self.cap {
            // Full: TinyLFU admission against the probationary victim
            // (fall back to the protected tail if probation is empty).
            let victim = if self.probation.tail != NIL {
                self.probation.tail
            } else {
                self.protected.tail
            };
            let victim_hash =
                self.nodes[victim as usize].as_ref().expect("victim is live").hash;
            if self.sketch.estimate(hash) < self.sketch.estimate(victim_hash) {
                c.rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            self.remove(victim);
            c.evicted.fetch_add(1, Ordering::Relaxed);
        }
        let node = Node {
            key: key.into(),
            epoch,
            hash,
            value,
            prev: NIL,
            next: NIL,
            seg: Seg::Probation,
        };
        let ix = self.alloc(node);
        self.map.insert(hash, ix);
        self.push_front(ix, Seg::Probation);
        c.inserts.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// The sharded, epoch-keyed, frequency-admitted result cache.
///
/// `V` is whatever a layer wants to memoize: encoded response bytes for
/// the reactor's inline path, normalized result rows for the Cypher/SQL
/// adapters. Values are cloned out on hit, so layers keep `V` cheap to
/// clone (or wrap it in `Arc`).
pub struct ResultCache<V> {
    segments: Box<[Mutex<Segment<V>>]>,
    counters: Counters,
    name: &'static str,
}

/// Default lock shards; a power of two so segment selection is a mask.
const DEFAULT_SEGMENTS: usize = 8;

impl<V: Clone> ResultCache<V> {
    /// A cache holding up to `capacity` entries across
    /// [`DEFAULT_SEGMENTS`] lock shards. `capacity == 0` disables
    /// storage entirely (every probe misses, every insert is rejected)
    /// while keeping counters live — the bypass-comparison harnesses
    /// use this.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        Self::with_segments(name, capacity, DEFAULT_SEGMENTS)
    }

    /// As [`ResultCache::new`] with an explicit lock-shard count
    /// (rounded up to a power of two).
    pub fn with_segments(name: &'static str, capacity: usize, segments: usize) -> Self {
        let n = segments.max(1).next_power_of_two();
        let per = capacity / n + usize::from(capacity % n != 0);
        let segments: Vec<Mutex<Segment<V>>> =
            (0..n).map(|_| Mutex::new(Segment::new(if capacity == 0 { 0 } else { per.max(2) }))).collect();
        ResultCache { segments: segments.into(), counters: Counters::default(), name }
    }

    /// The layer name this cache serves (for stats reporting).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn segment(&self, hash: u64) -> &Mutex<Segment<V>> {
        // Select on high bits remixed away from the bits the in-segment
        // map uses, so segment choice and bucket choice stay independent.
        let ix = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize
            & (self.segments.len() - 1);
        &self.segments[ix]
    }

    /// Probe for `key` at exactly the write epoch `epoch`.
    pub fn get(&self, key: &[u8], epoch: u64) -> Option<V> {
        let hash = fnv1a(key);
        self.segment(hash).lock().get(key, epoch, hash, &self.counters)
    }

    /// Offer `(key, epoch) → value`; returns `false` when TinyLFU
    /// admission turned the candidate away.
    pub fn insert(&self, key: &[u8], epoch: u64, value: V) -> bool {
        let hash = fnv1a(key);
        self.segment(hash).lock().insert(key, epoch, hash, value, &self.counters)
    }

    /// Record that an integration layer declined to consult the cache
    /// (mutation, unbounded traversal, epoch unavailable, key too big).
    pub fn note_bypass(&self) {
        self.counters.bypass.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an externally-observed correctness violation: a cached
    /// result that disagreed with fresh execution. The verification
    /// harnesses (`cache_smoke`, the equivalence proptest) call this so
    /// CI can assert the counter stays at exactly zero.
    pub fn note_stale_serve(&self) {
        self.counters.stale_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stale_evicted: self.counters.stale_evicted.load(Ordering::Relaxed),
            stale_served: self.counters.stale_served.load(Ordering::Relaxed),
            bypass: self.counters.bypass.load(Ordering::Relaxed),
            inserts: self.counters.inserts.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
        }
    }

    /// Live entries across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are kept — they are cumulative).
    pub fn clear(&self) {
        for seg in self.segments.iter() {
            let mut s = seg.lock();
            let cap = s.cap;
            *s = Segment::new(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> ResultCache<u64> {
        // One segment so capacity/admission behaviour is deterministic.
        ResultCache::with_segments("test", cap, 1)
    }

    #[test]
    fn hit_after_insert_at_same_epoch() {
        let c = cache(16);
        assert_eq!(c.get(b"k", 3), None);
        assert!(c.insert(b"k", 3, 42));
        assert_eq!(c.get(b"k", 3), Some(42));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn epoch_advance_stops_matching_and_reclaims() {
        let c = cache(16);
        c.insert(b"k", 3, 42);
        assert_eq!(c.get(b"k", 3), Some(42));
        // A write advanced the epoch: the old entry must not serve.
        assert_eq!(c.get(b"k", 4), None);
        let s = c.stats();
        assert_eq!(s.stale_evicted, 1, "stale entry reclaimed on probe");
        assert_eq!(s.stale_served, 0);
        assert_eq!(c.len(), 0, "reclaim removes the entry");
        // Refreshing at the new epoch works.
        c.insert(b"k", 4, 43);
        assert_eq!(c.get(b"k", 4), Some(43));
    }

    #[test]
    fn admission_protects_hot_entries_from_cold_scans() {
        let c = cache(8);
        // Make a handful of keys genuinely hot.
        for round in 0..50u64 {
            for k in 0..8u64 {
                let key = k.to_le_bytes();
                if c.get(&key, 0).is_none() {
                    c.insert(&key, 0, k + round);
                }
            }
        }
        let hot_hits = c.stats().hits;
        assert!(hot_hits > 0);
        // A long one-off scan must be turned away, not wash the cache.
        let mut admitted = 0;
        for k in 1000..1400u64 {
            if c.insert(&k.to_le_bytes(), 0, k) {
                admitted += 1;
            }
        }
        assert!(
            admitted < 20,
            "cold scan should be mostly rejected, admitted {admitted}"
        );
        // The hot keys still serve.
        let before = c.stats().hits;
        for k in 0..8u64 {
            c.get(&k.to_le_bytes(), 0);
        }
        assert!(c.stats().hits >= before + 6, "hot set survived the scan");
        assert!(c.stats().rejected > 0);
    }

    #[test]
    fn reference_promotes_to_protected_and_demotes_in_order() {
        let c = cache(10);
        for k in 0..10u64 {
            c.insert(&k.to_le_bytes(), 0, k);
        }
        // Touch 0..8 so they are promoted to protected (cap 8 = 80%).
        for k in 0..9u64 {
            assert_eq!(c.get(&k.to_le_bytes(), 0), Some(k));
        }
        // Promoting 9 entries through a protected cap of 8 demotes the
        // coldest back to probation; nothing is lost.
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn zero_capacity_disables_storage_but_counts() {
        let c = cache(0);
        assert!(!c.insert(b"k", 0, 1));
        assert_eq!(c.get(b"k", 0), None);
        c.note_bypass();
        let s = c.stats();
        assert_eq!((s.rejected, s.misses, s.bypass), (1, 1, 1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn counter_accounting_is_clean() {
        let c = cache(8);
        let mut probes = 0u64;
        for round in 0..200u64 {
            let k = (round % 13).to_le_bytes();
            let epoch = round / 40; // epochs churn every 40 probes
            probes += 1;
            if c.get(&k, epoch).is_none() {
                c.insert(&k, epoch, round);
            }
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, probes, "every probe is a hit or a miss");
        assert!(s.stale_evicted <= s.misses);
        assert_eq!(s.stale_served, 0);
        assert!(s.inserts >= s.evicted);
    }

    #[test]
    fn sketch_estimates_track_frequency_and_decay() {
        let mut sk = FreqSketch::new(64);
        for _ in 0..10 {
            sk.increment(fnv1a(b"hot"));
        }
        sk.increment(fnv1a(b"cold"));
        assert!(sk.estimate(fnv1a(b"hot")) > sk.estimate(fnv1a(b"cold")));
        let before = sk.estimate(fnv1a(b"hot"));
        sk.halve();
        assert!(sk.estimate(fnv1a(b"hot")) <= before / 2 + 1);
    }

    #[test]
    fn concurrent_probes_and_inserts_are_safe() {
        let c = std::sync::Arc::new(ResultCache::<u64>::new("conc", 256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let k = ((i * 7 + t) % 300).to_le_bytes();
                    let epoch = i / 500;
                    if c.get(&k, epoch).is_none() {
                        c.insert(&k, epoch, i);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8000);
        assert_eq!(s.stale_served, 0);
    }

    #[test]
    fn collision_slot_replacement_never_serves_wrong_value() {
        // Two different keys engineered into the same segment simply by
        // exhaustive probing is impractical; instead verify the map
        // holds one entry per hash and a differing key is a miss.
        let c = cache(16);
        c.insert(b"alpha", 1, 10);
        assert_eq!(c.get(b"alpha", 1), Some(10));
        // Same hash can only come from the same bytes under FNV here,
        // so a different key must miss.
        assert_eq!(c.get(b"beta", 1), None);
    }
}
