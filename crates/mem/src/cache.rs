//! Set-associative L1 caches.

use crate::cow::CowVec;

/// Write-miss policy of the data cache.
///
/// Both policies are write-through (no dirty lines, so `dcinv` never
/// loses data). The paper's SoC supports both, configurable before use;
/// with [`NoWriteAllocate`](WritePolicy::NoWriteAllocate) the cache-based
/// self-test wrapper must add a *dummy load* after every store so the
/// execution loop sees no write misses (paper §III.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// A write miss allocates the line (read-fill then merge).
    WriteAllocate,
    /// A write miss bypasses the cache entirely.
    NoWriteAllocate,
}

/// Geometry and policy of one L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (8..=32, power of two).
    pub line_bytes: u32,
    /// Write-miss policy (ignored for instruction caches).
    pub policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's 8 KiB instruction cache.
    pub fn icache_8k() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        }
    }

    /// The paper's 4 KiB data cache (write-allocate, as configured in the
    /// experiments of §IV).
    pub fn dcache_4k() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 1024,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        }
    }

    /// A direct-mapped 8 KiB instruction cache — the certification
    /// variant: one way removes replacement state, so the cached/locked
    /// working-set argument needs no LRU reasoning at all (the
    /// configuration the per-access interference-bound literature
    /// assumes).
    pub fn icache_8k_direct() -> CacheConfig {
        CacheConfig { ways: 1, ..CacheConfig::icache_8k() }
    }

    /// A direct-mapped 4 KiB data cache (see
    /// [`icache_8k_direct`](CacheConfig::icache_8k_direct)).
    pub fn dcache_4k_direct() -> CacheConfig {
        CacheConfig { ways: 1, ..CacheConfig::dcache_4k() }
    }

    /// Words per line.
    pub fn line_words(self) -> u32 {
        self.line_bytes / 4
    }

    /// Number of sets.
    pub fn sets(self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    fn validate(self) {
        assert!(self.line_bytes.is_power_of_two() && (8..=32).contains(&self.line_bytes));
        assert!(self.ways >= 1 && self.size_bytes.is_multiple_of(self.line_bytes * self.ways));
        assert!(self.sets().is_power_of_two());
    }
}

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Write lookups that hit.
    pub write_hits: u64,
    /// Write lookups that missed.
    pub write_misses: u64,
    /// Whole-cache invalidations performed.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total lookups (hits plus misses, reads plus writes).
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Copies the counters into the observability layer's type.
    pub fn counters(&self) -> sbst_obs::CacheCounters {
        sbst_obs::CacheCounters {
            read_hits: self.read_hits,
            read_misses: self.read_misses,
            write_hits: self.write_hits,
            write_misses: self.write_misses,
            invalidations: self.invalidations,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Line {
    valid: bool,
    tag: u32,
    age: u32, // lower = more recently used
    data: [u32; 8],
}

/// A set-associative, write-through L1 cache with true-LRU replacement.
///
/// The cache is a passive lookup structure: the core's fetch/memory units
/// decide when to [`fill`](Cache::fill) on a miss (after fetching the
/// line over the bus) and always forward writes to memory (write-through).
///
/// # Example
///
/// ```
/// use sbst_mem::{Cache, CacheConfig};
///
/// let mut ic = Cache::new(CacheConfig::icache_8k());
/// assert_eq!(ic.read(0x100), None); // cold miss
/// ic.fill(0x100, &[7; 8]);
/// assert_eq!(ic.read(0x104), Some(7)); // now hits anywhere in the line
/// ic.invalidate_all();
/// assert_eq!(ic.read(0x104), None);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: CowVec<Line>, // sets * ways, set-major
    stats: CacheStats,
    // Index geometry, derived once from the power-of-two `cfg`: the set
    // of `addr` is `(addr >> line_shift) & set_mask` and its tag is
    // `addr >> tag_shift`, so a lookup divides nothing.
    line_shift: u32,
    set_mask: u32,
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (non-power-of-two
    /// geometry, zero ways, line size outside 8..=32 bytes).
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate();
        let n = (cfg.sets() * cfg.ways) as usize;
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            cfg,
            lines: CowVec::new(n, Line { valid: false, tag: 0, age: 0, data: [0; 8] }),
            stats: CacheStats::default(),
            line_shift,
            set_mask: cfg.sets() - 1,
            tag_shift: line_shift + cfg.sets().trailing_zeros(),
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// First byte address of the line containing `addr`.
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.cfg.line_bytes - 1)
    }

    fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) & self.set_mask
    }

    fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.tag_shift
    }

    /// Index of `addr`'s word within its line.
    fn word_of(&self, addr: u32) -> usize {
        ((addr & (self.cfg.line_bytes - 1)) >> 2) as usize
    }

    fn way_range(&self, set: u32) -> std::ops::Range<usize> {
        let start = (set * self.cfg.ways) as usize;
        start..start + self.cfg.ways as usize
    }

    fn find(&self, addr: u32) -> Option<usize> {
        let tag = self.tag_of(addr);
        self.way_range(self.set_of(addr))
            .find(|&i| self.lines.get(i).valid && self.lines.get(i).tag == tag)
    }

    /// Makes `idx` the MRU line of `set`, preserving the relative order
    /// of the others: only lines younger than `idx`'s previous age move
    /// (they age by one). The resident ages of a set always form a
    /// distinct 0..k permutation, provided a line entering the set is
    /// first marked maximally old (see [`fill`](Cache::fill)) — otherwise
    /// two lines filled into invalid ways would stay tied at age 0 and
    /// eviction would no longer be true LRU.
    fn touch(&mut self, idx: usize, set: u32) {
        let old_age = self.lines.get(idx).age;
        for i in self.way_range(set) {
            if self.lines.get(i).valid && self.lines.get(i).age < old_age {
                self.lines.get_mut(i).age += 1;
            }
        }
        if old_age != 0 {
            self.lines.get_mut(idx).age = 0;
        }
    }

    /// Read lookup: word at `addr` on a hit, `None` on a miss.
    ///
    /// Updates LRU state and statistics.
    pub fn read(&mut self, addr: u32) -> Option<u32> {
        debug_assert_eq!(addr % 4, 0);
        match self.find(addr) {
            Some(idx) => {
                self.stats.read_hits += 1;
                let word = self.lines.get(idx).data[self.word_of(addr)];
                self.touch(idx, self.set_of(addr));
                Some(word)
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    /// Probe without updating LRU or statistics (harness/debug use).
    pub fn probe(&self, addr: u32) -> Option<u32> {
        self.find(addr).map(|idx| self.lines.get(idx).data[self.word_of(addr)])
    }

    /// Write lookup: updates the cached copy on a hit and returns `true`;
    /// returns `false` on a miss (the caller always writes through to
    /// memory, and decides allocation per the configured policy).
    pub fn write(&mut self, addr: u32, value: u32) -> bool {
        debug_assert_eq!(addr % 4, 0);
        match self.find(addr) {
            Some(idx) => {
                self.stats.write_hits += 1;
                let off = self.word_of(addr);
                if self.lines.get(idx).data[off] != value {
                    self.lines.get_mut(idx).data[off] = value;
                }
                self.touch(idx, self.set_of(addr));
                true
            }
            None => {
                self.stats.write_misses += 1;
                false
            }
        }
    }

    /// Installs the line containing `addr`, evicting the LRU way.
    ///
    /// `line` must hold exactly [`line_words`](CacheConfig::line_words)
    /// words starting at [`line_base`](Cache::line_base).
    ///
    /// # Panics
    ///
    /// Panics if `line` has the wrong length.
    pub fn fill(&mut self, addr: u32, line: &[u32]) {
        assert_eq!(line.len() as u32, self.cfg.line_words(), "bad fill size");
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        // Reuse a matching or invalid way first, then the LRU way.
        let idx = self
            .way_range(set)
            .find(|&i| self.lines.get(i).valid && self.lines.get(i).tag == tag)
            .or_else(|| self.way_range(set).find(|&i| !self.lines.get(i).valid))
            .unwrap_or_else(|| {
                self.way_range(set)
                    .max_by_key(|&i| self.lines.get(i).age)
                    .expect("ways >= 1")
            });
        let l = self.lines.get_mut(idx);
        // A line entering the set (or re-filled in place) is maximally
        // old until touched, so `touch` ages every other resident line
        // and the set keeps a total recency order.
        l.age = u32::MAX;
        l.valid = true;
        l.tag = tag;
        l.data[..line.len()].copy_from_slice(line);
        self.touch(idx, set);
    }

    /// Invalidates every line (the wrapper's block *b* in Figure 2b).
    pub fn invalidate_all(&mut self) {
        for i in 0..self.lines.len() {
            // Only materialize pages that actually hold valid lines.
            if self.lines.get(i).valid {
                self.lines.get_mut(i).valid = false;
            }
        }
        self.stats.invalidations += 1;
    }

    /// Number of currently valid lines (harness/debug use).
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Content equality of lines (valid/tag/LRU/data), ignoring
    /// statistics. Fast: pages shared with `other` compare by pointer.
    pub fn state_eq(&self, other: &Cache) -> bool {
        self.cfg == other.cfg && self.lines.fast_eq(&other.lines)
    }

    /// Number of copy-on-write pages backing the line array.
    pub fn cow_pages(&self) -> usize {
        self.lines.page_count()
    }

    /// Line-array pages still physically shared with `other`.
    pub fn cow_shared_with(&self, other: &Cache) -> usize {
        self.lines.shared_pages_with(&other.lines)
    }

    /// Severs all page sharing (differential-test hook).
    pub fn unshare(&mut self) {
        self.lines.unshare();
    }

    /// Flips one bit of one *valid* line — the cache half of the SEU
    /// model. `line_pick`/`word_pick` are raw random draws, reduced
    /// modulo the current valid-line and line-word counts so a strike
    /// always lands when anything is resident. Returns the byte address
    /// of the corrupted word, or `None` (strike absorbed) when the
    /// cache holds no valid line. Does not touch LRU state or
    /// statistics: an upset is invisible until the word is consumed.
    pub fn flip_bit(&mut self, line_pick: u64, word_pick: u64, bit: u32) -> Option<u32> {
        let victims: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines.get(i).valid)
            .collect();
        if victims.is_empty() {
            return None;
        }
        let idx = victims[(line_pick % victims.len() as u64) as usize];
        let word = (word_pick % self.cfg.line_words() as u64) as usize;
        self.lines.get_mut(idx).data[word] ^= 1 << (bit % 32);
        // Reconstruct the word's byte address from set/tag geometry.
        let set = (idx as u32) / self.cfg.ways;
        let addr = (self.lines.get(idx).tag * self.cfg.sets() + set) * self.cfg.line_bytes
            + 4 * word as u32;
        Some(addr)
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        })
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = tiny();
        assert_eq!(c.read(0x40), None);
        c.fill(0x40, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.read(0x40), Some(1));
        assert_eq!(c.read(0x5c), Some(8));
        assert_eq!(c.stats().read_hits, 2);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line 32B, 2 sets => set = bit 5).
        c.fill(0x000, &[0xa; 8]);
        c.fill(0x080, &[0xb; 8]);
        assert_eq!(c.read(0x000), Some(0xa)); // make 0x000 MRU
        c.fill(0x100, &[0xc; 8]); // evicts 0x080 (LRU)
        assert_eq!(c.probe(0x000), Some(0xa));
        assert_eq!(c.probe(0x080), None);
        assert_eq!(c.probe(0x100), Some(0xc));
    }

    /// Regression for the age-tie defect: two lines filled into invalid
    /// ways both sat at age 0, `touch` never broke the tie (it only aged
    /// lines *younger* than the touched one), and `fill`'s `max_by_key`
    /// then evicted the higher-indexed way — here the *most* recently
    /// used line. The old `lru_eviction` test above passed by accident
    /// because its MRU happened to live in way 0.
    #[test]
    fn eviction_is_lru_even_after_age_ties() {
        let mut c = tiny();
        c.fill(0x000, &[0xa; 8]); // way 0
        c.fill(0x080, &[0xb; 8]); // way 1
        assert_eq!(c.read(0x080), Some(0xb)); // 0x080 is MRU (way 1)
        c.fill(0x100, &[0xc; 8]); // must evict 0x000, the true LRU
        assert_eq!(c.probe(0x080), Some(0xb), "MRU line was evicted");
        assert_eq!(c.probe(0x000), None);
        assert_eq!(c.probe(0x100), Some(0xc));
    }

    /// The same defect seen through writes and refills: every touch kind
    /// (read hit, write hit, refill of a resident tag) must promote to
    /// MRU with a strict recency order left behind.
    #[test]
    fn every_touch_kind_breaks_ties() {
        // Write hit promotes.
        let mut c = tiny();
        c.fill(0x000, &[0xa; 8]);
        c.fill(0x080, &[0xb; 8]);
        assert!(c.write(0x084, 7));
        c.fill(0x100, &[0xc; 8]);
        assert_eq!(c.probe(0x084), Some(7), "written line was evicted");
        assert_eq!(c.probe(0x000), None);

        // Refill of the resident tag promotes.
        let mut c = tiny();
        c.fill(0x000, &[0xa; 8]);
        c.fill(0x080, &[0xb; 8]);
        c.fill(0x080, &[0xd; 8]); // same tag, reuses way 1, now MRU
        c.fill(0x100, &[0xc; 8]);
        assert_eq!(c.probe(0x080), Some(0xd), "refilled line was evicted");
        assert_eq!(c.probe(0x000), None);
    }

    #[test]
    fn write_hit_updates_line() {
        let mut c = tiny();
        c.fill(0x40, &[0; 8]);
        assert!(c.write(0x44, 9));
        assert_eq!(c.read(0x44), Some(9));
        assert!(!c.write(0x400, 1), "write miss");
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = tiny();
        c.fill(0x40, &[1; 8]);
        assert_eq!(c.valid_lines(), 1);
        c.invalidate_all();
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.read(0x40), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refill_same_tag_reuses_way() {
        let mut c = tiny();
        c.fill(0x40, &[1; 8]);
        c.fill(0x40, &[2; 8]);
        assert_eq!(c.valid_lines(), 1);
        assert_eq!(c.probe(0x40), Some(2));
    }

    /// The precomputed shifts and mask index exactly like the division
    /// formulas they replace, on every supported geometry.
    #[test]
    fn shift_indexing_matches_division() {
        let mut prng = crate::Prng::new(0x5e7);
        for line_bytes in [8, 16, 32] {
            for ways in [1, 2, 3, 4] {
                for sets in [1, 2, 64, 128] {
                    let cfg = CacheConfig {
                        size_bytes: line_bytes * ways * sets,
                        ways,
                        line_bytes,
                        policy: WritePolicy::WriteAllocate,
                    };
                    let c = Cache::new(cfg);
                    for _ in 0..200 {
                        let addr = (prng.next_u64() as u32) & !3;
                        assert_eq!(c.set_of(addr), (addr / line_bytes) % sets);
                        assert_eq!(c.tag_of(addr), addr / line_bytes / sets);
                        assert_eq!(c.word_of(addr), ((addr % line_bytes) / 4) as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn paper_geometries() {
        let ic = Cache::new(CacheConfig::icache_8k());
        assert_eq!(ic.config().sets(), 128);
        let dc = Cache::new(CacheConfig::dcache_4k());
        assert_eq!(dc.config().sets(), 64);
    }

    #[test]
    fn line_base() {
        let c = tiny();
        assert_eq!(c.line_base(0x47), 0x40);
        assert_eq!(c.line_base(0x40), 0x40);
    }

    #[test]
    #[should_panic(expected = "bad fill size")]
    fn fill_wrong_len_panics() {
        let mut c = tiny();
        c.fill(0, &[1, 2, 3]);
    }

    #[test]
    fn flip_bit_corrupts_exactly_one_word() {
        let mut c = tiny();
        assert_eq!(c.flip_bit(0, 0, 5), None, "empty cache absorbs strikes");
        c.fill(0x40, &[7; 8]);
        let addr = c.flip_bit(3, 10, 40).expect("one valid line");
        // Reported address lies within the filled line and the flipped
        // bit is 40 % 32 = 8.
        assert!((0x40..0x60).contains(&addr), "addr {addr:#x}");
        assert_eq!(c.probe(addr), Some(7 ^ 0x100));
        // Every other word of the line is intact.
        let corrupted = (0x40..0x60)
            .step_by(4)
            .filter(|&a| c.probe(a) != Some(7))
            .count();
        assert_eq!(corrupted, 1);
        // LRU state and stats were not disturbed.
        assert_eq!(c.stats().read_hits, 0);
    }

    #[test]
    fn flip_bit_reported_address_round_trips_geometry() {
        let mut c = Cache::new(CacheConfig::icache_8k());
        for base in [0x100u32, 0x2340, 0x7f00] {
            c.fill(base, &[0xabcd; 8]);
        }
        for pick in 0..12u64 {
            let addr = c.flip_bit(pick, pick.wrapping_mul(7), (pick % 32) as u32)
                .expect("lines valid");
            let v = c.probe(addr).expect("reported address must be resident");
            assert_ne!(v, 0xabcd, "the word at the reported address changed");
            // Restore the struck line so the next iteration starts clean.
            c.fill(c.line_base(addr), &[0xabcd; 8]);
        }
    }
}
