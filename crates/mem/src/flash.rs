//! Flash memory and its controller (with a prefetch row buffer).

use std::sync::Arc;

use sbst_isa::Program;

use crate::map::{FLASH_BASE, FLASH_SIZE};

/// Value returned for erased (never programmed) Flash words.
///
/// `0xffff_ffff` does not decode as a valid instruction, so a core that
/// runs off the end of its program traps with an illegal-instruction
/// cause instead of silently executing garbage.
pub const ERASED: u32 = 0xffff_ffff;

/// An immutable Flash image shared (via [`Arc`]) by every simulation run
/// of a fault campaign — the image is read-only at runtime, so thousands
/// of parallel fault simulations can share one copy.
#[derive(Debug, Clone, Default)]
pub struct FlashImage {
    // One contiguous run per loaded program: (first word index, words),
    // sorted by start and non-overlapping. A read finds its run by a
    // binary search over the few programs, then indexes the run
    // directly; everything outside every run is erased.
    runs: Vec<(u32, Vec<u32>)>,
}

impl FlashImage {
    /// Creates an empty (fully erased) image.
    pub fn new() -> FlashImage {
        FlashImage::default()
    }

    /// Writes `program` into the image.
    ///
    /// # Panics
    ///
    /// Panics if the program falls outside the Flash region or overlaps a
    /// previously loaded program.
    pub fn load(&mut self, program: &Program) {
        assert!(
            (FLASH_BASE..=FLASH_BASE + FLASH_SIZE).contains(&program.base())
                && program.end() <= FLASH_BASE + FLASH_SIZE,
            "program [{:#x}..{:#x}) outside flash",
            program.base(),
            program.end()
        );
        let words = program.words();
        if words.is_empty() {
            return;
        }
        let start = (program.base() - FLASH_BASE) / 4;
        let end = start + words.len() as u32;
        // The first run ending past `start` is the only candidate for the
        // lowest overlapping word; every later run starts even higher.
        let pos = self.runs.partition_point(|(s, w)| s + w.len() as u32 <= start);
        if let Some(&(s, _)) = self.runs.get(pos) {
            assert!(
                s >= end,
                "flash overlap at {:#x} while loading program based at {:#x}",
                FLASH_BASE + start.max(s) * 4,
                program.base()
            );
        }
        self.runs.insert(pos, (start, words.to_vec()));
    }

    /// Word at byte address `addr` (erased pattern if never programmed).
    pub fn word_at(&self, addr: u32) -> u32 {
        debug_assert_eq!(addr % 4, 0);
        let idx = (addr - FLASH_BASE) / 4;
        let pos = self.runs.partition_point(|&(s, _)| s <= idx);
        match pos.checked_sub(1).map(|i| &self.runs[i]) {
            Some((s, words)) => words.get((idx - s) as usize).copied().unwrap_or(ERASED),
            None => ERASED,
        }
    }

    /// Freezes the image for sharing between simulation runs.
    pub fn freeze(self) -> Arc<FlashImage> {
        Arc::new(self)
    }

    /// Number of programmed words.
    pub fn programmed_words(&self) -> usize {
        self.runs.iter().map(|(_, w)| w.len()).sum()
    }
}

/// Timing configuration of the Flash controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Cycles for an access that misses every prefetch row buffer.
    ///
    /// The paper reports 8 cycles to fetch an issue packet from Flash.
    pub access_cycles: u32,
    /// Cycles for an access that hits a prefetch row buffer.
    pub row_hit_cycles: u32,
    /// Row buffer width in bytes (power of two, ≥ 8).
    pub row_bytes: u32,
    /// Number of row buffers (LRU-managed): with several buffers each
    /// master's sequential fetch stream keeps its own row warm despite
    /// interleaved traffic from the other cores.
    pub row_buffers: usize,
}

impl Default for FlashTiming {
    fn default() -> FlashTiming {
        FlashTiming { access_cycles: 8, row_hit_cycles: 2, row_bytes: 16, row_buffers: 8 }
    }
}

/// The Flash controller: wraps the shared image with a single prefetch
/// row buffer.
///
/// The row buffer is what makes *code position and alignment* matter:
/// requests falling in the most recently fetched row are fast, and where
/// row boundaries fall relative to issue packets depends on the program's
/// base address and alignment — one of the paper's sources of
/// scenario-dependent variability. Because the buffer is shared by all
/// cores, interleaved multi-core fetch streams thrash it.
#[derive(Debug, Clone)]
pub struct FlashCtl {
    image: Arc<FlashImage>,
    timing: FlashTiming,
    /// `log2(timing.row_bytes)`: a row is `addr >> row_shift`.
    row_shift: u32,
    /// LRU row stack, most recently used first.
    rows: Vec<u32>,
    accesses: u64,
    row_hits: u64,
}

impl FlashCtl {
    /// Creates a controller over a frozen image.
    pub fn new(image: Arc<FlashImage>, timing: FlashTiming) -> FlashCtl {
        assert!(timing.row_bytes.is_power_of_two() && timing.row_bytes >= 8);
        assert!(timing.row_buffers >= 1);
        let row_shift = timing.row_bytes.trailing_zeros();
        FlashCtl { image, timing, row_shift, rows: Vec::new(), accesses: 0, row_hits: 0 }
    }

    /// Latency in cycles of a read at `addr`, updating the row buffers.
    pub fn access(&mut self, addr: u32) -> u32 {
        self.accesses += 1;
        let row = addr >> self.row_shift;
        if let Some(pos) = self.rows.iter().position(|&r| r == row) {
            self.rows.remove(pos);
            self.rows.insert(0, row);
            self.row_hits += 1;
            // Keep the sequential prefetch ahead of a streaming reader.
            if !self.rows.contains(&(row + 1)) {
                self.rows.insert(1, row + 1);
                self.rows.truncate(self.timing.row_buffers);
            }
            self.timing.row_hit_cycles
        } else {
            // Miss: the array access also prefetches the next sequential
            // row into a second buffer (automotive flash accelerators
            // stream sequential code).
            self.rows.insert(0, row);
            self.rows.insert(1, row + 1);
            self.rows.truncate(self.timing.row_buffers);
            self.timing.access_cycles
        }
    }

    /// Word at `addr` (combinational data path; latency accounted by
    /// [`access`](FlashCtl::access)).
    pub fn word_at(&self, addr: u32) -> u32 {
        self.image.word_at(addr)
    }

    /// Timing configuration.
    pub fn timing(&self) -> FlashTiming {
        self.timing
    }

    /// `(total accesses, row-buffer hits)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.row_hits)
    }

    /// Behavioral-state equality: same image (by pointer — campaign runs
    /// share one frozen image), timing and row-buffer contents. Access
    /// statistics are ignored.
    pub fn state_eq(&self, other: &FlashCtl) -> bool {
        Arc::ptr_eq(&self.image, &other.image)
            && self.timing == other.timing
            && self.rows == other.rows
    }

    /// Clears the row buffers (e.g. at SoC reset).
    pub fn reset(&mut self) {
        self.rows.clear();
        self.accesses = 0;
        self.row_hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_isa::{Asm, Reg};

    fn program_at(base: u32) -> Program {
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, 42);
        a.halt();
        a.assemble(base).unwrap()
    }

    #[test]
    fn image_load_and_read() {
        let mut img = FlashImage::new();
        let p = program_at(0x1000);
        img.load(&p);
        assert_eq!(img.word_at(0x1000), p.words()[0]);
        assert_eq!(img.word_at(0x1004), p.words()[1]);
        assert_eq!(img.word_at(0x0ffc), ERASED);
        assert_eq!(img.programmed_words(), 2);
    }

    #[test]
    #[should_panic(expected = "flash overlap at 0x1004 while loading program based at 0x1004")]
    fn overlapping_programs_panic() {
        let mut img = FlashImage::new();
        img.load(&program_at(0x1000));
        img.load(&program_at(0x1004));
    }

    /// The overlap panic names the lowest doubly-programmed address,
    /// wherever the new program starts relative to the loaded ones.
    #[test]
    fn overlap_panic_names_the_first_clashing_word() {
        // Loaded: [0x1008, 0x1010) and [0x1020, 0x1028).
        let cases = [
            (0x1000, 4, Some(0x1008)),  // runs into the first program
            (0x100c, 1, Some(0x100c)),  // inside it
            (0x1010, 5, Some(0x1020)),  // overfills the gap
            (0x1004, 12, Some(0x1008)), // spans both
            (0x1010, 4, None),          // exactly fills the gap
            (0x1028, 2, None),          // adjacent after the second
            (0x1000, 2, None),          // adjacent before the first
        ];
        for (base, len, clash) in cases {
            let mut img = FlashImage::new();
            img.load(&Program::new(0x1008, vec![1, 2]));
            img.load(&Program::new(0x1020, vec![3, 4]));
            let program = Program::new(base, vec![9; len]);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                img.load(&program);
            }));
            match clash {
                None => assert!(result.is_ok(), "{base:#x}+{len} must load"),
                Some(addr) => {
                    let err = result.expect_err("overlapping load must panic");
                    let msg = err.downcast_ref::<String>().expect("formatted message");
                    assert_eq!(
                        msg,
                        &format!(
                            "flash overlap at {addr:#x} while loading program based at {base:#x}"
                        )
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Random non-overlapping layouts, adjacent or separated by
        /// erased gaps and loaded in any order, read back exactly like a
        /// word-by-word reference map.
        #[test]
        fn image_matches_a_word_map(
            segments in proptest::collection::vec(
                (0u32..3, 1usize..6, proptest::any::<u32>()),
                1..8,
            ),
            base_words in 0u32..64,
            order_seed in proptest::any::<u64>(),
        ) {
            let mut programs = Vec::new();
            let mut reference = std::collections::BTreeMap::new();
            let mut next = base_words;
            for &(gap, len, fill) in &segments {
                let start = next + gap;
                let words: Vec<u32> = (0..len as u32).map(|i| fill.wrapping_add(i)).collect();
                for (i, &w) in words.iter().enumerate() {
                    reference.insert(start + i as u32, w);
                }
                programs.push(Program::new(FLASH_BASE + 4 * start, words));
                next = start + len as u32;
            }
            let mut prng = crate::Prng::new(order_seed);
            for i in (1..programs.len()).rev() {
                programs.swap(i, prng.next_u64() as usize % (i + 1));
            }
            let mut img = FlashImage::new();
            for p in &programs {
                img.load(p);
            }
            proptest::prop_assert_eq!(img.programmed_words(), reference.len());
            for idx in base_words.saturating_sub(2)..next + 3 {
                let want = reference.get(&idx).copied().unwrap_or(ERASED);
                proptest::prop_assert_eq!(img.word_at(FLASH_BASE + 4 * idx), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside flash")]
    fn out_of_region_panics() {
        let mut img = FlashImage::new();
        img.load(&program_at(0x2000_0000));
    }

    #[test]
    fn row_buffer_hits_within_row() {
        let img = FlashImage::new().freeze();
        let mut ctl = FlashCtl::new(img, FlashTiming::default());
        assert_eq!(ctl.access(0x100), 8, "cold access");
        assert_eq!(ctl.access(0x104), 2, "same 16-byte row");
        assert_eq!(ctl.access(0x10c), 2, "same row");
        assert_eq!(ctl.access(0x110), 2, "next row was prefetched");
        assert_eq!(ctl.access(0x100), 2, "old row still in an LRU buffer");
        assert_eq!(ctl.stats(), (5, 4));
    }

    #[test]
    fn lru_evicts_oldest_row() {
        let img = FlashImage::new().freeze();
        let mut ctl = FlashCtl::new(
            img,
            FlashTiming { row_buffers: 2, ..FlashTiming::default() },
        );
        assert_eq!(ctl.access(0x000), 8); // rows {0, 1}
        assert_eq!(ctl.access(0x100), 8); // rows {16, 17}
        assert_eq!(ctl.access(0x000), 8, "evicted by the 0x100 stream");
        assert_eq!(ctl.access(0x010), 2, "prefetched row 1 survives");
    }

    #[test]
    fn interleaved_streams_keep_their_rows() {
        // The multi-master scenario: two sequential fetch streams
        // interleave; with >= 2 buffers both keep hitting.
        let img = FlashImage::new().freeze();
        let mut ctl = FlashCtl::new(img, FlashTiming::default());
        ctl.access(0x1000);
        ctl.access(0x8000);
        assert_eq!(ctl.access(0x1004), 2);
        assert_eq!(ctl.access(0x8004), 2);
    }

    #[test]
    fn reset_clears_row() {
        let img = FlashImage::new().freeze();
        let mut ctl = FlashCtl::new(img, FlashTiming::default());
        ctl.access(0x100);
        ctl.reset();
        assert_eq!(ctl.access(0x104), 8);
    }
}
