//! The instruction fetch unit.
//!
//! Fetches *issue packets*: up to two instructions from an 8-byte-aligned
//! fetch group. Packets come from the instruction TCM (1 cycle), the
//! instruction cache (1 cycle on hit, line fill over the bus on miss) or
//! straight over the shared bus when the cache is disabled — the paper's
//! 8-cycles-per-packet Flash fetch path whose contention-induced jitter
//! breaks self-test determinism.

use sbst_isa::Instr;
use sbst_mem::{Bus, BusRequest, Cache, CacheConfig, Region, Tcm};

/// One fetched instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInstr {
    /// Address of the instruction.
    pub pc: u32,
    /// Raw word.
    pub raw: u32,
    /// Decoded instruction; `None` raises an illegal-instruction cause
    /// when issued (e.g. erased Flash).
    pub instr: Option<Instr>,
}

/// A fetch packet: 1–2 instructions from one aligned fetch group, with a
/// consumption cursor (split issue consumes one instruction at a time).
///
/// The slots live inline, so fetching a packet allocates nothing.
#[derive(Debug, Clone, Copy, Eq)]
pub struct FetchPacket {
    slots: [FetchedInstr; 2],
    len: u8,
    next: u8,
}

impl FetchPacket {
    /// Decodes `raw` (one or two consecutive words) fetched from `pc`.
    fn new(pc: u32, raw: &[u32]) -> FetchPacket {
        let mut slots = [FetchedInstr { pc: 0, raw: 0, instr: None }; 2];
        for (i, (slot, &raw)) in slots.iter_mut().zip(raw).enumerate() {
            *slot = FetchedInstr { pc: pc + 4 * i as u32, raw, instr: Instr::decode(raw).ok() };
        }
        FetchPacket { slots, len: raw.len() as u8, next: 0 }
    }

    /// The packet's instructions, issued or not.
    fn slots(&self) -> &[FetchedInstr] {
        &self.slots[..self.len as usize]
    }

    /// Remaining (unissued) instructions.
    pub fn remaining(&self) -> &[FetchedInstr] {
        &self.slots()[self.next as usize..]
    }

    /// Consumes the next instruction.
    ///
    /// # Panics
    ///
    /// Panics if the packet is exhausted.
    pub fn take(&mut self) -> FetchedInstr {
        let i = self.slots()[self.next as usize];
        self.next += 1;
        i
    }

    /// Whether every instruction has been issued.
    pub fn is_exhausted(&self) -> bool {
        self.next >= self.len
    }
}

impl PartialEq for FetchPacket {
    fn eq(&self, other: &FetchPacket) -> bool {
        self.slots() == other.slots() && self.next == other.next
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchState {
    Idle,
    /// Uncached fetch over the bus (`words` words requested).
    WaitBus { addr: u32, words: u8 },
    /// Cache line fill in flight.
    WaitFill { addr: u32 },
}

/// Fetch-queue depth: the unit prefetches up to this many packets ahead
/// of issue. Prefetching is what lets a *variable* number of younger
/// instructions be in flight when an imprecise trap's recognition window
/// elapses — the paper's unstable imprecision depth.
pub const FETCH_QUEUE_DEPTH: usize = 2;

/// The fetch unit of one core.
#[derive(Debug, Clone)]
pub struct FetchUnit {
    pc: u32,
    queue: std::collections::VecDeque<FetchPacket>,
    state: FetchState,
    icache: Option<Cache>,
    port: usize,
    /// A redirect arrived while a bus transaction was in flight: the
    /// response must be drained and dropped.
    discard: bool,
}

impl FetchUnit {
    /// Creates a fetch unit using bus port `port`.
    pub fn new(reset_pc: u32, icache: Option<CacheConfig>, port: usize) -> FetchUnit {
        FetchUnit {
            pc: reset_pc,
            queue: std::collections::VecDeque::with_capacity(FETCH_QUEUE_DEPTH),
            state: FetchState::Idle,
            icache: icache.map(Cache::new),
            port,
            discard: false,
        }
    }

    /// Next fetch address.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The instruction cache, if enabled.
    pub fn icache(&self) -> Option<&Cache> {
        self.icache.as_ref()
    }

    /// Mutable instruction cache (for `icinv`).
    pub fn icache_mut(&mut self) -> Option<&mut Cache> {
        self.icache.as_mut()
    }

    /// The oldest queued packet, if one is ready for issue.
    pub fn packet_mut(&mut self) -> Option<&mut FetchPacket> {
        self.queue.front_mut()
    }

    /// Drops the head packet once fully consumed by issue.
    pub fn retire_packet_if_exhausted(&mut self) {
        if self.queue.front().is_some_and(FetchPacket::is_exhausted) {
            self.queue.pop_front();
        }
    }

    /// Address of the next unissued instruction (EPC source).
    pub fn next_unissued_pc(&self) -> u32 {
        self.queue
            .front()
            .and_then(|p| p.remaining().first().map(|s| s.pc))
            .unwrap_or(self.pc)
    }

    /// Redirects fetch to `target` (taken branch, trap entry, `mret`).
    /// The low PC bits are ignored (instructions are word aligned), so a
    /// corrupted EPC cannot produce unaligned fetches.
    pub fn redirect(&mut self, target: u32) {
        self.pc = target & !3;
        self.queue.clear();
        if self.state != FetchState::Idle {
            self.discard = true;
        }
    }

    /// Addresses of the next fetch group: the group never crosses an
    /// 8-byte boundary, so a misaligned entry point yields a 1-wide
    /// packet (this is what makes the code-alignment scenarios matter).
    fn group(&self) -> (u32, u8) {
        if self.pc.is_multiple_of(8) {
            (self.pc, 2)
        } else {
            (self.pc, 1)
        }
    }

    /// Queues the packet of `raw` words fetched from `addr` and moves the
    /// fetch pc past it.
    fn enqueue(&mut self, addr: u32, raw: &[u32]) {
        self.queue.push_back(FetchPacket::new(addr, raw));
        self.pc = addr + 4 * raw.len() as u32;
    }

    /// Advances the fetch unit by one cycle. `halting` suppresses new
    /// fetches (after `halt` issues).
    pub fn step(&mut self, bus: &mut Bus, itcm: &Tcm, halting: bool) {
        // Drain any in-flight response first; on arrival the unit turns
        // around and issues the next request in the same cycle (the
        // controller streams sequential code back to back).
        match self.state {
            FetchState::WaitBus { addr, words } => {
                if let Some(resp) = bus.response(self.port) {
                    self.state = FetchState::Idle;
                    if !self.discard {
                        self.enqueue(addr, &resp.words()[..words as usize]);
                    }
                    self.discard = false;
                } else {
                    return;
                }
            }
            FetchState::WaitFill { addr } => {
                if let Some(resp) = bus.response(self.port) {
                    // Install the line even on discard: the fill already
                    // happened electrically.
                    if let Some(ic) = self.icache.as_mut() {
                        let base = ic.line_base(addr);
                        ic.fill(base, resp.words());
                    }
                    self.state = FetchState::Idle;
                    self.discard = false;
                    // Retry the lookup (next cycle: the fill response and
                    // the array write occupy the cache port this cycle).
                }
                return;
            }
            FetchState::Idle => {}
        }
        if self.queue.len() >= FETCH_QUEUE_DEPTH || halting {
            return;
        }
        let (addr, words) = self.group();
        match Region::of(addr) {
            Region::Itcm => {
                let word = |pc| if itcm.contains(pc) { itcm.read(pc) } else { 0 };
                self.enqueue(addr, &[word(addr), word(addr + 4)][..words as usize]);
            }
            Region::Flash | Region::Sram => {
                if let Some(ic) = self.icache.as_mut() {
                    let hit0 = ic.read(addr);
                    // Both packet words always live in the same 32-byte line.
                    let hit1 = if words == 2 { ic.read(addr + 4) } else { Some(0) };
                    match (hit0, hit1) {
                        (Some(w0), Some(w1)) => self.enqueue(addr, &[w0, w1][..words as usize]),
                        _ => {
                            let base = self.icache.as_ref().expect("checked").line_base(addr);
                            let burst =
                                self.icache.as_ref().expect("checked").config().line_words();
                            bus.request(self.port, BusRequest::read_burst(base, burst as u8));
                            self.state = FetchState::WaitFill { addr };
                        }
                    }
                } else {
                    bus.request(self.port, BusRequest::read_burst(addr, words));
                    self.state = FetchState::WaitBus { addr, words };
                }
            }
            // Fetching from the data TCM or unmapped space returns erased
            // words, which issue as illegal instructions.
            _ => self.enqueue(addr, &[!0, !0][..words as usize]),
        }
    }

    /// Whether a bus transaction is in flight (used to decide when a
    /// halting core is fully quiescent).
    pub fn busy(&self) -> bool {
        self.state != FetchState::Idle
    }

    /// Behavioral-state equality (livelock detection): fetch pc, queued
    /// packets, bus-transaction state and cache contents. Cache
    /// statistics are ignored; the copy-on-write cache backing makes the
    /// content comparison cheap for states cloned from one another.
    pub fn state_eq(&self, other: &FetchUnit) -> bool {
        self.pc == other.pc
            && self.queue == other.queue
            && self.state == other.state
            && self.discard == other.discard
            && match (&self.icache, &other.icache) {
                (Some(a), Some(b)) => a.state_eq(b),
                (None, None) => true,
                _ => false,
            }
    }

    /// Buffered packet contents for trace views (issue order).
    pub fn buffered(&self) -> Vec<FetchedInstr> {
        self.queue.iter().flat_map(|p| p.remaining().iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_isa::{Asm, Reg};
    use sbst_mem::{FlashCtl, FlashImage, FlashTiming, Sram, ITCM_BASE};

    fn flash_bus() -> Bus {
        let mut a = Asm::new();
        for i in 0..32 {
            a.addi(Reg::R1, Reg::R0, i);
        }
        let mut img = FlashImage::new();
        img.load(&a.assemble(0x100).unwrap());
        Bus::new(FlashCtl::new(img.freeze(), FlashTiming::default()), Sram::default(), 1)
    }

    fn run_until_packet(f: &mut FetchUnit, bus: &mut Bus, itcm: &Tcm, max: u32) -> u32 {
        for cycle in 1..=max {
            f.step(bus, itcm, false);
            bus.step();
            if f.packet_mut().is_some() {
                return cycle;
            }
        }
        panic!("no packet after {max} cycles");
    }

    #[test]
    fn uncached_fetch_takes_flash_latency() {
        let mut bus = flash_bus();
        let itcm = Tcm::new(ITCM_BASE);
        let mut f = FetchUnit::new(0x100, None, 0);
        let cycles = run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert!(cycles >= 8, "packet fetch over the bus costs >= flash latency, got {cycles}");
        let p = f.packet_mut().unwrap();
        assert_eq!(p.remaining().len(), 2);
        assert_eq!(p.remaining()[0].pc, 0x100);
    }

    #[test]
    fn misaligned_pc_fetches_single_slot() {
        let mut bus = flash_bus();
        let itcm = Tcm::new(ITCM_BASE);
        let mut f = FetchUnit::new(0x104, None, 0);
        run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert_eq!(f.packet_mut().unwrap().remaining().len(), 1);
    }

    #[test]
    fn cached_fetch_misses_then_hits() {
        let mut bus = flash_bus();
        let itcm = Tcm::new(ITCM_BASE);
        let mut f = FetchUnit::new(0x100, Some(CacheConfig::icache_8k()), 0);
        let miss_cycles = run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert!(miss_cycles > 8, "cold miss pays the line fill");
        // Consume and fetch the next packet in the same line: 1 cycle.
        while !f.packet_mut().unwrap().is_exhausted() {
            f.packet_mut().unwrap().take();
        }
        f.retire_packet_if_exhausted();
        let hit_cycles = run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert_eq!(hit_cycles, 1, "warm fetch is single-cycle");
    }

    #[test]
    fn itcm_fetch_is_single_cycle() {
        let mut bus = flash_bus();
        let mut itcm = Tcm::new(ITCM_BASE);
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, 7);
        a.halt();
        let p = a.assemble(ITCM_BASE).unwrap();
        for (i, &w) in p.words().iter().enumerate() {
            itcm.write(ITCM_BASE + 4 * i as u32, w);
        }
        let mut f = FetchUnit::new(ITCM_BASE, None, 0);
        assert_eq!(run_until_packet(&mut f, &mut bus, &itcm, 10), 1);
    }

    #[test]
    fn redirect_discards_inflight_fetch() {
        let mut bus = flash_bus();
        let itcm = Tcm::new(ITCM_BASE);
        let mut f = FetchUnit::new(0x100, None, 0);
        f.step(&mut bus, &itcm, false); // starts the bus read
        assert!(f.busy());
        f.redirect(0x140);
        let cycles = run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert!(cycles > 8, "old response drained, new fetch issued");
        assert_eq!(f.packet_mut().unwrap().remaining()[0].pc, 0x140);
    }

    #[test]
    fn erased_flash_decodes_to_illegal_slots() {
        let mut bus = flash_bus();
        let itcm = Tcm::new(ITCM_BASE);
        let mut f = FetchUnit::new(0x7000, None, 0); // unprogrammed flash
        run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert!(f.packet_mut().unwrap().remaining()[0].instr.is_none());
    }

    #[test]
    fn next_unissued_pc_tracks_buffer() {
        let mut bus = flash_bus();
        let itcm = Tcm::new(ITCM_BASE);
        let mut f = FetchUnit::new(0x100, None, 0);
        run_until_packet(&mut f, &mut bus, &itcm, 100);
        assert_eq!(f.next_unissued_pc(), 0x100);
        f.packet_mut().unwrap().take();
        assert_eq!(f.next_unissued_pc(), 0x104);
        f.packet_mut().unwrap().take();
        f.retire_packet_if_exhausted();
        assert_eq!(f.next_unissued_pc(), 0x108, "falls back to the fetch pc");
    }
}
