//! The Hazard Detection Control Unit.
//!
//! Detects register dependencies among issue packets, drives the
//! forwarding-mux select lines, and stalls the pipeline when forwarding
//! is not possible (load-use, 32/64-bit operand overlap). Faults here
//! produce either *wrong data* (missed forwarding, wrong select — caught
//! by the signature) or *wrongly inserted stalls* (caught only through
//! the performance counters, which is why the paper's HDCU routine folds
//! them into the signature).

use sbst_fault::{gates, Element, FaultPlane, FaultSite, Polarity, Unit};
use sbst_isa::Instr;

use crate::forwarding::{SRC_EXMEM_P0, SRC_EXMEM_P1, SRC_MEMWB_P0, SRC_MEMWB_P1, SRC_RF};
use crate::CoreKind;

/// Producer index: EX/MEM register of pipe 0.
pub const PROD_EXMEM_P0: usize = 0;
/// Producer index: EX/MEM register of pipe 1.
pub const PROD_EXMEM_P1: usize = 1;
/// Producer index: MEM/WB register of pipe 0.
pub const PROD_MEMWB_P0: usize = 2;
/// Producer index: MEM/WB register of pipe 1.
pub const PROD_MEMWB_P1: usize = 3;

/// Priority order in which producers are matched (youngest first).
const PRIORITY: [usize; 4] = [PROD_EXMEM_P1, PROD_EXMEM_P0, PROD_MEMWB_P1, PROD_MEMWB_P0];

/// Map from producer index to forwarding-mux source index.
const PROD_TO_SRC: [usize; 4] = [SRC_EXMEM_P0, SRC_EXMEM_P1, SRC_MEMWB_P0, SRC_MEMWB_P1];

/// Instance id of the intra-packet (split) comparator for slot-1
/// operand `operand`.
pub fn split_cmp_id(operand: usize) -> u16 {
    16 + operand as u16
}

/// Instance id of the 32/64-bit overlap detector for consumer
/// (`slot`, `operand`) — core C only.
pub fn overlap_cmp_id(slot: usize, operand: usize) -> u16 {
    18 + (slot * 2 + operand) as u16
}

/// Instance id grouping the HDCU control lines (stall requests, global
/// stall, select encoders).
pub const HDCU_CTRL: u16 = 100;

/// What the EX-entry comparators see of one potential producer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerView {
    /// Destination base register and whether it is a 64-bit pair.
    pub dest: Option<(u8, bool)>,
    /// `true` for a load still in EX/MEM (its data is not forwardable
    /// yet — matching it requests a load-use stall).
    pub load_pending: bool,
}

/// Routing decision for one consumer operand.
///
/// `select` and `stall_request` are independent physical outputs: even
/// when a stall is requested, the select encoder keeps driving the mux —
/// so a fault that suppresses the stall (dead stall line) makes the core
/// forward the not-yet-ready value instead of waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Forwarding-mux select code (already through the faultable
    /// encoder); `None` means a dead code (no source enabled).
    pub select: Option<usize>,
    /// This consumer requests a pipeline stall (load-use or 32/64-bit
    /// overlap interlock), after per-consumer stall-line faults.
    pub stall_request: bool,
}

/// The one HDCU decision a fault site can change (see [`Hdcu::reach`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// The route of consumer `slot * 2 + operand`: its select code and
    /// its stall request.
    Consumer(usize),
    /// The global stall line.
    Global,
    /// The issue-stage split decision.
    Split,
}

/// The HDCU of one core.
#[derive(Debug, Clone)]
pub struct Hdcu {
    kind: CoreKind,
}

impl Hdcu {
    /// Creates the HDCU for a core kind.
    pub fn new(kind: CoreKind) -> Hdcu {
        Hdcu { kind }
    }

    /// EX-entry comparator instance for consumer (`slot`,`operand`) and
    /// producer `producer`.
    fn cmp_id(slot: usize, operand: usize, producer: usize) -> u16 {
        ((slot * 2 + operand) * 4 + producer) as u16
    }

    /// Evaluates one register-index equality comparator with faults.
    fn cmp(
        &self,
        instance: u16,
        a: u8,
        b: u8,
        valid: bool,
        plane: &FaultPlane,
    ) -> bool {
        gates::cmp_eq(a as u32, b as u32, 5, valid, plane.query(Unit::Hdcu, instance))
    }

    /// Applies stall-request line faults for `consumer` (0..4).
    fn stall_request(&self, consumer: usize, request: bool, plane: &FaultPlane) -> bool {
        let mut r = request;
        if let Some((Element::StallLine { line }, pol)) = plane.query(Unit::Hdcu, HDCU_CTRL) {
            if line as usize == consumer {
                r = pol.value();
            }
        }
        r
    }

    /// ORs per-consumer stall requests into the global stall line (with
    /// line faults; core B's netlist adds a buffered copy of the global
    /// line, electrically equivalent when fault-free).
    pub fn aggregate_stall(&self, requests: &[bool; 4], plane: &FaultPlane) -> bool {
        let mut global = requests.iter().any(|&r| r);
        if let Some((Element::StallLine { line }, pol)) = plane.query(Unit::Hdcu, HDCU_CTRL) {
            if line == 4 || (line == 5 && self.kind == CoreKind::B) {
                global = pol.value();
            }
        }
        global
    }

    /// Encodes a forwarding-mux select through the (faultable) 3-bit
    /// select encoder of `mux`; out-of-range codes decode to no source.
    pub fn encode_select(
        &self,
        mux: usize,
        sel: usize,
        plane: &FaultPlane,
    ) -> Option<usize> {
        let mut code = sel as u32;
        if let Some((Element::SelEncLine { mux: m, bit }, pol)) =
            plane.query(Unit::Hdcu, HDCU_CTRL)
        {
            if m as usize == mux && bit < 3 {
                code = pol.force(code as u64, bit) as u32;
            }
        }
        (code as usize <= SRC_MEMWB_P1).then_some(code as usize)
    }

    /// Routes one consumer operand at EX entry.
    ///
    /// `src`/`src64` describe the consumer's source register (base index,
    /// 64-bit pair flag); `producers` are the four pipeline registers.
    /// The returned select already includes select-encoder faults; the
    /// per-consumer stall request feeds
    /// [`aggregate_stall`](Hdcu::aggregate_stall).
    pub fn route(
        &self,
        slot: usize,
        operand: usize,
        src: u8,
        src64: bool,
        producers: &[ProducerView; 4],
        plane: &FaultPlane,
    ) -> Route {
        let consumer = slot * 2 + operand;
        // r0 reads never forward (the register is hardwired).
        if src == 0 && !src64 {
            return Route {
                select: self.encode_select(consumer, SRC_RF, plane),
                stall_request: false,
            };
        }
        for &p in &PRIORITY {
            let view = producers[p];
            let (dest, dest64) = view.dest.unwrap_or_default();
            let width_match = view.dest.is_some() && dest64 == src64;
            // Exact-match comparator (gated by width equality).
            let eq = self.cmp(Hdcu::cmp_id(slot, operand, p), src, dest, width_match, plane);
            if eq {
                // Load-use: the value is not forwardable yet; the select
                // encoder still drives the producer's source, so a dead
                // stall line forwards the not-yet-ready value.
                let req = view.load_pending
                    && self.stall_request(consumer, true, plane);
                return Route {
                    select: self.encode_select(consumer, PROD_TO_SRC[p], plane),
                    stall_request: req,
                };
            }
            // 32/64-bit partial-overlap interlock (core C only): a width
            // mismatch whose register ranges intersect cannot be
            // forwarded and stalls until the producer retires.
            if self.kind.has_alu64() && view.dest.is_some() && dest64 != src64 {
                let overlap = ranges_overlap(src, src64, dest, dest64);
                let detected =
                    self.overlap_detect(overlap_cmp_id(slot, operand), overlap, plane);
                if detected && self.stall_request(consumer, true, plane) {
                    return Route {
                        select: self.encode_select(consumer, SRC_RF, plane),
                        stall_request: true,
                    };
                }
            }
        }
        Route { select: self.encode_select(consumer, SRC_RF, plane), stall_request: false }
    }

    /// Overlap-detector output with faults on its output pin.
    fn overlap_detect(&self, instance: u16, overlap: bool, plane: &FaultPlane) -> bool {
        match plane.query(Unit::Hdcu, instance) {
            Some((Element::CmpOut, pol)) => pol.value(),
            _ => overlap,
        }
    }

    /// Issue-stage decision: must `slot1` be split from `slot0`?
    ///
    /// Structural rules (unfaultable): memory ops only issue in slot 0;
    /// control flow, `halt` and `mret` issue alone. Data rule
    /// (faultable intra-packet RAW comparators): slot 1 reading slot 0's
    /// destination splits so the interpipeline EX/MEM path can serve it
    /// one cycle later.
    pub fn needs_split(&self, slot0: &Instr, slot1: &Instr, plane: &FaultPlane) -> bool {
        if slot1.is_mem() {
            return true;
        }
        if slot0.is_control_flow()
            || matches!(slot0, Instr::Halt | Instr::Mret | Instr::Cache(_))
        {
            return true;
        }
        let (dest, dest64) = dest_of(slot0).unwrap_or_default();
        let valid = dest_of(slot0).is_some();
        for (operand, src) in slot1.sources().iter().enumerate() {
            let Some(src) = src else { continue };
            let src64 = matches!(slot1, Instr::Alu64 { .. });
            if src.is_zero() && !src64 {
                continue;
            }
            let width_match = valid && dest64 == src64;
            if self.cmp(split_cmp_id(operand), src.index() as u8, dest, width_match, plane) {
                return true;
            }
            // Conservative structural interlock for in-packet 32/64 overlap.
            if valid && dest64 != src64 && ranges_overlap(src.index() as u8, src64, dest, dest64)
            {
                return true;
            }
        }
        false
    }

    /// Which decision a fault at HDCU `instance` on `element` can change:
    /// a consumer's comparators, overlap detector, stall-request line or
    /// select encoder reach only that consumer's route; lines 4 and 5
    /// reach the global stall; the intra-packet comparators reach only
    /// the split decision.
    pub fn reach(instance: u16, element: Element) -> Reach {
        match (instance, element) {
            (HDCU_CTRL, Element::StallLine { line }) if line < 4 => Reach::Consumer(line as usize),
            (HDCU_CTRL, Element::StallLine { .. }) => Reach::Global,
            (HDCU_CTRL, Element::SelEncLine { mux, .. }) => Reach::Consumer(mux as usize),
            (i, _) if i < split_cmp_id(0) => Reach::Consumer(i as usize / 4),
            (i, _) if i < overlap_cmp_id(0, 0) => Reach::Split,
            (i, _) => Reach::Consumer((i - overlap_cmp_id(0, 0)) as usize),
        }
    }

    /// Enumerates every stuck-at fault site of the HDCU for a core kind.
    pub fn fault_sites(kind: CoreKind) -> Vec<FaultSite> {
        let mut sites = Vec::new();
        let mut push = |instance: u16, element| {
            for polarity in Polarity::BOTH {
                sites.push(FaultSite { unit: Unit::Hdcu, instance, element, polarity });
            }
        };
        let comparator = |instance: u16, push: &mut dyn FnMut(u16, Element)| {
            for bit in 0..5 {
                push(instance, Element::CmpXnorOut { bit });
            }
            for node in 0..6 {
                push(instance, Element::CmpChainNode { node });
            }
            push(instance, Element::CmpValidIn);
            push(instance, Element::CmpOut);
        };
        for slot in 0..2 {
            for operand in 0..2 {
                for producer in 0..4 {
                    comparator(Hdcu::cmp_id(slot, operand, producer), &mut push);
                }
            }
        }
        for operand in 0..2 {
            comparator(split_cmp_id(operand), &mut push);
        }
        if kind.has_alu64() {
            for slot in 0..2 {
                for operand in 0..2 {
                    comparator(overlap_cmp_id(slot, operand), &mut push);
                }
            }
        }
        let stall_lines = if kind == CoreKind::B { 6 } else { 5 };
        for line in 0..stall_lines {
            push(HDCU_CTRL, Element::StallLine { line });
        }
        for mux in 0..4 {
            for bit in 0..3 {
                push(HDCU_CTRL, Element::SelEncLine { mux, bit });
            }
        }
        sites
    }
}

/// Destination (base register, is64) of an instruction, if any.
fn dest_of(i: &Instr) -> Option<(u8, bool)> {
    i.dest().map(|r| (r.index() as u8, matches!(i, Instr::Alu64 { .. })))
}

/// Whether the register ranges of two (possibly 64-bit pair) operands
/// intersect.
fn ranges_overlap(a: u8, a64: bool, b: u8, b64: bool) -> bool {
    let (a0, a1) = (a, if a64 { a + 1 } else { a });
    let (b0, b1) = (b, if b64 { b + 1 } else { b });
    a0 <= b1 && b0 <= a1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_isa::{AluOp, Reg};

    const FREE: FaultPlane = FaultPlane::fault_free();

    fn producers(p: [(Option<(u8, bool)>, bool); 4]) -> [ProducerView; 4] {
        p.map(|(dest, load_pending)| ProducerView { dest, load_pending })
    }

    fn armed(instance: u16, element: Element, polarity: Polarity) -> FaultPlane {
        FaultPlane::armed(FaultSite { unit: Unit::Hdcu, instance, element, polarity })
    }

    #[test]
    fn rf_route_when_no_producer_matches() {
        let hdcu = Hdcu::new(CoreKind::A);
        let prods = producers([(None, false); 4]);
        let route = hdcu.route(0, 0, 5, false, &prods, &FREE);
        assert_eq!(route.select, Some(SRC_RF));
        assert!(!route.stall_request);
    }

    #[test]
    fn youngest_producer_wins() {
        let hdcu = Hdcu::new(CoreKind::A);
        // Register 7 produced by both EX/MEM.P0 (older) and EX/MEM.P1
        // (younger in-program-order within the previous packet).
        let mut p = producers([(None, false); 4]);
        p[PROD_EXMEM_P0].dest = Some((7, false));
        p[PROD_EXMEM_P1].dest = Some((7, false));
        let route = hdcu.route(0, 0, 7, false, &p, &FREE);
        assert_eq!(route.select, Some(SRC_EXMEM_P1));
    }

    #[test]
    fn memwb_matches_when_exmem_does_not() {
        let hdcu = Hdcu::new(CoreKind::A);
        let mut p = producers([(None, false); 4]);
        p[PROD_MEMWB_P0].dest = Some((3, false));
        let route = hdcu.route(1, 1, 3, false, &p, &FREE);
        assert_eq!(route.select, Some(SRC_MEMWB_P0));
    }

    #[test]
    fn load_use_requests_a_stall() {
        let hdcu = Hdcu::new(CoreKind::A);
        let mut p = producers([(None, false); 4]);
        p[PROD_EXMEM_P0] = ProducerView { dest: Some((9, false)), load_pending: true };
        let route = hdcu.route(0, 0, 9, false, &p, &FREE);
        assert!(route.stall_request);
        assert_eq!(route.select, Some(SRC_EXMEM_P0), "encoder keeps driving");
    }

    #[test]
    fn dead_stall_line_forwards_garbage_instead() {
        let plane = armed(HDCU_CTRL, Element::StallLine { line: 0 }, Polarity::StuckAt0);
        let hdcu = Hdcu::new(CoreKind::A);
        let mut p = producers([(None, false); 4]);
        p[PROD_EXMEM_P0] = ProducerView { dest: Some((9, false)), load_pending: true };
        let route = hdcu.route(0, 0, 9, false, &p, &plane);
        assert!(!route.stall_request, "stall suppressed by the fault");
        assert_eq!(
            route.select,
            Some(SRC_EXMEM_P0),
            "missing stall forwards the not-yet-ready value"
        );
    }

    #[test]
    fn cmp_fault_misses_the_dependency() {
        // Kill comparator consumer(0,0) x producer EXMEM_P1.
        let id = Hdcu::cmp_id(0, 0, PROD_EXMEM_P1);
        let plane = armed(id, Element::CmpOut, Polarity::StuckAt0);
        let hdcu = Hdcu::new(CoreKind::A);
        let mut p = producers([(None, false); 4]);
        p[PROD_EXMEM_P1].dest = Some((7, false));
        let route = hdcu.route(0, 0, 7, false, &p, &plane);
        assert_eq!(route.select, Some(SRC_RF), "stale RF value selected");
    }

    #[test]
    fn cmp_fault_forges_a_dependency() {
        let id = Hdcu::cmp_id(0, 0, PROD_EXMEM_P0);
        let plane = armed(id, Element::CmpOut, Polarity::StuckAt1);
        let hdcu = Hdcu::new(CoreKind::A);
        let mut p = producers([(None, false); 4]);
        p[PROD_EXMEM_P0].dest = Some((3, false));
        // Consumer reads r9, no real dependency on r3.
        let route = hdcu.route(0, 0, 9, false, &p, &plane);
        assert_eq!(route.select, Some(SRC_EXMEM_P0), "wrong forward");
    }

    #[test]
    fn global_stall_aggregation_and_faults() {
        let hdcu = Hdcu::new(CoreKind::A);
        assert!(hdcu.aggregate_stall(&[false, true, false, false], &FREE));
        assert!(!hdcu.aggregate_stall(&[false; 4], &FREE));
        let sa1 = armed(HDCU_CTRL, Element::StallLine { line: 4 }, Polarity::StuckAt1);
        assert!(hdcu.aggregate_stall(&[false; 4], &sa1), "permanent stall");
        let sa0 = armed(HDCU_CTRL, Element::StallLine { line: 4 }, Polarity::StuckAt0);
        assert!(!hdcu.aggregate_stall(&[true; 4], &sa0), "stalls suppressed");
        // The buffered copy only exists on core B.
        let buf = armed(HDCU_CTRL, Element::StallLine { line: 5 }, Polarity::StuckAt1);
        assert!(!hdcu.aggregate_stall(&[false; 4], &buf), "inert on core A");
        assert!(Hdcu::new(CoreKind::B).aggregate_stall(&[false; 4], &buf));
    }

    #[test]
    fn select_encoder_fault_can_kill_the_select() {
        let hdcu = Hdcu::new(CoreKind::A);
        assert_eq!(hdcu.encode_select(2, SRC_EXMEM_P0, &FREE), Some(SRC_EXMEM_P0));
        // Force bit 2: select 1 (001) becomes 5 (101) -> dead code.
        let plane = armed(
            HDCU_CTRL,
            Element::SelEncLine { mux: 2, bit: 2 },
            Polarity::StuckAt1,
        );
        assert_eq!(hdcu.encode_select(2, SRC_EXMEM_P0, &plane), None);
        assert_eq!(
            hdcu.encode_select(0, SRC_EXMEM_P0, &plane),
            Some(SRC_EXMEM_P0),
            "other mux unaffected"
        );
    }

    #[test]
    fn split_on_intra_packet_raw() {
        let hdcu = Hdcu::new(CoreKind::A);
        let i0 = Instr::Alu { op: AluOp::Add, rd: Reg::R5, rs1: Reg::R1, rs2: Reg::R2 };
        let dep = Instr::Alu { op: AluOp::Add, rd: Reg::R6, rs1: Reg::R5, rs2: Reg::R2 };
        let indep = Instr::Alu { op: AluOp::Add, rd: Reg::R6, rs1: Reg::R1, rs2: Reg::R2 };
        assert!(hdcu.needs_split(&i0, &dep, &FREE));
        assert!(!hdcu.needs_split(&i0, &indep, &FREE));
    }

    #[test]
    fn split_fault_sa0_misses_the_raw() {
        let plane = armed(split_cmp_id(0), Element::CmpOut, Polarity::StuckAt0);
        let hdcu = Hdcu::new(CoreKind::A);
        let i0 = Instr::Alu { op: AluOp::Add, rd: Reg::R5, rs1: Reg::R1, rs2: Reg::R2 };
        let dep = Instr::Alu { op: AluOp::Add, rd: Reg::R6, rs1: Reg::R5, rs2: Reg::R2 };
        assert!(!hdcu.needs_split(&i0, &dep, &plane), "RAW missed -> stale RF read");
    }

    #[test]
    fn split_fault_sa1_inserts_needless_splits() {
        let plane = armed(split_cmp_id(0), Element::CmpOut, Polarity::StuckAt1);
        let hdcu = Hdcu::new(CoreKind::A);
        let i0 = Instr::Alu { op: AluOp::Add, rd: Reg::R5, rs1: Reg::R1, rs2: Reg::R2 };
        let indep = Instr::Alu { op: AluOp::Add, rd: Reg::R6, rs1: Reg::R1, rs2: Reg::R2 };
        assert!(
            hdcu.needs_split(&i0, &indep, &plane),
            "spurious split: only the performance counters can see this"
        );
    }

    #[test]
    fn structural_split_rules() {
        let hdcu = Hdcu::new(CoreKind::A);
        let alu = Instr::Alu { op: AluOp::Add, rd: Reg::R5, rs1: Reg::R1, rs2: Reg::R2 };
        let load = Instr::Load { rd: Reg::R6, base: Reg::R1, off: 0 };
        assert!(hdcu.needs_split(&alu, &load, &FREE), "mem ops only in slot 0");
        assert!(hdcu.needs_split(&Instr::Halt, &alu, &FREE));
        let br = Instr::Branch {
            cond: sbst_isa::Cond::Eq,
            rs1: Reg::R0,
            rs2: Reg::R0,
            off: 8,
        };
        assert!(hdcu.needs_split(&br, &alu, &FREE));
    }

    #[test]
    fn overlap_interlock_on_core_c() {
        let hdcu = Hdcu::new(CoreKind::C);
        let mut p = producers([(None, false); 4]);
        // Producer wrote the pair (r4, r5); consumer reads r5 as 32-bit.
        p[PROD_EXMEM_P0].dest = Some((4, true));
        let route = hdcu.route(0, 0, 5, false, &p, &FREE);
        assert!(route.stall_request);
        // Exact 64-bit consumers forward normally.
        let route = hdcu.route(0, 0, 4, true, &p, &FREE);
        assert_eq!(route.select, Some(SRC_EXMEM_P0));
        assert!(!route.stall_request);
    }

    #[test]
    fn overlap_detector_fault_misses_the_interlock() {
        let plane = armed(overlap_cmp_id(0, 0), Element::CmpOut, Polarity::StuckAt0);
        let hdcu = Hdcu::new(CoreKind::C);
        let mut p = producers([(None, false); 4]);
        p[PROD_EXMEM_P0].dest = Some((4, true));
        let route = hdcu.route(0, 0, 5, false, &p, &plane);
        assert!(!route.stall_request, "interlock missed");
        assert_eq!(route.select, Some(SRC_RF));
    }

    #[test]
    fn fault_site_counts_scale_with_kind() {
        let a = Hdcu::fault_sites(CoreKind::A).len();
        let b = Hdcu::fault_sites(CoreKind::B).len();
        let c = Hdcu::fault_sites(CoreKind::C).len();
        assert!(c > a, "core C adds overlap detectors: {c} vs {a}");
        assert_ne!(a, b, "different physical design");
    }

    #[test]
    fn every_site_reaches_the_decision_that_queries_it() {
        let sites =
            Hdcu::fault_sites(CoreKind::C).into_iter().chain(Hdcu::fault_sites(CoreKind::B));
        for site in sites {
            let reach = Hdcu::reach(site.instance, site.element);
            match site.instance {
                0..=15 => assert_eq!(
                    reach,
                    Reach::Consumer(site.instance as usize / 4),
                    "{site:?}: cmp_id(slot, operand, _) / 4 is the consumer"
                ),
                16 | 17 => assert_eq!(reach, Reach::Split),
                18..=21 => assert_eq!(reach, Reach::Consumer(site.instance as usize - 18)),
                _ => assert!(matches!(reach, Reach::Consumer(0..=3) | Reach::Global), "{site:?}"),
            }
        }
        let line = |line| Hdcu::reach(HDCU_CTRL, Element::StallLine { line });
        assert_eq!(line(2), Reach::Consumer(2));
        assert_eq!(line(4), Reach::Global);
        assert_eq!(line(5), Reach::Global);
        let select = Element::SelEncLine { mux: 3, bit: 1 };
        assert_eq!(Hdcu::reach(HDCU_CTRL, select), Reach::Consumer(3));
    }

    #[test]
    fn ranges() {
        assert!(ranges_overlap(4, true, 5, false));
        assert!(ranges_overlap(5, false, 4, true));
        assert!(!ranges_overlap(4, true, 6, false));
        assert!(ranges_overlap(4, true, 5, true));
    }
}
