//! Performance counters and CSR file.

use sbst_isa::Csr;

/// The per-core CSR file: performance counters, scratch registers and
/// the trap vector. ICU-owned CSRs (`IcuCause`, `IcuPending`, `IcuMask`,
/// `Epc`, `IcuDepth`) are serviced by the [`Icu`](crate::Icu) and only
/// routed through here.
#[derive(Debug, Clone, Default)]
pub struct CsrFile {
    /// Free-running cycle counter.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Fetch-stall cycles (issue wanted a packet, none was ready).
    pub if_stalls: u64,
    /// Data-memory stall cycles (MEM stage waiting).
    pub mem_stalls: u64,
    /// Hazard-stall cycles inserted by the HDCU.
    pub haz_stalls: u64,
    /// Operand reads satisfied by a forwarding path instead of the
    /// register file. Deliberately *not* a software-visible CSR: adding
    /// a `Csr` variant would change how random CSR-number instructions
    /// decode, and this counter must be observable without perturbing
    /// any program.
    pub fwd_uses: u64,
    /// Software scratch registers.
    pub scratch: [u32; 2],
    /// Trap handler vector (0 = no handler installed).
    pub trap_vec: u32,
    core_id: u32,
}

impl CsrFile {
    /// Creates a zeroed CSR file for core `core_id`.
    pub fn new(core_id: u32) -> CsrFile {
        CsrFile { core_id, ..CsrFile::default() }
    }

    /// Software read of a non-ICU CSR (low 32 bits of counters).
    ///
    /// Returns `None` for ICU-owned CSRs (the core routes those to the
    /// ICU).
    pub fn read(&self, csr: Csr) -> Option<u32> {
        Some(match csr {
            Csr::Cycles => self.cycles as u32,
            Csr::Retired => self.retired as u32,
            Csr::IfStalls => self.if_stalls as u32,
            Csr::MemStalls => self.mem_stalls as u32,
            Csr::HazStalls => self.haz_stalls as u32,
            Csr::CoreId => self.core_id,
            Csr::TrapVec => self.trap_vec,
            Csr::Scratch0 => self.scratch[0],
            Csr::Scratch1 => self.scratch[1],
            _ => return None,
        })
    }

    /// Architectural-trajectory equality for livelock detection: scratch
    /// registers and trap vector only. The performance counters are
    /// deliberately excluded — they advance monotonically every cycle,
    /// so no two states of a spinning loop could ever compare equal
    /// through them. Excluding them is sound only when the loop body
    /// never *reads* a counter CSR, or when what it does with the reads
    /// is accounted for; the campaign's loop decider checks that
    /// separately from the instruction tap.
    pub fn loop_state_eq(&self, other: &CsrFile) -> bool {
        self.scratch == other.scratch
            && self.trap_vec == other.trap_vec
            && self.core_id == other.core_id
    }

    /// Software write of a non-ICU CSR.
    ///
    /// Returns `false` for CSRs not owned (or not writable) here.
    pub fn write(&mut self, csr: Csr, value: u32) -> bool {
        match csr {
            Csr::Scratch0 => self.scratch[0] = value,
            Csr::Scratch1 => self.scratch[1] = value,
            Csr::TrapVec => self.trap_vec = value,
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_low_32_bits() {
        let mut f = CsrFile::new(2);
        f.cycles = 0x1_0000_0007;
        assert_eq!(f.read(Csr::Cycles), Some(7));
        assert_eq!(f.read(Csr::CoreId), Some(2));
    }

    #[test]
    fn icu_csrs_are_not_serviced_here() {
        let f = CsrFile::new(0);
        assert_eq!(f.read(Csr::IcuCause), None);
        assert_eq!(f.read(Csr::Epc), None);
    }

    #[test]
    fn scratch_is_writable_counters_are_not() {
        let mut f = CsrFile::new(0);
        assert!(f.write(Csr::Scratch0, 42));
        assert_eq!(f.read(Csr::Scratch0), Some(42));
        assert!(!f.write(Csr::Cycles, 1));
    }
}
