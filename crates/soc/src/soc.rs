//! The SoC: cores, shared bus, run loop.

use std::sync::Arc;

use sbst_cpu::{Core, CoreConfig};
use sbst_isa::Program;
use sbst_mem::{
    ArbiterKind, Bus, FlashCtl, FlashImage, FlashTiming, InjectorStats, SeuEvent, SeuScheduler,
    SeuTarget, Sram, TrafficInjector,
};

use sbst_obs::{BusObs, MetricsHub};

use crate::chaos::ChaosConfig;
use crate::obs::{collect, ObsConfig, SocObs};

/// Why [`Soc::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every active core halted cleanly after this many cycles.
    AllHalted {
        /// Total cycles simulated.
        cycles: u64,
    },
    /// A core recognised a trap with no handler installed.
    FatalTrap {
        /// Which core died.
        core: usize,
        /// Cycle at which simulation stopped.
        cycles: u64,
    },
    /// The cycle budget ran out (the in-field watchdog case).
    Watchdog {
        /// Cycle at which the watchdog bit (or the budget expired).
        cycles: u64,
    },
}

impl RunOutcome {
    /// Whether every core halted cleanly.
    pub fn is_clean(&self) -> bool {
        matches!(self, RunOutcome::AllHalted { .. })
    }
}

/// Builder for a [`Soc`].
///
/// # Example
///
/// ```
/// use sbst_cpu::{CoreConfig, CoreKind};
/// use sbst_isa::{Asm, Reg};
/// use sbst_soc::SocBuilder;
///
/// # fn main() -> Result<(), sbst_isa::AsmError> {
/// let mut a = Asm::new();
/// a.li(Reg::R1, 7);
/// a.halt();
/// let program = a.assemble(0x100)?;
///
/// let mut soc = SocBuilder::new()
///     .load(&program)
///     .core(CoreConfig::cached(CoreKind::A, 0, 0x100), 0)
///     .build();
/// let outcome = soc.run(10_000);
/// assert!(outcome.is_clean());
/// assert_eq!(soc.core(0).reg(Reg::R1), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SocBuilder {
    flash: FlashImage,
    timing: FlashTiming,
    sram_latency: u32,
    cores: Vec<(CoreConfig, u32)>,
    chaos: Option<ChaosConfig>,
    obs: Option<ObsConfig>,
    arbiter: ArbiterKind,
}

impl Default for SocBuilder {
    fn default() -> SocBuilder {
        SocBuilder {
            flash: FlashImage::default(),
            timing: FlashTiming::default(),
            sram_latency: 0,
            cores: Vec::new(),
            chaos: None,
            obs: None,
            arbiter: ArbiterKind::RoundRobin,
        }
    }
}

impl SocBuilder {
    /// Starts an empty SoC description (default Flash/SRAM timing,
    /// round-robin arbitration).
    pub fn new() -> SocBuilder {
        SocBuilder { sram_latency: 4, ..SocBuilder::default() }
    }

    /// Loads a program image into Flash.
    ///
    /// # Panics
    ///
    /// Panics on image overlap (see [`FlashImage::load`]).
    pub fn load(mut self, program: &Program) -> SocBuilder {
        self.flash.load(program);
        self
    }

    /// Overrides the Flash timing.
    pub fn flash_timing(mut self, timing: FlashTiming) -> SocBuilder {
        self.timing = timing;
        self
    }

    /// Adds a core that starts stepping after `start_delay` cycles (the
    /// phase-skew scenario axis: the paper notes stall counts vary with
    /// the initial SoC configuration).
    pub fn core(mut self, cfg: CoreConfig, start_delay: u32) -> SocBuilder {
        self.cores.push((cfg, start_delay));
        self
    }

    /// Attaches a chaos plane: an adversarial traffic injector as one
    /// extra bus master, plus a transient-upset (SEU) schedule.
    pub fn chaos(mut self, cfg: ChaosConfig) -> SocBuilder {
        self.chaos = Some(cfg);
        self
    }

    /// Selects the bus arbitration policy (round-robin when not called).
    /// The analytical interference bounds of
    /// [`sbst_mem::BoundParams`] are derived from this choice.
    pub fn arbiter(mut self, kind: ArbiterKind) -> SocBuilder {
        self.arbiter = kind;
        self
    }

    /// Attaches the observability layer: per-core trace events, bus
    /// grant-latency histograms and a [`MetricsHub`] at the end of the
    /// run (see [`Soc::metrics`]). Observation is strictly read-only —
    /// signatures, verdicts and cycle counts are bit-identical with or
    /// without it.
    pub fn observe(mut self, cfg: ObsConfig) -> SocBuilder {
        self.obs = Some(cfg);
        self
    }

    /// Builds the SoC around a fresh copy of the accumulated image.
    pub fn build(self) -> Soc {
        self.build_shared(self.flash.clone().freeze())
    }

    /// Builds the SoC around an explicitly shared image — fault-campaign
    /// runs construct thousands of SoCs over one frozen image.
    pub fn build_shared(&self, image: Arc<FlashImage>) -> Soc {
        assert!(!self.cores.is_empty(), "SoC needs at least one core");
        // The injector gets its own bus port after the cores' ports, so
        // core-port numbering (2i, 2i+1) is unchanged by chaos.
        let ports = 2 * self.cores.len() + usize::from(self.chaos.is_some());
        let bus = Bus::with_arbiter(
            FlashCtl::new(image, self.timing),
            Sram::new(self.sram_latency),
            ports,
            self.arbiter,
        );
        let cores = self
            .cores
            .iter()
            .map(|&(cfg, delay)| (Core::new(cfg), delay))
            .collect();
        let injector = self
            .chaos
            .map(|c| TrafficInjector::new(c.injector, ports - 1));
        let seu = self.chaos.map(|c| SeuScheduler::new(c.seu));
        let mut soc = Soc { cores, bus, cycle: 0, injector, seu, seu_log: Vec::new(), obs: None };
        if let Some(cfg) = self.obs {
            soc.attach_obs(cfg);
        }
        soc
    }

    /// Freezes the accumulated Flash image for sharing across builds.
    pub fn freeze_image(&self) -> Arc<FlashImage> {
        self.flash.clone().freeze()
    }
}

/// The simulated multi-core SoC: N cores, one shared bus, shared Flash
/// and SRAM.
#[derive(Debug, Clone)]
pub struct Soc {
    cores: Vec<(Core, u32)>,
    bus: Bus,
    cycle: u64,
    injector: Option<TrafficInjector>,
    seu: Option<SeuScheduler>,
    seu_log: Vec<SeuEvent>,
    obs: Option<Box<SocObs>>,
}

impl Soc {
    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Core `i`.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i].0
    }

    /// Mutable core `i` (arming faults, loading TCMs).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i].0
    }

    /// The shared bus (statistics, SRAM access).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access (peripheral setup from the harness).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Harness read of shared SRAM.
    pub fn peek(&self, addr: u32) -> u32 {
        self.bus.sram().peek(addr)
    }

    /// Harness write of shared SRAM.
    pub fn poke(&mut self, addr: u32, value: u32) {
        self.bus.sram_mut().poke(addr, value);
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Severs every copy-on-write page this SoC still shares with other
    /// clones (SRAM, per-core TCMs, caches) — making a clone behave like
    /// the pre-COW deep copy. Differential-test hook: a run on an
    /// unshared clone must be indistinguishable from one on a COW clone.
    pub fn unshare(&mut self) {
        self.bus.sram_mut().unshare();
        for (core, _) in &mut self.cores {
            core.unshare();
        }
    }

    /// Traffic-injector statistics, when a chaos plane is attached.
    pub fn injector_stats(&self) -> Option<InjectorStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Every SEU strike rolled this run, landed or absorbed.
    pub fn seu_events(&self) -> &[SeuEvent] {
        &self.seu_log
    }

    /// Strikes that actually corrupted state (vs absorbed by an empty
    /// cache or idle bus).
    pub fn seu_landed(&self) -> usize {
        self.seu_log.iter().filter(|e| e.landed).count()
    }

    /// Advances the whole SoC by one clock cycle.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        for (core, delay) in &mut self.cores {
            if cycle >= *delay as u64 {
                core.step(&mut self.bus);
            }
        }
        // The injector files its request after the cores so a core and
        // the injector contending for the same free bus resolve by port
        // order in the arbiter, not by stepping order.
        if let Some(inj) = &mut self.injector {
            inj.step(&mut self.bus, cycle);
        }
        self.bus.step();
        // Strikes land after the bus settles: a BusData strike corrupts
        // the response a master will consume on a *later* cycle.
        if let Some(seu) = &mut self.seu {
            let n = self.cores.len();
            if let Some(strike) = seu.roll(cycle, n) {
                let landed = match strike.target {
                    SeuTarget::ICache { core } => self.cores[core % n]
                        .0
                        .icache_mut()
                        .and_then(|c| c.flip_bit(strike.line_pick, strike.word_pick, strike.bit))
                        .is_some(),
                    SeuTarget::DCache { core } => self.cores[core % n]
                        .0
                        .dcache_mut()
                        .and_then(|c| c.flip_bit(strike.line_pick, strike.word_pick, strike.bit))
                        .is_some(),
                    SeuTarget::BusData => {
                        self.bus.corrupt_in_flight(strike.word_pick, strike.bit)
                    }
                };
                self.seu_log.push(SeuEvent { strike, landed });
            }
        }
        // Observe last, so the sample reflects the cycle that just
        // executed. The observer is taken out and put back to let it
        // read the whole SoC; it never mutates simulated state.
        if self.obs.is_some() {
            let cycle = self.cycle;
            let mut obs = self.obs.take().expect("checked");
            obs.observe(self, cycle);
            self.obs = Some(obs);
        }
        self.cycle += 1;
    }

    /// Attaches the observability layer to a built SoC (equivalent to
    /// [`SocBuilder::observe`]).
    pub fn attach_obs(&mut self, cfg: ObsConfig) {
        let prev = self.cores.iter().map(|(c, _)| c.obs_sample()).collect();
        self.obs = Some(Box::new(SocObs::new(cfg, prev)));
        self.bus.attach_obs(BusObs::new(self.bus.ports(), cfg.ring_capacity));
    }

    /// Whether the observability layer is attached.
    pub fn observed(&self) -> bool {
        self.obs.is_some()
    }

    /// Collects the run's metrics: final per-core and per-cache
    /// counters, per-port bus statistics with grant-latency histograms,
    /// and the merged trace-event window. `None` unless the
    /// observability layer was attached.
    pub fn metrics(&self) -> Option<MetricsHub> {
        let obs = self.obs.as_deref()?;
        let bus_obs = self.bus.obs()?;
        Some(collect(self, obs, bus_obs))
    }

    /// Whether every core has halted cleanly.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|(c, _)| c.halted())
    }

    /// Whether a chaos plane (adversarial traffic injector or SEU
    /// schedule) is attached. Campaign livelock detection refuses to
    /// short-circuit such SoCs: injector programs and SEU schedules are
    /// driven by the absolute cycle count, which state comparison
    /// deliberately excludes.
    pub fn has_chaos(&self) -> bool {
        self.injector.is_some() || self.seu.is_some()
    }

    /// Architectural-trajectory comparison for livelock detection,
    /// *modulo* the architectural registers of core `free`: `None` when
    /// anything else differs, otherwise `Some(mask)` of core `free`'s
    /// differing registers (see [`Core::loop_state_diff`]). Compared:
    /// all cores, their start delays, and the bus with every attached
    /// memory (see `Bus::state_eq`). Excluded: the absolute cycle
    /// count, statistics, the SEU log and the observability layer.
    /// Callers must additionally rule out cycle-driven behavior — a
    /// TDMA arbiter (grants depend on the absolute cycle) and chaos
    /// planes (see [`has_chaos`](Soc::has_chaos)) — before treating
    /// equal states as proof of a loop.
    pub fn loop_state_diff(&self, other: &Soc, free: usize) -> Option<u32> {
        if self.cores.len() != other.cores.len() {
            return None;
        }
        let mut mask = 0;
        for (i, ((a, da), (b, db))) in self.cores.iter().zip(&other.cores).enumerate() {
            match a.loop_state_diff(b) {
                Some(d) if da == db && (d == 0 || i == free) => mask |= d,
                _ => return None,
            }
        }
        self.bus.state_eq(&other.bus).then_some(mask)
    }

    /// Exact [`loop_state_diff`](Soc::loop_state_diff): every core's
    /// registers included.
    pub fn loop_state_eq(&self, other: &Soc) -> bool {
        self.loop_state_diff(other, 0) == Some(0)
    }

    /// Runs until every core halts, a fatal trap occurs, the
    /// memory-mapped watchdog bites (when software armed it), or
    /// `max_cycles` elapse (the harness backstop). Both watchdog paths
    /// report [`RunOutcome::Watchdog`] — in field they are the same
    /// alarm.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        for _ in 0..max_cycles {
            self.step();
            if let Some(core) =
                self.cores.iter().position(|(c, _)| c.fatal_trap())
            {
                return RunOutcome::FatalTrap { core, cycles: self.cycle };
            }
            if self.all_halted() {
                return RunOutcome::AllHalted { cycles: self.cycle };
            }
            if self.bus.watchdog().bitten() {
                return RunOutcome::Watchdog { cycles: self.cycle };
            }
        }
        RunOutcome::Watchdog { cycles: self.cycle }
    }
}
