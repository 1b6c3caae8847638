#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-mem — the memory subsystem of the simulated SoC
//!
//! Models every storage and interconnect element the DATE 2020 paper's
//! triple-core automotive SoC exposes to its Software Test Library:
//!
//! * [`FlashImage`]/[`FlashCtl`] — shared program Flash with an 8-cycle
//!   access time and a prefetch *row buffer* that makes code position and
//!   alignment observable in timing;
//! * [`Bus`] — the single shared system bus with a round-robin arbiter;
//!   its serialization of concurrent fetches is the root cause of the
//!   multi-core nondeterminism the paper addresses;
//! * [`Cache`] — private per-core L1 instruction (8 KiB) and data (4 KiB)
//!   caches, write-through, with both write-allocate and no-write-allocate
//!   policies and whole-cache invalidation;
//! * [`Tcm`] — per-core instruction/data Tightly-Coupled Memories, the
//!   competing execution strategy of the paper's Table IV;
//! * [`Sram`] — shared system SRAM for mailboxes and scheduler state;
//! * [`TrafficInjector`] — a SafeTI-style programmable adversarial bus
//!   master for interference testing, plus the [`SeuScheduler`] transient
//!   bit-flip plane and the shared deterministic [`Prng`] they (and the
//!   scenario axes) draw from.
//!
//! ## Example: a cache miss serviced over the contended bus
//!
//! ```
//! use sbst_mem::{Bus, BusRequest, Cache, CacheConfig, FlashCtl, FlashImage,
//!                FlashTiming, Sram};
//!
//! let image = FlashImage::new().freeze();
//! let mut bus = Bus::new(FlashCtl::new(image, FlashTiming::default()),
//!                        Sram::default(), 1);
//! let mut icache = Cache::new(CacheConfig::icache_8k());
//!
//! // Miss: fetch the whole line over the bus, then install it.
//! assert_eq!(icache.read(0x100), None);
//! bus.request(0, BusRequest::read_burst(icache.line_base(0x100), 8));
//! let line = loop {
//!     bus.step();
//!     if let Some(resp) = bus.response(0) {
//!         break resp.words().to_vec();
//!     }
//! };
//! icache.fill(0x100, &line);
//! assert!(icache.read(0x100).is_some());
//! ```

mod arbiter;
mod bounds;
mod bus;
mod cache;
mod cow;
mod flash;
mod injector;
mod map;
mod prng;
mod seu;
mod sram;
mod tcm;
mod watchdog;

pub use arbiter::{Arbiter, ArbiterKind, FixedPriority, RoundRobin, Tdma};
pub use bounds::BoundParams;
pub use bus::{Bus, BusOp, BusRequest, BusResponse, BusStats, ReqKind, MAX_BURST, MAX_PORTS};
pub use cache::{Cache, CacheConfig, CacheStats, WritePolicy};
pub use cow::{CowVec, COW_PAGE};
pub use flash::{FlashCtl, FlashImage, FlashTiming, ERASED};
pub use injector::{
    injector_scratch_base, InjectorPattern, InjectorProgram, InjectorStats, TrafficInjector,
    INJECTOR_SCRATCH_BYTES,
};
pub use map::{
    Region, DTCM_BASE, FLASH_BASE, FLASH_HIGH, FLASH_LOW, FLASH_MID, FLASH_SIZE, ITCM_BASE,
    MMIO_BASE, MMIO_SIZE, SRAM_BASE, SRAM_SIZE, TCM_SIZE,
};
pub use prng::Prng;
pub use seu::{SeuConfig, SeuEvent, SeuScheduler, SeuStrike, SeuTarget};
pub use sram::Sram;
pub use tcm::Tcm;
pub use watchdog::{Watchdog, WDG_KICK, WDG_LOAD, WDG_STATUS};
