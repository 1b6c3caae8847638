#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-soc — the triple-core automotive SoC model
//!
//! Assembles [`sbst_cpu::Core`]s around the shared [`sbst_mem::Bus`] into
//! the SoC the paper evaluates: three cores (A, B: 32-bit; C: 64-bit
//! extended), each with private 8 KiB I$ / 4 KiB D$ and I/D TCMs, sharing
//! one bus to Flash and SRAM.
//!
//! * [`SocBuilder`] / [`Soc`] — construction and the cycle-stepped run
//!   loop with watchdog;
//! * [`Scenario`] — the experimental axes of the paper's sweeps (active
//!   cores, code position, alignment, phase skew);
//! * [`PipelineTrace`] — pipeline-occupancy capture and the ASCII
//!   instruction/cycle diagrams of Figure 1;
//! * [`ChaosConfig`] — the optional chaos plane: an adversarial traffic
//!   injector on its own bus port plus a seeded transient-upset (SEU)
//!   schedule, both deterministic and replayable.

mod chaos;
mod obs;
mod scenario;
mod soc;
mod trace;

pub use chaos::ChaosConfig;
pub use scenario::{Alignment, CodePosition, Scenario};
pub use soc::{RunOutcome, Soc, SocBuilder};
pub use trace::PipelineTrace;
