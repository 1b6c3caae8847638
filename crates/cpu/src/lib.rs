#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-cpu — cycle-accurate dual-issue pipeline model
//!
//! Models the processor cores of the paper's triple-core automotive SoC
//! at the level of detail its self-test routines exercise:
//!
//! * a dual-issue, in-order, 5-stage pipeline ([`Core`]) with issue
//!   packets, split issue, branch-resolution-in-EX and posted writes;
//! * the **forwarding network** ([`ForwardingNetwork`]): four 5-input
//!   operand-bypass muxes plus two writeback-select muxes, decomposed to
//!   gate pins for stuck-at fault injection;
//! * the **Hazard Detection Control Unit** ([`Hdcu`]): dependency
//!   comparators, load-use stall generation, forwarding-select encoding,
//!   intra-packet split detection;
//! * the **Interrupt Control Unit** ([`Icu`]): synchronous *imprecise*
//!   interrupts recognised a variable number of instructions late;
//! * per-core performance counters (cycles, retired, IF/MEM/hazard
//!   stalls) — the paper's Performance Counters;
//! * a functional reference model ([`RefCpu`]) for differential testing;
//! * per-unit fault-list enumeration ([`unit_fault_list`]).
//!
//! Three core kinds are modeled ([`CoreKind`]): A and B (32-bit,
//! different netlists) and C (64-bit datapath, extended ISA, fully
//! decoded ICU cause register) — matching the paper's case-study SoC.

mod core;
mod csrfile;
mod exec;
mod faultlist;
mod fetch;
mod forwarding;
mod hdcu;
mod icu;
mod kind;
mod lsu;
mod refcpu;

pub use crate::core::{Core, CoreConfig, StageSlot, StageView, TapEvent};
pub use csrfile::CsrFile;
pub use exec::{alu32, alu64, imm_operand};
pub use faultlist::{core_fault_list, delay_fault_list, unit_fault_list};
pub use fetch::{FetchPacket, FetchUnit, FetchedInstr};
pub use forwarding::{
    mux_eval, operand_mux_id, wb_mux_id, ForwardingNetwork, OPERAND_SOURCES, SRC_EXMEM_P0,
    SRC_EXMEM_P1, SRC_MEMWB_P0, SRC_MEMWB_P1, SRC_RF, WB_SOURCES, WB_SRC_ALU, WB_SRC_CSR,
    WB_SRC_MEM,
};
pub use hdcu::{
    overlap_cmp_id, split_cmp_id, Hdcu, ProducerView, Reach, Route, HDCU_CTRL, PROD_EXMEM_P0,
    PROD_EXMEM_P1, PROD_MEMWB_P0, PROD_MEMWB_P1,
};
pub use icu::{Icu, RECOG_LAT};
pub use kind::CoreKind;
pub use lsu::{Lsu, MemOp, MemOpKind};
pub use refcpu::{RefCpu, RefStop};
