//! Deterministic discrete-event simulation core for the LightVM reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! - [`SimTime`]: a nanosecond-resolution virtual clock value.
//! - [`Engine`]: a single-threaded discrete-event executor with cancellable
//!   scheduled closures.
//! - [`CpuSim`]: a fluid processor-sharing CPU contention model used for
//!   boot-time-under-load and use-case experiments.
//! - [`CostModel`] / [`Meter`]: the calibrated primitive-cost constants of
//!   the paper's testbed and the per-category accounting used to reproduce
//!   the creation-overhead breakdown (Figure 5).
//! - [`Machine`]: presets of the paper's three evaluation machines.
//! - [`SimRng`]: a seeded RNG wrapper so every experiment is reproducible.
//! - [`ChunkVec`]: a copy-on-write chunked vector, so forked worlds share
//!   their dense tables until written.
//!
//! The simulation is intentionally single-threaded and fully deterministic:
//! reruns with the same seed produce byte-identical figure data.

pub mod costs;
pub mod cow;
pub mod cpu;
pub mod engine;
pub mod faults;
pub mod machine;
pub mod memory;
pub mod rng;
pub mod shard;
pub mod time;

pub use costs::{Category, CostModel, Meter};
pub use cow::ChunkVec;
pub use faults::{FaultPlan, FaultSite, FAULT_RETRIES};
pub use cpu::{CpuSim, TaskId, TaskKind};
pub use engine::{Engine, EventId};
pub use machine::{Machine, MachinePreset};
pub use memory::MemoryPressure;
pub use rng::SimRng;
pub use shard::{route, run_epoch, Envelope, Outbox, WorkerSpan, CONTROLLER};
pub use time::SimTime;
