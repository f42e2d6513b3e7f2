//! `gatesim` — gate-level netlists, logic simulation, and
//! switched-capacitance power estimation.
//!
//! This crate is the SIS-power-estimator analogue of the DATE 2000 power
//! co-estimation paper: the hardware-mapped parts of a system-on-chip are
//! synthesized to gates ([`HwCfsm::synthesize`]) and simulated cycle by
//! cycle ([`Simulator`]) with per-net toggle-count energy accounting
//! ([`PowerConfig`], [`EnergyReport`]) — "a gate-level simulator that
//! reports power consumed on demand at cycle-level accuracy" (§3).
//!
//! Layers:
//!
//! * [`Netlist`] / [`GateKind`] — the structural IR;
//! * [`bus`] — word-level datapath blocks (adders, multipliers,
//!   comparators, registers);
//! * [`Simulator`] — deterministic cycle-based logic simulation with
//!   energy capture (two bit-identical kernels: event-driven and the
//!   oblivious reference — see [`SimKernel`]);
//! * [`word`] — the lockstep multi-stream [`MultiLaneSim`] (64-lane
//!   [`LaneSim`] instance);
//! * [`simd`] — lane words ([`LaneWord`], [`Wide`]) from 64 to
//!   128/256/512 lanes per op, and the width-erased [`SimdLaneSim`]
//!   multi-stream simulator;
//! * [`HwCfsm`] — CFSM transitions synthesized to FSMDs plus the
//!   run protocol the co-simulation master uses, with an exact memo of
//!   repeated firings for design-space sweeps ([`FiringMemoScope`]);
//! * [`macro_op_energies`] — the hardware macro-op characterization
//!   behind the macro-model's parameter file, memoized with synthesis;
//!   each flop-free template's 64 operand rounds settle in one `u64`
//!   lane word.
//!
//! # Examples
//!
//! ```
//! use gatesim::{Netlist, GateKind, Simulator, PowerConfig};
//!
//! let mut n = Netlist::new();
//! let a = n.input();
//! let b = n.input();
//! let sum = n.gate(GateKind::Xor, vec![a, b]);
//! n.mark_output("sum", sum);
//!
//! let mut sim = Simulator::new(&n, PowerConfig::date2000_defaults())?;
//! sim.set_input(a, true);
//! let energy = sim.step();
//! assert!(sim.value(sum) && energy > 0.0);
//! # Ok::<(), gatesim::ValidateNetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod blif;
pub mod bus;
mod characterize;
mod memo;
mod netlist;
mod power;
mod sim;
pub mod simd;
mod synth;
pub mod word;

pub use characterize::macro_op_energies;
pub use memo::FIRING_MEMO_CAP_BYTES;
pub use netlist::{GateKind, NetId, Netlist, ValidateNetlistError};
pub use power::{CapacitanceMap, EnergyReport, PowerConfig};
pub use sim::{ParseKernelError, SimKernel, Simulator};
pub use simd::{LaneWord, SimdLaneSim, Wide, W128, W256, W512};
pub use word::{LaneSim, MultiLaneSim};
pub use synth::{
    clear_synth_cache, firing_memo_stats, synth_cache_stats, FiringMemoScope, FiringMemoStats,
    HwCfsm, HwRun, HwTransition, SynthConfig, SynthError,
};
