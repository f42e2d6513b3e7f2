//! `co-estimation` — the SOC power co-estimation framework of
//! *"Efficient Power Co-Estimation Techniques for System-on-Chip Design"*
//! (Lajolo, Raghunathan, Dey, Lavagno — DATE 2000).
//!
//! A system is described as a CFSM network with a HW/SW mapping
//! ([`SocDescription`]); the [`CoSimulator`] simulates its discrete-event
//! behavioral model while concurrently and synchronously driving the
//! per-component power estimators — *power co-estimation*. Each
//! process gets one [`Estimator`] ([`build_estimator`] picks it from
//! the process's mapping): gate-level simulation for hardware
//! ([`Estimator::Hw`]) and an enhanced ISS for software
//! ([`Estimator::Sw`]); the behavioral bus model prices the integration
//! architecture and a cache simulator is attached to the master. The
//! baseline the paper argues against, independent per-component
//! estimation from behavioral traces, is provided by
//! [`estimate_separately`].
//!
//! Three acceleration techniques (§4) can be switched on through
//! [`Acceleration`]; the master stacks the configured ones in an
//! [`AccelPipeline`] in the paper's fixed order, each either answering a
//! firing from its own state or leaving it to the next, and the last
//! to the detailed estimator:
//!
//! * **software/hardware power macro-modeling** (over [`ParameterFile`],
//!   §4.1),
//! * **energy & delay caching** (over [`EnergyCache`], §4.2),
//! * **statistical sampling / sequence compaction** (firing-level
//!   sampling, and [`KMemoryCompactor`] over raw streams, §4.3).
//!
//! The whole stack is observable through the `soctrace` crate:
//! [`CoSimulator::attach_trace`] threads a zero-cost-when-disabled
//! [`soctrace::TraceSink`] through the master, the acceleration layers
//! and the bus/cache models, emitting structured
//! [`soctrace::TraceRecord`]s (firings, layer decisions, ledger charges,
//! bus grants, cache batches, fault injections, watchdog trips) without
//! perturbing the simulated schedule.
//!
//! A composable power-management layer ([`PowerPolicy`]) assigns DVFS
//! operating points ([`OperatingPoint`]) and idle-timeout clock/power
//! gating ([`GatingPolicy`]) per component, and integrates static
//! leakage ([`LeakageModel`]) over simulated time: dynamic charges are
//! scaled at the master's charge choke point by the component's
//! [`PowerState`] at charge time, and every new joule is provenance-
//! tagged ([`Provenance::Leakage`], [`Provenance::WakeOverhead`]) so
//! [`CoSimReport::verify_provenance`] stays an exact bit-level
//! partition. The default policy is a guaranteed noop.
//!
//! [`explore_bus_architecture_parallel`] drives the iterative
//! design-space exploration of §5.3 and [`explore_partitions_parallel`]
//! ranks HW/SW partitions, each over a scoped worker pool
//! ([`ExploreOptions`], one worker with [`ExploreOptions::serial`]) with
//! **bit-for-bit identical** results at every worker count and
//! throughput metrics ([`SweepStats`]); [`explore_power_policies_parallel`]
//! widens the sweep to operating points × gating policies, and
//! [`explore_stimulus_seeds_parallel`] to Monte-Carlo stimulus variants.
//!
//! The framework is fault-aware: a [`FaultPlan`] schedules declarative
//! fault injections (dropped/duplicated/delayed events, frozen processes,
//! corrupted energy samples, bus stalls, cache bypasses) that the master
//! applies at dispatch time, watchdog budgets
//! ([`desim::WatchdogConfig`]) bound runaway or livelocked runs, and the
//! report records every injection and degradation in an
//! [`AnomalyLedger`], tagging the run with a [`RunOutcome`].
//!
//! # Examples
//!
//! Building a tiny SOC and co-estimating its power:
//!
//! ```
//! use cfsm::{Cfsm, Cfg, Stmt, Expr, Network, EventDef, Implementation, EventOccurrence};
//! use co_estimation::{CoSimulator, CoSimConfig, SocDescription};
//!
//! let mut nb = Network::builder();
//! let tick = nb.event(EventDef::pure("TICK"));
//! let mut mb = Cfsm::builder("counter");
//! let s = mb.state("s");
//! let v = mb.var("v", 0);
//! mb.transition(s, vec![tick], None,
//!     Cfg::straight_line(vec![Stmt::Assign {
//!         var: v,
//!         expr: Expr::add(Expr::Var(v), Expr::Const(1)),
//!     }]), s);
//! nb.process(mb.finish()?, Implementation::Hw);
//!
//! let soc = SocDescription {
//!     name: "counter".into(),
//!     network: nb.finish()?,
//!     stimulus: (0..4).map(|i| (i * 100, EventOccurrence::pure(tick))).collect(),
//!     priorities: vec![1],
//! };
//! let mut sim = CoSimulator::new(soc, CoSimConfig::date2000_defaults())?;
//! let report = sim.run();
//! assert_eq!(report.firings, 4);
//! assert!(report.total_energy_j() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod account;
mod caching;
mod config;
mod estimator;
mod explore;
mod faults;
mod lanes;
mod macromodel;
mod master;
mod powermgmt;
mod report;
mod sampling;
mod separate;
mod snapshot;
pub mod spec;
mod stats;
mod verify;

pub use account::{
    Anomaly, AnomalyKind, AnomalyLedger, ComponentId, ComponentTotals, EnergyAccount, Waveform,
};
pub use accel::{AccelPipeline, CostSource, FiringCtx};
pub use caching::{CachedCost, CachingConfig, EnergyCache, PathStats};
pub use config::{Acceleration, CoSimConfig, RtosPolicy, SocDescription};
pub use estimator::{build_estimator, BuildEstimatorError, DetailedCost, Estimator, FiringInputs};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use report::{
    AccelEffectiveness, CacheEffectiveness, Provenance, ProvenanceBreakdown, SamplingEffectiveness,
};
pub use explore::{
    explore_bus_architecture_parallel, explore_partitions_parallel,
    explore_power_policies_parallel, explore_stimulus_seeds_parallel, minimum_energy,
    permutations, stimulus_variant, ExplorationPoint, ExploreOptions, PartitionPoint, PowerPoint,
    StimulusJitter, StimulusPoint, SweepReport, SweepStats,
};
pub use lanes::{
    fault_matrix_units, run_lane_sweep, run_lane_sweep_serial, LanePoint, LaneSweep,
    LaneSweepConfig, LaneSweepError, LaneUnit,
};
pub use powermgmt::{
    ComponentPolicy, ComponentPowerReport, GateMode, GatingPolicy, LeakageModel, OperatingPoint,
    PowerPolicy, PowerReport, PowerSavings, PowerState,
};
pub use snapshot::snapshot_diff;
pub use macromodel::{
    characterize_hw, characterize_sw, MacroCost, ParameterFile, ParseParameterError,
};
pub use master::CoSimulator;
pub use report::{CoSimReport, ProcessReport, RunOutcome};
pub use sampling::{compact_static, KMemoryCompactor, SamplingConfig, StreamStats};
pub use separate::{
    capture_traces, estimate_separately, BehavioralTrace, FiringRecord, SeparateReport,
};
pub use stats::RunningStats;
pub use socverify::{Diagnostic, Finding, Severity, VerifyReport};
pub use verify::verify_soc;
