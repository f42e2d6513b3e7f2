//! System descriptions and co-simulation configuration.

use crate::caching::CachingConfig;
use crate::sampling::SamplingConfig;
use cfsm::{EventOccurrence, Network};

/// A complete system-on-chip description: the CFSM network (with its
/// HW/SW mapping), the environment stimulus, and the per-process
/// priorities of the integration architecture.
#[derive(Debug, Clone)]
pub struct SocDescription {
    /// Human-readable system name.
    pub name: String,
    /// The CFSM network (processes + events + mapping).
    pub network: Network,
    /// Environment events: `(delivery cycle, occurrence)`, in any order;
    /// occurrences at one cycle are delivered in the order listed.
    pub stimulus: Vec<(u64, EventOccurrence)>,
    /// Per-process priority (larger = more urgent), indexed by
    /// [`ProcId`](cfsm::ProcId). Used both by the RTOS (for SW tasks) and
    /// the bus arbiter (for masters) — the exploration knob of Fig. 7.
    pub priorities: Vec<u8>,
}

impl SocDescription {
    /// Latest accepted stimulus delivery cycle: 2^48, about 130 days of
    /// simulated time at the 25 MHz default clock. That is far past any
    /// workload, and low enough that a firing's end cycle (its start
    /// plus its cycle cost and cache stalls) cannot overflow `u64`.
    /// [`CoSimulator::new`](crate::CoSimulator::new) rejects a later
    /// stimulus with
    /// [`BuildEstimatorError::InvalidParams`](crate::BuildEstimatorError::InvalidParams),
    /// and the spec parser with a line-numbered
    /// [`SpecError`](crate::spec::SpecError).
    pub const MAX_STIMULUS_CYCLE: u64 = 1 << 48;

    /// Sets one process's priority (design-space exploration knob).
    pub fn set_priority(&mut self, p: cfsm::ProcId, priority: u8) {
        self.priorities[p.0 as usize] = priority;
    }
}

/// Which acceleration (speedup) techniques are active (§4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Acceleration {
    /// Energy and delay caching (§4.2).
    pub caching: Option<CachingConfig>,
    /// Software/hardware power macro-modeling (§4.1). Mutually
    /// exclusive with the other techniques in practice (it replaces the
    /// detailed estimators entirely).
    pub macromodel: bool,
    /// Firing-level statistical sampling (§4.3).
    pub sampling: Option<SamplingConfig>,
}

impl Acceleration {
    /// The unaccelerated baseline (paper column "Orig.").
    pub fn none() -> Self {
        Acceleration::default()
    }

    /// Energy caching with the given thresholds.
    pub fn caching(config: CachingConfig) -> Self {
        Acceleration {
            caching: Some(config),
            ..Default::default()
        }
    }

    /// Macro-modeling only.
    pub fn macromodel() -> Self {
        Acceleration {
            macromodel: true,
            ..Default::default()
        }
    }

    /// Firing-level sampling with the given period.
    pub fn sampling(config: SamplingConfig) -> Self {
        Acceleration {
            sampling: Some(config),
            ..Default::default()
        }
    }
}

/// The RTOS scheduling policy for software tasks on the shared CPU
/// ("the user is allowed to … set RTOS parameters such as scheduling
/// policy and priorities", §3). Scheduling is non-preemptive: the policy
/// picks among simultaneously ready tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtosPolicy {
    /// Highest static priority first (process-id order among equals).
    #[default]
    FixedPriority,
    /// Priorities ignored: process-id order among the ready tasks.
    /// (Readiness is re-evaluated on every master event, so this behaves
    /// as first-come first-served for tasks that become ready at
    /// different instants.)
    Fifo,
}

/// Full configuration of a co-estimation run.
#[derive(Debug, Clone)]
pub struct CoSimConfig {
    /// Master clock frequency, hertz (power conversions only; all
    /// simulators share the master clock).
    pub clock_hz: f64,
    /// RTOS scheduling policy for the software tasks.
    pub rtos_policy: RtosPolicy,
    /// Hardware power parameters.
    pub hw_power: gatesim::PowerConfig,
    /// Hardware synthesis parameters.
    pub synth: gatesim::SynthConfig,
    /// Which software power model variant to use.
    pub sw_power: iss::PowerModelKind,
    /// Bus / integration-architecture parameters.
    pub bus: busmodel::BusConfig,
    /// Instruction-cache configuration (`None` disables cache modeling).
    pub icache: Option<cachesim::CacheConfig>,
    /// Active acceleration techniques.
    pub accel: Acceleration,
    /// Power-waveform bucket width, cycles.
    pub waveform_bucket_cycles: u64,
    /// Safety bound on the number of transition firings — one instance of
    /// the general watchdog budget mechanism: exhausting it terminates the
    /// run with a [`Degraded`](crate::RunOutcome::Degraded) report.
    pub max_firings: u64,
    /// Scheduled fault injections (empty = zero-cost, bit-for-bit
    /// identical to a run without the fault layer).
    pub faults: crate::faults::FaultPlan,
    /// Execution budgets guarding the run (all disabled by default).
    pub watchdog: desim::WatchdogConfig,
    /// Power-management policy (DVFS operating points, gating,
    /// leakage). The default [`PowerPolicy::none`](crate::PowerPolicy::none)
    /// is a guaranteed noop: the run is bit-identical to one without
    /// the power layer.
    pub power: crate::powermgmt::PowerPolicy,
}

impl CoSimConfig {
    /// Paper-flavoured defaults: 25 MHz SPARClite-era clock, 3.3 V,
    /// the §5.3 bus parameters, an 8 KiB I-cache, no acceleration.
    pub fn date2000_defaults() -> Self {
        CoSimConfig {
            clock_hz: 25e6,
            rtos_policy: RtosPolicy::FixedPriority,
            hw_power: gatesim::PowerConfig::date2000_defaults(),
            synth: gatesim::SynthConfig::new(),
            sw_power: iss::PowerModelKind::SparcLite,
            bus: busmodel::BusConfig::date2000_defaults(),
            icache: Some(cachesim::CacheConfig::sparclite_icache()),
            accel: Acceleration::none(),
            waveform_bucket_cycles: 1_000,
            max_firings: 50_000_000,
            faults: crate::faults::FaultPlan::none(),
            watchdog: desim::WatchdogConfig::unlimited(),
            power: crate::powermgmt::PowerPolicy::none(),
        }
    }

    /// Returns a copy with the given acceleration settings.
    pub fn with_accel(&self, accel: Acceleration) -> Self {
        CoSimConfig {
            accel,
            ..self.clone()
        }
    }

    /// Returns a copy with a different bus DMA block size (the Table 1/2
    /// sweep knob).
    pub fn with_dma_block_size(&self, size: u32) -> Self {
        CoSimConfig {
            bus: self.bus.with_dma_block_size(size),
            ..self.clone()
        }
    }

    /// Returns a copy with the given fault plan.
    pub fn with_faults(&self, faults: crate::faults::FaultPlan) -> Self {
        CoSimConfig {
            faults,
            ..self.clone()
        }
    }

    /// Returns a copy with the given watchdog budgets.
    pub fn with_watchdog(&self, watchdog: desim::WatchdogConfig) -> Self {
        CoSimConfig {
            watchdog,
            ..self.clone()
        }
    }

    /// Returns a copy with the given power-management policy (the
    /// exploration knob of the power sweeps).
    pub fn with_power_policy(&self, power: crate::powermgmt::PowerPolicy) -> Self {
        CoSimConfig {
            power,
            ..self.clone()
        }
    }
}

impl Default for CoSimConfig {
    fn default() -> Self {
        CoSimConfig::date2000_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_flavoured() {
        let c = CoSimConfig::date2000_defaults();
        assert_eq!(c.clock_hz, 25e6);
        assert_eq!(c.bus.vdd, 3.3);
        assert_eq!(c.bus.addr_width, 8);
        assert!(c.icache.is_some());
        assert_eq!(c.accel, Acceleration::none());
    }

    #[test]
    fn accel_constructors() {
        assert!(Acceleration::none().caching.is_none());
        assert!(Acceleration::macromodel().macromodel);
        let s = Acceleration::sampling(SamplingConfig { period: 4 });
        assert_eq!(s.sampling.expect("set").period, 4);
        let c = Acceleration::caching(CachingConfig::new());
        assert!(c.caching.is_some());
    }

    #[test]
    fn with_dma_changes_only_bus() {
        let c = CoSimConfig::date2000_defaults();
        let c2 = c.with_dma_block_size(64);
        assert_eq!(c2.bus.dma_block_size, 64);
        assert_eq!(c2.clock_hz, c.clock_hz);
    }
}
