//! Co-estimation run results: per-process figures, the run outcome, and
//! the complete [`CoSimReport`] the master hands back — plus the
//! observability layer: [`Provenance`]-tagged energy attribution that
//! must sum *bit-exactly* to the report totals, and per-technique
//! effectiveness counters for the accuracy-vs-speedup tables.

use crate::account::{AnomalyLedger, EnergyAccount};
use cfsm::Implementation;

/// Where an energy contribution came from: which model or acceleration
/// technique produced the joules.
///
/// Every charge the master books carries exactly one provenance, so the
/// per-provenance buckets of a [`ProvenanceBreakdown`] are an exact
/// partition of the run's energy ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Provenance {
    /// Software energy measured by the enhanced instruction-set
    /// simulator (the detailed SW path).
    MeasuredIss,
    /// Energy replayed from the per-path energy cache (§4.2) instead of
    /// re-running the ISS.
    CacheReuse,
    /// Energy from the analytic macro-model acceleration layer (§4.1).
    MacroModel,
    /// Energy extrapolated by periodic sampling: one detailed sample
    /// scaled over the skipped firings (§4.3).
    SampledScaled,
    /// Hardware energy from gate-level simulation of the synthesized
    /// netlist (the detailed HW path).
    GateLevel,
    /// Communication energy from the bus (integration architecture)
    /// model.
    BusModel,
    /// Instruction-cache energy from the cache model.
    CacheModel,
    /// Static (leakage) energy integrated over simulated time by the
    /// power-management layer; scaled down while a component is clock-
    /// or power-gated.
    Leakage,
    /// Wake-up penalty energy paid when a power-gated component is
    /// brought back up.
    WakeOverhead,
}

impl Provenance {
    /// Stable machine-readable tag, shared with the trace layer's
    /// `EnergySample.provenance` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::MeasuredIss => "measured_iss",
            Provenance::CacheReuse => "cache_reuse",
            Provenance::MacroModel => "macro_model",
            Provenance::SampledScaled => "sampled_scaled",
            Provenance::GateLevel => "gate_level",
            Provenance::BusModel => "bus_model",
            Provenance::CacheModel => "cache_model",
            Provenance::Leakage => "leakage",
            Provenance::WakeOverhead => "wake_overhead",
        }
    }

    fn index(self) -> usize {
        match self {
            Provenance::MeasuredIss => 0,
            Provenance::CacheReuse => 1,
            Provenance::MacroModel => 2,
            Provenance::SampledScaled => 3,
            Provenance::GateLevel => 4,
            Provenance::BusModel => 5,
            Provenance::CacheModel => 6,
            Provenance::Leakage => 7,
            Provenance::WakeOverhead => 8,
        }
    }
}

/// Provenance-tagged energy attribution for one run.
///
/// # The bit-identity contract
///
/// The breakdown shadows the [`EnergyAccount`]: every charge the master
/// books is mirrored here with the *same* `f64` value, accumulated with
/// the *same* `+=` sequence per component, in the same arrival order.
/// IEEE-754 addition is deterministic for a fixed operand sequence, so
/// each entry of `component_energy_j` is bit-identical to the ledger's
/// per-component total, and [`total_energy_j`](Self::total_energy_j)
/// (which folds components in the same order as
/// [`CoSimReport::total_energy_j`]) is bit-identical to the report
/// total. [`CoSimReport::verify_provenance`] checks this by bit
/// pattern, not tolerance.
///
/// The per-provenance buckets are an exact *set partition* of the same
/// charges, but summing them interleaves additions in a different
/// order, so their sum is only guaranteed equal to the total up to
/// float associativity — use them for attribution, not reconciliation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceBreakdown {
    /// Energy per provenance, joules, indexed by `Provenance::index`.
    energy_j: [f64; 9],
    /// Number of charges per provenance.
    records: [u64; 9],
    /// Mirror of the ledger's per-component accumulation, in component
    /// registration order (processes, then bus, then i-cache).
    component_energy_j: Vec<f64>,
}

impl ProvenanceBreakdown {
    /// An empty breakdown sized for `components` ledger components.
    pub fn new(components: usize) -> Self {
        ProvenanceBreakdown {
            energy_j: [0.0; 9],
            records: [0u64; 9],
            component_energy_j: vec![0.0; components],
        }
    }

    /// Mirrors one ledger charge: `energy_j` joules booked to component
    /// `component` with the given provenance.
    pub fn record(&mut self, component: usize, provenance: Provenance, energy_j: f64) {
        let i = provenance.index();
        self.energy_j[i] += energy_j;
        self.records[i] += 1;
        if self.component_energy_j.len() <= component {
            self.component_energy_j.resize(component + 1, 0.0);
        }
        self.component_energy_j[component] += energy_j;
    }

    /// Energy attributed to one provenance, joules.
    pub fn energy_for(&self, provenance: Provenance) -> f64 {
        self.energy_j[provenance.index()]
    }

    /// Number of charges booked under one provenance.
    pub fn records_for(&self, provenance: Provenance) -> u64 {
        self.records[provenance.index()]
    }

    /// Mirrored per-component energies, in ledger registration order.
    pub fn component_energy_j(&self) -> &[f64] {
        &self.component_energy_j
    }

    /// Total energy folded in component order — bit-identical to
    /// [`CoSimReport::total_energy_j`] (see the bit-identity contract).
    pub fn total_energy_j(&self) -> f64 {
        self.component_energy_j.iter().sum()
    }

    /// Sum of the per-provenance buckets, joules. Equals the total only
    /// up to float associativity; see the type-level docs.
    pub fn bucket_sum_j(&self) -> f64 {
        self.energy_j.iter().sum()
    }

    /// Total number of charges booked.
    pub fn total_records(&self) -> u64 {
        self.records.iter().sum()
    }
}

/// Effectiveness of the energy cache (§4.2) in one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheEffectiveness {
    /// Firings answered from the cache (ISS calls avoided).
    pub hits: u64,
    /// Firings that went to the detailed path and fed the cache.
    pub misses: u64,
    /// Distinct execution paths observed.
    pub distinct_paths: usize,
    /// Paths currently eligible for cache answers (enough samples,
    /// variance under threshold).
    pub eligible_paths: usize,
    /// Largest coefficient of variation among eligible paths — the
    /// worst-case relative spread of any energy the cache replays.
    pub max_eligible_cv: f64,
    /// The configured variance threshold: the §4.2 error bound no
    /// eligible path may exceed.
    pub cv_bound: f64,
}

impl CacheEffectiveness {
    /// Fraction of cacheable firings answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Effectiveness of periodic sampling (§4.3) in one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SamplingEffectiveness {
    /// Configured sampling period (every `period`-th firing is
    /// simulated in detail).
    pub period: u32,
    /// Firings answered by scaling the last sample (ISS calls avoided).
    pub served: u64,
    /// Detailed samples actually taken.
    pub samples: u64,
}

impl SamplingEffectiveness {
    /// Sequence compaction ratio: firings covered per detailed sample.
    pub fn compaction_ratio(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            (self.served + self.samples) as f64 / self.samples as f64
        }
    }
}

/// Per-technique effectiveness counters for one run: how many detailed
/// simulator calls each acceleration technique avoided, and the state
/// that bounds the error it introduced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccelEffectiveness {
    /// Firings answered per configured acceleration technique, in
    /// cascade order, zeros included: `(name, count)`, named by
    /// [`CostSource::as_str`](crate::CostSource::as_str).
    pub answered_by_layer: Vec<(String, u64)>,
    /// Energy-cache state, when caching was configured.
    pub cache: Option<CacheEffectiveness>,
    /// Sampling state, when sampling was configured.
    pub sampling: Option<SamplingEffectiveness>,
}

impl AccelEffectiveness {
    /// Total detailed-simulator calls avoided across all layers.
    pub fn iss_calls_avoided(&self) -> u64 {
        self.answered_by_layer.iter().map(|(_, n)| n).sum()
    }
}

/// Per-process results of a co-estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessReport {
    /// Process name.
    pub name: String,
    /// HW or SW mapping.
    pub mapping: Implementation,
    /// Energy attributed to the component's own execution, joules.
    pub energy_j: f64,
    /// Cycles the component was busy.
    pub busy_cycles: u64,
    /// Number of transition firings.
    pub firings: u64,
}

/// How a co-estimation run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: the system quiesced normally.
    Completed,
    /// A watchdog budget (or the firing bound) tripped; the report covers
    /// the simulated time up to the trip and is *partial* but consistent.
    Degraded {
        /// Why the run was cut short.
        reason: String,
    },
}

impl RunOutcome {
    /// `true` when the run was cut short.
    pub fn is_degraded(&self) -> bool {
        matches!(self, RunOutcome::Degraded { .. })
    }
}

/// The complete result of one co-estimation run.
#[derive(Debug, Clone)]
pub struct CoSimReport {
    /// System name.
    pub system: String,
    /// Per-process results, indexed by [`ProcId`](cfsm::ProcId).
    pub processes: Vec<ProcessReport>,
    /// Bus (integration architecture) energy, joules.
    pub bus_energy_j: f64,
    /// Bus statistics.
    pub bus: busmodel::BusStats,
    /// Cache energy, joules.
    pub cache_energy_j: f64,
    /// Cache statistics (zeros when cache modeling is disabled).
    pub cache: cachesim::CacheStats,
    /// Simulated end time, master cycles.
    pub total_cycles: u64,
    /// Total transition firings.
    pub firings: u64,
    /// Calls answered by the detailed simulators.
    pub detailed_calls: u64,
    /// Calls served by an acceleration technique instead.
    pub accelerated_calls: u64,
    /// The full energy ledger (waveforms, per-component breakdown).
    pub account: EnergyAccount,
    /// Whether the run quiesced or was cut short by a budget.
    pub outcome: RunOutcome,
    /// Injected faults and observed degradations, in simulation order.
    pub anomalies: AnomalyLedger,
    /// Provenance-tagged energy attribution (sums bit-exactly to the
    /// report totals; see [`ProvenanceBreakdown`]). Not part of the
    /// golden snapshot.
    pub provenance: ProvenanceBreakdown,
    /// Per-technique effectiveness counters. Not part of the golden
    /// snapshot.
    pub effectiveness: AccelEffectiveness,
    /// Power-management results: per-component state residency and
    /// per-technique savings. `None` when the run used the default
    /// (all-Active, zero-leakage) policy. Not part of the golden
    /// snapshot.
    pub power: Option<crate::powermgmt::PowerReport>,
}

impl CoSimReport {
    /// Total system energy (components + bus + cache), joules.
    pub fn total_energy_j(&self) -> f64 {
        self.processes.iter().map(|p| p.energy_j).sum::<f64>()
            + self.bus_energy_j
            + self.cache_energy_j
    }

    /// Energy of the named process, joules.
    ///
    /// # Panics
    ///
    /// Panics if no process has that name.
    pub fn process_energy_j(&self, name: &str) -> f64 {
        self.processes
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no process named `{name}`"))
            .energy_j
    }

    /// Checks the provenance bit-identity contract: every mirrored
    /// per-component energy, and the folded total, must match the
    /// report's figures *bit for bit* (IEEE-754 bit patterns, not a
    /// tolerance). Components are ordered processes, then bus, then
    /// i-cache — the master's ledger registration order.
    ///
    /// Returns the first mismatch as a description, or `Ok(())`.
    pub fn verify_provenance(&self) -> Result<(), String> {
        let comp = self.provenance.component_energy_j();
        let n = self.processes.len();
        if comp.len() != n + 2 {
            return Err(format!(
                "provenance mirrors {} components, report has {} (processes + bus + cache)",
                comp.len(),
                n + 2
            ));
        }
        for (i, p) in self.processes.iter().enumerate() {
            if comp[i].to_bits() != p.energy_j.to_bits() {
                return Err(format!(
                    "process `{}`: provenance {:e} != report {:e} (bit patterns differ)",
                    p.name, comp[i], p.energy_j
                ));
            }
        }
        if comp[n].to_bits() != self.bus_energy_j.to_bits() {
            return Err(format!(
                "bus: provenance {:e} != report {:e}",
                comp[n], self.bus_energy_j
            ));
        }
        if comp[n + 1].to_bits() != self.cache_energy_j.to_bits() {
            return Err(format!(
                "icache: provenance {:e} != report {:e}",
                comp[n + 1],
                self.cache_energy_j
            ));
        }
        let total = self.provenance.total_energy_j();
        if total.to_bits() != self.total_energy_j().to_bits() {
            return Err(format!(
                "total: provenance {:e} != report {:e}",
                total,
                self.total_energy_j()
            ));
        }
        Ok(())
    }

    /// Average system power at the configured clock, watts.
    pub fn average_power_w(&self, clock_hz: f64) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_energy_j() / (self.total_cycles as f64 / clock_hz)
        }
    }
}
