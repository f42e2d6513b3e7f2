//! Power-management techniques as a composable layer: DVFS operating
//! points, clock/power gating, and static leakage integrated over
//! simulated time.
//!
//! The estimator stack prices *dynamic switching* energy. Real sign-off
//! also hinges on power *management*: scaling a component's supply
//! voltage and clock (DVFS), stopping its clock tree while idle (clock
//! gating), or cutting its supply entirely (power gating, at the price
//! of a wake-up penalty). This module models those techniques as a
//! per-component [`PowerState`] machine composed from a declarative
//! [`PowerPolicy`], threaded through the master so that **every joule
//! still flows through the single `charge()` choke point**:
//!
//! - Dynamic charges are scaled **at charge time** by the component's
//!   operating point (`voltage_scale²`); cached and macro-model answers
//!   are therefore scaled by the state at *replay* time, not record
//!   time, for free.
//! - Execution cycles are stretched by `1 / freq_scale`, so a slowed
//!   component genuinely occupies the schedule (and the bus) longer.
//! - Leakage is integrated lazily over simulated time per state
//!   (gated states leak less) and booked under
//!   [`Provenance::Leakage`](crate::Provenance::Leakage); wake-up
//!   penalties under
//!   [`Provenance::WakeOverhead`](crate::Provenance::WakeOverhead) —
//!   so [`CoSimReport::verify_provenance`](crate::CoSimReport::verify_provenance)
//!   stays an exact bit-level partition.
//!
//! # The bit-identity contract
//!
//! A run under [`PowerPolicy::none`] (all-Active, zero leakage) makes
//! **zero** extra ledger charges, emits zero extra trace records, and
//! perturbs no float: the master skips the entire layer when
//! [`PowerPolicy::is_noop`] holds, so every existing golden is
//! bit-identical.
//!
//! # Float-order contract for leakage
//!
//! Leakage spans are settled *lazily*: each component carries a
//! `leak_mark` (the cycle up to which its leakage has been integrated)
//! and spans are charged in simulation order — at the component's next
//! firing, or at end of run. Each span's energy is computed as
//! `rate_w × cycles / clock_hz` in one expression, and the per-span
//! charges flow through the same `+=` accumulation as every other
//! charge, so serial and parallel sweeps see identical operand
//! sequences and stay bitwise identical.

use crate::estimator::BuildEstimatorError;

/// The power state a component occupies at an instant of simulated
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Running (or idle-but-ungated) at the nominal operating point.
    Active,
    /// Running at an assigned DVFS operating point (scaled voltage
    /// and/or frequency).
    Dvfs,
    /// Clock tree stopped after the idle timeout: no dynamic activity,
    /// reduced leakage, instant wake.
    ClockGated,
    /// Supply cut after the idle timeout: near-zero leakage, but waking
    /// costs energy and latency.
    PowerGated,
}

impl PowerState {
    /// Stable machine-readable tag, shared with the trace layer's
    /// `PowerTransition` records.
    pub fn as_str(self) -> &'static str {
        match self {
            PowerState::Active => "active",
            PowerState::Dvfs => "dvfs",
            PowerState::ClockGated => "clock_gated",
            PowerState::PowerGated => "power_gated",
        }
    }
}

/// One DVFS operating point: a named `(voltage, frequency)` scaling
/// relative to the nominal design point.
///
/// Dynamic energy scales with `voltage_scale²` (the CV²f law with the
/// cycle count held by the behavioral model); execution *cycles*
/// stretch by `1 / freq_scale`; leakage scales linearly with
/// `voltage_scale`.
///
/// Both scales must lie in [`MIN_SCALE`](Self::MIN_SCALE)`..=`
/// [`MAX_SCALE`](Self::MAX_SCALE); building a co-simulator with any
/// other operating point on the policy's menu fails with
/// [`BuildEstimatorError::InvalidParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Human-readable name (`"nominal"`, `"0.8v_half"`, …).
    pub name: String,
    /// Supply voltage relative to nominal.
    pub voltage_scale: f64,
    /// Clock frequency relative to nominal.
    pub freq_scale: f64,
}

impl OperatingPoint {
    /// Smallest accepted voltage or frequency scale. A frequency scale
    /// this low stretches a firing tenfold at most, so stretched cycle
    /// counts stay far from `u64::MAX`.
    pub const MIN_SCALE: f64 = 0.1;

    /// Largest accepted voltage or frequency scale (20 % overdrive), so
    /// a scaled dynamic charge is at most 1.44 times the nominal one.
    pub const MAX_SCALE: f64 = 1.2;

    /// A named operating point.
    pub fn new(name: impl Into<String>, voltage_scale: f64, freq_scale: f64) -> Self {
        OperatingPoint {
            name: name.into(),
            voltage_scale,
            freq_scale,
        }
    }
}

/// How an idle component is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Stop the clock tree: reduced leakage, free instant wake.
    Clock,
    /// Cut the supply: near-zero leakage, but waking costs
    /// [`wake_energy_j`](GatingPolicy::wake_energy_j) joules and
    /// [`wake_latency_cycles`](GatingPolicy::wake_latency_cycles)
    /// cycles of schedule latency.
    Power,
}

/// An idle-timeout gating policy for one component.
#[derive(Debug, Clone, PartialEq)]
pub struct GatingPolicy {
    /// Idle cycles before the gate closes.
    pub idle_timeout_cycles: u64,
    /// Clock gating or power gating.
    pub mode: GateMode,
    /// Energy paid to re-open a *power* gate (ignored for clock
    /// gating), joules.
    pub wake_energy_j: f64,
    /// Cycles of latency before a power-gated component may resume
    /// (ignored for clock gating); visible to the scheduler and the
    /// bus.
    pub wake_latency_cycles: u64,
}

impl GatingPolicy {
    /// Clock gating after `idle_timeout_cycles` idle cycles.
    pub fn clock(idle_timeout_cycles: u64) -> Self {
        GatingPolicy {
            idle_timeout_cycles,
            mode: GateMode::Clock,
            wake_energy_j: 0.0,
            wake_latency_cycles: 0,
        }
    }

    /// Power gating after `idle_timeout_cycles` idle cycles, with the
    /// given wake-up penalty.
    pub fn power(idle_timeout_cycles: u64, wake_energy_j: f64, wake_latency_cycles: u64) -> Self {
        GatingPolicy {
            idle_timeout_cycles,
            mode: GateMode::Power,
            wake_energy_j,
            wake_latency_cycles,
        }
    }

    fn gated_state(&self) -> PowerState {
        match self.mode {
            GateMode::Clock => PowerState::ClockGated,
            GateMode::Power => PowerState::PowerGated,
        }
    }
}

/// Per-component policy: an optional operating-point assignment and an
/// optional gating rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentPolicy {
    /// Index into [`PowerPolicy::operating_points`], or `None` for the
    /// nominal point.
    pub operating_point: Option<usize>,
    /// Idle-timeout gating, or `None` to never gate.
    pub gating: Option<GatingPolicy>,
}

/// The static-power model shared by every component.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageModel {
    /// Nominal leakage power per process component, watts. Zero
    /// disables leakage integration entirely.
    pub default_leak_w: f64,
    /// Leakage multiplier while clock-gated (clock gating stops
    /// switching but the supply stays up).
    pub clock_gated_factor: f64,
    /// Leakage multiplier while power-gated (only the sleep
    /// transistors leak).
    pub power_gated_factor: f64,
}

impl LeakageModel {
    /// No static power at all (the pre-power-management behavior).
    pub fn none() -> Self {
        LeakageModel {
            default_leak_w: 0.0,
            clock_gated_factor: 1.0,
            power_gated_factor: 1.0,
        }
    }

    /// A leakage model with typical gating factors: clock gating keeps
    /// 30% of nominal leakage, power gating 2%.
    pub fn with_default_rate(default_leak_w: f64) -> Self {
        LeakageModel {
            default_leak_w,
            clock_gated_factor: 0.30,
            power_gated_factor: 0.02,
        }
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel::none()
    }
}

/// A declarative power-management policy for a whole system: the DVFS
/// operating-point menu, per-component assignments and gating rules,
/// and the leakage model.
///
/// # Examples
///
/// ```
/// use co_estimation::{PowerPolicy, OperatingPoint, GatingPolicy, LeakageModel};
///
/// let policy = PowerPolicy::named("tuned")
///     .with_leakage(LeakageModel::with_default_rate(2.0e-3))
///     .with_operating_point(OperatingPoint::new("low", 0.8, 0.5))
///     .dvfs("checksum", 0)
///     .gate("create_pack", GatingPolicy::clock(500));
/// assert!(!policy.is_noop());
/// assert!(PowerPolicy::none().is_noop());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPolicy {
    /// Policy name (labels sweep points and reports).
    pub name: String,
    /// The DVFS operating-point menu components may be assigned to.
    pub operating_points: Vec<OperatingPoint>,
    /// Per-component assignments, by process name. Components not
    /// listed run all-Active at nominal.
    pub components: Vec<(String, ComponentPolicy)>,
    /// The static-power model.
    pub leakage: LeakageModel,
}

impl PowerPolicy {
    /// The default do-nothing policy: all components Active at nominal,
    /// zero leakage. Guaranteed bit-identical to a build without the
    /// power layer.
    pub fn none() -> Self {
        PowerPolicy {
            name: "none".into(),
            operating_points: Vec::new(),
            components: Vec::new(),
            leakage: LeakageModel::none(),
        }
    }

    /// An empty named policy to build on.
    pub fn named(name: impl Into<String>) -> Self {
        PowerPolicy {
            name: name.into(),
            ..PowerPolicy::none()
        }
    }

    /// `true` when the policy changes nothing — the master then skips
    /// the power layer entirely (the bit-identity contract).
    pub fn is_noop(&self) -> bool {
        self.components.is_empty() && self.leakage.default_leak_w == 0.0
    }

    /// Returns the policy with the given leakage model.
    pub fn with_leakage(mut self, leakage: LeakageModel) -> Self {
        self.leakage = leakage;
        self
    }

    /// Appends an operating point to the menu (assignments refer to it
    /// by its index, in push order).
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.operating_points.push(op);
        self
    }

    /// Assigns component `name` to operating point `op_index`.
    pub fn dvfs(mut self, name: impl Into<String>, op_index: usize) -> Self {
        self.entry(name.into()).operating_point = Some(op_index);
        self
    }

    /// Applies a gating rule to component `name`.
    pub fn gate(mut self, name: impl Into<String>, gating: GatingPolicy) -> Self {
        self.entry(name.into()).gating = Some(gating);
        self
    }

    fn entry(&mut self, name: String) -> &mut ComponentPolicy {
        if let Some(i) = self.components.iter().position(|(n, _)| *n == name) {
            return &mut self.components[i].1;
        }
        self.components.push((name, ComponentPolicy::default()));
        let last = self.components.len() - 1;
        &mut self.components[last].1
    }
}

impl Default for PowerPolicy {
    fn default() -> Self {
        PowerPolicy::none()
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Per-component power-management results.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPowerReport {
    /// Process name.
    pub name: String,
    /// Cycles spent Active at nominal.
    pub active_cycles: u64,
    /// Cycles spent running at an assigned DVFS operating point.
    pub dvfs_cycles: u64,
    /// Cycles spent clock-gated.
    pub clock_gated_cycles: u64,
    /// Cycles spent power-gated.
    pub power_gated_cycles: u64,
    /// Number of power-state transitions.
    pub transitions: u64,
    /// Leakage energy charged, joules.
    pub leakage_j: f64,
    /// Wake-up penalty energy charged, joules.
    pub wake_j: f64,
    /// Number of power-gate wake-ups.
    pub wakes: u64,
}

/// Per-technique savings of one run, relative to running the same
/// schedule all-Active (tracked online — no baseline run needed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerSavings {
    /// Dynamic energy avoided by DVFS voltage scaling (unscaled minus
    /// scaled, summed over every dynamic charge), joules. Negative when
    /// an operating point over-drives the supply.
    pub dvfs_dynamic_saved_j: f64,
    /// Leakage avoided by gating ((active rate − gated rate) × gated
    /// time), joules.
    pub gating_leakage_saved_j: f64,
    /// Wake-up penalties paid, joules (cost, not a saving).
    pub wake_overhead_j: f64,
}

impl PowerSavings {
    /// Net energy saved: technique savings minus wake overhead, joules.
    pub fn net_saved_j(&self) -> f64 {
        self.dvfs_dynamic_saved_j + self.gating_leakage_saved_j - self.wake_overhead_j
    }
}

/// The power-management section of a [`CoSimReport`](crate::CoSimReport):
/// state residency and attributable savings. Present only when a
/// non-noop policy was active; not part of the golden snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// The active policy's name.
    pub policy: String,
    /// Per-component residency and charges, in process order.
    pub components: Vec<ComponentPowerReport>,
    /// Per-technique savings.
    pub savings: PowerSavings,
    /// Total leakage energy charged, joules.
    pub leakage_j: f64,
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

/// One settled leakage span: `[start, end)` spent in `state`, costing
/// `energy_j` joules of static power.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LeakSpan {
    pub start: u64,
    pub end: u64,
    pub state: PowerState,
    pub energy_j: f64,
}

/// One power-state transition, for the trace layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    pub at: u64,
    pub from: PowerState,
    pub to: PowerState,
}

/// What the master must book after waking (or finalizing) a component:
/// the settled leakage spans, the transitions to trace, and any wake
/// penalty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Settlement {
    pub spans: Vec<LeakSpan>,
    pub transitions: Vec<Transition>,
    /// Wake-up penalty energy to charge, joules (zero when not waking
    /// from a power gate).
    pub wake_energy_j: f64,
    /// Cycles the firing must wait before execution may start.
    pub wake_latency_cycles: u64,
}

/// Per-component runtime state of the power layer.
#[derive(Debug, Clone)]
struct CompRt {
    /// Precomputed dynamic-energy scale (`voltage_scale²`), `None` at
    /// nominal.
    dyn_scale: Option<f64>,
    /// Precomputed cycle-stretch divisor (`freq_scale`), `None` at
    /// nominal.
    freq_scale: Option<f64>,
    /// Leakage rate while ungated, watts (already voltage-scaled).
    active_leak_w: f64,
    /// Leakage rate while gated, watts.
    gated_leak_w: f64,
    gating: Option<GatingPolicy>,
    /// Cycle up to which leakage has been integrated.
    leak_mark: u64,
    /// When the component last went idle (cleared on wake).
    idle_since: Option<u64>,
    // -- accumulated report state --
    active_cycles: u64,
    dvfs_cycles: u64,
    clock_gated_cycles: u64,
    power_gated_cycles: u64,
    transitions: u64,
    leakage_j: f64,
    wake_j: f64,
    wakes: u64,
    dvfs_saved_j: f64,
    gating_saved_j: f64,
}

impl CompRt {
    fn base_state(&self) -> PowerState {
        if self.dyn_scale.is_some() || self.freq_scale.is_some() {
            PowerState::Dvfs
        } else {
            PowerState::Active
        }
    }

    fn leak_rate(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Active | PowerState::Dvfs => self.active_leak_w,
            PowerState::ClockGated | PowerState::PowerGated => self.gated_leak_w,
        }
    }

    fn add_residency(&mut self, state: PowerState, cycles: u64) {
        match state {
            PowerState::Active => self.active_cycles += cycles,
            PowerState::Dvfs => self.dvfs_cycles += cycles,
            PowerState::ClockGated => self.clock_gated_cycles += cycles,
            PowerState::PowerGated => self.power_gated_cycles += cycles,
        }
    }
}

/// The power layer's runtime: one state machine per process component,
/// built from a validated [`PowerPolicy`]. Owned by the master; absent
/// (`None`) when the policy is a noop, which keeps the default path
/// bit-identical by construction.
#[derive(Debug, Clone)]
pub(crate) struct PowerRt {
    policy_name: String,
    comps: Vec<CompRt>,
    clock_hz: f64,
}

impl PowerRt {
    /// Validates `policy` against the process names and builds the
    /// runtime; `Ok(None)` for a noop policy.
    ///
    /// # Errors
    ///
    /// [`BuildEstimatorError::InvalidParams`] when the policy names an
    /// unknown component (gating the bus or i-cache is rejected — only
    /// process components have idle/firing structure), refers to an
    /// out-of-range operating point, has an operating-point scale
    /// outside [`OperatingPoint::MIN_SCALE`]`..=`[`OperatingPoint::MAX_SCALE`],
    /// or has a degenerate rate or timeout.
    pub(crate) fn build(
        policy: &PowerPolicy,
        process_names: &[&str],
        clock_hz: f64,
    ) -> Result<Option<Self>, BuildEstimatorError> {
        if policy.is_noop() {
            return Ok(None);
        }
        let invalid = |what: String| Err(BuildEstimatorError::InvalidParams(what));
        if !(clock_hz.is_finite() && clock_hz > 0.0) {
            return invalid(format!("power policy needs a positive clock, got {clock_hz}"));
        }
        let lk = &policy.leakage;
        if !(lk.default_leak_w.is_finite() && lk.default_leak_w >= 0.0) {
            return invalid(format!("leakage rate must be ≥ 0, got {}", lk.default_leak_w));
        }
        for (label, f) in [
            ("clock_gated_factor", lk.clock_gated_factor),
            ("power_gated_factor", lk.power_gated_factor),
        ] {
            if !(f.is_finite() && (0.0..=1.0).contains(&f)) {
                return invalid(format!("leakage {label} must be in [0, 1], got {f}"));
            }
        }
        let scales = OperatingPoint::MIN_SCALE..=OperatingPoint::MAX_SCALE;
        for op in &policy.operating_points {
            let checks = [
                ("voltage_scale", op.voltage_scale),
                ("freq_scale", op.freq_scale),
            ];
            for (label, scale) in checks {
                if !scales.contains(&scale) {
                    return invalid(format!(
                        "operating point `{}`: {label} must be in [{}, {}], got {scale}",
                        op.name,
                        scales.start(),
                        scales.end()
                    ));
                }
            }
        }
        let mut comps: Vec<CompRt> = process_names
            .iter()
            .map(|_| CompRt {
                dyn_scale: None,
                freq_scale: None,
                active_leak_w: lk.default_leak_w,
                gated_leak_w: lk.default_leak_w,
                gating: None,
                leak_mark: 0,
                idle_since: None,
                active_cycles: 0,
                dvfs_cycles: 0,
                clock_gated_cycles: 0,
                power_gated_cycles: 0,
                transitions: 0,
                leakage_j: 0.0,
                wake_j: 0.0,
                wakes: 0,
                dvfs_saved_j: 0.0,
                gating_saved_j: 0.0,
            })
            .collect();
        for (name, cp) in &policy.components {
            let Some(idx) = process_names.iter().position(|n| n == name) else {
                return invalid(format!(
                    "power policy names unknown component `{name}` (only process \
                     components can be managed; the bus and i-cache cannot be gated)"
                ));
            };
            if let Some(op_idx) = cp.operating_point {
                let Some(op) = policy.operating_points.get(op_idx) else {
                    return invalid(format!(
                        "component `{name}` assigned to operating point {op_idx}, \
                         but the menu has {}",
                        policy.operating_points.len()
                    ));
                };
                if op.voltage_scale != 1.0 {
                    comps[idx].dyn_scale = Some(op.voltage_scale * op.voltage_scale);
                }
                if op.freq_scale != 1.0 {
                    comps[idx].freq_scale = Some(op.freq_scale);
                }
                // Leakage scales linearly with the supply voltage.
                comps[idx].active_leak_w = lk.default_leak_w * op.voltage_scale;
                comps[idx].gated_leak_w = comps[idx].active_leak_w;
            }
            if let Some(g) = &cp.gating {
                if g.idle_timeout_cycles == 0 {
                    return invalid(format!(
                        "component `{name}`: gating idle timeout must be > 0"
                    ));
                }
                if !(g.wake_energy_j.is_finite() && g.wake_energy_j >= 0.0) {
                    return invalid(format!(
                        "component `{name}`: wake energy must be ≥ 0, got {}",
                        g.wake_energy_j
                    ));
                }
                let factor = match g.mode {
                    GateMode::Clock => lk.clock_gated_factor,
                    GateMode::Power => lk.power_gated_factor,
                };
                comps[idx].gated_leak_w = comps[idx].active_leak_w * factor;
                comps[idx].gating = Some(g.clone());
            }
        }
        Ok(Some(PowerRt {
            policy_name: policy.name.clone(),
            comps,
            clock_hz,
        }))
    }

    /// Base (cycle-0) power state per process component, in process
    /// order. The master uses this to emit synthetic cycle-0
    /// `PowerTransition` trace records for components whose base state
    /// is not `Active` (DVFS-pinned components never transition at
    /// runtime), making the trace stream self-describing for residency
    /// reconstruction. Trace-only: reports are not affected.
    pub(crate) fn initial_states(&self) -> Vec<PowerState> {
        self.comps.iter().map(CompRt::base_state).collect()
    }

    /// Scales one dynamic charge by component `idx`'s operating point
    /// (the charge-time scaling rule). Leakage and wake charges pass
    /// through unscaled — they are computed in absolute joules.
    pub(crate) fn scale_dynamic(&mut self, idx: usize, energy_j: f64) -> f64 {
        let Some(c) = self.comps.get_mut(idx) else {
            return energy_j; // bus / i-cache: no operating point
        };
        match c.dyn_scale {
            Some(s) => {
                let scaled = energy_j * s;
                c.dvfs_saved_j += energy_j - scaled;
                scaled
            }
            None => energy_j,
        }
    }

    /// Stretches an execution cycle count by component `idx`'s
    /// frequency scale (slower clock → more master cycles).
    pub(crate) fn stretch_cycles(&self, idx: usize, cycles: u64) -> u64 {
        match self.comps.get(idx).and_then(|c| c.freq_scale) {
            Some(f) => (cycles as f64 / f).ceil() as u64,
            None => cycles,
        }
    }

    /// Marks component `idx` idle from cycle `t` (its firing just
    /// completed); the gate closes `idle_timeout_cycles` later.
    pub(crate) fn sleep(&mut self, idx: usize, t: u64) {
        if let Some(c) = self.comps.get_mut(idx) {
            c.idle_since = Some(t);
        }
    }

    /// Wakes component `idx` to fire at cycle `t`: settles its leakage
    /// up to `t` (splitting the span at the gate-close instant when the
    /// idle timeout elapsed) and returns what to book, including any
    /// power-gate wake penalty.
    pub(crate) fn wake(&mut self, idx: usize, t: u64) -> Settlement {
        let mut s = self.settle(idx, t, true);
        if let Some(c) = self.comps.get_mut(idx) {
            c.idle_since = None;
            // The wake penalty delays execution; leakage over the wake
            // window is integrated by the next settlement at base rate.
            if s.wake_latency_cycles > 0 || s.wake_energy_j > 0.0 {
                c.wake_j += s.wake_energy_j;
                c.wakes += 1;
            }
        } else {
            s = Settlement::default();
        }
        s
    }

    /// Settles every component's leakage up to `end` (end of run).
    /// Idempotent: a second call over the same horizon yields empty
    /// settlements. Components still idle past their timeout end the
    /// run gated — their final transition is part of the settlement,
    /// but no wake penalty is charged.
    pub(crate) fn finalize(&mut self, end: u64) -> Vec<Settlement> {
        (0..self.comps.len())
            .map(|idx| {
                let mut s = self.settle(idx, end, false);
                // End of run: nothing wakes, so drop any wake penalty.
                s.wake_energy_j = 0.0;
                s.wake_latency_cycles = 0;
                s
            })
            .collect()
    }

    /// Integrates component `idx`'s leakage over `[leak_mark, t)`,
    /// splitting at the gate-close instant; `waking` adds the wake
    /// transition (and penalty) back to the base state at `t`.
    fn settle(&mut self, idx: usize, t: u64, waking: bool) -> Settlement {
        let clock_hz = self.clock_hz;
        let Some(c) = self.comps.get_mut(idx) else {
            return Settlement::default();
        };
        let mut out = Settlement::default();
        if t <= c.leak_mark {
            return out;
        }
        let base = c.base_state();
        // When did (or does) the gate close? Only meaningful while idle.
        let gate = c.gating.as_ref().and_then(|g| {
            c.idle_since.map(|i| (i.saturating_add(g.idle_timeout_cycles), g.gated_state(), g))
        });
        let mut spans: Vec<(u64, u64, PowerState)> = Vec::with_capacity(2);
        match gate {
            Some((gate_at, gated, g)) if gate_at < t => {
                let split = gate_at.max(c.leak_mark);
                if split > c.leak_mark {
                    spans.push((c.leak_mark, split, base));
                }
                spans.push((split, t, gated));
                if gate_at >= c.leak_mark {
                    out.transitions.push(Transition {
                        at: gate_at,
                        from: base,
                        to: gated,
                    });
                }
                if waking {
                    out.transitions.push(Transition {
                        at: t,
                        from: gated,
                        to: base,
                    });
                    if g.mode == GateMode::Power {
                        out.wake_energy_j = g.wake_energy_j;
                        out.wake_latency_cycles = g.wake_latency_cycles;
                    }
                }
            }
            _ => spans.push((c.leak_mark, t, base)),
        }
        for (start, end, state) in spans {
            let cycles = end - start;
            c.add_residency(state, cycles);
            let rate = c.leak_rate(state);
            // One expression per span — the float-order contract.
            let energy_j = rate * (cycles as f64 / clock_hz);
            if state == PowerState::ClockGated || state == PowerState::PowerGated {
                c.gating_saved_j +=
                    (c.active_leak_w - rate) * (cycles as f64 / clock_hz);
            }
            c.leakage_j += energy_j;
            if energy_j > 0.0 {
                out.spans.push(LeakSpan {
                    start,
                    end,
                    state,
                    energy_j,
                });
            }
        }
        c.transitions += out.transitions.len() as u64;
        c.leak_mark = t;
        out
    }

    /// Snapshots the power report (named per process, in order).
    pub(crate) fn report(&self, process_names: &[&str]) -> PowerReport {
        let mut savings = PowerSavings::default();
        let mut leakage_j = 0.0;
        let components = self
            .comps
            .iter()
            .zip(process_names)
            .map(|(c, name)| {
                savings.dvfs_dynamic_saved_j += c.dvfs_saved_j;
                savings.gating_leakage_saved_j += c.gating_saved_j;
                savings.wake_overhead_j += c.wake_j;
                leakage_j += c.leakage_j;
                ComponentPowerReport {
                    name: (*name).to_string(),
                    active_cycles: c.active_cycles,
                    dvfs_cycles: c.dvfs_cycles,
                    clock_gated_cycles: c.clock_gated_cycles,
                    power_gated_cycles: c.power_gated_cycles,
                    transitions: c.transitions,
                    leakage_j: c.leakage_j,
                    wake_j: c.wake_j,
                    wakes: c.wakes,
                }
            })
            .collect();
        PowerReport {
            policy: self.policy_name.clone(),
            components,
            savings,
            leakage_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaky_policy() -> PowerPolicy {
        PowerPolicy::named("test")
            .with_leakage(LeakageModel {
                default_leak_w: 1.0, // 1 W at 1 kHz → 1 mJ per cycle
                clock_gated_factor: 0.5,
                power_gated_factor: 0.0,
            })
            .gate("a", GatingPolicy::clock(10))
    }

    fn rt(policy: &PowerPolicy) -> PowerRt {
        PowerRt::build(policy, &["a", "b"], 1_000.0)
            .expect("valid policy")
            .expect("non-noop")
    }

    #[test]
    fn noop_policy_builds_nothing() {
        let none = PowerRt::build(&PowerPolicy::none(), &["a"], 1_000.0).expect("valid");
        assert!(none.is_none());
    }

    #[test]
    fn unknown_component_rejected() {
        let p = PowerPolicy::named("x").gate("bus", GatingPolicy::clock(10));
        let err = PowerRt::build(&p, &["a"], 1_000.0).expect_err("bus is not gateable");
        assert!(matches!(err, BuildEstimatorError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn out_of_range_operating_point_rejected() {
        let p = PowerPolicy::named("x").dvfs("a", 0);
        let err = PowerRt::build(&p, &["a"], 1_000.0).expect_err("no menu");
        assert!(matches!(err, BuildEstimatorError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn zero_idle_timeout_rejected() {
        let p = PowerPolicy::named("x").gate("a", GatingPolicy::clock(0));
        assert!(PowerRt::build(&p, &["a"], 1_000.0).is_err());
    }

    #[test]
    fn ungated_span_settles_at_active_rate() {
        let mut rt = rt(&leaky_policy());
        // Component `b` has no gating: 100 cycles at 1 W / 1 kHz = 0.1 J.
        let s = rt.wake(1, 100);
        assert_eq!(s.spans.len(), 1);
        assert_eq!((s.spans[0].start, s.spans[0].end), (0, 100));
        assert_eq!(s.spans[0].state, PowerState::Active);
        assert!((s.spans[0].energy_j - 0.1).abs() < 1e-12);
        assert!(s.transitions.is_empty());
    }

    #[test]
    fn idle_timeout_splits_span_and_records_transitions() {
        let mut rt = rt(&leaky_policy());
        rt.sleep(0, 20); // idle from 20, gate closes at 30
        let s = rt.wake(0, 50);
        assert_eq!(s.spans.len(), 2);
        assert_eq!((s.spans[0].start, s.spans[0].end), (0, 30));
        assert_eq!(s.spans[0].state, PowerState::Active);
        assert_eq!((s.spans[1].start, s.spans[1].end), (30, 50));
        assert_eq!(s.spans[1].state, PowerState::ClockGated);
        // 30 cycles active (0.03 J) + 20 gated at half rate (0.01 J).
        assert!((s.spans[0].energy_j - 0.03).abs() < 1e-12);
        assert!((s.spans[1].energy_j - 0.01).abs() < 1e-12);
        assert_eq!(s.transitions.len(), 2);
        assert_eq!(
            (s.transitions[0].at, s.transitions[0].to),
            (30, PowerState::ClockGated)
        );
        assert_eq!(
            (s.transitions[1].at, s.transitions[1].to),
            (50, PowerState::Active)
        );
        // Clock gating wakes for free.
        assert_eq!(s.wake_energy_j, 0.0);
        assert_eq!(s.wake_latency_cycles, 0);
    }

    #[test]
    fn power_gate_wake_charges_penalty_and_latency() {
        let p = PowerPolicy::named("pg")
            .with_leakage(LeakageModel {
                default_leak_w: 1.0,
                clock_gated_factor: 0.5,
                power_gated_factor: 0.1,
            })
            .gate("a", GatingPolicy::power(10, 2.5e-3, 7));
        let mut rt = rt(&p);
        rt.sleep(0, 0);
        let s = rt.wake(0, 100);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].state, PowerState::PowerGated);
        assert!((s.wake_energy_j - 2.5e-3).abs() < 1e-15);
        assert_eq!(s.wake_latency_cycles, 7);
        let rep = rt.report(&["a", "b"]);
        assert_eq!(rep.components[0].wakes, 1);
        assert!((rep.components[0].wake_j - 2.5e-3).abs() < 1e-15);
    }

    #[test]
    fn finalize_is_idempotent_and_covers_the_tail() {
        let mut rt = rt(&leaky_policy());
        rt.sleep(0, 5);
        let first = rt.finalize(100);
        let spans: usize = first.iter().map(|s| s.spans.len()).sum();
        assert!(spans >= 2, "tail must settle both components");
        // No wake penalty at end of run.
        assert!(first.iter().all(|s| s.wake_energy_j == 0.0));
        let second = rt.finalize(100);
        assert!(second.iter().all(|s| s.spans.is_empty() && s.transitions.is_empty()));
    }

    #[test]
    fn residency_partitions_simulated_time() {
        let mut rt = rt(&leaky_policy());
        rt.sleep(0, 20);
        rt.wake(0, 50);
        rt.sleep(0, 60);
        rt.finalize(200);
        let rep = rt.report(&["a", "b"]);
        let a = &rep.components[0];
        assert_eq!(
            a.active_cycles + a.clock_gated_cycles + a.dvfs_cycles + a.power_gated_cycles,
            200
        );
        let b = &rep.components[1];
        assert_eq!(b.active_cycles, 200);
        assert_eq!(b.transitions, 0);
    }

    #[test]
    fn dvfs_scales_dynamic_energy_and_stretches_cycles() {
        let p = PowerPolicy::named("dvfs")
            .with_operating_point(OperatingPoint::new("low", 0.8, 0.5))
            .dvfs("a", 0);
        let mut rt = PowerRt::build(&p, &["a", "b"], 1_000.0)
            .expect("valid")
            .expect("non-noop");
        let scaled = rt.scale_dynamic(0, 1.0);
        assert!((scaled - 0.64).abs() < 1e-12);
        assert_eq!(rt.stretch_cycles(0, 100), 200);
        // Unassigned component and the bus pass through untouched.
        assert_eq!(rt.scale_dynamic(1, 1.0), 1.0);
        assert_eq!(rt.stretch_cycles(1, 100), 100);
        assert_eq!(rt.scale_dynamic(99, 1.0), 1.0);
        let rep = rt.report(&["a", "b"]);
        assert!((rep.savings.dvfs_dynamic_saved_j - 0.36).abs() < 1e-12);
    }

    #[test]
    fn builder_merges_component_entries() {
        let p = PowerPolicy::named("m")
            .with_operating_point(OperatingPoint::new("low", 0.9, 1.0))
            .dvfs("a", 0)
            .gate("a", GatingPolicy::clock(10));
        assert_eq!(p.components.len(), 1);
        let cp = &p.components[0].1;
        assert_eq!(cp.operating_point, Some(0));
        assert!(cp.gating.is_some());
    }

    #[test]
    fn savings_net_accounts_for_wake_cost() {
        let s = PowerSavings {
            dvfs_dynamic_saved_j: 3.0,
            gating_leakage_saved_j: 2.0,
            wake_overhead_j: 1.0,
        };
        assert!((s.net_saved_j() - 4.0).abs() < 1e-12);
    }
}
