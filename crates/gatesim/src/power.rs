//! Switched-capacitance power model.
//!
//! Dynamic energy per net toggle is `½·Vdd²·C_net`, where `C_net` is the
//! driving gate's intrinsic output capacitance plus a per-fanout input
//! load. A small per-DFF clock-tree charge is added every cycle (clock
//! power does not depend on data activity). This is the same first-order
//! model the SIS power estimator used, which the paper's hardware numbers
//! are based on.

use crate::netlist::Netlist;

/// Technology / electrical parameters of the hardware power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Input load added to a net per fanout, in femtofarads.
    pub cap_per_fanout_ff: f64,
    /// Clock-tree capacitance charged per DFF per cycle, in femtofarads.
    pub clock_cap_per_dff_ff: f64,
}

impl PowerConfig {
    /// Paper-era defaults: Vdd = 3.3 V (§5.3), 1.5 fF/fanout, 4 fF of
    /// clock load per flop.
    pub fn date2000_defaults() -> Self {
        PowerConfig {
            vdd: 3.3,
            cap_per_fanout_ff: 1.5,
            clock_cap_per_dff_ff: 4.0,
        }
    }

    /// Energy in joules to charge `cap_ff` femtofarads once.
    pub fn switch_energy_j(&self, cap_ff: f64) -> f64 {
        0.5 * self.vdd * self.vdd * cap_ff * 1e-15
    }

    /// Every parameter's bits, for memo keys. Destructured, so a new
    /// parameter cannot be left out of a key.
    pub(crate) fn key_bits(&self) -> [u64; 3] {
        let PowerConfig {
            vdd,
            cap_per_fanout_ff,
            clock_cap_per_dff_ff,
        } = self;
        [
            vdd.to_bits(),
            cap_per_fanout_ff.to_bits(),
            clock_cap_per_dff_ff.to_bits(),
        ]
    }
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig::date2000_defaults()
    }
}

/// Per-net effective capacitances for a netlist under a [`PowerConfig`].
#[derive(Debug, Clone)]
pub struct CapacitanceMap {
    caps_ff: Vec<f64>,
    clock_energy_per_cycle_j: f64,
}

impl CapacitanceMap {
    /// Computes effective capacitances for `netlist`.
    pub fn new(netlist: &Netlist, config: &PowerConfig) -> Self {
        let fanouts = netlist.fanouts();
        let caps_ff = netlist
            .kinds()
            .iter()
            .zip(&fanouts)
            .map(|(k, &f)| k.intrinsic_cap_ff() + f as f64 * config.cap_per_fanout_ff)
            .collect();
        let clock_energy_per_cycle_j = config
            .switch_energy_j(netlist.dff_count() as f64 * config.clock_cap_per_dff_ff);
        CapacitanceMap {
            caps_ff,
            clock_energy_per_cycle_j,
        }
    }

    /// Effective capacitance of a net in femtofarads.
    pub fn cap_ff(&self, net: u32) -> f64 {
        self.caps_ff[net as usize]
    }

    /// Clock-tree energy charged every cycle, in joules.
    pub fn clock_energy_per_cycle_j(&self) -> f64 {
        self.clock_energy_per_cycle_j
    }

    /// Number of nets covered.
    pub fn len(&self) -> usize {
        self.caps_ff.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.caps_ff.is_empty()
    }
}

/// What one toggle of each net, and one clock cycle, cost for a netlist
/// under a [`PowerConfig`]: `switch_j[i]` is
/// [`PowerConfig::switch_energy_j`] of net `i`'s [`CapacitanceMap`]
/// entry, evaluated once here so the kernels read it instead of
/// recomputing the product per toggle (the same expression, so the same
/// bits). The synthesis memo shares one per synthesized transition and
/// configuration.
#[derive(Debug, Clone)]
pub(crate) struct NetEnergies {
    /// Energy of one toggle of each net, joules.
    pub(crate) switch_j: Vec<f64>,
    /// Clock-tree energy charged every cycle, joules.
    pub(crate) clock_j: f64,
    /// The configuration's [`PowerConfig::key_bits`].
    pub(crate) power_key: [u64; 3],
}

impl NetEnergies {
    /// Computes the table for `netlist` under `config`.
    pub(crate) fn new(netlist: &Netlist, config: &PowerConfig) -> Self {
        let caps = CapacitanceMap::new(netlist, config);
        NetEnergies {
            switch_j: caps
                .caps_ff
                .iter()
                .map(|&c| config.switch_energy_j(c))
                .collect(),
            clock_j: caps.clock_energy_per_cycle_j,
            power_key: config.key_bits(),
        }
    }
}

/// A cycle-by-cycle energy report, as produced by the hardware simulator
/// ("report power consumed on demand at cycle-level accuracy", §3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyReport {
    /// Energy per simulated cycle, in joules.
    pub per_cycle_j: Vec<f64>,
}

impl EnergyReport {
    /// Total energy over all cycles, in joules.
    pub fn total_j(&self) -> f64 {
        self.per_cycle_j.iter().sum()
    }

    /// Number of cycles covered.
    pub fn cycles(&self) -> usize {
        self.per_cycle_j.len()
    }

    /// Average power in watts at the given clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if no cycles were recorded or `freq_hz` is not positive.
    pub fn average_power_w(&self, freq_hz: f64) -> f64 {
        assert!(!self.per_cycle_j.is_empty(), "no cycles recorded");
        assert!(freq_hz > 0.0, "clock frequency must be positive");
        self.total_j() / (self.per_cycle_j.len() as f64 / freq_hz)
    }

    /// Appends another report.
    pub fn extend(&mut self, other: &EnergyReport) {
        self.per_cycle_j.extend_from_slice(&other.per_cycle_j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{GateKind, Netlist};

    #[test]
    fn switch_energy_scales_with_cap_and_vdd() {
        let c = PowerConfig {
            vdd: 2.0,
            cap_per_fanout_ff: 0.0,
            clock_cap_per_dff_ff: 0.0,
        };
        // ½·4·1fF = 2e-15 J
        assert!((c.switch_energy_j(1.0) - 2e-15).abs() < 1e-25);
        let c33 = PowerConfig::date2000_defaults();
        assert!(c33.switch_energy_j(10.0) > c33.switch_energy_j(1.0));
    }

    #[test]
    fn capacitance_includes_fanout_load() {
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        let _y = n.gate(GateKind::And, vec![a, x]);
        let cfg = PowerConfig {
            vdd: 3.3,
            cap_per_fanout_ff: 2.0,
            clock_cap_per_dff_ff: 0.0,
        };
        let caps = CapacitanceMap::new(&n, &cfg);
        // a drives 2 loads, x drives 1.
        assert!((caps.cap_ff(a.0) - (GateKind::Input.intrinsic_cap_ff() + 4.0)).abs() < 1e-12);
        assert!((caps.cap_ff(x.0) - (GateKind::Not.intrinsic_cap_ff() + 2.0)).abs() < 1e-12);
        assert_eq!(caps.clock_energy_per_cycle_j(), 0.0);
        assert_eq!(caps.len(), 3);
    }

    #[test]
    fn clock_energy_scales_with_dffs() {
        let mut n = Netlist::new();
        let a = n.input();
        let q1 = n.dff(a, false);
        let _q2 = n.dff(q1, false);
        let cfg = PowerConfig::date2000_defaults();
        let caps = CapacitanceMap::new(&n, &cfg);
        let expect = cfg.switch_energy_j(2.0 * cfg.clock_cap_per_dff_ff);
        assert!((caps.clock_energy_per_cycle_j() - expect).abs() < 1e-25);
    }

    #[test]
    fn report_totals_and_power() {
        let r = EnergyReport {
            per_cycle_j: vec![1e-12, 2e-12, 3e-12],
        };
        assert!((r.total_j() - 6e-12).abs() < 1e-20);
        assert_eq!(r.cycles(), 3);
        // 6 pJ over 3 cycles at 1 MHz = 3 µs → 2 µW.
        assert!((r.average_power_w(1e6) - 2e-6).abs() < 1e-12);
        let mut r2 = EnergyReport::default();
        r2.extend(&r);
        r2.extend(&r);
        assert_eq!(r2.cycles(), 6);
    }

    #[test]
    #[should_panic(expected = "no cycles")]
    fn empty_report_power_panics() {
        EnergyReport::default().average_power_w(1e6);
    }
}
