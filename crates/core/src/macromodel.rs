//! Software (and hardware) power macro-modeling (§4.1 of the paper).
//!
//! Macro-modeling pre-characterizes the ~25 POLIS macro-operations
//! (`AVV`, `AEMIT`, `TIVART`, `ADD`, `EQ`, …) in terms of delay, code
//! size and energy, and stores the results in a *parameter file* (Fig. 3):
//!
//! ```text
//! .unit_time cycle
//! .unit_size byte
//! .unit_energy nJ
//! .time AVV 5
//! .size AVV 7
//! .energy AVV 110
//! ```
//!
//! During co-simulation, a transition's cost is the **additive** sum of
//! its executed macro-operations' table entries — the low-level simulator
//! is never invoked. Because characterization compiles each
//! macro-operation *in isolation* (operands loaded from memory, result
//! stored back — see [`iss::codegen::macro_op_template`]) while the real
//! generated code keeps values in registers across macro-op boundaries
//! and overlaps execution in the pipeline, the macro-model systematically
//! **over-estimates** (paper Table 2: +19.6%…+32.9%) while preserving the
//! ranking of design alternatives (Fig. 6).

use cfsm::{MacroOp, ALL_MACRO_OPS};
use iss::codegen::macro_op_template;
use iss::isa::INSTR_BYTES;
use iss::{Cpu, PowerModel};
use std::collections::BTreeMap;
use std::fmt;

/// One characterized macro-operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroCost {
    /// Delay in cycles.
    pub time_cycles: u64,
    /// Code size in bytes.
    pub size_bytes: u64,
    /// Energy in nanojoules.
    pub energy_nj: f64,
}

/// Name of the per-activation overhead entry (transition dispatch:
/// window rotation, variable load/store, breakpoint).
pub const ACTIVATION_ENTRY: &str = "ACTIV";

/// A characterized macro-operation library (the parameter file of
/// Fig. 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParameterFile {
    entries: BTreeMap<String, MacroCost>,
    /// The macro-op entries of `entries` by [`MacroOp::index`], so
    /// pricing a trace needs no lookup by mnemonic.
    by_op: [Option<MacroCost>; ALL_MACRO_OPS.len()],
    /// The [`ACTIVATION_ENTRY`] of `entries`.
    activation: Option<MacroCost>,
}

/// Errors from [`ParameterFile::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseParameterError {
    /// A line did not match `.directive NAME VALUE`.
    BadLine(usize),
    /// A numeric field failed to parse.
    BadNumber(usize),
    /// An unknown directive was found.
    UnknownDirective(usize, String),
}

impl fmt::Display for ParseParameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseParameterError::BadLine(n) => write!(f, "malformed line {n}"),
            ParseParameterError::BadNumber(n) => write!(f, "invalid number on line {n}"),
            ParseParameterError::UnknownDirective(n, d) => {
                write!(f, "unknown directive `{d}` on line {n}")
            }
        }
    }
}

impl std::error::Error for ParseParameterError {}

impl ParameterFile {
    /// An empty library.
    pub fn new() -> Self {
        ParameterFile::default()
    }

    /// Sets the cost of one macro-operation mnemonic.
    pub fn set(&mut self, mnemonic: impl Into<String>, cost: MacroCost) {
        let mnemonic = mnemonic.into();
        if mnemonic == ACTIVATION_ENTRY {
            self.activation = Some(cost);
        } else if let Some(op) = MacroOp::from_mnemonic(&mnemonic) {
            self.by_op[op.index()] = Some(cost);
        }
        self.entries.insert(mnemonic, cost);
    }

    /// Looks up a macro-operation's cost.
    pub fn cost(&self, op: MacroOp) -> Option<MacroCost> {
        self.by_op[op.index()]
    }

    /// Number of characterized operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Additively estimates a macro-operation trace: `(cycles, energy_j)`.
    /// If the library carries an `ACTIV` entry (per-activation overhead:
    /// register-window rotation, state load/store, breakpoint), it is
    /// added once.
    ///
    /// # Panics
    ///
    /// Panics if the trace contains an uncharacterized operation.
    pub fn estimate(&self, trace: &[MacroOp]) -> (u64, f64) {
        let mut cycles = 0u64;
        let mut nj = 0.0;
        for &op in trace {
            let c = self
                .cost(op)
                .unwrap_or_else(|| panic!("macro-op {op} not characterized"));
            cycles += c.time_cycles;
            nj += c.energy_nj;
        }
        if let Some(a) = self.activation {
            cycles += a.time_cycles;
            nj += a.energy_nj;
        }
        (cycles, nj * 1e-9)
    }

    /// Renders the POLIS-style parameter-file text (Fig. 3).
    pub fn to_text(&self) -> String {
        let mut s = String::from(".unit_time cycle\n.unit_size byte\n.unit_energy nJ\n");
        for (name, c) in &self.entries {
            s.push_str(&format!(".time {name} {}\n", c.time_cycles));
        }
        for (name, c) in &self.entries {
            s.push_str(&format!(".size {name} {}\n", c.size_bytes));
        }
        for (name, c) in &self.entries {
            s.push_str(&format!(".energy {name} {}\n", c.energy_nj));
        }
        s
    }

    /// Parses parameter-file text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseParameterError`] naming the offending line; an
    /// energy that is negative or not finite is a
    /// [`ParseParameterError::BadNumber`].
    pub fn from_text(text: &str) -> Result<Self, ParseParameterError> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let n = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().ok_or(ParseParameterError::BadLine(n))?;
            match directive {
                ".unit_time" | ".unit_size" | ".unit_energy" => continue,
                ".time" | ".size" | ".energy" => {
                    let name = parts.next().ok_or(ParseParameterError::BadLine(n))?;
                    let value = parts.next().ok_or(ParseParameterError::BadLine(n))?;
                    if parts.next().is_some() {
                        return Err(ParseParameterError::BadLine(n));
                    }
                    let entry = entries.entry(name).or_insert(MacroCost {
                        time_cycles: 0,
                        size_bytes: 0,
                        energy_nj: 0.0,
                    });
                    match directive {
                        ".time" => {
                            entry.time_cycles = value
                                .parse()
                                .map_err(|_| ParseParameterError::BadNumber(n))?
                        }
                        ".size" => {
                            entry.size_bytes = value
                                .parse()
                                .map_err(|_| ParseParameterError::BadNumber(n))?
                        }
                        ".energy" => {
                            entry.energy_nj = value
                                .parse()
                                .ok()
                                .filter(|e: &f64| e.is_finite() && *e >= 0.0)
                                .ok_or(ParseParameterError::BadNumber(n))?
                        }
                        _ => unreachable!(),
                    }
                }
                other => {
                    return Err(ParseParameterError::UnknownDirective(n, other.to_string()))
                }
            }
        }
        let mut pf = ParameterFile::new();
        for (name, cost) in entries {
            pf.set(name, cost);
        }
        Ok(pf)
    }
}

/// Runs the software characterization flow (Fig. 3): every macro-op's
/// isolated template program is executed on a fresh ISS and its cycles,
/// code size and energy recorded.
pub fn characterize_sw(power: &PowerModel) -> ParameterFile {
    let mut pf = ParameterFile::new();
    // Cost of the template harness (base-address setup + breakpoint
    // trap), measured once and excluded from every macro-op's entry so
    // the characterization reflects the operation itself.
    let harness = {
        let mut h = Cpu::new(power.clone());
        h.run(
            &[
                iss::isa::Instr::Set {
                    rd: iss::isa::Reg(1),
                    imm: iss::isa::memmap::VAR_BASE as i64,
                },
                iss::isa::Instr::Halt,
            ],
            0,
            0,
            &[],
        )
    };
    for &op in ALL_MACRO_OPS {
        let code = macro_op_template(op);
        let mut cpu = Cpu::new(power.clone());
        // MEMRD templates read one shared word.
        let out = cpu.run(&code, 0, 0, &[0]);
        let size: u32 = code.iter().map(|i| i.slots()).sum::<u32>() - 1; // minus halt
        pf.set(
            op.mnemonic(),
            MacroCost {
                time_cycles: out.cycles.saturating_sub(harness.cycles).max(1),
                size_bytes: size as u64 * INSTR_BYTES,
                energy_nj: (out.energy_j - harness.energy_j).max(1e-10) * 1e9,
            },
        );
    }
    // Per-activation overhead: the generated code rotates a register
    // window, loads/stores the transition's variables, and hits the
    // breakpoint. Characterized with a representative two-variable
    // working set.
    {
        use iss::isa::{memmap, Instr, Reg};
        let code = [
            Instr::Save,
            Instr::Set {
                rd: Reg(1),
                imm: memmap::VAR_BASE as i64,
            },
            Instr::Ld {
                rd: Reg(16),
                rs1: Reg(1),
                offset: 0,
            },
            Instr::Ld {
                rd: Reg(17),
                rs1: Reg(1),
                offset: 8,
            },
            Instr::St {
                rs: Reg(16),
                rs1: Reg(1),
                offset: 0,
            },
            Instr::St {
                rs: Reg(17),
                rs1: Reg(1),
                offset: 8,
            },
            Instr::Restore,
            Instr::Halt,
        ];
        let mut cpu = Cpu::new(power.clone());
        let out = cpu.run(&code, 0, 0, &[]);
        pf.set(
            ACTIVATION_ENTRY,
            MacroCost {
                time_cycles: out.cycles,
                size_bytes: code.iter().map(|i| i.slots()).sum::<u32>() as u64 * INSTR_BYTES,
                energy_nj: out.energy_j * 1e9,
            },
        );
    }
    pf
}

/// Runs the hardware characterization flow: each macro-operation's
/// datapath block is instantiated as a small netlist at the given word
/// width and exercised with pseudo-random vectors; the mean per-evaluation
/// switched energy becomes the `.energy` entry. `.time` is one cycle per
/// operation slice (the FSMD executes each block slice in a cycle).
///
/// The energies come from [`gatesim::macro_op_energies`], which
/// characterizes once per width and power configuration and memoizes
/// the result with synthesis; this builds the parameter file around them.
pub fn characterize_hw(
    synth: &gatesim::SynthConfig,
    power: &gatesim::PowerConfig,
) -> ParameterFile {
    let energies = gatesim::macro_op_energies(synth, power);
    let mut pf = ParameterFile::new();
    for (&op, &energy_j) in ALL_MACRO_OPS.iter().zip(energies.iter()) {
        pf.set(
            op.mnemonic(),
            MacroCost {
                time_cycles: 1,
                size_bytes: 0,
                energy_nj: energy_j * 1e9,
            },
        );
    }
    // Per-activation overhead of the FSMD run protocol: the state-load
    // and start-handshake cycles, charged at a representative
    // controller's clock-tree energy (~40 flops).
    pf.set(
        ACTIVATION_ENTRY,
        MacroCost {
            time_cycles: 2,
            size_bytes: 0,
            energy_nj: power.switch_energy_j(2.0 * 40.0 * power.clock_cap_per_dff_ff) * 1e9,
        },
    );
    pf
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsm::BinOp;

    #[test]
    fn characterize_sw_covers_all_ops() {
        let pf = characterize_sw(&PowerModel::sparclite());
        assert_eq!(pf.len(), ALL_MACRO_OPS.len() + 1); // ops + ACTIV
        for &op in ALL_MACRO_OPS {
            let c = pf.cost(op).expect("characterized");
            assert!(c.time_cycles > 0, "{op} must take time");
            assert!(c.energy_nj > 0.0, "{op} must take energy");
            assert!(c.size_bytes > 0, "{op} must take space");
        }
    }

    #[test]
    fn expensive_ops_characterize_higher() {
        let pf = characterize_sw(&PowerModel::sparclite());
        let add = pf.cost(MacroOp::Binary(BinOp::Add)).expect("ADD");
        let div = pf.cost(MacroOp::Binary(BinOp::Div)).expect("DIV");
        assert!(div.time_cycles > add.time_cycles);
        assert!(div.energy_nj > add.energy_nj);
    }

    #[test]
    fn estimate_is_additive() {
        let mut pf = ParameterFile::new();
        pf.set(
            "AVV",
            MacroCost {
                time_cycles: 5,
                size_bytes: 7,
                energy_nj: 110.0,
            },
        );
        pf.set(
            "AEMIT",
            MacroCost {
                time_cycles: 12,
                size_bytes: 8,
                energy_nj: 680.0,
            },
        );
        let (cyc, e) = pf.estimate(&[MacroOp::Avv, MacroOp::Aemit, MacroOp::Avv]);
        assert_eq!(cyc, 5 + 12 + 5);
        assert!((e - (110.0 + 680.0 + 110.0) * 1e-9).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "not characterized")]
    fn estimate_rejects_unknown_ops() {
        ParameterFile::new().estimate(&[MacroOp::Avv]);
    }

    #[test]
    fn text_roundtrip() {
        let pf = characterize_sw(&PowerModel::sparclite());
        let text = pf.to_text();
        assert!(text.contains(".unit_time cycle"));
        assert!(text.contains(".time AVV"));
        assert!(text.contains(".energy AEMIT"));
        let back = ParameterFile::from_text(&text).expect("parses");
        assert_eq!(back.len(), pf.len());
        for &op in ALL_MACRO_OPS {
            let a = pf.cost(op).expect("orig");
            let b = back.cost(op).expect("parsed");
            assert_eq!(a.time_cycles, b.time_cycles);
            assert_eq!(a.size_bytes, b.size_bytes);
            // Energy survives the decimal round-trip.
            assert!((a.energy_nj - b.energy_nj).abs() < 1e-9 * a.energy_nj.abs() + 1e-12);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            ParameterFile::from_text(".bogus AVV 1"),
            Err(ParseParameterError::UnknownDirective(1, _))
        ));
        assert!(matches!(
            ParameterFile::from_text(".time AVV"),
            Err(ParseParameterError::BadLine(1))
        ));
        assert!(matches!(
            ParameterFile::from_text(".time AVV abc"),
            Err(ParseParameterError::BadNumber(1))
        ));
        assert!(matches!(
            ParameterFile::from_text(".time AVV 1 2"),
            Err(ParseParameterError::BadLine(1))
        ));
        for energy in ["NaN", "inf", "-1"] {
            assert_eq!(
                ParameterFile::from_text(&format!(".time AVV 1\n.energy AVV {energy}")),
                Err(ParseParameterError::BadNumber(2)),
                "energy {energy}"
            );
        }
    }

    #[test]
    fn dense_pricing_tracks_every_insert() {
        let cost = |energy_nj| MacroCost {
            time_cycles: 3,
            size_bytes: 0,
            energy_nj,
        };
        let mut pf = ParameterFile::new();
        pf.set("AVV", cost(1.0));
        pf.set(ACTIVATION_ENTRY, cost(0.5));
        pf.set("AVV", cost(2.0));
        assert_eq!(pf.estimate(&[MacroOp::Avv]), (6, 2.5 * 1e-9));
        let parsed = ParameterFile::from_text(&pf.to_text()).expect("parses");
        assert_eq!(parsed, pf);
        assert_eq!(parsed.estimate(&[MacroOp::Avv]), (6, 2.5 * 1e-9));
        assert_eq!(parsed.cost(MacroOp::Aemit), None);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let pf = ParameterFile::from_text("# header\n\n.time AVV 5\n.energy AVV 1.5\n")
            .expect("parses");
        let c = pf.cost(MacroOp::Avv).expect("AVV");
        assert_eq!(c.time_cycles, 5);
        assert!((c.energy_nj - 1.5).abs() < 1e-12);
    }

    #[test]
    fn characterize_hw_covers_all_ops() {
        let pf = characterize_hw(
            &gatesim::SynthConfig::with_width(8),
            &gatesim::PowerConfig::date2000_defaults(),
        );
        assert_eq!(pf.len(), ALL_MACRO_OPS.len() + 1); // ops + ACTIV
        let add = pf.cost(MacroOp::Binary(BinOp::Add)).expect("ADD");
        let mul = pf.cost(MacroOp::Binary(BinOp::Mul)).expect("MUL");
        assert!(mul.energy_nj > add.energy_nj, "multiplier switches more");
    }

    #[test]
    fn sw_characterization_is_deterministic() {
        let a = characterize_sw(&PowerModel::sparclite()).to_text();
        let b = characterize_sw(&PowerModel::sparclite()).to_text();
        assert_eq!(a, b);
    }
}
