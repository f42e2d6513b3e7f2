//! BLIF-style netlist interchange.
//!
//! The paper's hardware estimator is a modified SIS power simulator, and
//! SIS's native interchange format is BLIF (Berkeley Logic Interchange
//! Format). This module writes and reads a BLIF dialect covering this
//! crate's gate library, so synthesized netlists can be inspected with
//! standard tooling or round-tripped:
//!
//! ```text
//! .model adder
//! .inputs n0 n1
//! .outputs sum
//! .gate xor a=n0 b=n1 O=n2
//! .latch n3 n4 0
//! .end
//! ```
//!
//! Gates are written with the `.gate <kind> a=<in> b=<in> … O=<out>`
//! form; latches use `.latch <input> <output> <init>`.

use crate::netlist::{GateKind, NetId, Netlist};
use std::fmt;

/// Errors from [`from_blif`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBlifError {
    /// A line could not be parsed.
    BadLine(usize),
    /// An unknown gate kind was named.
    UnknownKind(usize, String),
    /// A signal was referenced but never defined.
    UndefinedSignal(String),
    /// A signal was driven twice.
    Redefined(usize, String),
    /// The file is missing `.model` / `.end` structure.
    MissingStructure,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::BadLine(n) => write!(f, "malformed line {n}"),
            ParseBlifError::UnknownKind(n, k) => write!(f, "unknown gate kind `{k}` on line {n}"),
            ParseBlifError::UndefinedSignal(s) => write!(f, "signal `{s}` is never driven"),
            ParseBlifError::Redefined(n, s) => write!(f, "signal `{s}` redefined on line {n}"),
            ParseBlifError::MissingStructure => write!(f, "missing .model/.end structure"),
        }
    }
}

impl std::error::Error for ParseBlifError {}

fn kind_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Input => "input",
        GateKind::Const0 => "const0",
        GateKind::Const1 => "const1",
        GateKind::Buf => "buf",
        GateKind::Not => "not",
        GateKind::And => "and",
        GateKind::Or => "or",
        GateKind::Nand => "nand",
        GateKind::Nor => "nor",
        GateKind::Xor => "xor",
        GateKind::Xnor => "xnor",
        GateKind::Mux => "mux",
        GateKind::Dff(_) => "dff",
    }
}

fn kind_from_name(name: &str) -> Option<GateKind> {
    Some(match name {
        "const0" => GateKind::Const0,
        "const1" => GateKind::Const1,
        "buf" => GateKind::Buf,
        "not" => GateKind::Not,
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        "mux" => GateKind::Mux,
        _ => return None,
    })
}

/// Renders a netlist as BLIF text under the given model name.
pub fn to_blif(netlist: &Netlist, model: &str) -> String {
    let sig = |n: NetId| format!("n{}", n.0);
    let mut s = format!(".model {model}\n");
    let inputs = netlist.primary_inputs();
    if !inputs.is_empty() {
        s.push_str(".inputs");
        for i in &inputs {
            s.push(' ');
            s.push_str(&sig(*i));
        }
        s.push('\n');
    }
    if !netlist.outputs().is_empty() {
        s.push_str(".outputs");
        for (name, _) in netlist.outputs() {
            s.push(' ');
            s.push_str(name);
        }
        s.push('\n');
    }
    for (i, &kind) in netlist.kinds().iter().enumerate() {
        let id = NetId(i as u32);
        let out = sig(id);
        match kind {
            GateKind::Input => {}
            GateKind::Dff(init) => {
                s.push_str(&format!(
                    ".latch {} {} {}\n",
                    sig(netlist.fanin(id)[0]),
                    out,
                    u8::from(init)
                ));
            }
            kind => {
                s.push_str(&format!(".gate {}", kind_name(kind)));
                for (k, inp) in netlist.fanin(id).iter().enumerate() {
                    s.push_str(&format!(" {}={}", (b'a' + k as u8) as char, sig(*inp)));
                }
                s.push_str(&format!(" O={out}\n"));
            }
        }
    }
    for (name, net) in netlist.outputs() {
        s.push_str(&format!(".names {} {}\n1 1\n", sig(*net), name));
    }
    s.push_str(".end\n");
    s
}

/// Parses BLIF text produced by [`to_blif`] back into a netlist.
///
/// Signal names are arbitrary identifiers; `.names <in> <out>` buffer
/// stanzas (as emitted for outputs) become output markers.
///
/// # Errors
///
/// Returns a [`ParseBlifError`] describing the first problem found.
pub fn from_blif(text: &str) -> Result<Netlist, ParseBlifError> {
    use std::collections::HashMap;
    struct ProtoGate {
        kind: GateKind,
        inputs: Vec<String>,
        out: String,
    }
    let mut protos: Vec<ProtoGate> = Vec::new();
    let mut input_names: Vec<String> = Vec::new();
    let mut output_markers: Vec<(String, String)> = Vec::new(); // (inner, name)
    let mut saw_model = false;
    let mut saw_end = false;
    let mut pending_names: Option<(String, String, usize)> = None;

    for (ln, raw) in text.lines().enumerate() {
        let n = ln + 1;
        let line = raw.trim();
        if let Some((inner, name, at)) = pending_names.take() {
            if line == "1 1" {
                output_markers.push((inner, name));
                continue;
            }
            return Err(ParseBlifError::BadLine(at));
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next().ok_or(ParseBlifError::BadLine(n))? {
            ".model" => saw_model = true,
            ".end" => saw_end = true,
            ".inputs" => input_names.extend(parts.map(str::to_string)),
            ".outputs" => { /* declared via .names stanzas */ }
            ".latch" => {
                let d = parts.next().ok_or(ParseBlifError::BadLine(n))?;
                let q = parts.next().ok_or(ParseBlifError::BadLine(n))?;
                let init = parts.next().ok_or(ParseBlifError::BadLine(n))?;
                let init = match init {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ParseBlifError::BadLine(n)),
                };
                protos.push(ProtoGate {
                    kind: GateKind::Dff(init),
                    inputs: vec![d.to_string()],
                    out: q.to_string(),
                });
            }
            ".gate" => {
                let kind_s = parts.next().ok_or(ParseBlifError::BadLine(n))?;
                let kind = kind_from_name(kind_s)
                    .ok_or_else(|| ParseBlifError::UnknownKind(n, kind_s.to_string()))?;
                let mut inputs = Vec::new();
                let mut out = None;
                for assign in parts {
                    let (lhs, rhs) =
                        assign.split_once('=').ok_or(ParseBlifError::BadLine(n))?;
                    if lhs == "O" {
                        out = Some(rhs.to_string());
                    } else {
                        inputs.push(rhs.to_string());
                    }
                }
                protos.push(ProtoGate {
                    kind,
                    inputs,
                    out: out.ok_or(ParseBlifError::BadLine(n))?,
                });
            }
            ".names" => {
                let a = parts.next().ok_or(ParseBlifError::BadLine(n))?;
                let b = parts.next().ok_or(ParseBlifError::BadLine(n))?;
                if parts.next().is_some() {
                    return Err(ParseBlifError::BadLine(n));
                }
                pending_names = Some((a.to_string(), b.to_string(), n));
            }
            _ => return Err(ParseBlifError::BadLine(n)),
        }
    }
    if !saw_model || !saw_end {
        return Err(ParseBlifError::MissingStructure);
    }
    // Assign net ids: inputs first, then gates in file order.
    let mut nl = Netlist::new();
    let mut ids: HashMap<String, NetId> = HashMap::new();
    for name in &input_names {
        if ids.contains_key(name) {
            return Err(ParseBlifError::Redefined(0, name.clone()));
        }
        ids.insert(name.clone(), nl.input());
    }
    // Two passes: reserve ids for every gate output (so forward/backward
    // references both resolve), then connect.
    let base = nl.gate_count() as u32;
    for (k, p) in protos.iter().enumerate() {
        let id = NetId(base + k as u32);
        if ids.insert(p.out.clone(), id).is_some() {
            return Err(ParseBlifError::Redefined(0, p.out.clone()));
        }
    }
    for p in &protos {
        let inputs: Vec<NetId> = p
            .inputs
            .iter()
            .map(|s| {
                ids.get(s)
                    .copied()
                    .ok_or_else(|| ParseBlifError::UndefinedSignal(s.clone()))
            })
            .collect::<Result<_, _>>()?;
        nl.gate(p.kind, inputs);
    }
    for (inner, name) in output_markers {
        let id = ids
            .get(&inner)
            .copied()
            .ok_or(ParseBlifError::UndefinedSignal(inner))?;
        nl.mark_output(name, id);
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerConfig;
    use crate::sim::Simulator;

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let cin = nl.input();
        let (s, c) = crate::bus::full_adder(&mut nl, a, b, cin);
        nl.mark_output("sum", s);
        nl.mark_output("cout", c);
        nl
    }

    #[test]
    fn blif_text_has_expected_structure() {
        let text = to_blif(&full_adder(), "fa");
        assert!(text.starts_with(".model fa\n"));
        assert!(text.contains(".inputs n0 n1 n2"));
        assert!(text.contains(".outputs sum cout"));
        assert!(text.contains(".gate xor"));
        assert!(text.trim_end().ends_with(".end"));
    }

    #[test]
    fn roundtrip_preserves_behavior() {
        let orig = full_adder();
        let text = to_blif(&orig, "fa");
        let back = from_blif(&text).expect("parses");
        assert_eq!(back.gate_count(), orig.gate_count());
        // Exhaustive functional equivalence over the 3 inputs.
        let cfg = PowerConfig::date2000_defaults();
        let inputs_o = orig.primary_inputs();
        let inputs_b = back.primary_inputs();
        let so = orig.output("sum").expect("sum");
        let co = orig.output("cout").expect("cout");
        let sb = back.output("sum").expect("sum");
        let cb = back.output("cout").expect("cout");
        let mut sim_o = Simulator::new(&orig, cfg.clone()).expect("valid");
        let mut sim_b = Simulator::new(&back, cfg).expect("valid");
        for v in 0..8u64 {
            sim_o.set_input_bus(&inputs_o, v);
            sim_b.set_input_bus(&inputs_b, v);
            sim_o.step();
            sim_b.step();
            assert_eq!(sim_o.value(so), sim_b.value(sb), "sum at {v:03b}");
            assert_eq!(sim_o.value(co), sim_b.value(cb), "cout at {v:03b}");
        }
    }

    #[test]
    fn roundtrip_preserves_latches() {
        let mut nl = Netlist::new();
        let d = nl.input();
        let q = nl.dff(d, true);
        nl.mark_output("q", q);
        let back = from_blif(&to_blif(&nl, "reg")).expect("parses");
        assert_eq!(back.dff_count(), 1);
        assert!(matches!(
            back.kinds().iter().find(|k| k.is_sequential()),
            Some(GateKind::Dff(true))
        ));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            from_blif("hello"),
            Err(ParseBlifError::BadLine(1))
        ));
        assert!(matches!(
            from_blif(".model x\n.gate frob a=n0 O=n1\n.end"),
            Err(ParseBlifError::UnknownKind(2, _))
        ));
        assert!(matches!(
            from_blif(".gate and a=n0 b=n1 O=n2"),
            Err(ParseBlifError::MissingStructure)
        ));
        assert!(matches!(
            from_blif(".model x\n.gate and a=nope b=nope O=o\n.end"),
            Err(ParseBlifError::UndefinedSignal(_))
        ));
    }

    #[test]
    fn parse_rejects_double_drivers() {
        let text = ".model x\n.inputs a\n.gate not a=a O=y\n.gate buf a=a O=y\n.end";
        assert!(matches!(
            from_blif(text),
            Err(ParseBlifError::Redefined(_, _))
        ));
    }

    #[test]
    fn feedback_through_latch_roundtrips() {
        // Toggle flop: q = dff(not q).
        let mut nl = Netlist::new();
        let inv = nl.gate(GateKind::Not, vec![NetId(1)]);
        let q = nl.dff(inv, false);
        nl.mark_output("q", q);
        let back = from_blif(&to_blif(&nl, "tff")).expect("parses feedback");
        let mut sim = Simulator::new(&back, PowerConfig::date2000_defaults()).expect("valid");
        let qb = back.output("q").expect("q");
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.step();
            seen.push(sim.value(qb));
        }
        assert_eq!(seen, vec![true, false, true, false]);
    }
}
