//! A textual system-specification frontend.
//!
//! POLIS ingests behavioral specifications (Esterel / graphical FSMs) and
//! compiles them into CFSM networks; this module provides the equivalent
//! entry point for this reproduction: a small, line-oriented reactive
//! language that parses directly into a ready-to-estimate
//! [`SocDescription`].
//!
//! ```text
//! system blinker
//!
//! event TICK
//! event LEVEL value
//!
//! process counter hw priority 2
//!   var n = 0
//!   state run
//!   transition run -> run on TICK
//!     n = (+ n 1)
//!     if (> n 255)
//!       n = 0
//!     end
//!     emit LEVEL n
//!   end
//!
//! stimulus 100 TICK
//! stimulus 200 TICK
//! ```
//!
//! Grammar (one construct per line, `#` comments):
//!
//! ```text
//! system NAME
//! event NAME [value]
//! leakage WATTS [CLOCK_FACTOR POWER_FACTOR]
//! process NAME (hw|sw) [priority N]
//!   var NAME = INT
//!   state NAME                       # the first state is initial
//!   power dvfs OP_NAME VSCALE FSCALE # assign a DVFS operating point
//!   power clock_gate IDLE_CYCLES     # clock-gate after the idle timeout
//!   power power_gate IDLE_CYCLES WAKE_J WAKE_CYCLES
//!   transition FROM -> TO on EV [EV…] [when EXPR]
//!     STMT…
//!   end
//! stimulus CYCLE EV [VALUE]
//! ```
//!
//! The `leakage` and per-process `power` directives accumulate into a
//! [`PowerPolicy`](crate::PowerPolicy); [`parse_system_with_power`]
//! returns it alongside the system ([`parse_system`] parses the same
//! grammar and discards the policy). A `power` directive naming an
//! unknown state is a [`SpecError`]. The policy's values are checked
//! when a co-simulator is built from it: a `dvfs` scale outside
//! [`OperatingPoint::MIN_SCALE`](crate::OperatingPoint::MIN_SCALE)`..=`
//! [`MAX_SCALE`](crate::OperatingPoint::MAX_SCALE), a `power_gate`
//! wake energy above
//! [`GatingPolicy::MAX_WAKE_ENERGY_J`](crate::GatingPolicy::MAX_WAKE_ENERGY_J),
//! or a `power_gate` wake latency above
//! [`GatingPolicy::MAX_WAKE_LATENCY_CYCLES`](crate::GatingPolicy::MAX_WAKE_LATENCY_CYCLES),
//! fails there with `InvalidParams`. A `stimulus` cycle past
//! [`SocDescription::MAX_STIMULUS_CYCLE`] is a [`SpecError`] on its
//! line.
//!
//! Statements: `x = EXPR` · `emit EV [EXPR]` · `x = mem[EXPR]` ·
//! `mem[EXPR] = EXPR` · `while EXPR … end` · `if EXPR … [else …] end`.
//!
//! Expressions are prefix S-expressions over variables, integers and
//! `$EVENT` (the value of a triggering event):
//! `(+ a 1)`, `(and (< i len) flag)`, `(- $TIME prev)`. Operators:
//! `+ - * / % & | ^ << >> == != < <= > >= not lnot neg`.

use crate::config::SocDescription;
use cfsm::{
    BasicBlock, BinOp, BlockId, Cfg, Cfsm, EventDef, EventId, EventOccurrence, Expr,
    Implementation, Network, Stmt, StateId, Terminator, UnOp, VarId,
};
use std::collections::HashMap;
use std::fmt;

/// A specification parse error, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 for file-level problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Structured statement tree before CFG lowering.
#[derive(Debug, Clone)]
enum SStmt {
    Assign(String, SExpr),
    Emit(String, Option<SExpr>),
    MemRead(String, SExpr),
    MemWrite(SExpr, SExpr),
    While(SExpr, Vec<SStmt>),
    If(SExpr, Vec<SStmt>, Vec<SStmt>),
}

/// Expression tree with unresolved names.
#[derive(Debug, Clone)]
enum SExpr {
    Int(i64),
    Var(String),
    EventValue(String),
    Un(UnOp, Box<SExpr>),
    Bin(BinOp, Box<SExpr>, Box<SExpr>),
}

/// Parses a complete system specification into a [`SocDescription`].
///
/// # Errors
///
/// Returns a [`SpecError`] with the line number of the first problem
/// (unknown names, malformed expressions, unbalanced blocks, …).
///
/// # Examples
///
/// ```
/// use co_estimation::spec::parse_system;
///
/// let soc = parse_system(
///     "system demo\n\
///      event GO\n\
///      process p hw\n\
///        var n = 0\n\
///        state s\n\
///        transition s -> s on GO\n\
///          n = (+ n 1)\n\
///        end\n\
///      stimulus 10 GO\n",
/// )?;
/// assert_eq!(soc.name, "demo");
/// assert_eq!(soc.network.process_count(), 1);
/// # Ok::<(), co_estimation::spec::SpecError>(())
/// ```
pub fn parse_system(text: &str) -> Result<SocDescription, SpecError> {
    parse_system_with_power(text).map(|(soc, _)| soc)
}

/// Parses a complete system specification, returning the system and
/// the power-management policy accumulated from its `leakage` and
/// per-process `power` directives. A spec without power directives
/// yields [`PowerPolicy::none`](crate::PowerPolicy::none) (the
/// guaranteed-noop default).
///
/// # Errors
///
/// Returns a [`SpecError`] with the line number of the first problem;
/// a `power` directive naming an unknown state
/// (anything but `dvfs` / `clock_gate` / `power_gate`) is rejected.
///
/// # Examples
///
/// ```
/// use co_estimation::spec::parse_system_with_power;
///
/// let (soc, policy) = parse_system_with_power(
///     "system demo\n\
///      event GO\n\
///      leakage 0.002\n\
///      process p hw\n\
///        var n = 0\n\
///        state s\n\
///        power clock_gate 500\n\
///        transition s -> s on GO\n\
///          n = (+ n 1)\n\
///        end\n\
///      stimulus 10 GO\n",
/// )?;
/// assert_eq!(soc.name, "demo");
/// assert!(!policy.is_noop());
/// # Ok::<(), co_estimation::spec::SpecError>(())
/// ```
pub fn parse_system_with_power(
    text: &str,
) -> Result<(SocDescription, crate::powermgmt::PowerPolicy), SpecError> {
    use crate::powermgmt::{GatingPolicy, LeakageModel, OperatingPoint, PowerPolicy};
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim().to_string()))
        .filter(|(_, l)| !l.is_empty())
        .collect::<Vec<_>>()
        .into_iter()
        .peekable();

    let mut name = String::from("unnamed");
    let mut events: Vec<(String, bool)> = Vec::new();
    struct ProcSpec {
        line: usize,
        name: String,
        mapping: Implementation,
        priority: u8,
        vars: Vec<(String, i64)>,
        states: Vec<String>,
        transitions: Vec<TransSpec>,
    }
    struct TransSpec {
        line: usize,
        from: String,
        to: String,
        triggers: Vec<String>,
        guard: Option<SExpr>,
        body: Vec<SStmt>,
    }
    let mut procs: Vec<ProcSpec> = Vec::new();
    let mut stimulus: Vec<(u64, String, Option<i64>)> = Vec::new();
    let mut power = PowerPolicy::named("spec");
    let mut power_used = false;

    fn num<T: std::str::FromStr>(
        w: Option<&str>,
        ln: usize,
        what: &str,
    ) -> Result<T, SpecError> {
        w.ok_or_else(|| SpecError::new(ln, format!("expected {what}")))?
            .parse()
            .map_err(|_| SpecError::new(ln, format!("bad {what}")))
    }

    while let Some((ln, line)) = lines.next() {
        let mut w = line.split_whitespace();
        let Some(head) = w.next() else { continue };
        match head {
            "system" => {
                name = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "system needs a name"))?
                    .to_string();
            }
            "event" => {
                let ev = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "event needs a name"))?
                    .to_string();
                let valued = match w.next() {
                    None => false,
                    Some("value") => true,
                    Some(x) => {
                        return Err(SpecError::new(ln, format!("unexpected `{x}` after event")))
                    }
                };
                events.push((ev, valued));
            }
            "process" => {
                let pname = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "process needs a name"))?
                    .to_string();
                let mapping = match w.next() {
                    Some("hw") => Implementation::Hw,
                    Some("sw") => Implementation::Sw,
                    other => {
                        return Err(SpecError::new(
                            ln,
                            format!("process mapping must be hw|sw, got {other:?}"),
                        ))
                    }
                };
                let priority = match (w.next(), w.next()) {
                    (None, _) => 1,
                    (Some("priority"), Some(p)) => p
                        .parse()
                        .map_err(|_| SpecError::new(ln, "priority must be 0..=255"))?,
                    _ => return Err(SpecError::new(ln, "expected `priority N`")),
                };
                let mut ps = ProcSpec {
                    line: ln,
                    name: pname,
                    mapping,
                    priority,
                    vars: Vec::new(),
                    states: Vec::new(),
                    transitions: Vec::new(),
                };
                // Body: var/state/transition until the next top-level
                // keyword.
                while let Some((ln2, l2)) = lines.peek().cloned() {
                    let head = l2.split_whitespace().next().unwrap_or("");
                    match head {
                        "var" => {
                            lines.next();
                            let rest: Vec<&str> = l2.split_whitespace().collect();
                            if rest.len() != 4 || rest[2] != "=" {
                                return Err(SpecError::new(ln2, "expected `var NAME = INT`"));
                            }
                            let init = rest[3]
                                .parse()
                                .map_err(|_| SpecError::new(ln2, "bad initial value"))?;
                            ps.vars.push((rest[1].to_string(), init));
                        }
                        "state" => {
                            lines.next();
                            let rest: Vec<&str> = l2.split_whitespace().collect();
                            if rest.len() != 2 {
                                return Err(SpecError::new(ln2, "expected `state NAME`"));
                            }
                            ps.states.push(rest[1].to_string());
                        }
                        "transition" => {
                            lines.next();
                            let ts = parse_transition_header(ln2, &l2)?;
                            let body = parse_stmts(&mut lines, ln2)?;
                            ps.transitions.push(TransSpec {
                                line: ln2,
                                from: ts.0,
                                to: ts.1,
                                triggers: ts.2,
                                guard: ts.3,
                                body,
                            });
                        }
                        "power" => {
                            lines.next();
                            let mut pw = l2.split_whitespace();
                            pw.next(); // "power"
                            match pw.next() {
                                Some("dvfs") => {
                                    let op_name = pw
                                        .next()
                                        .ok_or_else(|| {
                                            SpecError::new(ln2, "dvfs needs an operating-point name")
                                        })?
                                        .to_string();
                                    let vscale: f64 = num(pw.next(), ln2, "voltage scale")?;
                                    let fscale: f64 = num(pw.next(), ln2, "frequency scale")?;
                                    let idx = match power
                                        .operating_points
                                        .iter()
                                        .position(|op| op.name == op_name)
                                    {
                                        Some(i) => {
                                            let op = &power.operating_points[i];
                                            if op.voltage_scale != vscale
                                                || op.freq_scale != fscale
                                            {
                                                return Err(SpecError::new(
                                                    ln2,
                                                    format!(
                                                        "operating point `{op_name}` redefined \
                                                         with different scales"
                                                    ),
                                                ));
                                            }
                                            i
                                        }
                                        None => {
                                            power = power.with_operating_point(
                                                OperatingPoint::new(op_name, vscale, fscale),
                                            );
                                            power.operating_points.len() - 1
                                        }
                                    };
                                    power = power.dvfs(ps.name.clone(), idx);
                                    power_used = true;
                                }
                                Some("clock_gate") => {
                                    let idle: u64 = num(pw.next(), ln2, "idle timeout")?;
                                    power =
                                        power.gate(ps.name.clone(), GatingPolicy::clock(idle));
                                    power_used = true;
                                }
                                Some("power_gate") => {
                                    let idle: u64 = num(pw.next(), ln2, "idle timeout")?;
                                    let wake_j: f64 = num(pw.next(), ln2, "wake energy")?;
                                    let wake_cycles: u64 = num(pw.next(), ln2, "wake cycles")?;
                                    power = power.gate(
                                        ps.name.clone(),
                                        GatingPolicy::power(idle, wake_j, wake_cycles),
                                    );
                                    power_used = true;
                                }
                                Some(other) => {
                                    return Err(SpecError::new(
                                        ln2,
                                        format!(
                                            "unknown power state `{other}` \
                                             (expected dvfs|clock_gate|power_gate)"
                                        ),
                                    ));
                                }
                                None => {
                                    return Err(SpecError::new(
                                        ln2,
                                        "power directive needs a state",
                                    ));
                                }
                            }
                        }
                        _ => break,
                    }
                }
                procs.push(ps);
            }
            "leakage" => {
                let default_leak_w: f64 = num(w.next(), ln, "leakage watts")?;
                let (clock_gated_factor, power_gated_factor) = match w.next() {
                    None => {
                        let d = LeakageModel::with_default_rate(0.0);
                        (d.clock_gated_factor, d.power_gated_factor)
                    }
                    Some(cg) => {
                        let cg = cg
                            .parse()
                            .map_err(|_| SpecError::new(ln, "bad clock-gated factor"))?;
                        (cg, num(w.next(), ln, "power-gated factor")?)
                    }
                };
                power = power.with_leakage(LeakageModel {
                    default_leak_w,
                    clock_gated_factor,
                    power_gated_factor,
                });
                power_used = true;
            }
            "stimulus" => {
                let t: u64 = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "stimulus needs a cycle"))?
                    .parse()
                    .map_err(|_| SpecError::new(ln, "bad stimulus cycle"))?;
                if t > SocDescription::MAX_STIMULUS_CYCLE {
                    return Err(SpecError::new(
                        ln,
                        format!(
                            "stimulus cycle {t} is past the last accepted cycle {}",
                            SocDescription::MAX_STIMULUS_CYCLE
                        ),
                    ));
                }
                let ev = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "stimulus needs an event"))?
                    .to_string();
                let value = match w.next() {
                    None => None,
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| SpecError::new(ln, "bad stimulus value"))?,
                    ),
                };
                stimulus.push((t, ev, value));
            }
            other => {
                return Err(SpecError::new(ln, format!("unknown construct `{other}`")));
            }
        }
    }

    // Resolve into a network.
    let mut nb = Network::builder();
    let mut event_ids: HashMap<String, (EventId, bool)> = HashMap::new();
    for (ev, valued) in &events {
        let id = nb.event(if *valued {
            EventDef::valued(ev.clone())
        } else {
            EventDef::pure(ev.clone())
        });
        if event_ids.insert(ev.clone(), (id, *valued)).is_some() {
            return Err(SpecError::new(0, format!("event `{ev}` declared twice")));
        }
    }
    let mut priorities = Vec::new();
    for ps in procs {
        let mut mb = Cfsm::builder(ps.name.clone());
        let mut state_ids: HashMap<String, StateId> = HashMap::new();
        for s in &ps.states {
            state_ids.insert(s.clone(), mb.state(s.clone()));
        }
        let mut var_ids: HashMap<String, VarId> = HashMap::new();
        for (v, init) in &ps.vars {
            var_ids.insert(v.clone(), mb.var(v.clone(), *init));
        }
        for t in ps.transitions {
            let from = *state_ids
                .get(&t.from)
                .ok_or_else(|| SpecError::new(t.line, format!("unknown state `{}`", t.from)))?;
            let to = *state_ids
                .get(&t.to)
                .ok_or_else(|| SpecError::new(t.line, format!("unknown state `{}`", t.to)))?;
            let triggers = t
                .triggers
                .iter()
                .map(|ev| {
                    event_ids
                        .get(ev)
                        .map(|&(id, _)| id)
                        .ok_or_else(|| SpecError::new(t.line, format!("unknown event `{ev}`")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let env = ResolveEnv {
                vars: &var_ids,
                events: &event_ids,
            };
            let guard = t
                .guard
                .map(|g| resolve_expr(&g, &env, t.line))
                .transpose()?;
            let body = lower_body(&t.body, &env, t.line)?;
            mb.transition(from, triggers, guard, body, to);
        }
        let machine = mb
            .finish()
            .map_err(|e| SpecError::new(ps.line, format!("invalid process: {e}")))?;
        nb.process(machine, ps.mapping);
        priorities.push(ps.priority);
    }
    let network = nb
        .finish()
        .map_err(|e| SpecError::new(0, format!("invalid network: {e}")))?;
    let stimulus = stimulus
        .into_iter()
        .map(|(t, ev, value)| {
            let &(id, valued) = event_ids
                .get(&ev)
                .ok_or_else(|| SpecError::new(0, format!("unknown stimulus event `{ev}`")))?;
            let occ = match (valued, value) {
                (true, Some(v)) => EventOccurrence::valued(id, v),
                (false, None) => EventOccurrence::pure(id),
                (true, None) => {
                    return Err(SpecError::new(0, format!("event `{ev}` needs a value")))
                }
                (false, Some(_)) => {
                    return Err(SpecError::new(0, format!("event `{ev}` is pure")))
                }
            };
            Ok((t, occ))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut stimulus = stimulus;
    stimulus.sort_by_key(|&(t, _)| t);
    let power = if power_used {
        power.name = name.clone();
        power
    } else {
        PowerPolicy::none()
    };
    Ok((
        SocDescription {
            name,
            network,
            stimulus,
            priorities,
        },
        power,
    ))
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

type TransHeader = (String, String, Vec<String>, Option<SExpr>);

fn parse_transition_header(ln: usize, line: &str) -> Result<TransHeader, SpecError> {
    // transition FROM -> TO on EV [EV…] [when EXPR]
    let rest = line.strip_prefix("transition").unwrap_or(line).trim();
    let (from_to, tail) = rest
        .split_once(" on ")
        .ok_or_else(|| SpecError::new(ln, "expected `on EV` in transition"))?;
    let mut ft = from_to.split("->");
    let from = ft
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| SpecError::new(ln, "expected `FROM -> TO`"))?;
    let to = ft
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| SpecError::new(ln, "expected `FROM -> TO`"))?;
    let (trigger_part, guard_part) = match tail.split_once(" when ") {
        Some((a, b)) => (a, Some(b)),
        None => (tail, None),
    };
    let triggers: Vec<String> = trigger_part
        .split_whitespace()
        .map(str::to_string)
        .collect();
    if triggers.is_empty() {
        return Err(SpecError::new(ln, "transition needs at least one trigger"));
    }
    let guard = guard_part
        .map(|g| parse_expr(&mut Tokens::new(g), ln))
        .transpose()?;
    Ok((from.to_string(), to.to_string(), triggers, guard))
}

/// Parses statements until a matching `end` (consuming it), handling
/// `while`/`if`/`else` nesting.
fn parse_stmts(
    lines: &mut std::iter::Peekable<std::vec::IntoIter<(usize, String)>>,
    open_ln: usize,
) -> Result<Vec<SStmt>, SpecError> {
    let mut out = Vec::new();
    loop {
        let Some((ln, line)) = lines.next() else {
            return Err(SpecError::new(open_ln, "unterminated block (missing `end`)"));
        };
        let head = line.split_whitespace().next().unwrap_or("");
        match head {
            "end" => return Ok(out),
            "else" => {
                // Caller (the `if` handler) deals with `else`; seeing one
                // here means we are that caller's then-branch: push back
                // impossible with this iterator, so signal via sentinel.
                return Err(SpecError::new(ln, "`else` outside an if block"));
            }
            "while" => {
                let cond = parse_expr(
                    &mut Tokens::new(line.strip_prefix("while").unwrap_or(&line).trim()),
                    ln,
                )?;
                let body = parse_stmts(lines, ln)?;
                out.push(SStmt::While(cond, body));
            }
            "if" => {
                let cond = parse_expr(
                    &mut Tokens::new(line.strip_prefix("if").unwrap_or(&line).trim()),
                    ln,
                )?;
                let (then_body, has_else) = parse_if_arm(lines, ln)?;
                let else_body = if has_else {
                    parse_stmts(lines, ln)?
                } else {
                    Vec::new()
                };
                out.push(SStmt::If(cond, then_body, else_body));
            }
            "emit" => {
                let mut w = line.split_whitespace();
                w.next();
                let ev = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "emit needs an event"))?
                    .to_string();
                let rest: String = w.collect::<Vec<_>>().join(" ");
                let value = if rest.is_empty() {
                    None
                } else {
                    Some(parse_expr(&mut Tokens::new(&rest), ln)?)
                };
                out.push(SStmt::Emit(ev, value));
            }
            _ => {
                // Assignment forms: `x = …` or `mem[…] = …`.
                let (lhs, rhs) = line
                    .split_once('=')
                    .ok_or_else(|| SpecError::new(ln, format!("unparsable statement `{line}`")))?;
                let lhs = lhs.trim();
                let rhs = rhs.trim();
                if let Some(addr) = lhs.strip_prefix("mem[").and_then(|s| s.strip_suffix(']')) {
                    let addr = parse_expr(&mut Tokens::new(addr), ln)?;
                    let value = parse_expr(&mut Tokens::new(rhs), ln)?;
                    out.push(SStmt::MemWrite(addr, value));
                } else if let Some(addr) =
                    rhs.strip_prefix("mem[").and_then(|s| s.strip_suffix(']'))
                {
                    let addr = parse_expr(&mut Tokens::new(addr), ln)?;
                    out.push(SStmt::MemRead(lhs.to_string(), addr));
                } else {
                    let value = parse_expr(&mut Tokens::new(rhs), ln)?;
                    out.push(SStmt::Assign(lhs.to_string(), value));
                }
            }
        }
    }
}

/// Parses an if's then-arm: statements until `else` or `end`. Returns
/// `(body, saw_else)`.
fn parse_if_arm(
    lines: &mut std::iter::Peekable<std::vec::IntoIter<(usize, String)>>,
    open_ln: usize,
) -> Result<(Vec<SStmt>, bool), SpecError> {
    let mut out = Vec::new();
    loop {
        let Some((ln, line)) = lines.next() else {
            return Err(SpecError::new(open_ln, "unterminated if (missing `end`)"));
        };
        let head = line.split_whitespace().next().unwrap_or("");
        match head {
            "end" => return Ok((out, false)),
            "else" => return Ok((out, true)),
            "while" => {
                let cond = parse_expr(
                    &mut Tokens::new(line.strip_prefix("while").unwrap_or(&line).trim()),
                    ln,
                )?;
                let body = parse_stmts(lines, ln)?;
                out.push(SStmt::While(cond, body));
            }
            "if" => {
                let cond = parse_expr(
                    &mut Tokens::new(line.strip_prefix("if").unwrap_or(&line).trim()),
                    ln,
                )?;
                let (then_body, has_else) = parse_if_arm(lines, ln)?;
                let else_body = if has_else {
                    parse_stmts(lines, ln)?
                } else {
                    Vec::new()
                };
                out.push(SStmt::If(cond, then_body, else_body));
            }
            "emit" => {
                let mut w = line.split_whitespace();
                w.next();
                let ev = w
                    .next()
                    .ok_or_else(|| SpecError::new(ln, "emit needs an event"))?
                    .to_string();
                let rest: String = w.collect::<Vec<_>>().join(" ");
                let value = if rest.is_empty() {
                    None
                } else {
                    Some(parse_expr(&mut Tokens::new(&rest), ln)?)
                };
                out.push(SStmt::Emit(ev, value));
            }
            _ => {
                let (lhs, rhs) = line
                    .split_once('=')
                    .ok_or_else(|| SpecError::new(ln, format!("unparsable statement `{line}`")))?;
                let lhs = lhs.trim();
                let rhs = rhs.trim();
                if let Some(addr) = lhs.strip_prefix("mem[").and_then(|s| s.strip_suffix(']')) {
                    let addr = parse_expr(&mut Tokens::new(addr), ln)?;
                    let value = parse_expr(&mut Tokens::new(rhs), ln)?;
                    out.push(SStmt::MemWrite(addr, value));
                } else if let Some(addr) =
                    rhs.strip_prefix("mem[").and_then(|s| s.strip_suffix(']'))
                {
                    let addr = parse_expr(&mut Tokens::new(addr), ln)?;
                    out.push(SStmt::MemRead(lhs.to_string(), addr));
                } else {
                    let value = parse_expr(&mut Tokens::new(rhs), ln)?;
                    out.push(SStmt::Assign(lhs.to_string(), value));
                }
            }
        }
    }
}

/// Token stream over one expression.
struct Tokens<'a> {
    toks: Vec<&'a str>,
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(s: &'a str) -> Self {
        // Split parens into their own tokens.
        let mut toks = Vec::new();
        let mut start = None;
        for (i, c) in s.char_indices() {
            if c == '(' || c == ')' {
                if let Some(st) = start.take() {
                    toks.push(&s[st..i]);
                }
                toks.push(&s[i..i + c.len_utf8()]);
            } else if c.is_whitespace() {
                if let Some(st) = start.take() {
                    toks.push(&s[st..i]);
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(st) = start {
            toks.push(&s[st..]);
        }
        Tokens { toks, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let t = self.toks.get(self.pos).copied();
        self.pos += 1;
        t
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

fn parse_expr(t: &mut Tokens<'_>, ln: usize) -> Result<SExpr, SpecError> {
    let e = parse_expr_inner(t, ln)?;
    if !t.done() {
        return Err(SpecError::new(ln, "trailing tokens after expression"));
    }
    Ok(e)
}

fn parse_expr_inner(t: &mut Tokens<'_>, ln: usize) -> Result<SExpr, SpecError> {
    let tok = t
        .next()
        .ok_or_else(|| SpecError::new(ln, "expected an expression"))?;
    match tok {
        "(" => {
            let op = t
                .next()
                .ok_or_else(|| SpecError::new(ln, "expected an operator"))?;
            let un = match op {
                "not" => Some(UnOp::Not),
                "lnot" => Some(UnOp::LNot),
                "neg" => Some(UnOp::Neg),
                _ => None,
            };
            let e = if let Some(u) = un {
                let a = parse_expr_inner(t, ln)?;
                SExpr::Un(u, Box::new(a))
            } else {
                let bin = match op {
                    "+" => BinOp::Add,
                    "-" => BinOp::Sub,
                    "*" => BinOp::Mul,
                    "/" => BinOp::Div,
                    "%" => BinOp::Rem,
                    "&" | "and" => BinOp::And,
                    "|" | "or" => BinOp::Or,
                    "^" | "xor" => BinOp::Xor,
                    "<<" => BinOp::Shl,
                    ">>" => BinOp::Shr,
                    "==" => BinOp::Eq,
                    "!=" => BinOp::Ne,
                    "<" => BinOp::Lt,
                    "<=" => BinOp::Le,
                    ">" => BinOp::Gt,
                    ">=" => BinOp::Ge,
                    other => {
                        return Err(SpecError::new(ln, format!("unknown operator `{other}`")))
                    }
                };
                let a = parse_expr_inner(t, ln)?;
                let b = parse_expr_inner(t, ln)?;
                SExpr::Bin(bin, Box::new(a), Box::new(b))
            };
            match t.next() {
                Some(")") => Ok(e),
                _ => Err(SpecError::new(ln, "expected `)`")),
            }
        }
        ")" => Err(SpecError::new(ln, "unexpected `)`")),
        tok if tok.starts_with('$') => Ok(SExpr::EventValue(tok[1..].to_string())),
        tok => {
            if let Ok(i) = tok.parse::<i64>() {
                Ok(SExpr::Int(i))
            } else {
                Ok(SExpr::Var(tok.to_string()))
            }
        }
    }
}

struct ResolveEnv<'a> {
    vars: &'a HashMap<String, VarId>,
    events: &'a HashMap<String, (EventId, bool)>,
}

fn resolve_expr(e: &SExpr, env: &ResolveEnv<'_>, ln: usize) -> Result<Expr, SpecError> {
    Ok(match e {
        SExpr::Int(i) => Expr::Const(*i),
        SExpr::Var(v) => Expr::Var(
            *env.vars
                .get(v)
                .ok_or_else(|| SpecError::new(ln, format!("unknown variable `{v}`")))?,
        ),
        SExpr::EventValue(ev) => {
            let &(id, valued) = env
                .events
                .get(ev)
                .ok_or_else(|| SpecError::new(ln, format!("unknown event `{ev}`")))?;
            if !valued {
                return Err(SpecError::new(ln, format!("event `{ev}` carries no value")));
            }
            Expr::EventValue(id)
        }
        SExpr::Un(op, a) => Expr::un(*op, resolve_expr(a, env, ln)?),
        SExpr::Bin(op, a, b) => Expr::bin(
            *op,
            resolve_expr(a, env, ln)?,
            resolve_expr(b, env, ln)?,
        ),
    })
}

/// Lowers a structured statement tree into a basic-block CFG.
fn lower_body(body: &[SStmt], env: &ResolveEnv<'_>, ln: usize) -> Result<Cfg, SpecError> {
    // Blocks are built with placeholder terminators and patched.
    let mut blocks: Vec<BasicBlock> = vec![BasicBlock {
        stmts: Vec::new(),
        term: Terminator::Return,
    }];
    let entry = 0usize;
    let exit = lower_seq(body, entry, &mut blocks, env, ln)?;
    blocks[exit].term = Terminator::Return;
    let cfg = Cfg::new(blocks);
    cfg.validate()
        .map_err(|e| SpecError::new(ln, format!("invalid body: {e}")))?;
    Ok(cfg)
}

/// Lowers `stmts` starting in block `cur`; returns the block that
/// control falls out of.
fn lower_seq(
    stmts: &[SStmt],
    mut cur: usize,
    blocks: &mut Vec<BasicBlock>,
    env: &ResolveEnv<'_>,
    ln: usize,
) -> Result<usize, SpecError> {
    for s in stmts {
        match s {
            SStmt::Assign(v, e) => {
                let var = *env
                    .vars
                    .get(v)
                    .ok_or_else(|| SpecError::new(ln, format!("unknown variable `{v}`")))?;
                let expr = resolve_expr(e, env, ln)?;
                blocks[cur].stmts.push(Stmt::Assign { var, expr });
            }
            SStmt::Emit(ev, val) => {
                let &(event, valued) = env
                    .events
                    .get(ev)
                    .ok_or_else(|| SpecError::new(ln, format!("unknown event `{ev}`")))?;
                if valued != val.is_some() {
                    return Err(SpecError::new(
                        ln,
                        format!("emit of `{ev}` must {} a value", if valued { "carry" } else { "not carry" }),
                    ));
                }
                let value = val
                    .as_ref()
                    .map(|e| resolve_expr(e, env, ln))
                    .transpose()?;
                blocks[cur].stmts.push(Stmt::Emit { event, value });
            }
            SStmt::MemRead(v, addr) => {
                let var = *env
                    .vars
                    .get(v)
                    .ok_or_else(|| SpecError::new(ln, format!("unknown variable `{v}`")))?;
                let addr = resolve_expr(addr, env, ln)?;
                blocks[cur].stmts.push(Stmt::MemRead { var, addr });
            }
            SStmt::MemWrite(addr, value) => {
                let addr = resolve_expr(addr, env, ln)?;
                let value = resolve_expr(value, env, ln)?;
                blocks[cur].stmts.push(Stmt::MemWrite { addr, value });
            }
            SStmt::While(cond, body) => {
                let cond = resolve_expr(cond, env, ln)?;
                // cur -> head; head -(T)-> body… -> head; head -(F)-> join
                let head = push_block(blocks);
                blocks[cur].term = Terminator::Goto(BlockId(head as u32));
                let body_entry = push_block(blocks);
                let body_exit = lower_seq(body, body_entry, blocks, env, ln)?;
                blocks[body_exit].term = Terminator::Goto(BlockId(head as u32));
                let join = push_block(blocks);
                blocks[head].term = Terminator::Branch {
                    cond,
                    then_block: BlockId(body_entry as u32),
                    else_block: BlockId(join as u32),
                };
                cur = join;
            }
            SStmt::If(cond, then_s, else_s) => {
                let cond = resolve_expr(cond, env, ln)?;
                let then_entry = push_block(blocks);
                let then_exit = lower_seq(then_s, then_entry, blocks, env, ln)?;
                let else_entry = push_block(blocks);
                let else_exit = lower_seq(else_s, else_entry, blocks, env, ln)?;
                let join = push_block(blocks);
                blocks[cur].term = Terminator::Branch {
                    cond,
                    then_block: BlockId(then_entry as u32),
                    else_block: BlockId(else_entry as u32),
                };
                blocks[then_exit].term = Terminator::Goto(BlockId(join as u32));
                blocks[else_exit].term = Terminator::Goto(BlockId(join as u32));
                cur = join;
            }
        }
    }
    Ok(cur)
}

fn push_block(blocks: &mut Vec<BasicBlock>) -> usize {
    blocks.push(BasicBlock {
        stmts: Vec::new(),
        term: Terminator::Return,
    });
    blocks.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoSimConfig, CoSimulator};
    use cfsm::NullEnv;

    const BLINKER: &str = "\
system blinker
event TICK
event LEVEL value
process counter hw priority 2
  var n = 0
  state run
  transition run -> run on TICK
    n = (+ n 1)
    if (> n 3)
      n = 0
    end
    emit LEVEL n
  end
stimulus 100 TICK
stimulus 200 TICK
stimulus 300 TICK
stimulus 400 TICK
stimulus 500 TICK
";

    #[test]
    fn parses_and_co_estimates() {
        let soc = parse_system(BLINKER).expect("parses");
        assert_eq!(soc.name, "blinker");
        assert_eq!(soc.priorities, vec![2]);
        let mut sim = CoSimulator::new(soc, CoSimConfig::date2000_defaults()).expect("builds");
        let r = sim.run();
        assert_eq!(r.firings, 5);
        assert!(r.total_energy_j() > 0.0);
    }

    #[test]
    fn if_wraps_the_counter() {
        let soc = parse_system(BLINKER).expect("parses");
        let p = soc.network.process_by_name("counter").expect("exists");
        let machine = soc.network.cfsm(p);
        let mut rt = machine.spawn(soc.network.events().len());
        let tick = soc.network.event_by_name("TICK").expect("TICK");
        let mut emitted = Vec::new();
        for _ in 0..5 {
            rt.deliver(EventOccurrence::pure(tick));
            let fr = machine.try_fire(&mut rt, &mut NullEnv).expect("fires");
            emitted.extend(fr.execution.emitted.iter().map(|&(_, v)| v.expect("valued")));
        }
        // n wraps after exceeding 3: 1,2,3,0,1  (n=4 resets to 0).
        assert_eq!(emitted, vec![1, 2, 3, 0, 1]);
    }

    #[test]
    fn while_loops_lower_correctly() {
        let spec = "\
system looper
event GO value
event DONE value
process p sw
  var i = 0
  var acc = 0
  state s
  transition s -> s on GO
    i = $GO
    acc = 0
    while (> i 0)
      acc = (+ acc i)
      i = (- i 1)
    end
    emit DONE acc
  end
stimulus 10 GO 5
";
        let soc = parse_system(spec).expect("parses");
        let p = soc.network.process_by_name("p").expect("exists");
        let machine = soc.network.cfsm(p);
        let mut rt = machine.spawn(soc.network.events().len());
        let go = soc.network.event_by_name("GO").expect("GO");
        rt.deliver(EventOccurrence::valued(go, 5));
        let fr = machine.try_fire(&mut rt, &mut NullEnv).expect("fires");
        assert_eq!(fr.execution.emitted[0].1, Some(15)); // 5+4+3+2+1
    }

    #[test]
    fn memory_and_guards_parse() {
        let spec = "\
system memo
event GO value
process p sw
  var x = 0
  state s
  transition s -> s on GO when (> $GO 10)
    mem[(+ $GO 4)] = (* $GO 2)
    x = mem[(+ $GO 4)]
  end
stimulus 10 GO 20
";
        let soc = parse_system(spec).expect("parses");
        let trace = crate::capture_traces(&soc);
        assert_eq!(trace.firings.len(), 1);
        let accs = &trace.firings[0].execution.mem_accesses;
        assert_eq!(accs.len(), 2);
        assert_eq!(accs[0].addr, 24);
        assert_eq!(accs[0].value, 40);
        assert!(!accs[1].write);
    }

    #[test]
    fn guard_blocks_below_threshold() {
        let spec = "\
system guard
event GO value
process p hw
  var x = 0
  state s
  transition s -> s on GO when (> $GO 10)
    x = (+ x 1)
  end
stimulus 10 GO 5
stimulus 20 GO 50
";
        let soc = parse_system(spec).expect("parses");
        let trace = crate::capture_traces(&soc);
        assert_eq!(trace.firings.len(), 1, "only the value-50 stimulus fires");
    }

    #[test]
    fn error_lines_are_reported() {
        let missing_end = "system x\nevent GO\nprocess p hw\n  state s\n  transition s -> s on GO\n    emit GO\n";
        let err = parse_system(missing_end).expect_err("must fail");
        assert!(err.message.contains("unterminated"), "{err}");

        let bad_event = "system x\nevent GO\nprocess p hw\n  state s\n  transition s -> s on NOPE\n  end\n";
        let err = parse_system(bad_event).expect_err("must fail");
        assert!(err.message.contains("unknown event"), "{err}");
        assert_eq!(err.line, 5);

        let bad_expr = "system x\nevent GO\nprocess p hw\n  var v = 0\n  state s\n  transition s -> s on GO\n    v = (+ 1\n  end\n";
        let err = parse_system(bad_expr).expect_err("must fail");
        assert_eq!(err.line, 7);

        let pure_value = "system x\nevent GO\nstimulus 5 GO 3\n";
        let err = parse_system(pure_value).expect_err("must fail");
        assert!(err.message.contains("pure"), "{err}");
    }

    const POWERED: &str = "\
system powered
event GO
leakage 0.002 0.3 0.02
process worker hw priority 2
  var n = 0
  state s
  power dvfs low 0.8 0.5
  power clock_gate 400
  transition s -> s on GO
    n = (+ n 1)
  end
process helper sw priority 1
  var m = 0
  state s
  power power_gate 900 0.000005 25
  transition s -> s on GO
    m = (+ m 1)
  end
stimulus 10 GO
stimulus 5000 GO
";

    #[test]
    fn power_directives_build_a_policy() {
        use crate::powermgmt::{GateMode, PowerPolicy};
        let (soc, policy) = parse_system_with_power(POWERED).expect("parses");
        assert_eq!(policy.name, "powered");
        assert!(!policy.is_noop());
        assert_eq!(policy.leakage.default_leak_w, 2.0e-3);
        assert_eq!(policy.operating_points.len(), 1);
        assert_eq!(policy.operating_points[0].name, "low");
        let worker = policy
            .components
            .iter()
            .find(|(n, _)| n == "worker")
            .expect("worker entry");
        assert_eq!(worker.1.operating_point, Some(0));
        assert_eq!(worker.1.gating.as_ref().expect("gated").mode, GateMode::Clock);
        let helper = policy
            .components
            .iter()
            .find(|(n, _)| n == "helper")
            .expect("helper entry");
        let g = helper.1.gating.as_ref().expect("gated");
        assert_eq!(g.mode, GateMode::Power);
        assert_eq!(g.wake_latency_cycles, 25);
        // The policy runs end to end and reports power results.
        let config = CoSimConfig::date2000_defaults().with_power_policy(policy);
        let mut sim = CoSimulator::new(soc.clone(), config).expect("builds");
        let r = sim.run();
        r.verify_provenance().expect("provenance exact");
        assert!(r.power.expect("managed").leakage_j > 0.0);
        // parse_system accepts the same text, discarding the policy.
        let plain = parse_system(POWERED).expect("parses");
        assert_eq!(plain.name, soc.name);
        // A power-free spec yields the guaranteed-noop default.
        let (_, none) = parse_system_with_power(BLINKER).expect("parses");
        assert_eq!(none, PowerPolicy::none());
    }

    #[test]
    fn unknown_power_state_is_rejected() {
        let bad = "\
system x
event GO
process p hw
  state s
  power hibernate 100
  transition s -> s on GO
  end
stimulus 1 GO
";
        let err = parse_system_with_power(bad).expect_err("must fail");
        assert!(err.message.contains("unknown power state `hibernate`"), "{err}");
        assert_eq!(err.line, 5);

        let missing = "\
system x
event GO
process p hw
  state s
  power clock_gate
  transition s -> s on GO
  end
stimulus 1 GO
";
        let err = parse_system_with_power(missing).expect_err("must fail");
        assert!(err.message.contains("idle timeout"), "{err}");

        let redefined = "\
system x
event GO
process p hw
  state s
  power dvfs low 0.8 0.5
  power dvfs low 0.9 0.5
  transition s -> s on GO
  end
stimulus 1 GO
";
        let err = parse_system_with_power(redefined).expect_err("must fail");
        assert!(err.message.contains("redefined"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = "# a comment\nsystem c  # trailing\n\nevent GO\nprocess p hw\n  state s\n  transition s -> s on GO\n  end\nstimulus 1 GO\n";
        let soc = parse_system(spec).expect("parses");
        assert_eq!(soc.name, "c");
    }

    #[test]
    fn nested_control_flow_lowers() {
        let spec = "\
system nest
event GO value
event OUT value
process p sw
  var i = 0
  var odd = 0
  var even = 0
  state s
  transition s -> s on GO
    i = $GO
    while (> i 0)
      if (== (% i 2) 1)
        odd = (+ odd 1)
      else
        even = (+ even 1)
      end
      i = (- i 1)
    end
    emit OUT (- odd even)
  end
stimulus 10 GO 7
";
        let soc = parse_system(spec).expect("parses");
        let p = soc.network.process_by_name("p").expect("exists");
        let machine = soc.network.cfsm(p);
        let mut rt = machine.spawn(soc.network.events().len());
        let go = soc.network.event_by_name("GO").expect("GO");
        rt.deliver(EventOccurrence::valued(go, 7));
        let fr = machine.try_fire(&mut rt, &mut NullEnv).expect("fires");
        // 7,6,…,1 → 4 odd, 3 even → 1.
        assert_eq!(fr.execution.emitted[0].1, Some(1));
    }
}
