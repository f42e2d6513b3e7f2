//! The CFSM executor against the tree walk it replaced.
//!
//! `Cfg::execute` appends each visited block's macro-op run, computed
//! once when the graph is built, and sizes its vectors from the body's
//! previous execution. `reference_execute` below is the interpreter it
//! replaced, kept here as the oracle: it walks every statement's
//! expression tree for its macro-ops (`Expr::visit_ops`) on every visit,
//! evaluates with `Expr::eval`, and hashes the path with the same
//! SipHash sequence.
//!
//! Every firing of the zero-delay behavioral simulation
//! (`capture_traces`) of the reference systems and of the generated
//! corpus (`CORPUS_N`, the systems `golden_reports` pins) is run again
//! through both, from the record's input variables and event values
//! with shared-memory reads served in recorded order; every `Execution`
//! field and the final variables must agree. Edge bodies cover what the
//! systems may not reach.

mod corpus;

use cfsm::{
    BasicBlock, BinOp, BlockId, Cfg, EventId, ExecEnv, Execution, Expr, MacroOp, MemAccess, PathId,
    ProcId, Stmt, Terminator, UnOp, VarId,
};
use co_estimation::{capture_traces, FiringRecord, SocDescription};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use systems::{automotive, producer_consumer, tcpip};

/// The executor as it was before per-block macro-op runs.
fn reference_execute(cfg: &Cfg, vars: &mut [i64], env: &mut dyn ExecEnv) -> Execution {
    let mut trace = Vec::new();
    let mut emitted = Vec::new();
    let mut macro_ops = Vec::new();
    let mut mem_accesses = Vec::new();
    let mut hasher = DefaultHasher::new();
    let mut cur = BlockId(0);
    loop {
        assert!(trace.len() < 10_000_000, "runaway reference loop");
        trace.push(cur);
        cur.0.hash(&mut hasher);
        let block = cfg.block(cur);
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { var, expr } => {
                    expr.visit_ops(&mut |k| macro_ops.push(MacroOp::from_op(k)));
                    let v = expr.eval(vars, &|e| env.event_value(e));
                    vars[var.0 as usize] = v;
                    macro_ops.push(MacroOp::Avv);
                }
                Stmt::Emit { event, value } => {
                    let v = value.as_ref().map(|e| {
                        e.visit_ops(&mut |k| macro_ops.push(MacroOp::from_op(k)));
                        e.eval(vars, &|ev| env.event_value(ev))
                    });
                    emitted.push((*event, v));
                    macro_ops.push(MacroOp::Aemit);
                }
                Stmt::MemRead { var, addr } => {
                    addr.visit_ops(&mut |k| macro_ops.push(MacroOp::from_op(k)));
                    let a = addr.eval(vars, &|e| env.event_value(e)) as u64;
                    let v = env.mem_read(a);
                    vars[var.0 as usize] = v;
                    mem_accesses.push(MemAccess {
                        addr: a,
                        write: false,
                        value: v,
                    });
                    macro_ops.push(MacroOp::MemRead);
                }
                Stmt::MemWrite { addr, value } => {
                    addr.visit_ops(&mut |k| macro_ops.push(MacroOp::from_op(k)));
                    value.visit_ops(&mut |k| macro_ops.push(MacroOp::from_op(k)));
                    let a = addr.eval(vars, &|e| env.event_value(e)) as u64;
                    let v = value.eval(vars, &|e| env.event_value(e));
                    env.mem_write(a, v);
                    mem_accesses.push(MemAccess {
                        addr: a,
                        write: true,
                        value: v,
                    });
                    macro_ops.push(MacroOp::MemWrite);
                }
            }
        }
        match &block.term {
            Terminator::Return => break,
            Terminator::Goto(t) => cur = *t,
            Terminator::Branch {
                cond,
                then_block,
                else_block,
            } => {
                cond.visit_ops(&mut |k| macro_ops.push(MacroOp::from_op(k)));
                let taken = cond.eval(vars, &|e| env.event_value(e)) != 0;
                macro_ops.push(if taken {
                    MacroOp::TivarT
                } else {
                    MacroOp::TivarF
                });
                taken.hash(&mut hasher);
                cur = if taken { *then_block } else { *else_block };
            }
        }
    }
    Execution {
        trace,
        path: PathId(hasher.finish()),
        emitted,
        macro_ops,
        mem_accesses,
    }
}

/// A recorded firing's environment: its visible event values, and its
/// shared-memory reads served in recorded order.
struct Replay<'a> {
    events: &'a HashMap<EventId, i64>,
    reads: std::vec::IntoIter<i64>,
}

impl<'a> Replay<'a> {
    fn new(rec: &'a FiringRecord) -> Self {
        Replay {
            events: &rec.event_values,
            reads: rec.execution.read_values().into_iter(),
        }
    }
}

impl ExecEnv for Replay<'_> {
    fn event_value(&self, event: EventId) -> i64 {
        self.events.get(&event).copied().unwrap_or(0)
    }
    fn mem_read(&mut self, _addr: u64) -> i64 {
        self.reads.next().expect("no more reads than recorded")
    }
    fn mem_write(&mut self, _addr: u64, _value: i64) {}
}

/// Runs every behavioral firing of `soc` through both executors and
/// returns the number checked.
fn check_system(soc: &SocDescription) -> usize {
    let trace = capture_traces(soc);
    // The variables each process's next firing must start from.
    let mut next_vars_in: HashMap<ProcId, Vec<i64>> = HashMap::new();
    for (i, rec) in trace.firings.iter().enumerate() {
        let body = &soc.network.cfsm(rec.proc).transition(rec.transition).body;
        let mut want_vars = rec.vars_in.clone();
        let want = reference_execute(body, &mut want_vars, &mut Replay::new(rec));
        let mut vars = rec.vars_in.clone();
        let got = body.execute(&mut vars, &mut Replay::new(rec));
        let what = format!(
            "{} firing {i} ({:?} {:?})",
            soc.name, rec.proc, rec.transition
        );
        assert_eq!(rec.execution, want, "{what}: recorded execution");
        assert_eq!(got, want, "{what}: execution");
        assert_eq!(vars, want_vars, "{what}: final variables");
        if let Some(expected) = next_vars_in.insert(rec.proc, want_vars) {
            assert_eq!(rec.vars_in, expected, "{what}: variables in");
        }
    }
    trace.firings.len()
}

#[test]
fn reference_systems_execute_as_the_tree_walk() {
    let systems = [
        tcpip::build(&tcpip::TcpIpParams {
            num_packets: 8,
            len_range: (8, 24),
            pkt_period: 4_000,
            seed: 11,
        }),
        tcpip::build(&tcpip::TcpIpParams::table_defaults()),
        tcpip::build(&tcpip::TcpIpParams::fig7_defaults()),
        producer_consumer::build(&producer_consumer::ProducerConsumerParams {
            num_pkts: 5,
            pkt_bytes: 24,
            start_period: 600,
            tick_period: 150,
            num_starts: 25,
        }),
        producer_consumer::build(&producer_consumer::ProducerConsumerParams::fig1_defaults()),
        automotive::build(&automotive::AutomotiveParams {
            num_samples: 6,
            sample_period: 1_500,
            pulse_period: 200,
            target_speed: 25,
        }),
    ];
    for soc in systems {
        let soc = soc.expect("valid params");
        assert!(check_system(&soc) > 0, "{} fired nothing", soc.name);
    }
}

#[test]
fn generated_corpus_executes_as_the_tree_walk() {
    let firings: usize = corpus::live_hw_systems().iter().map(check_system).sum();
    assert!(firings > 0);
}

/// Event values and a sparse memory, for the edge bodies.
#[derive(Clone, Default)]
struct MemEnv {
    events: HashMap<EventId, i64>,
    mem: HashMap<u64, i64>,
}

impl ExecEnv for MemEnv {
    fn event_value(&self, event: EventId) -> i64 {
        self.events.get(&event).copied().unwrap_or(0)
    }
    fn mem_read(&mut self, addr: u64) -> i64 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }
    fn mem_write(&mut self, addr: u64, value: i64) {
        self.mem.insert(addr, value);
    }
}

/// Runs `cfg` through both executors from equal inputs, checks that
/// they agree on everything, and returns the final variables and the
/// execution.
fn agree(cfg: &Cfg, vars: &[i64], env: &MemEnv) -> (Vec<i64>, Execution) {
    let (mut want_vars, mut want_env) = (vars.to_vec(), env.clone());
    let want = reference_execute(cfg, &mut want_vars, &mut want_env);
    let (mut got_vars, mut got_env) = (vars.to_vec(), env.clone());
    let got = cfg.execute(&mut got_vars, &mut got_env);
    assert_eq!(got, want);
    assert_eq!(got_vars, want_vars);
    assert_eq!(got_env.mem, want_env.mem);
    (got_vars, got)
}

fn assign(var: u32, expr: Expr) -> Stmt {
    Stmt::Assign {
        var: VarId(var),
        expr,
    }
}

fn var(v: u32) -> Expr {
    Expr::Var(VarId(v))
}

#[test]
fn a_lone_return_executes_as_the_tree_walk() {
    let cfg = Cfg::new(vec![BasicBlock {
        stmts: vec![],
        term: Terminator::Return,
    }]);
    let (_, exec) = agree(&cfg, &[], &MemEnv::default());
    assert_eq!(exec.trace, vec![BlockId(0)]);
    assert!(exec.macro_ops.is_empty());
}

#[test]
fn a_branch_with_both_arms_on_one_block_still_records_its_outcome() {
    let cfg = Cfg::new(vec![
        BasicBlock {
            stmts: vec![assign(1, Expr::add(var(0), Expr::Const(1)))],
            term: Terminator::Branch {
                cond: Expr::un(UnOp::LNot, var(0)),
                then_block: BlockId(1),
                else_block: BlockId(1),
            },
        },
        BasicBlock {
            stmts: vec![Stmt::Emit {
                event: EventId(0),
                value: Some(var(1)),
            }],
            term: Terminator::Return,
        },
    ]);
    let (_, taken) = agree(&cfg, &[0, 0], &MemEnv::default());
    let (_, not_taken) = agree(&cfg, &[1, 0], &MemEnv::default());
    assert_eq!(taken.trace, not_taken.trace);
    assert_ne!(taken.path, not_taken.path);
    assert!(taken.macro_ops.contains(&MacroOp::TivarT));
    assert!(not_taken.macro_ops.contains(&MacroOp::TivarF));
}

/// `while v0 > 0 { mem[v0 * 8] := v1 ^ v0; v2 := mem[v0 * 8 - 8];
/// v1 := v1 + v2; emit(E0, v1); v0 := v0 - 1 }`, so all four execution
/// vectors grow with the trip count.
fn counted_loop() -> Cfg {
    let slot = |off: i64| {
        Expr::sub(
            Expr::bin(BinOp::Mul, var(0), Expr::Const(8)),
            Expr::Const(off),
        )
    };
    Cfg::new(vec![
        BasicBlock {
            stmts: vec![],
            term: Terminator::Branch {
                cond: Expr::gt(var(0), Expr::Const(0)),
                then_block: BlockId(1),
                else_block: BlockId(2),
            },
        },
        BasicBlock {
            stmts: vec![
                Stmt::MemWrite {
                    addr: slot(0),
                    value: Expr::bin(BinOp::Xor, var(1), var(0)),
                },
                Stmt::MemRead {
                    var: VarId(2),
                    addr: slot(8),
                },
                assign(1, Expr::add(var(1), var(2))),
                Stmt::Emit {
                    event: EventId(0),
                    value: Some(var(1)),
                },
                assign(0, Expr::sub(var(0), Expr::Const(1))),
            ],
            term: Terminator::Goto(BlockId(0)),
        },
        BasicBlock {
            stmts: vec![],
            term: Terminator::Return,
        },
    ])
}

#[test]
fn loops_longer_then_shorter_than_the_previous_execution_agree() {
    let cfg = counted_loop();
    let twin = cfg.clone();
    let mut env = MemEnv::default();
    env.mem.insert(0, 3);
    // Clones share the previous execution's lengths: alternate them.
    for (i, n) in [3i64, 200, 2, 0, 1, 500, 7, 0].into_iter().enumerate() {
        let body = if i % 2 == 0 { &cfg } else { &twin };
        let (vars, exec) = agree(body, &[n, 1, 0], &env);
        assert_eq!(vars[0], 0);
        assert_eq!(exec.trace.len(), 2 * n as usize + 2);
        assert_eq!(exec.emitted.len(), n as usize);
        assert_eq!(exec.mem_accesses.len(), 2 * n as usize);
    }
}

#[test]
fn arithmetic_edge_cases_agree() {
    let cases = [
        (Expr::bin(BinOp::Div, var(0), Expr::Const(0)), 0),
        (Expr::bin(BinOp::Rem, var(0), Expr::Const(0)), 0),
        (
            Expr::bin(BinOp::Div, Expr::Const(i64::MIN), Expr::Const(-1)),
            i64::MIN,
        ),
        (
            Expr::bin(BinOp::Rem, Expr::Const(i64::MIN), Expr::Const(-1)),
            0,
        ),
        (Expr::bin(BinOp::Shl, Expr::Const(3), Expr::Const(64)), 3),
        (Expr::bin(BinOp::Shl, Expr::Const(3), Expr::Const(65)), 6),
        (
            Expr::bin(BinOp::Shr, Expr::Const(-256), Expr::Const(68)),
            -16,
        ),
        (
            Expr::bin(BinOp::Shl, Expr::Const(1), Expr::Const(-1)),
            i64::MIN,
        ),
        (
            Expr::bin(BinOp::Shr, Expr::Const(i64::MIN), Expr::Const(-1)),
            -1,
        ),
        (Expr::un(UnOp::Neg, Expr::Const(i64::MIN)), i64::MIN),
    ];
    let n = cases.len();
    let stmts = cases
        .iter()
        .enumerate()
        .map(|(i, (e, _))| assign(i as u32 + 1, e.clone()))
        .collect();
    let cfg = Cfg::straight_line(stmts);
    let mut vars = vec![0; n + 1];
    vars[0] = 42;
    let (out, exec) = agree(&cfg, &vars, &MemEnv::default());
    for (i, (e, want)) in cases.iter().enumerate() {
        assert_eq!(out[i + 1], *want, "{e:?}");
    }
    assert_eq!(
        exec.macro_ops
            .iter()
            .filter(|&&op| op == MacroOp::Avv)
            .count(),
        n
    );
}

#[test]
fn equal_blocks_make_equal_graphs_after_either_executes() {
    let a = counted_loop();
    let b = counted_loop();
    agree(&a, &[9, 1, 0], &MemEnv::default());
    let hash = |cfg: &Cfg| {
        let mut h = DefaultHasher::new();
        cfg.hash(&mut h);
        h.finish()
    };
    let blocks_hash = {
        let mut h = DefaultHasher::new();
        a.blocks().to_vec().hash(&mut h);
        h.finish()
    };
    assert_eq!(a, b);
    assert_eq!(hash(&a), hash(&b));
    assert_eq!(hash(&a), blocks_hash);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(
        format!("{a:?}"),
        format!("Cfg {{ blocks: {:?} }}", a.blocks())
    );
    assert_ne!(a, Cfg::empty());
}
