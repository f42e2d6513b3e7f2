//! Randomized (seeded, deterministic) tests: generated software must
//! agree with the behavioral CFSM interpreter on final state and
//! emissions, and per-(path, data) energy must be exactly repeatable
//! under the SPARClite model. Formerly property-based; now driven by
//! the in-repo deterministic PRNG so the suite builds offline.

use cfsm::{
    BinOp, BlockId, Cfg, CfgBuilder, Cfsm, EventId, Expr, NullEnv, Stmt, Terminator, TransitionId,
    VarId,
};
use detrand::Rng;
use iss::{PowerModel, SwCfsm};

fn machine_with(body: Cfg, n_vars: usize) -> Cfsm {
    let mut b = Cfsm::builder("m");
    let s = b.state("s");
    for v in 0..n_vars {
        b.var(format!("v{v}"), 0);
    }
    b.transition(s, vec![EventId(0)], None, body, s);
    b.finish().expect("valid machine")
}

/// Compiled code and interpreter agree on a loop whose bound and body
/// arithmetic come from random data.
#[test]
fn sw_matches_interpreter_on_loops() {
    let mut rng = Rng::new(0x1550_0001);
    for _ in 0..48 {
        let n = rng.i64_in(0, 60);
        let k = rng.i64_in(1, 9);
        let c = rng.i64_in(-50, 50);
        // while v0 > 0 { v1 = v1 * k + c; v0 = v0 - 1 }  then emit v1
        let v0 = VarId(0);
        let v1 = VarId(1);
        let mut cb = CfgBuilder::new();
        cb.block(
            vec![],
            Terminator::Branch {
                cond: Expr::gt(Expr::Var(v0), Expr::Const(0)),
                then_block: BlockId(1),
                else_block: BlockId(2),
            },
        );
        cb.block(
            vec![
                Stmt::Assign {
                    var: v1,
                    expr: Expr::add(
                        Expr::bin(BinOp::Mul, Expr::Var(v1), Expr::Const(k)),
                        Expr::Const(c),
                    ),
                },
                Stmt::Assign { var: v0, expr: Expr::sub(Expr::Var(v0), Expr::Const(1)) },
            ],
            Terminator::Goto(BlockId(0)),
        );
        cb.block(
            vec![Stmt::Emit { event: EventId(1), value: Some(Expr::Var(v1)) }],
            Terminator::Return,
        );
        let body = cb.finish().expect("valid cfg");

        let mut vars = [n, 1i64];
        let exec = body.execute(&mut vars, &mut NullEnv);

        let m = machine_with(body, 2);
        let mut sw = SwCfsm::new(&m, PowerModel::sparclite(), &|_| true).expect("compiles");
        let run = sw.run_transition(TransitionId(0), &[n, 1], &|_| 0, &[]);
        assert_eq!(&run.vars_out, &vars.to_vec(), "n={n} k={k} c={c}");
        assert_eq!(&run.emitted, &exec.emitted, "n={n} k={k} c={c}");
    }
}

/// Comparison and bitwise expressions agree with the interpreter.
#[test]
fn sw_matches_interpreter_on_expressions() {
    let mut rng = Rng::new(0x1550_0002);
    for _ in 0..48 {
        let a = rng.i64_in(-10_000, 10_000);
        let b = rng.i64_in(-10_000, 10_000);
        let v0 = VarId(0);
        let v1 = VarId(1);
        let v2 = VarId(2);
        let body = Cfg::straight_line(vec![
            Stmt::Assign { var: v2, expr: Expr::lt(Expr::Var(v0), Expr::Var(v1)) },
            Stmt::Assign {
                var: v2,
                expr: Expr::add(
                    Expr::Var(v2),
                    Expr::bin(
                        BinOp::Xor,
                        Expr::Var(v0),
                        Expr::bin(BinOp::And, Expr::Var(v1), Expr::Const(0xFF)),
                    ),
                ),
            },
            Stmt::Assign { var: v0, expr: Expr::bin(BinOp::Ge, Expr::Var(v2), Expr::Const(0)) },
        ]);
        let mut vars = [a, b, 0i64];
        body.execute(&mut vars, &mut NullEnv);
        let m = machine_with(body, 3);
        let mut sw = SwCfsm::new(&m, PowerModel::sparclite(), &|_| true).expect("compiles");
        let run = sw.run_transition(TransitionId(0), &[a, b, 0], &|_| 0, &[]);
        assert_eq!(run.vars_out, vars.to_vec(), "a={a} b={b}");
    }
}

/// SPARClite energy for the same (path, data) is exactly repeatable
/// across activations — the invariant that makes caching lossless.
#[test]
fn sparclite_energy_repeatable() {
    let mut rng = Rng::new(0x1550_0003);
    for _ in 0..48 {
        let x = rng.i64_in(-1000, 1000);
        let v0 = VarId(0);
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: v0,
            expr: Expr::add(Expr::Var(v0), Expr::Const(3)),
        }]);
        let m = machine_with(body, 1);
        let mut sw = SwCfsm::new(&m, PowerModel::sparclite(), &|_| true).expect("compiles");
        let r1 = sw.run_transition(TransitionId(0), &[x], &|_| 0, &[]);
        let r2 = sw.run_transition(TransitionId(0), &[x + 7], &|_| 0, &[]);
        let r3 = sw.run_transition(TransitionId(0), &[x], &|_| 0, &[]);
        assert_eq!(r1.energy_j, r2.energy_j, "data independence (x={x})");
        assert_eq!(r1.energy_j, r3.energy_j, "repeatability (x={x})");
        assert_eq!(r1.cycles, r3.cycles, "x={x}");
    }
}

/// Balanced save/restore nesting always returns to window 0, keeps
/// globals intact, and deep nesting costs strictly more (spill traps).
#[test]
fn register_window_nesting() {
    use iss::isa::{AluOp, Instr, Operand, Reg};
    let mut rng = Rng::new(0x1550_0004);
    for _ in 0..24 {
        let depth = rng.usize_in(1, 14);
        let mut code = vec![Instr::Set { rd: Reg(1), imm: 77 }];
        for _ in 0..depth {
            code.push(Instr::Save);
            code.push(Instr::Alu {
                op: AluOp::Add,
                rd: Reg(16),
                rs1: Reg(16),
                rs2: Operand::Imm(1),
                set_cc: false,
            });
        }
        for _ in 0..depth {
            code.push(Instr::Restore);
        }
        code.push(Instr::Halt);
        let mut cpu = iss::Cpu::new(PowerModel::sparclite());
        let out = cpu.run(&code, 0, 0, &[]);
        assert_eq!(cpu.cwp(), 0, "balanced nesting returns home (depth={depth})");
        assert_eq!(cpu.reg(Reg(1)), 77, "globals survive (depth={depth})");
        assert!(out.cycles > 3 * depth as u64, "depth={depth}");
    }
}

/// Division and remainder by zero match the behavioral convention.
#[test]
fn sw_division_semantics() {
    let mut rng = Rng::new(0x1550_0005);
    for _ in 0..48 {
        let a = rng.i64_in(-100, 100);
        let b = rng.i64_in(-5, 5);
        let body = Cfg::straight_line(vec![
            Stmt::Assign {
                var: VarId(2),
                expr: Expr::bin(BinOp::Div, Expr::Var(VarId(0)), Expr::Var(VarId(1))),
            },
            Stmt::Assign {
                var: VarId(0),
                expr: Expr::bin(BinOp::Rem, Expr::Var(VarId(0)), Expr::Var(VarId(1))),
            },
        ]);
        let mut vars = [a, b, 0i64];
        body.execute(&mut vars, &mut NullEnv);
        let m = machine_with(body, 3);
        let mut sw = SwCfsm::new(&m, PowerModel::sparclite(), &|_| true).expect("compiles");
        let run = sw.run_transition(TransitionId(0), &[a, b, 0], &|_| 0, &[]);
        assert_eq!(run.vars_out, vars.to_vec(), "a={a} b={b}");
    }
}
