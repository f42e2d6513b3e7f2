//! Cross-engine validation: the behavioral interpreter, the gate-level
//! hardware, and the instruction-set simulator must agree on *function*
//! for the same CFSM — three independently implemented engines, one
//! semantics. This is the property the co-estimation master's
//! correctness rests on.

use cfsm::{
    BlockId, CfgBuilder, Cfsm, EventId, Expr, NullEnv, Stmt, Terminator, TransitionId, VarId,
};
use gatesim::{HwCfsm, PowerConfig, SynthConfig};
use iss::{PowerModel, SwCfsm};

/// A machine mixing arithmetic, comparisons, a data-dependent loop and
/// event emission — the constructs the example systems rely on.
fn stress_machine() -> Cfsm {
    let n = VarId(0);
    let acc = VarId(1);
    let flag = VarId(2);
    let mut cb = CfgBuilder::new();
    // entry: flag = (n > 10); acc = acc ^ 0x3C
    cb.block(
        vec![
            Stmt::Assign {
                var: flag,
                expr: Expr::gt(Expr::Var(n), Expr::Const(10)),
            },
            Stmt::Assign {
                var: acc,
                expr: Expr::bin(cfsm::BinOp::Xor, Expr::Var(acc), Expr::Const(0x3C)),
            },
        ],
        Terminator::Goto(BlockId(1)),
    );
    // loop: while n > 0 { acc = (acc*3 + n) & 0x7FF; n -= 2 }
    cb.block(
        vec![],
        Terminator::Branch {
            cond: Expr::gt(Expr::Var(n), Expr::Const(0)),
            then_block: BlockId(2),
            else_block: BlockId(3),
        },
    );
    cb.block(
        vec![
            Stmt::Assign {
                var: acc,
                expr: Expr::bin(
                    cfsm::BinOp::And,
                    Expr::add(
                        Expr::bin(cfsm::BinOp::Mul, Expr::Var(acc), Expr::Const(3)),
                        Expr::Var(n),
                    ),
                    Expr::Const(0x7FF),
                ),
            },
            Stmt::Assign {
                var: n,
                expr: Expr::sub(Expr::Var(n), Expr::Const(2)),
            },
        ],
        Terminator::Goto(BlockId(1)),
    );
    // exit: emit RESULT(acc + flag)
    cb.block(
        vec![Stmt::Emit {
            event: EventId(1),
            value: Some(Expr::add(Expr::Var(acc), Expr::Var(flag))),
        }],
        Terminator::Return,
    );
    let body = cb.finish().expect("valid cfg");
    let mut b = Cfsm::builder("stress");
    let s = b.state("s");
    b.var("n", 0);
    b.var("acc", 0);
    b.var("flag", 0);
    b.transition(s, vec![EventId(0)], None, body, s);
    b.finish().expect("valid machine")
}

#[test]
fn three_engines_agree_on_function() {
    let machine = stress_machine();
    let mut hw = HwCfsm::synthesize(
        &machine,
        &SynthConfig::with_width(16),
        &PowerConfig::date2000_defaults(),
    )
    .expect("synthesizable");
    let mut sw = SwCfsm::new(&machine, PowerModel::sparclite(), &|e| e == EventId(1))
        .expect("compiles");

    for n in [0i64, 1, 2, 7, 10, 11, 20, 33] {
        for acc in [0i64, 5, 100] {
            let vars_in = [n, acc, 0];
            // Behavioral reference.
            let mut vars = vars_in;
            let exec = machine.transitions()[0]
                .body
                .execute(&mut vars, &mut NullEnv);
            // Gate level.
            let hw_run = hw.transition_mut(TransitionId(0)).run(&vars_in, &|_| 0, &[]);
            assert_eq!(hw_run.vars_out, vars.to_vec(), "HW vars for n={n} acc={acc}");
            assert_eq!(hw_run.emitted, exec.emitted, "HW emissions for n={n}");
            // ISS.
            let sw_run = sw.run_transition(TransitionId(0), &vars_in, &|_| 0, &[]);
            assert_eq!(sw_run.vars_out, vars.to_vec(), "SW vars for n={n} acc={acc}");
            assert_eq!(sw_run.emitted, exec.emitted, "SW emissions for n={n}");
        }
    }
}

#[test]
fn hw_cycles_track_path_length_and_sw_cycles_track_instruction_count() {
    let machine = stress_machine();
    let mut hw = HwCfsm::synthesize(
        &machine,
        &SynthConfig::with_width(16),
        &PowerConfig::date2000_defaults(),
    )
    .expect("synthesizable");
    let mut sw =
        SwCfsm::new(&machine, PowerModel::sparclite(), &|_| true).expect("compiles");
    let mut prev_hw = 0;
    let mut prev_sw = 0;
    for n in [2i64, 8, 16, 32] {
        let hw_run = hw.transition_mut(TransitionId(0)).run(&[n, 0, 0], &|_| 0, &[]);
        let sw_run = sw.run_transition(TransitionId(0), &[n, 0, 0], &|_| 0, &[]);
        assert!(hw_run.cycles > prev_hw, "HW cycles grow with loop bound");
        assert!(sw_run.cycles > prev_sw, "SW cycles grow with loop bound");
        prev_hw = hw_run.cycles;
        prev_sw = sw_run.cycles;
        // The same work takes far fewer cycles in dedicated hardware.
        assert!(
            sw_run.cycles > hw_run.cycles,
            "SW {} vs HW {} cycles",
            sw_run.cycles,
            hw_run.cycles
        );
    }
}

#[test]
fn macromodel_estimate_bounds_detailed_sw_cost() {
    // The additive parameter-file estimate over-approximates the
    // optimized generated code for every input — conservatism is an
    // invariant, not a coincidence of one workload.
    let machine = stress_machine();
    let power = PowerModel::sparclite();
    let params = co_estimation::characterize_sw(&power);
    let mut sw = SwCfsm::new(&machine, power, &|_| true).expect("compiles");
    for n in [0i64, 4, 12, 30] {
        let mut vars = [n, 7, 0];
        let exec = machine.transitions()[0]
            .body
            .execute(&mut vars, &mut NullEnv);
        let (mm_cycles, mm_energy) = params.estimate(&exec.macro_ops);
        let run = sw.run_transition(TransitionId(0), &[n, 7, 0], &|_| 0, &[]);
        assert!(
            mm_energy > run.energy_j,
            "n={n}: macromodel {mm_energy:.3e} vs ISS {:.3e}",
            run.energy_j
        );
        assert!(
            mm_cycles > run.cycles,
            "n={n}: macromodel {mm_cycles} vs ISS {} cycles",
            run.cycles
        );
    }
}

#[test]
fn parameter_file_round_trips_through_text() {
    let pf = co_estimation::characterize_sw(&PowerModel::sparclite());
    let text = pf.to_text();
    let parsed = co_estimation::ParameterFile::from_text(&text).expect("parses");
    for &op in cfsm::ALL_MACRO_OPS {
        let a = pf.cost(op).expect("original");
        let b = parsed.cost(op).expect("parsed");
        assert_eq!(a.time_cycles, b.time_cycles, "{op}");
        assert_eq!(a.size_bytes, b.size_bytes, "{op}");
    }
}

#[test]
fn hw_parameter_file_matches_the_committed_golden() {
    // Pins every characterized hardware entry to its committed text,
    // which renders each energy in its shortest round-tripping form, so
    // a change to the characterization flow cannot move any value by
    // even one ulp.
    let pf = co_estimation::characterize_hw(
        &SynthConfig::default(),
        &PowerConfig::date2000_defaults(),
    );
    assert_eq!(pf.to_text(), include_str!("goldens/hw_parameter_file.txt"));
}
