//! Control-flow graphs for transition bodies.
//!
//! Each CFSM transition executes an atomic *reaction* described as a
//! control-flow graph of basic blocks over the process's local variables.
//! Loops are expressed as back-edges, so a single transition can perform a
//! data-dependent amount of computation — exactly the property that makes
//! power co-estimation necessary (the `consumer` of Fig. 1 runs a loop whose
//! bound is a received TIME difference).

use crate::event::EventId;
use crate::expr::Expr;
use crate::expr::VarId;
use crate::macro_op::MacroOp;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of a basic block inside a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// A straight-line statement (a POLIS macro-operation or a sequence of
/// them).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `var := expr` — an arithmetic computation followed by an assignment
    /// (macro-ops: one per operator in `expr`, plus `AVV`).
    Assign {
        /// Destination variable.
        var: VarId,
        /// Right-hand side.
        expr: Expr,
    },
    /// `emit(event[, value])` — event emission (macro-op `AEMIT`, plus the
    /// operators of `value`).
    Emit {
        /// Event to emit.
        event: EventId,
        /// Optional carried value.
        value: Option<Expr>,
    },
    /// A memory read issued to the system bus / cache hierarchy:
    /// `var := mem[addr_expr]`. The functional value is supplied by the
    /// enclosing co-simulation (shared memory); behaviorally it reads the
    /// process-local shadow provided by the interpreter environment.
    MemRead {
        /// Destination variable.
        var: VarId,
        /// Byte address expression.
        addr: Expr,
    },
    /// A memory write issued to the system bus: `mem[addr_expr] := expr`.
    MemWrite {
        /// Byte address expression.
        addr: Expr,
        /// Value to store.
        value: Expr,
    },
}

/// How a basic block transfers control.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch on `cond != 0` (macro-ops `TIVART`/`TIVARF` for the
    /// taken / fall-through outcome).
    Branch {
        /// Branch condition.
        cond: Expr,
        /// Successor when `cond != 0`.
        then_block: BlockId,
        /// Successor when `cond == 0`.
        else_block: BlockId,
    },
    /// End of the reaction.
    Return,
}

/// A basic block: straight-line statements plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BasicBlock {
    /// The statements, in execution order.
    pub stmts: Vec<Stmt>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

/// A control-flow graph; block 0 is the entry.
///
/// Equality, hashing and `Debug` see the blocks alone: the interpreter's
/// derived state (see [`Cfg::execute`]) is not part of the graph.
#[derive(Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// Derived from `blocks` by [`Cfg::new`]; clones share it.
    plan: Arc<ExecPlan>,
}

impl PartialEq for Cfg {
    fn eq(&self, other: &Self) -> bool {
        self.blocks == other.blocks
    }
}

impl Eq for Cfg {}

impl Hash for Cfg {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.blocks.hash(state);
    }
}

impl std::fmt::Debug for Cfg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cfg").field("blocks", &self.blocks).finish()
    }
}

/// What [`Cfg::execute`] needs besides the blocks: each block's static
/// macro-op run, and the vector lengths of the body's previous execution.
struct ExecPlan {
    /// Per block, the macro-ops every visit pushes, in order: each
    /// statement's operators and its AVV/AEMIT/MEMRD/MEMWR marker, then
    /// the branch condition's operators. Only TIVART/TIVARF depends on
    /// the data.
    runs: Vec<Box<[MacroOp]>>,
    /// Lengths of `trace`, `emitted`, `macro_ops` and `mem_accesses` of
    /// the previous execution, the next one's initial capacities. Relaxed:
    /// they publish no other data, and a stale value only sizes a vector.
    last_lens: [AtomicUsize; 4],
}

impl ExecPlan {
    fn new(blocks: &[BasicBlock]) -> Self {
        ExecPlan {
            runs: blocks.iter().map(static_run).collect(),
            last_lens: Default::default(),
        }
    }

    fn last_lens(&self) -> [usize; 4] {
        self.last_lens
            .each_ref()
            .map(|len| len.load(Ordering::Relaxed))
    }

    fn record_lens(&self, lens: [usize; 4]) {
        for (slot, len) in self.last_lens.iter().zip(lens) {
            // Skip unchanged lengths so that workers firing the same
            // body do not keep writing one shared cache line.
            if slot.load(Ordering::Relaxed) != len {
                slot.store(len, Ordering::Relaxed);
            }
        }
    }
}

/// The macro-ops a visit of `block` pushes whatever the data (see
/// [`ExecPlan::runs`]).
fn static_run(block: &BasicBlock) -> Box<[MacroOp]> {
    fn push_ops(run: &mut Vec<MacroOp>, e: &Expr) {
        e.visit_ops(&mut |k| run.push(MacroOp::from_op(k)));
    }
    let mut run = Vec::new();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Assign { expr, .. } => {
                push_ops(&mut run, expr);
                run.push(MacroOp::Avv);
            }
            Stmt::Emit { value, .. } => {
                if let Some(e) = value {
                    push_ops(&mut run, e);
                }
                run.push(MacroOp::Aemit);
            }
            Stmt::MemRead { addr, .. } => {
                push_ops(&mut run, addr);
                run.push(MacroOp::MemRead);
            }
            Stmt::MemWrite { addr, value } => {
                push_ops(&mut run, addr);
                push_ops(&mut run, value);
                run.push(MacroOp::MemWrite);
            }
        }
    }
    if let Terminator::Branch { cond, .. } = &block.term {
        push_ops(&mut run, cond);
    }
    run.into_boxed_slice()
}

/// Errors detected by [`Cfg::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateCfgError {
    /// The graph has no blocks.
    Empty,
    /// A terminator references a block that does not exist.
    DanglingEdge {
        /// The block whose terminator is invalid.
        from: BlockId,
        /// The missing target.
        to: BlockId,
    },
    /// No `Return` terminator is reachable from the entry.
    NoReachableReturn,
}

impl std::fmt::Display for ValidateCfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateCfgError::Empty => write!(f, "control-flow graph has no blocks"),
            ValidateCfgError::DanglingEdge { from, to } => {
                write!(f, "block {} jumps to nonexistent block {}", from.0, to.0)
            }
            ValidateCfgError::NoReachableReturn => {
                write!(f, "no return is reachable from the entry block")
            }
        }
    }
}

impl std::error::Error for ValidateCfgError {}

impl Cfg {
    /// Creates a CFG from its blocks; block 0 is the entry.
    ///
    /// Use [`CfgBuilder`] for incremental construction.
    pub fn new(blocks: Vec<BasicBlock>) -> Self {
        let plan = Arc::new(ExecPlan::new(&blocks));
        Cfg { blocks, plan }
    }

    /// A single-block body with the given statements.
    pub fn straight_line(stmts: Vec<Stmt>) -> Self {
        Cfg::new(vec![BasicBlock {
            stmts,
            term: Terminator::Return,
        }])
    }

    /// An empty (immediately returning) body.
    pub fn empty() -> Self {
        Cfg::straight_line(Vec::new())
    }

    /// The blocks of the graph.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Looks up one block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the graph has no blocks (an invalid state; see
    /// [`Cfg::validate`]).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Checks structural sanity.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateCfgError`] if the graph is empty, has dangling
    /// edges, or cannot reach a `Return` from the entry.
    pub fn validate(&self) -> Result<(), ValidateCfgError> {
        if self.blocks.is_empty() {
            return Err(ValidateCfgError::Empty);
        }
        let n = self.blocks.len() as u32;
        let check = |from: BlockId, to: BlockId| {
            if to.0 >= n {
                Err(ValidateCfgError::DanglingEdge { from, to })
            } else {
                Ok(())
            }
        };
        for (i, b) in self.blocks.iter().enumerate() {
            let from = BlockId(i as u32);
            match &b.term {
                Terminator::Goto(t) => check(from, *t)?,
                Terminator::Branch {
                    then_block,
                    else_block,
                    ..
                } => {
                    check(from, *then_block)?;
                    check(from, *else_block)?;
                }
                Terminator::Return => {}
            }
        }
        // Reachability of a Return from the entry.
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            if seen[b.0 as usize] {
                continue;
            }
            seen[b.0 as usize] = true;
            match &self.blocks[b.0 as usize].term {
                Terminator::Return => return Ok(()),
                Terminator::Goto(t) => stack.push(*t),
                Terminator::Branch {
                    then_block,
                    else_block,
                    ..
                } => {
                    stack.push(*then_block);
                    stack.push(*else_block);
                }
            }
        }
        Err(ValidateCfgError::NoReachableReturn)
    }
}

/// Identifier of one *execution path* (the sequence of blocks and branch
/// outcomes taken by one reaction). Used as the key of the energy cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u64);

impl std::fmt::Display for PathId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "path{:016x}", self.0)
    }
}

/// One shared-memory access performed by a reaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Whether this is a write.
    pub write: bool,
    /// The value read (for reads) or stored (for writes). Component
    /// estimators replay reads from this field.
    pub value: i64,
}

/// Outcome of interpreting a [`Cfg`].
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Block sequence actually taken.
    pub trace: Vec<BlockId>,
    /// Stable hash of the taken path (see [`PathId`]).
    pub path: PathId,
    /// Events emitted, in order, with evaluated values.
    pub emitted: Vec<(EventId, Option<i64>)>,
    /// Macro-operation trace, in execution order (the software
    /// macro-modeling currency).
    pub macro_ops: Vec<MacroOp>,
    /// Memory accesses issued, in order.
    pub mem_accesses: Vec<MemAccess>,
}

impl Execution {
    /// The ordered values of the shared-memory *reads* (what a component
    /// estimator needs to replay the same path).
    pub fn read_values(&self) -> Vec<i64> {
        self.mem_accesses
            .iter()
            .filter(|a| !a.write)
            .map(|a| a.value)
            .collect()
    }
}

/// Bounds runaway interpretation (a reaction is meant to be finite).
const MAX_INTERP_BLOCKS: usize = 10_000_000;

/// The environment a reaction executes against: local variables plus the
/// values of triggering input events and a functional model of shared
/// memory.
pub trait ExecEnv {
    /// Current value of the given input event (0 if pure/absent).
    fn event_value(&self, event: EventId) -> i64;
    /// Functional read of shared memory at `addr`.
    fn mem_read(&mut self, addr: u64) -> i64;
    /// Functional write of shared memory.
    fn mem_write(&mut self, addr: u64, value: i64);
}

/// A trivial [`ExecEnv`] with no events and zero-filled memory writes
/// discarded; useful in tests.
#[derive(Debug, Default, Clone)]
pub struct NullEnv;

impl ExecEnv for NullEnv {
    fn event_value(&self, _event: EventId) -> i64 {
        0
    }
    fn mem_read(&mut self, _addr: u64) -> i64 {
        0
    }
    fn mem_write(&mut self, _addr: u64, _value: i64) {}
}

impl Cfg {
    /// Interprets the graph, mutating `vars`, and returns the taken
    /// [`Execution`].
    ///
    /// Each visited block appends its static macro-op run, computed once
    /// by [`Cfg::new`], and a branch adds its `TIVART`/`TIVARF`. The
    /// returned vectors start at the lengths of this body's previous
    /// execution (by any clone), so a body that repeats its path
    /// allocates each once.
    ///
    /// # Panics
    ///
    /// Panics if the graph is structurally invalid (call
    /// [`validate`](Cfg::validate) first) or if execution exceeds an
    /// internal block budget (runaway loop).
    pub fn execute(&self, vars: &mut [i64], env: &mut dyn ExecEnv) -> Execution {
        let [trace_len, emitted_len, ops_len, mem_len] = self.plan.last_lens();
        let mut trace = Vec::with_capacity(trace_len);
        let mut emitted = Vec::with_capacity(emitted_len);
        let mut macro_ops = Vec::with_capacity(ops_len);
        let mut mem_accesses = Vec::with_capacity(mem_len);
        let mut hasher = DefaultHasher::new();
        let mut cur = BlockId(0);
        loop {
            assert!(
                trace.len() < MAX_INTERP_BLOCKS,
                "reaction exceeded {MAX_INTERP_BLOCKS} blocks; runaway loop?"
            );
            trace.push(cur);
            cur.0.hash(&mut hasher);
            let block = &self.blocks[cur.0 as usize];
            macro_ops.extend_from_slice(&self.plan.runs[cur.0 as usize]);
            for stmt in &block.stmts {
                match stmt {
                    Stmt::Assign { var, expr } => {
                        vars[var.0 as usize] = expr.eval(vars, &|e| env.event_value(e));
                    }
                    Stmt::Emit { event, value } => {
                        let v = value
                            .as_ref()
                            .map(|e| e.eval(vars, &|ev| env.event_value(ev)));
                        emitted.push((*event, v));
                    }
                    Stmt::MemRead { var, addr } => {
                        let a = addr.eval(vars, &|e| env.event_value(e)) as u64;
                        let v = env.mem_read(a);
                        vars[var.0 as usize] = v;
                        mem_accesses.push(MemAccess {
                            addr: a,
                            write: false,
                            value: v,
                        });
                    }
                    Stmt::MemWrite { addr, value } => {
                        let a = addr.eval(vars, &|e| env.event_value(e)) as u64;
                        let v = value.eval(vars, &|e| env.event_value(e));
                        env.mem_write(a, v);
                        mem_accesses.push(MemAccess {
                            addr: a,
                            write: true,
                            value: v,
                        });
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
        self.plan.record_lens([
            trace.len(),
            emitted.len(),
            macro_ops.len(),
            mem_accesses.len(),
        ]);
        Execution {
            trace,
            path: PathId(hasher.finish()),
            emitted,
            macro_ops,
            mem_accesses,
        }
    }
}

/// Incremental builder for [`Cfg`]s.
///
/// # Examples
///
/// A counted loop `for i in 0..3 { acc += i }`:
///
/// ```
/// use cfsm::{CfgBuilder, Stmt, Terminator, Expr, VarId, BinOp, NullEnv};
///
/// let i = VarId(0);
/// let acc = VarId(1);
/// let mut b = CfgBuilder::new();
/// let entry = b.block(
///     vec![Stmt::Assign { var: i, expr: Expr::Const(0) }],
///     Terminator::Goto(cfsm::BlockId(1)),
/// );
/// assert_eq!(entry.0, 0);
/// let head = b.block(
///     vec![],
///     Terminator::Branch {
///         cond: Expr::lt(Expr::Var(i), Expr::Const(3)),
///         then_block: cfsm::BlockId(2),
///         else_block: cfsm::BlockId(3),
///     },
/// );
/// let body = b.block(
///     vec![
///         Stmt::Assign { var: acc, expr: Expr::add(Expr::Var(acc), Expr::Var(i)) },
///         Stmt::Assign { var: i, expr: Expr::add(Expr::Var(i), Expr::Const(1)) },
///     ],
///     Terminator::Goto(head),
/// );
/// let _exit = b.block(vec![], Terminator::Return);
/// let cfg = b.finish().expect("valid CFG");
/// assert_eq!(body.0, 2);
///
/// let mut vars = [0i64, 0];
/// let exec = cfg.execute(&mut vars, &mut NullEnv);
/// assert_eq!(vars[1], 0 + 1 + 2);
/// assert_eq!(exec.trace.len(), 1 + 4 + 3 + 1); // entry, 4 head visits, 3 bodies, exit
/// ```
#[derive(Debug, Default)]
pub struct CfgBuilder {
    blocks: Vec<BasicBlock>,
}

impl CfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CfgBuilder { blocks: Vec::new() }
    }

    /// Appends a block, returning its id (ids are assigned sequentially;
    /// forward references may name blocks not yet added).
    pub fn block(&mut self, stmts: Vec<Stmt>, term: Terminator) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock { stmts, term });
        id
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateCfgError`] found.
    pub fn finish(self) -> Result<Cfg, ValidateCfgError> {
        let cfg = Cfg::new(self.blocks);
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn assign(var: u32, expr: Expr) -> Stmt {
        Stmt::Assign {
            var: VarId(var),
            expr,
        }
    }

    #[test]
    fn straight_line_executes_all_stmts() {
        let cfg = Cfg::straight_line(vec![
            assign(0, Expr::Const(5)),
            assign(1, Expr::add(Expr::Var(VarId(0)), Expr::Const(2))),
        ]);
        let mut vars = [0i64; 2];
        let exec = cfg.execute(&mut vars, &mut NullEnv);
        assert_eq!(vars, [5, 7]);
        assert_eq!(exec.trace, vec![BlockId(0)]);
        assert!(exec.emitted.is_empty());
    }

    #[test]
    fn branch_selects_path_and_distinguishes_path_ids() {
        let mut b = CfgBuilder::new();
        b.block(
            vec![],
            Terminator::Branch {
                cond: Expr::Var(VarId(0)),
                then_block: BlockId(1),
                else_block: BlockId(2),
            },
        );
        b.block(vec![assign(1, Expr::Const(100))], Terminator::Return);
        b.block(vec![assign(1, Expr::Const(200))], Terminator::Return);
        let cfg = b.finish().expect("valid");

        let mut v1 = [1i64, 0];
        let e1 = cfg.execute(&mut v1, &mut NullEnv);
        assert_eq!(v1[1], 100);

        let mut v2 = [0i64, 0];
        let e2 = cfg.execute(&mut v2, &mut NullEnv);
        assert_eq!(v2[1], 200);

        assert_ne!(e1.path, e2.path);
    }

    #[test]
    fn same_path_same_id() {
        let cfg = Cfg::straight_line(vec![assign(0, Expr::Const(1))]);
        let mut a = [0i64];
        let mut b = [0i64];
        let ea = cfg.execute(&mut a, &mut NullEnv);
        let eb = cfg.execute(&mut b, &mut NullEnv);
        assert_eq!(ea.path, eb.path);
    }

    #[test]
    fn loop_iteration_count_follows_data() {
        // while v0 > 0 { v1 += 2; v0 -= 1 }
        let mut b = CfgBuilder::new();
        b.block(
            vec![],
            Terminator::Branch {
                cond: Expr::gt(Expr::Var(VarId(0)), Expr::Const(0)),
                then_block: BlockId(1),
                else_block: BlockId(2),
            },
        );
        b.block(
            vec![
                assign(1, Expr::add(Expr::Var(VarId(1)), Expr::Const(2))),
                assign(0, Expr::sub(Expr::Var(VarId(0)), Expr::Const(1))),
            ],
            Terminator::Goto(BlockId(0)),
        );
        b.block(vec![], Terminator::Return);
        let cfg = b.finish().expect("valid");
        for n in [0i64, 1, 5, 100] {
            let mut vars = [n, 0];
            let exec = cfg.execute(&mut vars, &mut NullEnv);
            assert_eq!(vars[1], 2 * n);
            // 1 head visit per iteration + final head + exit
            assert_eq!(exec.trace.len(), 1 + 2 * n as usize + 1);
        }
    }

    #[test]
    fn emit_records_values_in_order() {
        let cfg = Cfg::straight_line(vec![
            Stmt::Emit {
                event: EventId(3),
                value: None,
            },
            Stmt::Emit {
                event: EventId(1),
                value: Some(Expr::Const(9)),
            },
        ]);
        let exec = cfg.execute(&mut [], &mut NullEnv);
        assert_eq!(
            exec.emitted,
            vec![(EventId(3), None), (EventId(1), Some(9))]
        );
    }

    #[test]
    fn macro_op_trace_matches_execution() {
        let cfg = Cfg::straight_line(vec![
            assign(0, Expr::add(Expr::Const(1), Expr::Const(2))),
            Stmt::Emit {
                event: EventId(0),
                value: None,
            },
        ]);
        let exec = cfg.execute(&mut [0], &mut NullEnv);
        assert_eq!(
            exec.macro_ops,
            vec![
                MacroOp::Binary(BinOp::Add),
                MacroOp::Avv,
                MacroOp::Aemit
            ]
        );
    }

    struct MemEnv {
        mem: std::collections::HashMap<u64, i64>,
    }
    impl ExecEnv for MemEnv {
        fn event_value(&self, _e: EventId) -> i64 {
            0
        }
        fn mem_read(&mut self, addr: u64) -> i64 {
            *self.mem.get(&addr).unwrap_or(&0)
        }
        fn mem_write(&mut self, addr: u64, value: i64) {
            self.mem.insert(addr, value);
        }
    }

    #[test]
    fn memory_accesses_are_traced() {
        let cfg = Cfg::straight_line(vec![
            Stmt::MemWrite {
                addr: Expr::Const(16),
                value: Expr::Const(77),
            },
            Stmt::MemRead {
                var: VarId(0),
                addr: Expr::Const(16),
            },
        ]);
        let mut env = MemEnv {
            mem: Default::default(),
        };
        let mut vars = [0i64];
        let exec = cfg.execute(&mut vars, &mut env);
        assert_eq!(vars[0], 77);
        assert_eq!(
            exec.mem_accesses,
            vec![
                MemAccess {
                    addr: 16,
                    write: true,
                    value: 77
                },
                MemAccess {
                    addr: 16,
                    write: false,
                    value: 77
                }
            ]
        );
        assert_eq!(exec.read_values(), vec![77]);
    }

    #[test]
    fn validate_rejects_dangling_edge() {
        let cfg = Cfg::new(vec![BasicBlock {
            stmts: vec![],
            term: Terminator::Goto(BlockId(5)),
        }]);
        assert_eq!(
            cfg.validate(),
            Err(ValidateCfgError::DanglingEdge {
                from: BlockId(0),
                to: BlockId(5)
            })
        );
    }

    #[test]
    fn validate_rejects_empty_and_returnless() {
        assert_eq!(Cfg::new(vec![]).validate(), Err(ValidateCfgError::Empty));
        let spin = Cfg::new(vec![BasicBlock {
            stmts: vec![],
            term: Terminator::Goto(BlockId(0)),
        }]);
        assert_eq!(spin.validate(), Err(ValidateCfgError::NoReachableReturn));
    }

    #[test]
    fn validate_accepts_valid_graph() {
        assert!(Cfg::empty().validate().is_ok());
    }

    #[test]
    fn event_values_visible_to_body() {
        struct EvEnv;
        impl ExecEnv for EvEnv {
            fn event_value(&self, e: EventId) -> i64 {
                if e == EventId(2) {
                    41
                } else {
                    0
                }
            }
            fn mem_read(&mut self, _: u64) -> i64 {
                0
            }
            fn mem_write(&mut self, _: u64, _: i64) {}
        }
        let cfg = Cfg::straight_line(vec![assign(
            0,
            Expr::add(Expr::EventValue(EventId(2)), Expr::Const(1)),
        )]);
        let mut vars = [0i64];
        cfg.execute(&mut vars, &mut EvEnv);
        assert_eq!(vars[0], 42);
    }
}
