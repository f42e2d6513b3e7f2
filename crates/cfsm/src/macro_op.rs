//! Macro-operations — the currency of software power macro-modeling.
//!
//! POLIS characterizes generated software as a sequence of high-level
//! *macro-operations* (§4.1 of the paper): variable-to-variable assignment
//! (`AVV`), event emission (`AEMIT`), tests on variables (`TIVART`/`TIVARF`
//! for the true/false outcome), and the ~30 pre-defined arithmetic,
//! relational and logical functions (`ADD(x1,x2)`, `NOT(x1)`, `EQ(x1,x2)`,
//! …). Every one of them has an entry in the characterized
//! parameter file giving its delay, code size and energy.

use crate::expr::{BinOp, OpKind, UnOp};
use std::fmt;

/// A macro-operation, as counted by the behavioral interpreter and
/// characterized by the macro-modeling flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroOp {
    /// Assignment of a computed value to a variable (`AVV`).
    Avv,
    /// Event emission (`AEMIT`).
    Aemit,
    /// Test on a variable, true outcome (`TIVART`).
    TivarT,
    /// Test on a variable, false outcome (`TIVARF`).
    TivarF,
    /// Shared-memory read issued to the bus (`MEMRD`).
    MemRead,
    /// Shared-memory write issued to the bus (`MEMWR`).
    MemWrite,
    /// A unary operator from the function library.
    Unary(UnOp),
    /// A binary operator from the function library.
    Binary(BinOp),
}

impl MacroOp {
    /// Maps an expression operator occurrence to its macro-op.
    pub fn from_op(kind: OpKind) -> MacroOp {
        match kind {
            OpKind::Unary(u) => MacroOp::Unary(u),
            OpKind::Binary(b) => MacroOp::Binary(b),
        }
    }

    /// The POLIS-style mnemonic used in parameter files, e.g. `AVV`,
    /// `AEMIT`, `TIVART`, `ADD`, `EQ`.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            MacroOp::Avv => "AVV",
            MacroOp::Aemit => "AEMIT",
            MacroOp::TivarT => "TIVART",
            MacroOp::TivarF => "TIVARF",
            MacroOp::MemRead => "MEMRD",
            MacroOp::MemWrite => "MEMWR",
            MacroOp::Unary(u) => match u {
                UnOp::Neg => "NEG",
                UnOp::Not => "NOT",
                UnOp::LNot => "LNOT",
            },
            MacroOp::Binary(b) => match b {
                BinOp::Add => "ADD",
                BinOp::Sub => "SUB",
                BinOp::Mul => "MUL",
                BinOp::Div => "DIV",
                BinOp::Rem => "REM",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Xor => "XOR",
                BinOp::Shl => "SHL",
                BinOp::Shr => "SHR",
                BinOp::Eq => "EQ",
                BinOp::Ne => "NE",
                BinOp::Lt => "LT",
                BinOp::Le => "LE",
                BinOp::Gt => "GT",
                BinOp::Ge => "GE",
            },
        }
    }

    /// Parses a mnemonic back into a macro-op.
    pub fn from_mnemonic(s: &str) -> Option<MacroOp> {
        ALL_MACRO_OPS.iter().copied().find(|m| m.mnemonic() == s)
    }

    /// The op's position in [`ALL_MACRO_OPS`], for tables indexed densely
    /// by macro-op instead of by mnemonic.
    pub const fn index(self) -> usize {
        match self {
            MacroOp::Avv => 0,
            MacroOp::Aemit => 1,
            MacroOp::TivarT => 2,
            MacroOp::TivarF => 3,
            MacroOp::MemRead => 4,
            MacroOp::MemWrite => 5,
            MacroOp::Unary(u) => match u {
                UnOp::Neg => 6,
                UnOp::Not => 7,
                UnOp::LNot => 8,
            },
            MacroOp::Binary(b) => match b {
                BinOp::Add => 9,
                BinOp::Sub => 10,
                BinOp::Mul => 11,
                BinOp::Div => 12,
                BinOp::Rem => 13,
                BinOp::And => 14,
                BinOp::Or => 15,
                BinOp::Xor => 16,
                BinOp::Shl => 17,
                BinOp::Shr => 18,
                BinOp::Eq => 19,
                BinOp::Ne => 20,
                BinOp::Lt => 21,
                BinOp::Le => 22,
                BinOp::Gt => 23,
                BinOp::Ge => 24,
            },
        }
    }
}

impl fmt::Display for MacroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Every macro-operation, in a stable order (the characterization flow
/// iterates this list).
pub const ALL_MACRO_OPS: &[MacroOp] = &[
    MacroOp::Avv,
    MacroOp::Aemit,
    MacroOp::TivarT,
    MacroOp::TivarF,
    MacroOp::MemRead,
    MacroOp::MemWrite,
    MacroOp::Unary(UnOp::Neg),
    MacroOp::Unary(UnOp::Not),
    MacroOp::Unary(UnOp::LNot),
    MacroOp::Binary(BinOp::Add),
    MacroOp::Binary(BinOp::Sub),
    MacroOp::Binary(BinOp::Mul),
    MacroOp::Binary(BinOp::Div),
    MacroOp::Binary(BinOp::Rem),
    MacroOp::Binary(BinOp::And),
    MacroOp::Binary(BinOp::Or),
    MacroOp::Binary(BinOp::Xor),
    MacroOp::Binary(BinOp::Shl),
    MacroOp::Binary(BinOp::Shr),
    MacroOp::Binary(BinOp::Eq),
    MacroOp::Binary(BinOp::Ne),
    MacroOp::Binary(BinOp::Lt),
    MacroOp::Binary(BinOp::Le),
    MacroOp::Binary(BinOp::Gt),
    MacroOp::Binary(BinOp::Ge),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<_> = ALL_MACRO_OPS.iter().map(|m| m.mnemonic()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for &m in ALL_MACRO_OPS {
            assert_eq!(MacroOp::from_mnemonic(m.mnemonic()), Some(m));
        }
        assert_eq!(MacroOp::from_mnemonic("BOGUS"), None);
    }

    #[test]
    fn index_is_the_position_in_all_macro_ops() {
        for (i, &m) in ALL_MACRO_OPS.iter().enumerate() {
            assert_eq!(m.index(), i, "{m}");
            assert_eq!(ALL_MACRO_OPS[m.index()], m);
        }
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(MacroOp::Avv.to_string(), "AVV");
        assert_eq!(MacroOp::Binary(BinOp::Add).to_string(), "ADD");
    }

    #[test]
    fn library_size_matches_paper_scale() {
        // The paper cites ~30 library functions; keep the inventory in
        // that ballpark so characterization cost is comparable.
        assert!(ALL_MACRO_OPS.len() >= 20 && ALL_MACRO_OPS.len() <= 40);
    }
}
