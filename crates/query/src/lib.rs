//! # fsi-query — the boolean expression engine
//!
//! Every layer below answers flat conjunctions; real query traffic is
//! boolean — `(rust AND simd) OR (cpp AND avx2) AND NOT deprecated`.
//! Bille–Pagh–Pagh ("Fast evaluation of union-intersection expressions")
//! treat expression-level evaluation as its own algorithmic problem; this
//! crate is that layer for the repository, from surface syntax to physical
//! operators:
//!
//! * [`parse()`] — a hand-rolled recursive-descent parser for a small query
//!   language (`AND`/`OR`/`NOT`, parentheses, implicit-`AND` term lists)
//!   producing an [`Expr`] AST;
//! * [`normalize`] — algebraic rewrites into the canonical [`NormExpr`]:
//!   De Morgan push-down (negation survives only as set-difference bounded
//!   by a positive intersection), flattening into n-ary nodes,
//!   deduplication, and canonical child ordering, so equivalent
//!   expressions are structurally identical and [`fingerprint`]
//!   identically — the property the serving cache keys on ([`encode`] /
//!   [`encode_flat_and`]);
//! * [`ExprPlanner`] — cost-based expression planning extending
//!   `fsi_index::Planner`'s [`fsi_index::OperandStats`] model to `OR`
//!   (heap k-way union vs chunked-bitmap `OR`) and `AND NOT` (galloping
//!   multi-subtrahend difference), ordering evaluation by estimated
//!   result cardinality;
//! * [`eval_planned_into`] — execution over the prepared index
//!   (`fsi_index::PlannedExecutor`), bottoming out in the `fsi_kernels`
//!   intersection/union/difference slice kernels;
//! * [`naive`] — `BTreeSet` reference evaluators the differential suites
//!   pin all of the above against.

#![forbid(unsafe_code)]

pub mod ast;
pub mod exec;
pub mod explain;
pub mod naive;
pub mod parse;
pub mod plan;
pub mod rewrite;

pub use ast::Expr;
pub use exec::{eval_planned, eval_planned_into, execute_plan};
pub use explain::{analyze_plan, explain, report_plan, strip_explain, ExplainMode, NodeReport};
pub use parse::{parse, ParseError};
pub use plan::{AndKind, ExprPlan, ExprPlanner, PlanNode, UnionKind};
pub use rewrite::{encode, encode_flat_and, fingerprint, normalize, NormExpr, RewriteError};

/// Why a query string could not be compiled to an evaluable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The surface syntax is malformed.
    Parse(ParseError),
    /// The expression is syntactically fine but denotes an unbounded set.
    Rewrite(RewriteError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Rewrite(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<RewriteError> for CompileError {
    fn from(e: RewriteError) -> Self {
        CompileError::Rewrite(e)
    }
}

/// Parses and normalizes in one step: query string in, canonical
/// [`NormExpr`] out.
pub fn compile(src: &str) -> Result<NormExpr, CompileError> {
    Ok(normalize(&parse(src)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_goes_end_to_end() {
        assert_eq!(compile("3 AND 1"), compile("1 3"));
        assert!(matches!(compile("1 AND"), Err(CompileError::Parse(_))));
        assert!(matches!(compile("NOT 1"), Err(CompileError::Rewrite(_))));
        let e = compile("NOT 1").unwrap_err();
        assert!(e.to_string().contains("NOT"), "{e}");
    }
}
