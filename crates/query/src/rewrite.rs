//! Algebraic rewrites: De Morgan push-down, flattening, deduplication, and
//! canonical ordering — from parse-level [`Expr`] to the evaluable,
//! cache-keyable [`NormExpr`].
//!
//! ## The signed normal form
//!
//! Negation is eliminated structurally rather than rewritten node-by-node:
//! normalization computes, for every subexpression, either the set it
//! denotes (*positive*) or the complement of a set it denotes (*negative*).
//! De Morgan's laws are exactly the rules for combining signed children:
//!
//! * `AND(P…, ¬N…)` = `∩P ∖ ∪N` — positive when any child is positive
//!   (the intersection bounds the result), else `¬(∪N)`;
//! * `OR(P…, ¬N…)` = `¬(∩N ∖ ∪P)` when any child is negative, else
//!   `∪P`;
//! * `NOT e` flips the sign of `e`.
//!
//! The only surviving negative construct is the `neg` list of
//! [`NormExpr::And`] — set difference against the node's own (bounded)
//! positive intersection. A query that is negative at the *top level*
//! denotes a complement of a finite set — unboundedly large — and is
//! rejected as [`RewriteError::UnboundedNot`].
//!
//! ## Canonicalization
//!
//! After sign elimination the tree is flattened and ordered so equivalent
//! expressions are structurally identical (and therefore hash identically,
//! see [`fingerprint`]):
//!
//! * nested `And` in a positive position merges into its parent
//!   (`(A∖B) ∩ C = (A∩C) ∖ B`); `Or` in a `neg` position merges into the
//!   parent's `neg` list (`∖(X∪Y)` ≡ `∖X ∖Y`); nested `Or` under `Or`
//!   concatenates;
//! * children are sorted by the structural [`Ord`] and deduplicated
//!   (commutativity + idempotence);
//! * single-child `And`/`Or` wrappers collapse.
//!
//! `a AND b`, `b AND a`, `a b a`, and `NOT (NOT a OR NOT b)` all
//! canonicalize to the same [`NormExpr`]; the [`encode`]d form is the
//! cache key the serving layer shares between them.

use crate::ast::Expr;
use std::fmt;

/// A normalized boolean expression: `NOT` appears only as the `neg`
/// (set-difference) list of an [`NormExpr::And`], children are flattened,
/// sorted, and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NormExpr {
    /// One posting list.
    Term(usize),
    /// `(∩ pos) ∖ (∪ neg)`; `pos` is never empty, `neg` may be.
    And {
        /// Intersected children (≥ 1, canonically ordered, deduplicated).
        pos: Vec<NormExpr>,
        /// Subtracted children (possibly empty, canonically ordered,
        /// deduplicated). Bounded by `pos`: the difference can only
        /// shrink the intersection.
        neg: Vec<NormExpr>,
    },
    /// `∪ children` (≥ 2, canonically ordered, deduplicated).
    Or(Vec<NormExpr>),
}

/// Why an expression cannot be normalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The whole query denotes the complement of a finite set — e.g.
    /// `NOT 3` or `NOT 1 OR 2`... there is no bounded operand to subtract
    /// from, so the result would be "almost every document".
    UnboundedNot,
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::UnboundedNot => write!(
                f,
                "query is negative at the top level (an unbounded NOT): \
                 every NOT must be conjoined with at least one positive term"
            ),
        }
    }
}

impl std::error::Error for RewriteError {}

/// A subexpression's denotation with its sign: the set itself, or the
/// complement of it.
enum Signed {
    Pos(NormExpr),
    Neg(NormExpr),
}

impl Signed {
    fn flip(self) -> Signed {
        match self {
            Signed::Pos(e) => Signed::Neg(e),
            Signed::Neg(e) => Signed::Pos(e),
        }
    }
}

fn signed(expr: &Expr) -> Signed {
    match expr {
        Expr::Term(t) => Signed::Pos(NormExpr::Term(*t)),
        Expr::Not(inner) => signed(inner).flip(),
        Expr::And(children) => combine(children, true),
        Expr::Or(children) => combine(children, false),
    }
}

/// Combines the signed children of an `AND` (`is_and`) or `OR` node.
/// This *is* De Morgan push-down: the dual connective materializes as the
/// sign flips through, and negation survives only as a difference list.
fn combine(children: &[Expr], is_and: bool) -> Signed {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for c in children {
        match signed(c) {
            Signed::Pos(e) => pos.push(e),
            Signed::Neg(e) => neg.push(e),
        }
    }
    let wrap_or = |mut children: Vec<NormExpr>| {
        if children.len() == 1 {
            // audit:allow(hot_path_panic): guarded by the len() == 1 branch condition
            children.pop().expect("one child")
        } else {
            NormExpr::Or(children)
        }
    };
    if is_and {
        // ∩pos ∩ ∩¬neg = (∩pos) ∖ (∪neg); with no positive child the
        // result is ¬(∪neg) — negative, the sign the caller propagates.
        if pos.is_empty() {
            Signed::Neg(wrap_or(neg))
        } else {
            Signed::Pos(NormExpr::And { pos, neg })
        }
    } else {
        // ∪pos ∪ ∪¬neg: any negative child makes the union co-finite —
        // ¬((∩neg) ∖ (∪pos)).
        if neg.is_empty() {
            Signed::Pos(wrap_or(pos))
        } else {
            Signed::Neg(NormExpr::And { pos: neg, neg: pos })
        }
    }
}

/// Flattens, sorts, deduplicates, and collapses single-child wrappers.
fn canonical(n: NormExpr) -> NormExpr {
    match n {
        NormExpr::Term(t) => NormExpr::Term(t),
        NormExpr::Or(children) => {
            let mut flat = Vec::new();
            for c in children {
                match canonical(c) {
                    NormExpr::Or(grand) => flat.extend(grand),
                    other => flat.push(other),
                }
            }
            flat.sort();
            flat.dedup();
            if flat.len() == 1 {
                // audit:allow(hot_path_panic): guarded by the len() == 1 branch condition
                flat.pop().expect("one child")
            } else {
                NormExpr::Or(flat)
            }
        }
        NormExpr::And { pos, neg } => {
            let mut p = Vec::new();
            let mut ng = Vec::new();
            for c in pos {
                match canonical(c) {
                    // (∩P' ∖ ∪N') ∩ rest = ∩(P' ∪ rest) ∖ ∪N'.
                    NormExpr::And { pos: p2, neg: n2 } => {
                        p.extend(p2);
                        ng.extend(n2);
                    }
                    other => p.push(other),
                }
            }
            for c in neg {
                match canonical(c) {
                    // ∖ (X ∪ Y) ≡ ∖X ∖Y — the neg list already denotes a
                    // union of exclusions.
                    NormExpr::Or(grand) => ng.extend(grand),
                    other => ng.push(other),
                }
            }
            p.sort();
            p.dedup();
            ng.sort();
            ng.dedup();
            if ng.is_empty() && p.len() == 1 {
                // audit:allow(hot_path_panic): guarded by the len() == 1 branch condition
                p.pop().expect("one child")
            } else {
                NormExpr::And { pos: p, neg: ng }
            }
        }
    }
}

/// Rewrites a parsed expression into its canonical [`NormExpr`].
///
/// Fails with [`RewriteError::UnboundedNot`] when the query as a whole is
/// a complement (no positive operand bounds it).
pub fn normalize(expr: &Expr) -> Result<NormExpr, RewriteError> {
    match signed(expr) {
        Signed::Pos(n) => Ok(canonical(n)),
        Signed::Neg(_) => Err(RewriteError::UnboundedNot),
    }
}

impl NormExpr {
    /// Every term id mentioned in the expression (deduplicated, ascending).
    pub fn terms(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_terms(&self, out: &mut Vec<usize>) {
        match self {
            NormExpr::Term(t) => out.push(*t),
            NormExpr::And { pos, neg } => {
                for c in pos.iter().chain(neg) {
                    c.collect_terms(out);
                }
            }
            NormExpr::Or(children) => {
                for c in children {
                    c.collect_terms(out);
                }
            }
        }
    }
}

impl fmt::Display for NormExpr {
    /// Renders the canonical form back in the surface syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormExpr::Term(t) => write!(f, "{t}"),
            NormExpr::And { pos, neg } => {
                write!(f, "(")?;
                for (i, c) in pos.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{c}")?;
                }
                for c in neg {
                    write!(f, " AND NOT {c}")?;
                }
                write!(f, ")")
            }
            NormExpr::Or(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical encoding — the cache-key form
// ---------------------------------------------------------------------------

const TAG_TERM: u32 = 0;
const TAG_AND: u32 = 1;
const TAG_OR: u32 = 2;

/// Serializes the canonical form as a prefix code over `u32` words
/// (`[0, term]`, `[1, |pos|, |neg|, children…]`, `[2, |children|,
/// children…]`). Injective on canonical forms: two [`NormExpr`]s encode
/// equally iff they are equal — what the serving layer's cache keys
/// store, so equivalent queries share one entry with zero collision risk.
pub fn encode(n: &NormExpr) -> Vec<u32> {
    let mut out = Vec::with_capacity(encoded_len(n));
    enc(n, &mut out);
    out
}

/// The length of [`encode`]'s output, so the key is allocated once at its
/// final size.
fn encoded_len(n: &NormExpr) -> usize {
    match n {
        NormExpr::Term(_) => 2,
        NormExpr::And { pos, neg } => 3 + pos.iter().chain(neg).map(encoded_len).sum::<usize>(),
        NormExpr::Or(children) => 2 + children.iter().map(encoded_len).sum::<usize>(),
    }
}

fn enc(n: &NormExpr, out: &mut Vec<u32>) {
    match n {
        NormExpr::Term(t) => {
            out.push(TAG_TERM);
            // audit:allow(hot_path_panic): term ids are corpus indices, far below u32::MAX
            out.push(u32::try_from(*t).expect("term id fits u32"));
        }
        NormExpr::And { pos, neg } => {
            out.push(TAG_AND);
            out.push(pos.len() as u32);
            out.push(neg.len() as u32);
            for c in pos.iter().chain(neg) {
                enc(c, out);
            }
        }
        NormExpr::Or(children) => {
            out.push(TAG_OR);
            out.push(children.len() as u32);
            for c in children {
                enc(c, out);
            }
        }
    }
}

/// The canonical encoding of a **flat conjunctive** query (the legacy
/// serving path): bit-identical to `encode(&normalize(a AND b AND …))`,
/// so a flat `[a, b]` query and the parsed expression `b AND a` produce
/// the same cache key. Zero terms encode as the (otherwise unreachable)
/// empty conjunction.
pub fn encode_flat_and(terms: &[usize]) -> Vec<u32> {
    let mut t: Vec<usize> = terms.to_vec();
    t.sort_unstable();
    t.dedup();
    match t.as_slice() {
        [] => vec![TAG_AND, 0, 0],
        // audit:allow(hot_path_panic): term ids are corpus indices, far below u32::MAX
        [only] => vec![TAG_TERM, u32::try_from(*only).expect("term id fits u32")],
        many => {
            let mut out = Vec::with_capacity(3 + 2 * many.len());
            out.push(TAG_AND);
            out.push(many.len() as u32);
            out.push(0);
            for &term in many {
                out.push(TAG_TERM);
                // audit:allow(hot_path_panic): term ids are corpus indices, far below u32::MAX
                out.push(u32::try_from(term).expect("term id fits u32"));
            }
            out
        }
    }
}

/// A 64-bit FNV-1a digest of [`encode`] — the canonical hash: equivalent
/// expressions (under commutativity, associativity, idempotence, double
/// negation, and De Morgan) collide by construction, and the proptests
/// check random inequivalent pairs separate.
pub fn fingerprint(n: &NormExpr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in encode(n) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn norm(src: &str) -> NormExpr {
        normalize(&parse(src).expect("parses")).expect("bounded")
    }

    #[test]
    fn commutativity_associativity_idempotence() {
        assert_eq!(norm("1 AND 2"), norm("2 AND 1"));
        assert_eq!(norm("1 2 3"), norm("3 AND (2 AND 1)"));
        assert_eq!(norm("1 1 2"), norm("1 AND 2"));
        assert_eq!(norm("1 OR 2 OR 3"), norm("(3 OR 1) OR 2"));
        assert_eq!(norm("1 OR 1"), NormExpr::Term(1));
        assert_eq!(norm("(1)"), NormExpr::Term(1));
    }

    #[test]
    fn de_morgan_collapses_to_one_form() {
        // ¬(¬a ∨ ¬b) = a ∧ b.
        assert_eq!(norm("NOT (NOT 1 OR NOT 2)"), norm("1 AND 2"));
        // ¬(¬a ∧ ¬b) = a ∨ b.
        assert_eq!(norm("NOT (NOT 1 AND NOT 2)"), norm("1 OR 2"));
        // c ∖ (a ∪ b) = c ∖ a ∖ b.
        assert_eq!(norm("3 AND NOT (1 OR 2)"), norm("3 AND NOT 1 AND NOT 2"));
        // Double negation.
        assert_eq!(norm("NOT NOT 5"), NormExpr::Term(5));
    }

    #[test]
    fn not_survives_only_as_difference() {
        let n = norm("1 AND NOT 2");
        assert_eq!(
            n,
            NormExpr::And {
                pos: vec![NormExpr::Term(1)],
                neg: vec![NormExpr::Term(2)],
            }
        );
        // a ∧ (b ∨ ¬c) = a ∖ (c ∖ b).
        let n = norm("1 AND (2 OR NOT 3)");
        assert_eq!(
            n,
            NormExpr::And {
                pos: vec![NormExpr::Term(1)],
                neg: vec![NormExpr::And {
                    pos: vec![NormExpr::Term(3)],
                    neg: vec![NormExpr::Term(2)],
                }],
            }
        );
    }

    #[test]
    fn unbounded_nots_are_rejected() {
        for src in [
            "NOT 1",
            "NOT (1 AND 2)",
            "NOT 1 OR 2",
            "NOT 1 AND NOT 2",
            "NOT (1 AND NOT 2)",
        ] {
            assert_eq!(
                normalize(&parse(src).expect("parses")),
                Err(RewriteError::UnboundedNot),
                "{src}"
            );
        }
        // …but the same shapes bounded by a conjunction are fine.
        for src in ["5 AND NOT 1", "5 AND NOT (1 AND 2)", "5 AND (NOT 1 OR 2)"] {
            assert!(normalize(&parse(src).expect("parses")).is_ok(), "{src}");
        }
    }

    #[test]
    fn nested_ands_flatten_through_differences() {
        // ((a ∖ b) ∩ c) = (a ∩ c) ∖ b — one And node.
        assert_eq!(norm("(1 AND NOT 2) AND 3"), norm("1 AND 3 AND NOT 2"));
        // Or-of-or flattens.
        assert_eq!(norm("(1 OR 2) OR (2 OR 3)"), norm("1 OR 2 OR 3"));
    }

    #[test]
    fn encode_is_injective_on_distinct_forms() {
        let forms = [
            norm("1"),
            norm("1 AND 2"),
            norm("1 OR 2"),
            norm("1 AND NOT 2"),
            norm("2 AND NOT 1"),
            norm("1 AND 2 AND 3"),
            norm("1 AND (2 OR 3)"),
        ];
        for (i, a) in forms.iter().enumerate() {
            for (j, b) in forms.iter().enumerate() {
                assert_eq!(encode(a) == encode(b), i == j, "{a} vs {b}");
                assert_eq!(encode(a).capacity(), encode(a).len(), "{a}");
                assert_eq!(fingerprint(a) == fingerprint(b), i == j, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn flat_and_encoding_matches_normalized_expression() {
        assert_eq!(encode_flat_and(&[2, 1, 2]), encode(&norm("1 AND 2")));
        assert_eq!(encode_flat_and(&[7]), encode(&norm("7")));
        assert_eq!(encode_flat_and(&[7, 7]), encode(&norm("7 AND 7")));
        assert_eq!(encode_flat_and(&[5, 3, 9]), encode(&norm("9 AND 3 AND 5")));
        // The zero-term key exists and collides with nothing normalize
        // can produce (normalize never emits an empty conjunction).
        assert_eq!(encode_flat_and(&[]), vec![TAG_AND, 0, 0]);
    }

    #[test]
    fn display_of_canonical_form_reparses_to_itself() {
        for src in ["1 AND NOT 2", "1 (2 OR 3)", "1 AND (2 OR NOT 3)", "4"] {
            let n = norm(src);
            assert_eq!(norm(&n.to_string()), n, "{src} -> {n}");
        }
    }

    #[test]
    fn terms_are_collected_ascending_dedup() {
        assert_eq!(norm("9 AND (2 OR NOT 7) AND 2").terms(), vec![2, 7, 9]);
    }
}
