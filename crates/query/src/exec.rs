//! Expression execution over an [`fsi_index::PlannedExecutor`]:
//! [`eval_planned_into`] plans and runs the full cost-based path.
//! `AND`-of-terms nodes run the embedded [`fsi_index::MultiwayPlan`]
//! directly on the prepared lists (zero materialization), `OR` nodes
//! dispatch between the heap union and the chunk union — which binds
//! bitmap-carrying terms and `BitmapAnd` children in place, word by word,
//! and extracts the result once — and differences bit-test the
//! subtrahends that are bitmap-carrying terms and gallop through the rest
//! (over a `BitmapAnd` base with term subtrahends they are a one-child
//! chunk union instead). Term operands of unions and differences borrow
//! the prepared structures — only genuine sub-expression results are
//! materialized.
//!
//! Output is appended ascending and duplicate-free; pre-existing `out`
//! content is left untouched.

use crate::plan::{AndKind, ExprPlan, ExprPlanner, PlanNode, UnionKind};
use crate::rewrite::NormExpr;
use fsi_core::elem::Elem;
use fsi_index::{PlanKind, PlannedExecutor, PlannedList};
use fsi_kernels::{
    chunk_union_into, filter_in_place, gallop_diff_into, gallop_probe_into, heap_union_into,
    BitmapSet, UnionPart,
};

/// A child result: borrowed straight from a prepared list when the child
/// is a term, materialized otherwise.
enum Operand<'a> {
    Borrowed(&'a [Elem]),
    Owned(Vec<Elem>),
}

impl Operand<'_> {
    fn as_slice(&self) -> &[Elem] {
        match self {
            Operand::Borrowed(s) => s,
            Operand::Owned(v) => v,
        }
    }
}

/// Plans and evaluates `expr` against a prepared planned index, returning
/// the ascending result.
pub fn eval_planned(exec: &PlannedExecutor, planner: &ExprPlanner, expr: &NormExpr) -> Vec<Elem> {
    let mut out = Vec::new();
    eval_planned_into(exec, planner, expr, &mut out);
    out
}

/// Plans `expr` over the executor's per-term statistics and document
/// universe, runs the plan, and appends the ascending result to `out`.
/// Returns the plan that ran (telemetry; tests assert operator choices).
pub fn eval_planned_into(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    expr: &NormExpr,
    out: &mut Vec<Elem>,
) -> ExprPlan {
    let plan = planner.plan(expr, &|t| exec.list(t).stats(), exec.universe());
    let start = out.len();
    execute_plan(exec, planner, &plan, out);
    record_misprediction(plan.est_rows, out.len() - start);
    plan
}

/// Records the planner's cardinality-misprediction magnitude,
/// `|log₂((observed+1)/(estimated+1))|` in milli-log₂ units, into the
/// global `fsi_plan_misprediction_millilog2` histogram — `0` means the
/// estimate was exact, `1000` means off by 2×, `2000` by 4×. One cached
/// histogram record per evaluated expression.
fn record_misprediction(est_rows: f64, observed: usize) {
    use std::sync::OnceLock;
    static HIST: OnceLock<std::sync::Arc<fsi_obs::Histogram>> = OnceLock::new();
    let hist = HIST.get_or_init(|| {
        fsi_obs::Registry::global().histogram("fsi_plan_misprediction_millilog2", &[])
    });
    let ratio = (observed as f64 + 1.0) / (est_rows.max(0.0) + 1.0);
    hist.record((ratio.log2().abs() * 1000.0) as u64);
}

/// Runs an already-planned expression, appending the ascending result to
/// `out` — the execute half of [`eval_planned_into`], exposed so harnesses
/// (the boolean benchmark) can time planning and execution separately and
/// callers can re-run a cached plan.
pub fn execute_plan(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    out: &mut Vec<Elem>,
) {
    run_plan(exec, planner, plan, out);
}

/// The bitmap of a subtrahend that is a bitmap-carrying term — such a
/// subtrahend is subtracted by bit test instead of a gallop through its
/// flat list.
pub(crate) fn term_bitmap<'a>(exec: &'a PlannedExecutor, plan: &ExprPlan) -> Option<&'a BitmapSet> {
    match plan.node {
        PlanNode::Term(t) => exec.list(t).bitmap(),
        _ => None,
    }
}

/// Appends `base ∖ (⋃ bitmaps ∪ ⋃ slices)` to `out`, ascending: one bit
/// test per candidate per bitmap subtrahend, then the galloping difference
/// over whatever survives for the rest.
pub(crate) fn subtract_into(
    mut base: Vec<Elem>,
    bitmaps: &[&BitmapSet],
    slices: &[&[Elem]],
    out: &mut Vec<Elem>,
) {
    for bitmap in bitmaps {
        let mut probe = bitmap.probe();
        filter_in_place(&mut base, 0, |x| !probe.contains(x));
    }
    gallop_diff_into(&base, slices, out);
}

fn operand<'a>(exec: &'a PlannedExecutor, planner: &ExprPlanner, plan: &ExprPlan) -> Operand<'a> {
    match &plan.node {
        PlanNode::Term(t) => Operand::Borrowed(exec.list(*t).flat()),
        _ => {
            let mut v = Vec::new();
            run_plan(exec, planner, plan, &mut v);
            Operand::Owned(v)
        }
    }
}

/// Whether a chunk union binds `plan` in place ([`ExprPlan::binds_in_place`]
/// over this index's bitmaps).
pub(crate) fn in_place(exec: &PlannedExecutor, plan: &ExprPlan) -> bool {
    plan.binds_in_place(|t| exec.list(t).bitmap().is_some())
}

/// The chunk-union part that binds `plan` in place, when [`in_place`] says
/// one does.
fn union_part<'a>(exec: &'a PlannedExecutor, plan: &ExprPlan) -> Option<UnionPart<'a>> {
    if !in_place(exec, plan) {
        return None;
    }
    let term = |p: &ExprPlan| match p.node {
        PlanNode::Term(t) => Some(exec.list(t)),
        _ => None,
    };
    match &plan.node {
        PlanNode::And { pos, neg, .. } => {
            let pos = pos
                .iter()
                .map(|p| term(p)?.bitmap())
                .collect::<Option<Vec<_>>>()?;
            let (mut bitmaps, mut lists) = (Vec::new(), Vec::new());
            for list in neg.iter().map(term) {
                let list = list?;
                match list.bitmap() {
                    Some(bitmap) => bitmaps.push(bitmap),
                    None => lists.push(list.flat()),
                }
            }
            Some(UnionPart::And {
                pos,
                neg: bitmaps,
                neg_lists: lists,
            })
        }
        _ => term(plan)?.bitmap().map(UnionPart::Bitmap),
    }
}

/// Runs the chunk union over `children`, appending the ascending result to
/// `out`: each child binds in place where [`union_part`] finds a part, and
/// otherwise contributes `listed[i]`, its sorted result — which the caller
/// materializes (the executor untimed, `EXPLAIN ANALYZE` timed). An `AND
/// NOT` over a bitmap AND runs here as the one child of its own union.
pub(crate) fn chunk_union<'a>(
    exec: &'a PlannedExecutor,
    children: &[ExprPlan],
    listed: &[Option<&'a [Elem]>],
    out: &mut Vec<Elem>,
) {
    let parts: Vec<UnionPart> = children
        .iter()
        .zip(listed)
        .map(|(c, l)| match l {
            Some(list) => UnionPart::List(list),
            None => union_part(exec, c).unwrap_or(UnionPart::List(&[])),
        })
        .collect();
    chunk_union_into(&parts, out);
}

fn run_plan(exec: &PlannedExecutor, planner: &ExprPlanner, plan: &ExprPlan, out: &mut Vec<Elem>) {
    match &plan.node {
        PlanNode::Term(t) => out.extend_from_slice(exec.list(*t).flat()),
        PlanNode::And { pos, neg, kind } => {
            if neg.is_empty() {
                run_and_base(exec, planner, pos, kind, out);
            } else if in_place(exec, plan) {
                chunk_union(exec, std::slice::from_ref(plan), &[None], out);
            } else {
                let mut base = Vec::new();
                run_and_base(exec, planner, pos, kind, &mut base);
                if base.is_empty() {
                    return; // nothing to subtract from — skip the negs
                }
                let mut bitmaps: Vec<&BitmapSet> = Vec::new();
                let mut neg_ops: Vec<Operand> = Vec::new();
                for n in neg {
                    match term_bitmap(exec, n) {
                        Some(bitmap) => bitmaps.push(bitmap),
                        None => neg_ops.push(operand(exec, planner, n)),
                    }
                }
                let neg_slices: Vec<&[Elem]> = neg_ops.iter().map(Operand::as_slice).collect();
                subtract_into(base, &bitmaps, &neg_slices, out);
            }
        }
        PlanNode::Or { children, kind } => {
            let ops: Vec<Option<Operand>> = children
                .iter()
                .map(|c| match kind {
                    UnionKind::BitmapOr if in_place(exec, c) => None,
                    _ => Some(operand(exec, planner, c)),
                })
                .collect();
            let listed: Vec<Option<&[Elem]>> = ops
                .iter()
                .map(|o| o.as_ref().map(Operand::as_slice))
                .collect();
            match kind {
                UnionKind::BitmapOr => chunk_union(exec, children, &listed, out),
                UnionKind::HeapMerge => {
                    let slices: Vec<&[Elem]> = listed.iter().flatten().copied().collect();
                    heap_union_into(&slices, out);
                }
            }
        }
    }
}

/// Runs an `And` node's positive intersection, appending ascending output.
fn run_and_base(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    pos: &[ExprPlan],
    kind: &AndKind,
    out: &mut Vec<Elem>,
) {
    let start = out.len();
    match kind {
        AndKind::Multiway(mplan) => {
            let lists: Vec<&PlannedList> = pos
                .iter()
                .map(|p| match p.node {
                    PlanNode::Term(t) => exec.list(t),
                    // audit:allow(hot_path_panic): the planner only puts Term nodes under Multiway
                    _ => unreachable!("Multiway only planned over term operands"),
                })
                .collect();
            planner.and.execute(mplan, &lists, out);
            // Every kernel emits ascending output except RanGroupScan's
            // g-order — only that plan pays the sort.
            if mplan.kind == PlanKind::RanGroupScan {
                out[start..].sort_unstable();
            }
        }
        AndKind::SliceProbe => {
            let ops: Vec<Operand> = pos.iter().map(|p| operand(exec, planner, p)).collect();
            let slices: Vec<&[Elem]> = ops.iter().map(Operand::as_slice).collect();
            gallop_probe_into(&slices, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_eval;
    use crate::parse;
    use crate::rewrite::normalize;
    use fsi_core::{HashContext, SortedSet};
    use fsi_index::{Planner, SearchEngine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine(seed: u64) -> SearchEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let postings: Vec<SortedSet> = (0..10)
            .map(|i| {
                let n = 150 * (i + 1);
                (0..n).map(|_| rng.gen_range(0..30_000u32)).collect()
            })
            .collect();
        SearchEngine::from_postings(HashContext::new(3), postings)
    }

    fn check(src: &str) {
        let engine = engine(42);
        let norm = normalize(&parse(src).expect("parses")).expect("bounded");
        let slices: Vec<&[Elem]> = (0..engine.num_terms())
            .map(|t| engine.posting(t).as_slice())
            .collect();
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        let planned = engine.planned_executor(Planner::default());
        let got = eval_planned(&planned, &ExprPlanner::default(), &norm);
        assert_eq!(got, expect, "{src}");
    }

    #[test]
    fn boolean_shapes_match_naive_semantics() {
        for src in [
            "0",
            "0 AND 5",
            "0 1 2 3",
            "0 OR 5",
            "0 OR 1 OR 2 OR 9",
            "9 AND NOT 0",
            "9 AND NOT (0 OR 1)",
            "(0 OR 1) AND (2 OR 3)",
            "8 AND (1 OR NOT 3)",
            "(0 AND 1) OR (2 AND NOT 3)",
            "9 AND NOT (1 AND NOT 2)",
        ] {
            check(src);
        }
    }

    #[test]
    fn appending_after_existing_content_is_safe() {
        // The append contract: pre-existing `out` content
        // survives untouched and the fresh result lands after it — even
        // when the prefix ends in a value equal to the first emitted
        // document (neither union may dedup across the boundary). The
        // mixed engine under a chunk-union-only planner covers the chunk
        // path: unions of terms, of swept ANDs, and AND NOT over one.
        let small = engine(7);
        let mixed = mixed_engine();
        for (engine, planner, srcs) in [
            (
                &small,
                ExprPlanner::default(),
                ["0 OR 1", "0 AND 1", "9 AND NOT 0"],
            ),
            (
                &mixed,
                chunk_union_only(),
                ["0 OR 4", "(0 1) OR (2 8)", "0 1 AND NOT 4"],
            ),
        ] {
            let planned = engine.planned_executor(Planner::default());
            for src in srcs {
                let norm = normalize(&parse(src).expect("p")).expect("b");
                let mut fresh = Vec::new();
                eval_planned_into(&planned, &planner, &norm, &mut fresh);
                let prefix = vec![7u32, 3, fresh.first().copied().unwrap_or(0)];
                let mut out = prefix.clone();
                eval_planned_into(&planned, &planner, &norm, &mut out);
                assert_eq!(&out[..prefix.len()], prefix.as_slice(), "{src}");
                assert_eq!(&out[prefix.len()..], fresh.as_slice(), "{src}");
            }
        }
    }

    /// Lists over five chunks: bitmap-carrying ones spanning all of them
    /// or confined to disjoint chunk ranges, table-carrying ones (sparse,
    /// or confined to one chunk), and an empty one.
    fn mixed_engine() -> SearchEngine {
        const C: u32 = 1 << 16;
        let mut rng = StdRng::seed_from_u64(31);
        let mut sparse = |n: usize, lo: u32, hi: u32| -> SortedSet {
            (0..n).map(|_| rng.gen_range(lo..hi)).collect()
        };
        let postings: Vec<SortedSet> = vec![
            (0..5 * C).step_by(3).collect(),     // 0: bitmap, every chunk
            (0..5 * C).step_by(5).collect(),     // 1: bitmap, every chunk
            (0..2 * C).step_by(2).collect(),     // 2: bitmap, chunks 0–1
            (3 * C..5 * C).step_by(7).collect(), // 3: bitmap, chunks 3–4
            sparse(500, 0, 5 * C),               // 4: table
            sparse(2000, 0, 5 * C),              // 5: table
            sparse(800, 2 * C, 3 * C),           // 6: table, chunk 2 only
            SortedSet::new(),                    // 7: empty
            (0..5 * C).step_by(11).collect(),    // 8: bitmap, every chunk
        ];
        SearchEngine::from_postings(HashContext::new(17), postings)
    }

    /// A planner that picks the chunk union for every `OR` and sweeps every
    /// `AND` it can bind in place.
    fn chunk_union_only() -> ExprPlanner {
        ExprPlanner {
            union_unit: f64::INFINITY,
            union_bitmap_word_unit: 0.0,
            ..ExprPlanner::default()
        }
    }

    /// Every `OR` node of `plan` with its kind.
    fn unions(plan: &ExprPlan) -> Vec<UnionKind> {
        match &plan.node {
            PlanNode::Term(_) => Vec::new(),
            PlanNode::And { pos, neg, .. } => pos.iter().chain(neg).flat_map(unions).collect(),
            PlanNode::Or { children, kind } => std::iter::once(*kind)
                .chain(children.iter().flat_map(unions))
                .collect(),
        }
    }

    #[test]
    fn chunk_union_matches_naive_on_every_child_mix() {
        let engine = mixed_engine();
        let planned = engine.planned_executor(Planner::default());
        assert_eq!(planned.num_bitmap_lists(), 6, "the fixture's structures");
        let slices: Vec<&[Elem]> = (0..engine.num_terms())
            .map(|t| engine.posting(t).as_slice())
            .collect();
        for src in [
            "0 OR 1",                              // bitmap terms
            "0 OR 4 OR 6",                         // bitmap and table terms
            "(0 1) OR (2 8)",                      // BitmapAnd children
            "(0 1 NOT 8) OR (2 3)",                // bitmap subtrahend; disjoint chunks
            "(0 1 NOT 4) OR (8 NOT 5 NOT 6)",      // table subtrahends
            "(4 5) OR (0 6) OR (5 8)",             // materialized probes and scans
            "((0 OR 4) AND 5) OR 2",               // nested OR, materialized
            "7 OR 0",                              // empty child
            "(2 3) OR (6 4) OR 7",                 // every child empty
            "(2 3) OR (3 6)",                      // empty unions of disjoint ranges
            "(0 AND NOT 1) OR (3 AND NOT 8) OR 6", // one-term ANDs with subtrahends
            "(0 8 NOT (4 OR 6)) OR 3",             // a non-term subtrahend
            "0 1 AND NOT 8",                       // AND NOT over a bitmap AND
            "0 1 AND NOT 4 AND NOT 5",             // ... with table subtrahends
            "2 AND NOT (4 OR 5)",
        ] {
            let norm = normalize(&parse(src).expect("parses")).expect("bounded");
            let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
            for (name, planner) in [
                ("default", ExprPlanner::default()),
                ("chunk", chunk_union_only()),
            ] {
                let mut got = Vec::new();
                let plan = eval_planned_into(&planned, &planner, &norm, &mut got);
                assert_eq!(got, expect, "{src} ({name}: {})", plan.describe());
                if name == "chunk" {
                    assert!(
                        unions(&plan).iter().all(|&k| k == UnionKind::BitmapOr),
                        "{src}: {}",
                        plan.describe()
                    );
                }
                // `EXPLAIN ANALYZE` runs the same union routine.
                let mut analyzed = Vec::new();
                crate::explain::analyze_plan(&planned, &planner, &plan, &mut analyzed);
                assert_eq!(analyzed, expect, "{src} ({name}, analyzed)");
            }
        }
    }

    #[test]
    fn chunk_union_absorbs_duplicate_children_and_the_last_chunk() {
        // Duplicate children never survive normalization; a hand-built
        // plan still has to union them to one copy.
        let engine = mixed_engine();
        let planned = engine.planned_executor(Planner::default());
        let planner = chunk_union_only();
        let slices: Vec<&[Elem]> = (0..engine.num_terms())
            .map(|t| engine.posting(t).as_slice())
            .collect();
        let norm = normalize(&parse("(0 1 NOT 4) OR 6 OR 2").expect("p")).expect("b");
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        let mut plan = planner.plan(&norm, &|t| planned.list(t).stats(), planned.universe());
        let PlanNode::Or { children, .. } = &mut plan.node else {
            panic!("expected Or, got {}", plan.describe());
        };
        children.extend(children.clone());
        let mut got = Vec::new();
        execute_plan(&planned, &planner, &plan, &mut got);
        assert_eq!(got, expect);
        // Chunk 0xFFFF: values up to u32::MAX, in place and listed.
        let top = u32::MAX - 70_000;
        let postings: Vec<SortedSet> = vec![
            (top..=u32::MAX).step_by(2).collect(),
            (top..=u32::MAX).step_by(3).collect(),
            (top..=u32::MAX).step_by(997).chain([u32::MAX]).collect(),
            (0..70_000u32).step_by(4).collect(),
        ];
        let engine = SearchEngine::from_postings(HashContext::new(19), postings);
        let planned = engine.planned_executor(Planner::default());
        let slices: Vec<&[Elem]> = (0..4).map(|t| engine.posting(t).as_slice()).collect();
        assert_eq!(slices[2].last(), Some(&u32::MAX));
        for src in [
            "0 OR 1 OR 2 OR 3",
            "(0 1) OR 2 OR 3",
            "0 1 AND NOT 2",
            "(0 1 NOT 2) OR (3 AND NOT 2)",
        ] {
            let norm = normalize(&parse(src).expect("p")).expect("b");
            let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
            let got = eval_planned(&planned, &planner, &norm);
            assert_eq!(got, expect, "{src}");
        }
    }

    #[test]
    fn planned_or_of_dense_terms_uses_the_bitmap_sweep() {
        // Dense consecutive postings → every list carries a bitmap.
        let postings: Vec<SortedSet> = (0..3)
            .map(|i: u32| ((i * 100)..(40_000 + i * 100)).collect())
            .collect();
        let engine = SearchEngine::from_postings(HashContext::new(5), postings);
        let planned = engine.planned_executor(Planner::default());
        let norm = normalize(&parse("0 OR 1 OR 2").expect("p")).expect("b");
        let mut out = Vec::new();
        let plan = eval_planned_into(&planned, &ExprPlanner::default(), &norm, &mut out);
        assert!(
            matches!(
                plan.node,
                PlanNode::Or {
                    kind: UnionKind::BitmapOr,
                    ..
                }
            ),
            "{plan:?}"
        );
        let slices: Vec<&[Elem]> = (0..3).map(|t| engine.posting(t).as_slice()).collect();
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        assert_eq!(out, expect);
    }
}
