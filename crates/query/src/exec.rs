//! Expression execution over an [`fsi_index::PlannedExecutor`]:
//! [`eval_planned_into`] plans and runs the full cost-based path, one
//! operator per node kind.
//!
//! * Every `AND` runs its [`fsi_index::MultiwayPlan`] through
//!   [`fsi_index::Planner::execute`] over prepared lists: a term borrows
//!   its own, and a sub-expression operand runs and is narrowed to chunked
//!   arrays (`PlannedList::Array`), so the plan reads it like any term. A
//!   lone sub-expression operand runs straight into the output.
//! * Every `OR` is the chunk union (`fsi_kernels::chunk_union_into`). It
//!   binds every term (a bitmap's words, an array's runs) and `BitmapAnd`
//!   children in place; any other child runs and is passed as a sorted
//!   list. Per chunk the kernel merges sparse runs or gathers dense ones in
//!   a bitmap accumulator, and the result leaves once.
//! * Every difference is a run of one membership pass
//!   (`fsi_kernels::retain_members`) per subtrahend over candidates already
//!   in the output: a bit test against a subtrahend that carries a bitmap,
//!   a chunk cursor and a gallop through chunked arrays — a sub-expression
//!   narrowed to them first. Over a `BitmapAnd` base with term subtrahends
//!   a difference is a one-child chunk union instead.
//!
//! A term where a sorted run of documents is needed (the root, a probe's
//! driver) is widened from its arrays or extracted from its bitmap, since
//! a list keeps no sorted `u32` copy.
//!
//! `EXPLAIN ANALYZE` ([`analyze_plan`]) is the same walk with a report
//! sink; without one — every served query — the walk reads no clock.
//!
//! Output is appended ascending and duplicate-free; pre-existing `out`
//! content is left untouched.

use crate::explain::{estimates, in_place_report, input_report, ns, report_plan, NodeReport};
use crate::plan::{ExprPlan, ExprPlanner, PlanNode};
use crate::rewrite::NormExpr;
use fsi_core::elem::Elem;
use fsi_index::{MultiwayPlan, PlanKind, PlannedExecutor, PlannedList};
use fsi_kernels::{chunk_union_into, retain_members, ArraySet, UnionPart};
use std::borrow::Cow;
use std::time::Instant;

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
    record_plan(&plan, out.len() - start);
    plan
}

/// Records the plan that ran into the global registry, once per evaluated
/// expression — planning itself records nothing, so `EXPLAIN` counts
/// nothing:
///
/// * the multiway kind of every `AND` in the tree
///   (`fsi_plan_kind_total{kind}`), by [`visit_kinds`];
/// * the root's estimated cost (`fsi_plan_est_cost`);
/// * the cardinality-misprediction magnitude,
///   `|log₂((observed+1)/(estimated+1))|` in milli-log₂ units
///   (`fsi_plan_misprediction_millilog2`) — `0` means the estimate was
///   exact, `1000` means off by 2×, `2000` by 4×.
fn record_plan(plan: &ExprPlan, observed: usize) {
    use fsi_obs::{Counter, Histogram, Registry};
    use std::sync::{Arc, OnceLock};
    type Handles = (
        [Arc<Counter>; PlanKind::ALL.len()],
        Arc<Histogram>,
        Arc<Histogram>,
    );
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let (kinds, est_cost, mispredicted) = HANDLES.get_or_init(|| {
        let r = Registry::global();
        (
            PlanKind::ALL.map(|k| r.counter("fsi_plan_kind_total", &[("kind", k.name())])),
            r.histogram("fsi_plan_est_cost", &[]),
            r.histogram("fsi_plan_misprediction_millilog2", &[]),
        )
    });
    // `ALL` lists every kind at its discriminant, so `get` always finds it.
    visit_kinds(plan, &mut |k| {
        kinds.get(k as usize).into_iter().for_each(|c| c.inc())
    });
    est_cost.record(plan.est_cost.max(0.0) as u64);
    let ratio = (observed as f64 + 1.0) / (plan.est_rows.max(0.0) + 1.0);
    mispredicted.record((ratio.log2().abs() * 1000.0) as u64);
}

/// Calls `and` with the multiway kind of every `AND` in `plan`, in
/// preorder: what each runs, the kind [`fsi_index::Planner::plan`] picked.
fn visit_kinds(plan: &ExprPlan, and: &mut impl FnMut(PlanKind)) {
    match &plan.node {
        PlanNode::Term(_) => {}
        PlanNode::And { pos, neg, multiway } => {
            and(multiway.kind);
            pos.iter().chain(neg).for_each(|c| visit_kinds(c, and));
        }
        PlanNode::Or { children } => children.iter().for_each(|c| visit_kinds(c, and)),
    }
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
    run_plan(exec, planner, plan, out, None);
}

/// Runs `plan` through [`execute_plan`]'s walk with a report sink,
/// appending the same ascending result to `out`, and returns the measured
/// report tree — the `EXPLAIN ANALYZE` half.
pub fn analyze_plan(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    out: &mut Vec<Elem>,
) -> NodeReport {
    let (start, t0) = (out.len(), Instant::now());
    let mut children = Vec::new();
    run_node(exec, planner, plan, out, Some(&mut children));
    NodeReport {
        rows: Some((out.len() - start) as u64),
        wall_ns: Some(ns(t0.elapsed())),
        children,
        ..estimates(plan)
    }
}

/// Runs `plan`, appending the ascending result to `out`. With a report
/// `sink` the node's timed [`NodeReport`] is pushed onto it; without one
/// (every served query) nothing is timed or built.
fn run_plan(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    out: &mut Vec<Elem>,
    sink: Option<&mut Vec<NodeReport>>,
) {
    match sink {
        None => run_node(exec, planner, plan, out, None),
        Some(sink) => sink.push(analyze_plan(exec, planner, plan, out)),
    }
}

/// A child as a prepared list: a term borrows its own (an `(input)` report
/// row), any other child runs and is narrowed to chunked arrays.
fn operand<'a>(
    exec: &'a PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    sink: Option<&mut Vec<NodeReport>>,
) -> Cow<'a, PlannedList> {
    match &plan.node {
        PlanNode::Term(t) => {
            let list = exec.list(*t);
            if let Some(sink) = sink {
                sink.push(input_report(plan, list));
            }
            Cow::Borrowed(list)
        }
        _ => {
            let mut run = Vec::new();
            run_plan(exec, planner, plan, &mut run, sink);
            Cow::Owned(PlannedList::Array(ArraySet::from_sorted_slice(&run)))
        }
    }
}

/// The prepared list of `plan` when it is a term.
fn term<'a>(exec: &'a PlannedExecutor, plan: &ExprPlan) -> Option<&'a PlannedList> {
    match plan.node {
        PlanNode::Term(t) => Some(exec.list(t)),
        _ => None,
    }
}

/// The chunk-union part that binds `plan` without running it: any term
/// (its bitmap's words or its arrays' runs), or a `BitmapAnd` over
/// bitmap-carrying terms whose subtrahends are terms (its word-wise `AND`,
/// subtrahends removed per chunk). `None` for anything else, which runs.
fn union_part<'a>(exec: &'a PlannedExecutor, plan: &ExprPlan) -> Option<UnionPart<'a>> {
    let term = |p| term(exec, p);
    match &plan.node {
        PlanNode::Term(t) => Some(match exec.list(*t) {
            PlannedList::Array(array) => UnionPart::Array(array),
            PlannedList::Bitmap(bitmap) => UnionPart::Bitmap(bitmap),
        }),
        PlanNode::And { pos, neg, multiway } if multiway.kind == PlanKind::BitmapAnd => {
            let pos = pos
                .iter()
                .map(|p| term(p)?.bitmap())
                .collect::<Option<Vec<_>>>()?;
            let (mut bitmaps, mut arrays) = (Vec::new(), Vec::new());
            for list in neg.iter().map(term) {
                match list? {
                    PlannedList::Bitmap(bitmap) => bitmaps.push(bitmap),
                    PlannedList::Array(array) => arrays.push(array),
                }
            }
            Some(UnionPart::And {
                pos,
                neg: bitmaps,
                neg_arrays: arrays,
            })
        }
        _ => None,
    }
}

/// One node's operator: its children run through [`run_plan`] with `sink`,
/// which collects their reports in evaluation order.
fn run_node(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    out: &mut Vec<Elem>,
    mut sink: Option<&mut Vec<NodeReport>>,
) {
    match &plan.node {
        PlanNode::Term(t) => exec.list(*t).extend_into(out),
        PlanNode::And { pos, neg, multiway } => {
            // An `AND NOT` over a bitmap `AND` runs as the one child of its
            // own chunk union.
            if let Some(part) = (!neg.is_empty()).then(|| union_part(exec, plan)).flatten() {
                chunk_union_into(&[part], out);
                if let Some(sink) = sink {
                    sink.extend(in_place_report(exec, plan).children);
                }
                return;
            }
            let start = out.len();
            run_and_base(exec, planner, pos, multiway, out, sink.as_deref_mut());
            let first_neg = sink.as_deref().map_or(0, Vec::len);
            for n in neg {
                if out.len() == start {
                    // Nothing left to subtract from: the rest are skipped,
                    // but listed as the plan's children.
                    if let Some(sink) = sink.as_deref_mut() {
                        sink.push(report_plan(n));
                    }
                    continue;
                }
                let subtrahend = operand(exec, planner, n, sink.as_deref_mut());
                retain_members(out, start, subtrahend.member(), false);
            }
            if let Some(sink) = sink {
                sink.iter_mut()
                    .skip(first_neg)
                    .for_each(|r| r.negated = true);
            }
        }
        PlanNode::Or { children } => {
            // Every child the union binds in place is a part as it is; any
            // other runs first and is passed as its sorted result.
            let bound: Vec<Option<UnionPart>> =
                children.iter().map(|c| union_part(exec, c)).collect();
            let runs: Vec<Vec<Elem>> = children
                .iter()
                .zip(&bound)
                .map(|(c, part)| {
                    let mut run = Vec::new();
                    match part {
                        Some(_) => {
                            if let Some(sink) = sink.as_deref_mut() {
                                sink.push(in_place_report(exec, c));
                            }
                        }
                        None => run_plan(exec, planner, c, &mut run, sink.as_deref_mut()),
                    }
                    run
                })
                .collect();
            let parts: Vec<UnionPart> = bound
                .into_iter()
                .zip(&runs)
                .map(|(part, run)| part.unwrap_or(UnionPart::List(run)))
                .collect();
            chunk_union_into(&parts, out);
        }
    }
}

/// Runs an `AND` node's positive intersection, appending ascending output:
/// its multiway plan over every operand as a prepared list, or a lone
/// sub-expression operand straight into `out`. Terms alone are borrowed
/// into one list; with a sub-expression among them, each operand is an
/// [`operand`] first.
fn run_and_base(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    pos: &[ExprPlan],
    multiway: &MultiwayPlan,
    out: &mut Vec<Elem>,
    mut sink: Option<&mut Vec<NodeReport>>,
) {
    if let [only] = pos {
        if term(exec, only).is_none() {
            return run_plan(exec, planner, only, out, sink);
        }
    }
    let narrowed: Vec<Cow<PlannedList>>;
    let lists: Vec<&PlannedList> = match pos.iter().map(|p| term(exec, p)).collect() {
        Some(terms) => {
            if let Some(sink) = sink {
                sink.extend(pos.iter().zip(&terms).map(|(p, &l)| input_report(p, l)));
            }
            terms
        }
        None => {
            narrowed = pos
                .iter()
                .map(|p| operand(exec, planner, p, sink.as_deref_mut()))
                .collect();
            narrowed.iter().map(AsRef::as_ref).collect()
        }
    };
    planner.and.execute(multiway, &lists, out);
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
        // mixed engine's plans forced onto the chunk union cover the chunk
        // path: unions of terms, of swept ANDs, and AND NOT over one.
        let small = engine(7);
        let mixed = mixed_engine();
        for (engine, chunk, srcs) in [
            (&small, false, ["0 OR 1", "0 AND 1", "9 AND NOT 0"]),
            (&mixed, true, ["0 OR 4", "(0 1) OR (2 8)", "0 1 AND NOT 4"]),
        ] {
            let planned = engine.planned_executor(Planner::default());
            for src in srcs {
                let norm = normalize(&parse(src).expect("p")).expect("b");
                let plan = plan_for(&planned, &norm, chunk);
                let mut fresh = Vec::new();
                execute_plan(&planned, &ExprPlanner::default(), &plan, &mut fresh);
                let prefix = vec![7u32, 3, fresh.first().copied().unwrap_or(0)];
                let mut out = prefix.clone();
                execute_plan(&planned, &ExprPlanner::default(), &plan, &mut out);
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

    /// The default plan of `norm`, or with `chunk` that plan forced onto
    /// the chunk union's in-place parts: every `AND` of bitmap-carrying
    /// terms with term subtrahends is swept in place.
    fn plan_for(exec: &PlannedExecutor, norm: &NormExpr, chunk: bool) -> ExprPlan {
        fn force(exec: &PlannedExecutor, plan: &mut ExprPlan) {
            match &mut plan.node {
                PlanNode::Term(_) => {}
                PlanNode::And { pos, neg, multiway } => {
                    let bitmap = |p: &ExprPlan| match p.node {
                        PlanNode::Term(t) => exec.list(t).bitmap().is_some(),
                        _ => false,
                    };
                    let term = |p: &ExprPlan| matches!(p.node, PlanNode::Term(_));
                    if pos.iter().all(bitmap) && neg.iter().all(term) {
                        multiway.kind = PlanKind::BitmapAnd;
                    }
                    pos.iter_mut().chain(neg).for_each(|c| force(exec, c));
                }
                PlanNode::Or { children } => children.iter_mut().for_each(|c| force(exec, c)),
            }
        }
        let mut plan =
            ExprPlanner::default().plan(norm, &|t| exec.list(t).stats(), exec.universe());
        if chunk {
            force(exec, &mut plan);
        }
        plan
    }

    /// The multiway kinds [`visit_kinds`] reports, in preorder.
    fn kinds(plan: &ExprPlan) -> Vec<PlanKind> {
        let mut ands = Vec::new();
        visit_kinds(plan, &mut |k| ands.push(k));
        ands
    }

    /// The multiway plan of every `AND` in `plan`, in preorder.
    fn multiways(plan: &ExprPlan) -> Vec<&MultiwayPlan> {
        match &plan.node {
            PlanNode::Term(_) => Vec::new(),
            PlanNode::And { pos, neg, multiway } => std::iter::once(multiway)
                .chain(pos.iter().chain(neg).flat_map(multiways))
                .collect(),
            PlanNode::Or { children } => children.iter().flat_map(multiways).collect(),
        }
    }

    #[test]
    fn an_and_plans_the_same_alone_under_a_union_and_as_a_difference_base() {
        // The benchmark corpus's shape (t0–t3), plus a seven-way AND of
        // bitmaps at one member per word (t4–t10): it probes, since its
        // driver's extraction and bit tests cost less at the scalar tier
        // than six word passes and an extraction. Under a chunk union and
        // under a subtrahend it keeps that plan — it is materialized, not
        // swept — and the walk reports the kinds that run.
        let mut sizes = vec![600_000, 300_000, 200_000, 40_000, 31 * 1024];
        sizes.extend([75_000; 6]);
        let stats = |t: usize| fsi_index::OperandStats {
            n: sizes[t],
            chunks: Some(31),
        };
        let plan = |src: &str| {
            let norm = normalize(&parse(src).expect("p")).expect("b");
            ExprPlanner::default().plan(&norm, &stats, 2_000_000)
        };
        let seven = "4 5 6 7 8 9 10";
        let alone = plan(seven);
        assert_eq!(kinds(&alone), [PlanKind::HashProbe]);
        let union = plan(&format!("({seven}) OR (0 1)"));
        let base = plan(&format!("({seven}) AND NOT 3"));
        assert!(
            multiways(&union).contains(&multiways(&alone)[0]),
            "{}",
            union.describe()
        );
        assert_eq!(multiways(&base), multiways(&alone));
        let mut ran = kinds(&union);
        ran.sort_by_key(|k| *k as usize);
        assert_eq!(ran, [PlanKind::HashProbe, PlanKind::BitmapAnd]);
        // A `BitmapAnd` is swept under both and priced so, with the kind
        // and operand order it plans alone.
        let pair = plan("0 1");
        let swept = [plan("(0 1) OR 2"), plan("0 1 AND NOT 3")];
        for p in &swept {
            let (got, want) = (multiways(p)[0], multiways(&pair)[0]);
            assert_eq!((got.kind, &got.order), (want.kind, &want.order));
            assert_eq!(got.kind, PlanKind::BitmapAnd);
        }
        // Nested: a union inside a mixed AND, under a subtrahend — the
        // mixed AND's multiway kind is counted as well.
        assert_eq!(kinds(&plan("2 AND (0 OR 1) AND NOT (1 3)")).len(), 2);
    }

    #[test]
    fn every_kind_is_recorded_under_its_own_label() {
        // `ALL` is the enum's variants at their discriminants; the
        // exhaustive match stops a new variant from compiling until it is
        // counted here too.
        let plan_kinds = |k: PlanKind| match k {
            PlanKind::Empty
            | PlanKind::Single
            | PlanKind::RanGroupScan
            | PlanKind::HashProbe
            | PlanKind::BitmapAnd
            | PlanKind::GallopProbe
            | PlanKind::HeapMerge
            | PlanKind::CompressedGallop
            | PlanKind::SimdMerge => 9,
        };
        for (i, k) in PlanKind::ALL.into_iter().enumerate() {
            assert_eq!((k as usize, PlanKind::ALL.len()), (i, plan_kinds(k)));
        }
        let names: std::collections::HashSet<&str> =
            PlanKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), PlanKind::ALL.len());
        // Recording a plan bumps the counter under its kind's label. Other
        // tests record concurrently, so only "at least once" is certain.
        let registry = fsi_obs::Registry::global();
        let plan = |node| ExprPlan {
            node,
            est_rows: 0.0,
            est_cost: 0.0,
        };
        for kind in PlanKind::ALL {
            let counter = registry.counter("fsi_plan_kind_total", &[("kind", kind.name())]);
            let before = counter.get();
            let multiway = MultiwayPlan {
                kind,
                order: Vec::new(),
                est_cost: 0.0,
            };
            record_plan(
                &plan(PlanNode::And {
                    pos: Vec::new(),
                    neg: Vec::new(),
                    multiway,
                }),
                0,
            );
            assert!(counter.get() > before, "{kind:?}");
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
            let planner = ExprPlanner::default();
            for chunk in [false, true] {
                let plan = plan_for(&planned, &norm, chunk);
                let mut got = Vec::new();
                execute_plan(&planned, &planner, &plan, &mut got);
                assert_eq!(got, expect, "{src} (chunk {chunk}: {})", plan.describe());
                // `EXPLAIN ANALYZE` runs the same walk.
                let mut analyzed = Vec::new();
                analyze_plan(&planned, &planner, &plan, &mut analyzed);
                assert_eq!(analyzed, expect, "{src} (chunk {chunk}, analyzed)");
            }
        }
    }

    #[test]
    fn chunk_union_absorbs_duplicate_children_and_the_last_chunk() {
        // Duplicate children never survive normalization; a hand-built
        // plan still has to union them to one copy.
        let engine = mixed_engine();
        let planned = engine.planned_executor(Planner::default());
        let planner = ExprPlanner::default();
        let slices: Vec<&[Elem]> = (0..engine.num_terms())
            .map(|t| engine.posting(t).as_slice())
            .collect();
        let norm = normalize(&parse("(0 1 NOT 4) OR 6 OR 2").expect("p")).expect("b");
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        let mut plan = plan_for(&planned, &norm, true);
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
            let mut got = Vec::new();
            execute_plan(
                &planned,
                &planner,
                &plan_for(&planned, &norm, true),
                &mut got,
            );
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
        assert_eq!(plan.describe(), "Or[ChunkUnion](t0, t1, t2)");
        let slices: Vec<&[Elem]> = (0..3).map(|t| engine.posting(t).as_slice()).collect();
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        assert_eq!(out, expect);
    }
}
