//! `EXPLAIN` / `EXPLAIN ANALYZE`: renders an [`ExprPlan`] as a plan tree
//! with the cost model's per-node estimates, and (for `ANALYZE`) actually
//! runs the plan through a timed mirror of the executor so measured rows
//! and per-node wall clock sit side by side with the estimates.
//!
//! The analyzed execution ([`analyze_plan`]) produces **byte-identical
//! output** to [`crate::execute_plan`] — it is the same operator dispatch
//! with an `Instant` pair around each node — and its timing obeys two
//! invariants the integration tests pin: a parent's wall clock bounds the
//! sum of its children's (children run inside the parent's window), and
//! the root's wall clock bounds every node's. Term operands that kernels
//! consume *in place* (multiway operands, bitmap-`OR` operands, borrowed
//! union/difference slices) are reported as `(input)` rows with no timing
//! of their own: nothing executes for them separately.

use crate::exec::{subtract_into, term_bitmap};
use crate::plan::{AndKind, ExprPlan, ExprPlanner, PlanNode, UnionKind};
use crate::rewrite::NormExpr;
use fsi_core::elem::Elem;
use fsi_index::{PlanKind, PlannedExecutor, PlannedList};
use fsi_kernels::{gallop_probe_into, heap_union_into, BitmapSet};
use std::time::Instant;

/// Which explain variant a query prefix requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// Render the plan and estimates without executing.
    Plan,
    /// Execute with per-node timing and render estimates vs measurements.
    Analyze,
}

/// Strips a leading (case-insensitive) `EXPLAIN` or `EXPLAIN ANALYZE`
/// keyword off a query string, returning the requested mode (if any) and
/// the remaining query text.
pub fn strip_explain(src: &str) -> (Option<ExplainMode>, &str) {
    let trimmed = src.trim_start();
    let Some(rest) = strip_keyword(trimmed, "EXPLAIN") else {
        return (None, src);
    };
    match strip_keyword(rest.trim_start(), "ANALYZE") {
        Some(rest) => (Some(ExplainMode::Analyze), rest.trim_start()),
        None => (Some(ExplainMode::Plan), rest.trim_start()),
    }
}

/// Case-insensitive keyword strip; the keyword must be delimited by
/// end-of-input or a non-alphanumeric byte (so the term `EXPLAINER` — were
/// terms ever textual — would not match).
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() < kw.len() || !s[..kw.len()].eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    match rest.bytes().next() {
        None => Some(rest),
        Some(b) if !b.is_ascii_alphanumeric() => Some(rest),
        _ => None,
    }
}

/// One node of an explain report: the plan's estimates plus (after
/// `ANALYZE`) the measured reality.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Operator label (`t3`, `And[GallopProbe]`, `Or[BitmapOr]`, …).
    pub label: String,
    /// The cost model's estimated result cardinality.
    pub est_rows: f64,
    /// The cost model's estimated cost, in planner units.
    pub est_cost: f64,
    /// Observed result rows (`None` until `ANALYZE` runs; for in-place
    /// term inputs, the prepared list's length).
    pub rows: Option<u64>,
    /// Measured wall clock of this node including its children (`None`
    /// for plain `EXPLAIN` and for in-place inputs, which cost no separate
    /// execution).
    pub wall_ns: Option<u64>,
    /// `true` when this child is a subtrahend (`AND NOT` operand).
    pub negated: bool,
    /// Child reports, in the plan's evaluation order.
    pub children: Vec<NodeReport>,
}

fn label_of(plan: &ExprPlan) -> String {
    match &plan.node {
        PlanNode::Term(t) => format!("t{t}"),
        PlanNode::And { kind, .. } => match kind {
            AndKind::Multiway(m) => format!("And[{}]", m.kind.name()),
            AndKind::SliceProbe => "And[SliceProbe]".to_string(),
        },
        PlanNode::Or { kind, .. } => match kind {
            UnionKind::HeapMerge => "Or[HeapMerge]".to_string(),
            UnionKind::BitmapOr => "Or[BitmapOr]".to_string(),
        },
    }
}

/// An estimates-only report of a plan tree (the `EXPLAIN` half; nothing
/// executes).
pub fn report_plan(plan: &ExprPlan) -> NodeReport {
    let children = match &plan.node {
        PlanNode::Term(_) => Vec::new(),
        PlanNode::And { pos, neg, .. } => pos
            .iter()
            .map(report_plan)
            .chain(neg.iter().map(|n| NodeReport {
                negated: true,
                ..report_plan(n)
            }))
            .collect(),
        PlanNode::Or { children, .. } => children.iter().map(report_plan).collect(),
    };
    NodeReport {
        label: label_of(plan),
        est_rows: plan.est_rows,
        est_cost: plan.est_cost,
        rows: None,
        wall_ns: None,
        negated: false,
        children,
    }
}

/// A report for a term consumed in place by its parent's kernel: observed
/// rows are the prepared list's length, but no separate execution happens,
/// so it carries no timing.
fn input_report(plan: &ExprPlan, list: &PlannedList) -> NodeReport {
    NodeReport {
        label: label_of(plan),
        est_rows: plan.est_rows,
        est_cost: plan.est_cost,
        rows: Some(list.n() as u64),
        wall_ns: None,
        negated: false,
        children: Vec::new(),
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A child operand analyzed for a parent that needs it as a slice:
/// borrowed straight from the prepared list when it is a term (an
/// `(input)` report), executed-and-timed into `buf` otherwise.
fn analyze_operand<'a>(
    exec: &'a PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    buf: &'a mut Vec<Elem>,
) -> (&'a [Elem], NodeReport) {
    match &plan.node {
        PlanNode::Term(t) => {
            let list = exec.list(*t);
            (list.flat(), input_report(plan, list))
        }
        _ => {
            let report = analyze_plan(exec, planner, plan, buf);
            (buf.as_slice(), report)
        }
    }
}

/// Executes `plan` with per-node timing, appending the ascending result to
/// `out` (byte-identical to [`crate::execute_plan`]) and returning the
/// measured report tree.
pub fn analyze_plan(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    out: &mut Vec<Elem>,
) -> NodeReport {
    let start_len = out.len();
    let t0 = Instant::now();
    let children = match &plan.node {
        PlanNode::Term(t) => {
            out.extend_from_slice(exec.list(*t).flat());
            Vec::new()
        }
        PlanNode::And { pos, neg, kind } => {
            let mut children = Vec::with_capacity(pos.len() + neg.len());
            // The positive intersection lands directly in `out` when there
            // is nothing to subtract, into `base` otherwise — exactly the
            // untimed executor's buffering.
            let mut base = Vec::new();
            let target: &mut Vec<Elem> = if neg.is_empty() { &mut *out } else { &mut base };
            match kind {
                AndKind::Multiway(mplan) => {
                    let target_start = target.len();
                    let lists: Vec<&PlannedList> = pos
                        .iter()
                        .map(|p| match p.node {
                            PlanNode::Term(t) => exec.list(t),
                            // audit:allow(hot_path_panic): the planner only puts Term nodes under Multiway
                            _ => unreachable!("Multiway only planned over term operands"),
                        })
                        .collect();
                    for (p, l) in pos.iter().zip(&lists) {
                        children.push(input_report(p, l));
                    }
                    planner.and.execute(mplan, &lists, target);
                    if mplan.kind == PlanKind::RanGroupScan {
                        target[target_start..].sort_unstable();
                    }
                }
                AndKind::SliceProbe => {
                    let mut bufs: Vec<Vec<Elem>> = pos.iter().map(|_| Vec::new()).collect();
                    let mut slices: Vec<&[Elem]> = Vec::with_capacity(pos.len());
                    for (p, buf) in pos.iter().zip(&mut bufs) {
                        let (slice, report) = analyze_operand(exec, planner, p, buf);
                        slices.push(slice);
                        children.push(report);
                    }
                    gallop_probe_into(&slices, target);
                }
            }
            if !neg.is_empty() {
                if base.is_empty() {
                    // The untimed path skips the subtrahends entirely; the
                    // reports still show them as unexecuted plan children.
                    for n in neg {
                        children.push(NodeReport {
                            negated: true,
                            ..report_plan(n)
                        });
                    }
                } else {
                    let mut bufs: Vec<Vec<Elem>> = neg.iter().map(|_| Vec::new()).collect();
                    let mut bitmaps: Vec<&BitmapSet> = Vec::new();
                    let mut slices: Vec<&[Elem]> = Vec::with_capacity(neg.len());
                    for (n, buf) in neg.iter().zip(&mut bufs) {
                        let (slice, report) = analyze_operand(exec, planner, n, buf);
                        match term_bitmap(exec, n) {
                            Some(bitmap) => bitmaps.push(bitmap),
                            None => slices.push(slice),
                        }
                        children.push(NodeReport {
                            negated: true,
                            ..report
                        });
                    }
                    subtract_into(base, &bitmaps, &slices, out);
                }
            }
            children
        }
        PlanNode::Or {
            children: kids,
            kind,
        } => match kind {
            UnionKind::BitmapOr => {
                let mut children = Vec::with_capacity(kids.len());
                let bitmaps: Vec<&BitmapSet> = kids
                    .iter()
                    .map(|c| match c.node {
                        PlanNode::Term(t) => {
                            let list = exec.list(t);
                            children.push(input_report(c, list));
                            list.bitmap()
                                // audit:allow(hot_path_panic): the planner only emits BitmapOr when every term operand carries a bitmap
                                .expect("BitmapOr only planned when every operand carries a bitmap")
                        }
                        // audit:allow(hot_path_panic): the planner only puts Term nodes under BitmapOr
                        _ => unreachable!("BitmapOr only planned over term operands"),
                    })
                    .collect();
                BitmapSet::union_k_into(&bitmaps, out);
                children
            }
            UnionKind::HeapMerge => {
                let mut children = Vec::with_capacity(kids.len());
                let mut bufs: Vec<Vec<Elem>> = kids.iter().map(|_| Vec::new()).collect();
                let mut slices: Vec<&[Elem]> = Vec::with_capacity(kids.len());
                for (c, buf) in kids.iter().zip(&mut bufs) {
                    let (slice, report) = analyze_operand(exec, planner, c, buf);
                    slices.push(slice);
                    children.push(report);
                }
                heap_union_into(&slices, out);
                children
            }
        },
    };
    NodeReport {
        label: label_of(plan),
        est_rows: plan.est_rows,
        est_cost: plan.est_cost,
        rows: Some((out.len() - start_len) as u64),
        wall_ns: Some(ns(t0.elapsed())),
        negated: false,
        children,
    }
}

/// Plans `expr` and renders the requested explain report. `ANALYZE` runs
/// the plan (discarding the result rows beyond counting them).
pub fn explain(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    expr: &NormExpr,
    mode: ExplainMode,
) -> String {
    let plan = planner.plan(expr, &|t| exec.list(t).stats(), exec.universe());
    match mode {
        ExplainMode::Plan => render_report(expr, &report_plan(&plan), mode, None),
        ExplainMode::Analyze => {
            let mut out = Vec::new();
            let t0 = Instant::now();
            let report = analyze_plan(exec, planner, &plan, &mut out);
            let total = ns(t0.elapsed());
            render_report(expr, &report, mode, Some(total))
        }
    }
}

/// Renders a report tree: the canonicalized expression, then one aligned
/// row per node with tree glyphs, estimates, and (for `ANALYZE`) measured
/// rows and time.
pub fn render_report(
    expr: &NormExpr,
    root: &NodeReport,
    mode: ExplainMode,
    total_ns: Option<u64>,
) -> String {
    let analyze = mode == ExplainMode::Analyze;
    let mut rows: Vec<[String; 5]> = Vec::new();
    flatten(root, "", "", &mut rows);
    let mut header = format!(
        "{}\nexpression: {expr}\n",
        if analyze {
            "EXPLAIN ANALYZE"
        } else {
            "EXPLAIN"
        }
    );
    if let Some(total) = total_ns {
        header.push_str(&format!("total: {}\n", fsi_obs::fmt_ns(total)));
    }
    let titles = ["node", "est_rows", "est_cost", "rows", "time"];
    let cols = if analyze { 5 } else { 3 };
    let mut widths: Vec<usize> = titles[..cols].iter().map(|t| t.len()).collect();
    for r in &rows {
        for (w, cell) in widths.iter_mut().zip(r.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = header;
    let fmt_line = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("  {cell:>w$}"));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_line(
        &titles[..cols]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    ));
    for r in &rows {
        out.push_str(&fmt_line(&r[..cols]));
    }
    out
}

/// Flattens the tree into table rows, prefixing labels with box-drawing
/// glyphs. `lead` is this node's glyph prefix, `tail` the prefix its
/// children extend.
fn flatten(node: &NodeReport, lead: &str, tail: &str, rows: &mut Vec<[String; 5]>) {
    let neg = if node.negated { "NOT " } else { "" };
    rows.push([
        format!("{lead}{neg}{}", node.label),
        fmt_est(node.est_rows),
        fmt_est(node.est_cost),
        node.rows.map_or_else(String::new, |r| r.to_string()),
        match node.wall_ns {
            Some(ns) => fsi_obs::fmt_ns(ns),
            None if node.rows.is_some() => "(input)".to_string(),
            None => String::new(),
        },
    ]);
    let last = node.children.len().saturating_sub(1);
    for (i, child) in node.children.iter().enumerate() {
        let (branch, extend) = if i == last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        flatten(
            child,
            &format!("{tail}{branch}"),
            &format!("{tail}{extend}"),
            rows,
        );
    }
}

fn fmt_est(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::eval_planned;
    use crate::parse;
    use crate::rewrite::normalize;
    use fsi_core::{HashContext, SortedSet};
    use fsi_index::{Planner, SearchEngine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> SearchEngine {
        let mut rng = StdRng::seed_from_u64(11);
        let postings: Vec<SortedSet> = (0..8)
            .map(|i| {
                let n = 200 * (i + 1);
                (0..n).map(|_| rng.gen_range(0..40_000u32)).collect()
            })
            .collect();
        SearchEngine::from_postings(HashContext::new(9), postings)
    }

    #[test]
    fn strip_explain_variants() {
        assert_eq!(strip_explain("0 AND 1"), (None, "0 AND 1"));
        assert_eq!(
            strip_explain("EXPLAIN 0 AND 1"),
            (Some(ExplainMode::Plan), "0 AND 1")
        );
        assert_eq!(
            strip_explain("  explain analyze (0 OR 1)"),
            (Some(ExplainMode::Analyze), "(0 OR 1)")
        );
        assert_eq!(strip_explain("Explain 5"), (Some(ExplainMode::Plan), "5"));
        // ANALYZE alone is not a keyword; neither is a glued prefix.
        assert_eq!(strip_explain("ANALYZE 1"), (None, "ANALYZE 1"));
        let (mode, rest) = strip_explain("EXPLAINX 1");
        assert_eq!(mode, None);
        assert_eq!(rest, "EXPLAINX 1");
    }

    #[test]
    fn analyze_output_matches_untimed_execution() {
        let engine = engine();
        let exec = engine.planned_executor(Planner::default());
        let planner = ExprPlanner::default();
        for src in [
            "0",
            "0 AND 5",
            "0 OR 3 OR 7",
            "7 AND NOT 0",
            "(0 OR 1) AND (2 OR 3)",
            "7 AND (1 OR NOT 3)",
            "(0 AND 1) OR (2 AND NOT 3)",
        ] {
            let norm = normalize(&parse(src).expect("parses")).expect("bounded");
            let expect = eval_planned(&exec, &planner, &norm);
            let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
            let mut got = Vec::new();
            let report = analyze_plan(&exec, &planner, &plan, &mut got);
            assert_eq!(got, expect, "{src}");
            assert_eq!(report.rows, Some(expect.len() as u64), "{src}");
        }
    }

    #[test]
    fn child_walls_sum_within_parent_wall() {
        let engine = engine();
        let exec = engine.planned_executor(Planner::default());
        let planner = ExprPlanner::default();
        let norm =
            normalize(&parse("(0 OR 1) AND (2 OR 3) AND NOT (4 OR 5)").expect("p")).expect("b");
        let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
        let mut out = Vec::new();
        let report = analyze_plan(&exec, &planner, &plan, &mut out);
        fn check(n: &NodeReport) {
            if let Some(wall) = n.wall_ns {
                let child_sum: u64 = n.children.iter().filter_map(|c| c.wall_ns).sum();
                assert!(
                    child_sum <= wall,
                    "{}: children {child_sum}ns > parent {wall}ns",
                    n.label
                );
            }
            n.children.iter().for_each(check);
        }
        check(&report);
    }

    #[test]
    fn explain_renders_estimates_and_analyze_adds_measurements() {
        let engine = engine();
        let exec = engine.planned_executor(Planner::default());
        let planner = ExprPlanner::default();
        let norm = normalize(&parse("(0 OR 1) AND 5 AND NOT 2").expect("p")).expect("b");
        let plain = explain(&exec, &planner, &norm, ExplainMode::Plan);
        assert!(plain.starts_with("EXPLAIN\n"), "{plain}");
        assert!(plain.contains("expression: "), "{plain}");
        assert!(plain.contains("est_rows"), "{plain}");
        assert!(!plain.contains("time"), "{plain}");
        let analyzed = explain(&exec, &planner, &norm, ExplainMode::Analyze);
        assert!(analyzed.starts_with("EXPLAIN ANALYZE\n"), "{analyzed}");
        assert!(analyzed.contains("total: "), "{analyzed}");
        assert!(analyzed.contains("rows"), "{analyzed}");
        assert!(analyzed.contains("NOT t2"), "{analyzed}");
        assert!(analyzed.contains("├─"), "{analyzed}");
    }

    #[test]
    fn empty_base_skips_subtrahends_in_analyze_too() {
        // Term 0 intersected with itself negated: base empty after diff is
        // impossible — build a genuinely empty base instead: two disjoint
        // dense ranges.
        let postings: Vec<SortedSet> = vec![
            (0..1000u32).collect(),
            (5000..6000u32).collect(),
            (0..500u32).collect(),
        ];
        let engine = SearchEngine::from_postings(HashContext::new(2), postings);
        let exec = engine.planned_executor(Planner::default());
        let planner = ExprPlanner::default();
        let norm = normalize(&parse("0 AND 1 AND NOT 2").expect("p")).expect("b");
        let expect = eval_planned(&exec, &planner, &norm);
        assert!(expect.is_empty());
        let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
        let mut out = Vec::new();
        let report = analyze_plan(&exec, &planner, &plan, &mut out);
        assert!(out.is_empty());
        // The subtrahend shows up in the report but unexecuted.
        let neg = report
            .children
            .iter()
            .find(|c| c.negated)
            .expect("neg child reported");
        assert_eq!(neg.wall_ns, None);
    }
}
