//! `EXPLAIN` / `EXPLAIN ANALYZE`: renders an [`ExprPlan`] as a plan tree
//! with the cost model's per-node estimates, and (for `ANALYZE`) the
//! measured rows and per-node wall clock beside them.
//!
//! `ANALYZE` is no separate evaluator: [`analyze_plan`] runs the
//! executor's own walk ([`crate::execute_plan`]'s) with a report sink, so
//! its output is the served output. Each node that runs is timed around
//! its own operator, so a parent's wall clock bounds the sum of its
//! children's and the root's bounds every node's. This module builds the
//! rows the walk pushes: term operands that kernels consume *in place*
//! (multiway operands, chunk-union parts, subtrahends) are `(input)` rows
//! with no timing of their own; a `BitmapAnd`
//! child a chunk union binds in place keeps its estimates and shows no
//! rows or time; subtrahends skipped because the base came out empty
//! keep their estimates only.

use crate::exec::analyze_plan;
use crate::plan::{ExprPlan, ExprPlanner, PlanNode};
use crate::rewrite::NormExpr;
use fsi_index::{PlannedExecutor, PlannedList};
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
    /// Operator label (`t3`, `And[HashProbe]`, `Or[ChunkUnion]`, …).
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

/// A childless report of `plan`'s estimates, nothing measured.
pub(crate) fn estimates(plan: &ExprPlan) -> NodeReport {
    let label = match &plan.node {
        PlanNode::Term(t) => format!("t{t}"),
        PlanNode::And { .. } => format!("And[{}]", plan.operator()),
        PlanNode::Or { .. } => format!("Or[{}]", plan.operator()),
    };
    NodeReport {
        label,
        est_rows: plan.est_rows,
        est_cost: plan.est_cost,
        rows: None,
        wall_ns: None,
        negated: false,
        children: Vec::new(),
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
        children,
        ..estimates(plan)
    }
}

/// A report for a term consumed in place by its parent's kernel: observed
/// rows are the prepared list's length, but no separate execution happens,
/// so it carries no timing.
pub(crate) fn input_report(plan: &ExprPlan, list: &PlannedList) -> NodeReport {
    NodeReport {
        rows: Some(list.n() as u64),
        ..estimates(plan)
    }
}

/// A report for a child a chunk union binds in place: a term is an
/// `(input)` row, a bitmap AND keeps its estimates over its terms' input
/// rows — it is never extracted, so it has no rows or time of its own.
pub(crate) fn in_place_report(exec: &PlannedExecutor, plan: &ExprPlan) -> NodeReport {
    let input = |p: &ExprPlan| match p.node {
        PlanNode::Term(t) => input_report(p, exec.list(t)),
        _ => report_plan(p),
    };
    match &plan.node {
        PlanNode::And { pos, neg, .. } => NodeReport {
            children: pos
                .iter()
                .map(input)
                .chain(neg.iter().map(|n| NodeReport {
                    negated: true,
                    ..input(n)
                }))
                .collect(),
            ..report_plan(plan)
        },
        _ => input(plan),
    }
}

/// A duration in whole nanoseconds, saturating.
pub(crate) fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
