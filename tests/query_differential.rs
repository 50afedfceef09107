//! Differential suite for the boolean expression engine: the whole stack
//! — parser, rewrites, expression planner, kernels, cache-keyed serving —
//! pinned byte-identical to a naive `BTreeSet` set-semantics evaluator,
//! across random ASTs and every SIMD tier's cost table, plus proptests that
//! the rewrites preserve semantics and that canonical hashes collide
//! exactly for equivalent expressions.

use fsi_core::{Elem, HashContext, SortedSet};
use fsi_index::{MultiwayPlan, PlanKind, Planner, SearchEngine};
use fsi_kernels::SimdLevel;
use fsi_query::naive::{naive_eval, naive_eval_universe};
use fsi_query::{
    analyze_plan, compile, encode, eval_planned, execute_plan, fingerprint, normalize, parse,
    AndKind, Expr, ExprPlan, ExprPlanner, NodeReport, NormExpr, PlanNode, RewriteError, UnionKind,
};
use fsi_serve::{Request, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_TERMS: usize = 12;
const UNIVERSE: u32 = 20_000;

fn test_engine(seed: u64) -> SearchEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let postings: Vec<SortedSet> = (0..NUM_TERMS)
        .map(|i| {
            // Mix sparse, mid, and dense lists so the expression planner
            // exercises gallop/hash/bitmap/heap paths across queries.
            let n = match i % 3 {
                0 => rng.gen_range(10..200),
                1 => rng.gen_range(500..2_000),
                _ => rng.gen_range(4_000..9_000),
            };
            (0..n).map(|_| rng.gen_range(0..UNIVERSE)).collect()
        })
        .collect();
    SearchEngine::from_postings(HashContext::new(77), postings)
}

fn posting_slices(engine: &SearchEngine) -> Vec<&[Elem]> {
    (0..engine.num_terms())
        .map(|t| engine.posting(t).as_slice())
        .collect()
}

/// A random expression over `0..num_terms`, depth-bounded.
fn random_expr(rng: &mut StdRng, num_terms: usize, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..10) < 3 {
        return Expr::Term(rng.gen_range(0..num_terms));
    }
    match rng.gen_range(0..10) {
        0..=3 => {
            let k = rng.gen_range(2..=4);
            Expr::And(
                (0..k)
                    .map(|_| random_expr(rng, num_terms, depth - 1))
                    .collect(),
            )
        }
        4..=7 => {
            let k = rng.gen_range(2..=4);
            Expr::Or(
                (0..k)
                    .map(|_| random_expr(rng, num_terms, depth - 1))
                    .collect(),
            )
        }
        _ => Expr::Not(Box::new(random_expr(rng, num_terms, depth - 1))),
    }
}

/// A random *bounded* expression: resampled (and, in the limit, anchored
/// by a conjoined positive term) until `normalize` accepts it.
fn random_bounded_expr(rng: &mut StdRng, num_terms: usize, depth: usize) -> (Expr, NormExpr) {
    for _ in 0..64 {
        let e = random_expr(rng, num_terms, depth);
        if let Ok(n) = normalize(&e) {
            return (e, n);
        }
        // Anchoring an unbounded draw under a positive term always bounds
        // it — keeps the NOT-heavy shapes in the sample instead of
        // discarding them.
        let anchored = Expr::And(vec![Expr::Term(rng.gen_range(0..num_terms)), e]);
        if let Ok(n) = normalize(&anchored) {
            return (anchored, n);
        }
    }
    unreachable!("anchored expressions are always bounded");
}

/// A random semantics-preserving syntactic scramble: permutations,
/// duplicate children, double negation, explicit De Morgan spellings, and
/// associativity splits. `normalize` must erase all of it.
fn scramble(rng: &mut StdRng, expr: &Expr) -> Expr {
    let recurse = |rng: &mut StdRng, children: &[Expr]| -> Vec<Expr> {
        let mut out: Vec<Expr> = children.iter().map(|c| scramble(rng, c)).collect();
        // Permute.
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        // Duplicate a child (idempotence).
        if rng.gen_range(0..4) == 0 {
            let dup = out[rng.gen_range(0..out.len())].clone();
            out.push(dup);
        }
        out
    };
    let scrambled = match expr {
        Expr::Term(t) => Expr::Term(*t),
        Expr::Not(inner) => Expr::Not(Box::new(scramble(rng, inner))),
        Expr::And(children) => {
            let mut kids = recurse(rng, children);
            if kids.len() > 2 && rng.gen_range(0..3) == 0 {
                // Associativity: fold a random suffix into a nested And.
                let tail = kids.split_off(kids.len() - 2);
                kids.push(Expr::And(tail));
            }
            if rng.gen_range(0..4) == 0 {
                // De Morgan spelling: ∧ = ¬(∨¬).
                Expr::Not(Box::new(Expr::Or(
                    kids.into_iter().map(|c| Expr::Not(Box::new(c))).collect(),
                )))
            } else {
                Expr::And(kids)
            }
        }
        Expr::Or(children) => {
            let mut kids = recurse(rng, children);
            if kids.len() > 2 && rng.gen_range(0..3) == 0 {
                let tail = kids.split_off(kids.len() - 2);
                kids.push(Expr::Or(tail));
            }
            if rng.gen_range(0..4) == 0 {
                Expr::Not(Box::new(Expr::And(
                    kids.into_iter().map(|c| Expr::Not(Box::new(c))).collect(),
                )))
            } else {
                Expr::Or(kids)
            }
        }
    };
    if rng.gen_range(0..5) == 0 {
        Expr::Not(Box::new(Expr::Not(Box::new(scrambled))))
    } else {
        scrambled
    }
}

// ---------------------------------------------------------------------------
// Engine differential: every tier's cost table vs naive semantics
// ---------------------------------------------------------------------------

#[test]
fn expression_engine_matches_naive_semantics_across_planners() {
    let engine = test_engine(1);
    let slices = posting_slices(&engine);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let exprs: Vec<NormExpr> = (0..40)
        .map(|_| random_bounded_expr(&mut rng, NUM_TERMS, 3).1)
        .collect();
    // Every tier's cost table: identical answers, possibly different plans.
    // `EXPLAIN ANALYZE` runs the same walk, so it answers the same too.
    let exec = engine.planned_executor(Planner::default());
    for level in SimdLevel::ALL {
        let planner = ExprPlanner::new(Planner::for_simd(level));
        for expr in &exprs {
            let expect: Vec<Elem> = naive_eval(&slices, expr).into_iter().collect();
            assert_eq!(
                eval_planned(&exec, &planner, expr),
                expect,
                "{level:?} expr={expr}"
            );
            let plan = planner.plan(expr, &|t| exec.list(t).stats(), exec.universe());
            let mut analyzed = Vec::new();
            let report = analyze_plan(&exec, &planner, &plan, &mut analyzed);
            assert_eq!(analyzed, expect, "{level:?} analyzed expr={expr}");
            assert_eq!(report.rows, Some(expect.len() as u64), "{level:?} {expr}");
            assert_child_walls_fit(&report, expr);
        }
    }
}

/// Every timed node's wall clock bounds the sum of its timed children's:
/// each child runs inside its parent's window.
fn assert_child_walls_fit(node: &NodeReport, expr: &NormExpr) {
    if let Some(wall) = node.wall_ns {
        let children: u64 = node.children.iter().filter_map(|c| c.wall_ns).sum();
        assert!(
            children <= wall,
            "{}: children {children} ns > parent {wall} ns, expr={expr}",
            node.label
        );
    }
    for child in &node.children {
        assert_child_walls_fit(child, expr);
    }
}

/// The first 2¹⁶-value chunk boundary of the bitmaps.
const BOUNDARY: u32 = 1 << 16;

/// `n` random members around the first chunk boundary and in the top
/// chunk (three chunks), plus the ends of the id space and both sides of
/// the boundary.
fn boundary_list(rng: &mut StdRng, n: usize) -> SortedSet {
    (0..n)
        .map(|i| match i % 2 {
            0 => rng.gen_range(BOUNDARY - 8_000..BOUNDARY + 8_000),
            _ => rng.gen_range(u32::MAX - 8_000..=u32::MAX),
        })
        .chain([0, BOUNDARY - 1, BOUNDARY, u32::MAX - 1, u32::MAX])
        .collect()
}

/// Mixed `AND`s and `AND NOT`s run as passes of one membership filter
/// over candidates already in the output: a term operand that carries a
/// bitmap is bit-tested, every other operand galloped where it lies — down
/// to `u32::MAX`. The shapes pin the filter's edges — mixed `AND`s over
/// bitmap-carrying terms, subtrahends with and without a bitmap, exhausted
/// early, holding `u32::MAX`, empty, or equal to the base — against
/// `naive_eval` at every tier's cost table and dispatched SIMD level,
/// through `eval_planned` and through `EXPLAIN ANALYZE`.
#[test]
fn differences_with_bitmap_less_subtrahends_match_naive_semantics() {
    // Lists around the first chunk boundary and in the top chunk, each
    // holding the ends of the id space and both sides of the boundary:
    // terms 0 and 1 are dense enough for a bitmap, 2–4 are chunked
    // arrays.
    let mut rng = StdRng::seed_from_u64(0xD1FD);
    let mut list = |n| boundary_list(&mut rng, n);
    let dense = list(9_000);
    let postings = vec![
        dense.clone(),
        list(7_000),
        list(40),
        list(600),
        list(2_500),
        (0..20u32).collect(),                          // 5: exhausted early
        [7, BOUNDARY, u32::MAX].into_iter().collect(), // 6: holds u32::MAX
        SortedSet::new(),                              // 7: empty
        dense,                                         // 8: equal to 0
        (BOUNDARY..BOUNDARY + 3_000).step_by(3).collect(),
    ];
    let engine = SearchEngine::from_postings(HashContext::new(78), postings);
    let slices = posting_slices(&engine);
    let exec = engine.planned_executor(Planner::default());
    let bitmaps: Vec<bool> = (0..6).map(|t| exec.list(t).bitmap().is_some()).collect();
    assert_eq!(bitmaps, [true, true, false, false, false, false]);
    let mixed = [
        "0 AND (1 OR 6)",
        "0 AND (2 OR 3)",
        "1 AND (3 OR 9)",
        "0 1 AND (2 OR 9)",
        "(0 OR 2) AND (1 OR 3) AND 9",
        "0 AND (1 OR 3) AND NOT (5 OR 6)",
    ];
    let differences = [
        "0 AND NOT 2",
        "0 AND NOT 4",
        "0 1 AND NOT 3",
        "0 1 AND NOT 2 AND NOT 4",
        "4 AND NOT 3",
        "3 AND NOT 2 AND NOT 5",
        "3 AND NOT 0",
        "1 AND NOT 4 AND NOT 0",
        "0 AND NOT (2 OR 3)",
        "(0 OR 4) AND NOT 3",
        "0 1 AND NOT 5",
        "4 3 AND NOT 2",
        "9 AND NOT 5",
        "3 AND NOT 6",
        "0 AND NOT 6",
        "3 AND NOT 7",
        "0 AND NOT 7",
        "4 AND NOT 4",
        "0 AND NOT 8",
        "0 AND NOT 3 AND NOT 6 AND NOT 5",
        "(1 OR 9) AND NOT 0",
    ];
    for src in mixed.iter().chain(&differences) {
        let norm = compile(src).expect("compiles");
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        for level in SimdLevel::ALL {
            let planner = ExprPlanner::new(Planner::for_simd(level));
            let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
            if mixed.contains(src) {
                assert_eq!(plan.operator(), "SliceProbe", "{level:?} {src}");
            }
            let run = || {
                let mut analyzed = Vec::new();
                let report = analyze_plan(&exec, &planner, &plan, &mut analyzed);
                (eval_planned(&exec, &planner, &norm), analyzed, report)
            };
            let (got, analyzed, report) = if fsi_kernels::simd::available_levels().contains(&level)
            {
                fsi_kernels::simd::with_level(level, run)
            } else {
                run()
            };
            assert_eq!(got, expect, "{level:?} {src}");
            assert_eq!(analyzed, expect, "{level:?} analyzed {src}");
            assert_eq!(report.rows, Some(expect.len() as u64), "{level:?} {src}");
        }
    }
}

/// A list carries one representation, so a bitmap term has no flat copy:
/// wherever a plan reads one as a sorted run it is extracted. Every role
/// that extracts — a single dense term, the smallest operand of a mixed
/// `AND`, a heap-union child, the second operand of a conjunction the merge
/// would read, every operand of an all-bitmap conjunction under each forced
/// kind — is pinned against `naive_eval` at every tier's cost table and
/// dispatched SIMD level, through `execute_plan` and `EXPLAIN ANALYZE`.
#[test]
fn bitmap_only_operands_in_every_role_match_naive_semantics() {
    // Terms 0–2 hold at least one member per bitmap word of their three
    // chunks, so they are bitmaps only; 3–5 are flat lists.
    let mut rng = StdRng::seed_from_u64(0xB17A);
    let mut list = |n| boundary_list(&mut rng, n);
    let postings = vec![
        list(9_000),
        list(7_000),
        list(3_500),
        list(40),
        list(600),
        list(2_500),
    ];
    let engine = SearchEngine::from_postings(HashContext::new(79), postings);
    let slices = posting_slices(&engine);
    let exec = engine.planned_executor(Planner::default());
    let bitmaps: Vec<bool> = (0..6).map(|t| exec.list(t).bitmap().is_some()).collect();
    assert_eq!(bitmaps, [true, true, true, false, false, false]);
    // Each query with the operator the planner must give it at every
    // tier; `None` where only the answer is pinned.
    let cases: [(&str, Option<&str>); 9] = [
        ("0", Some("Term")),
        ("2", Some("Term")),
        ("2 AND (0 OR 4)", Some("SliceProbe")),
        ("5 AND 1", Some("HashProbe")),
        ("3 AND 2 AND 0", Some("HashProbe")),
        ("0 1", Some("BitmapAnd")),
        ("2 1 0", None),
        ("(0 1) OR 2 OR 4", None),
        ("2 AND NOT 3", None),
    ];
    for (src, expect_operator) in cases {
        let norm = compile(src).expect("compiles");
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        for level in SimdLevel::ALL {
            let planner = ExprPlanner::new(Planner::for_simd(level));
            let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
            if let Some(op) = expect_operator {
                assert_eq!(plan.operator(), op, "{level:?} {src}");
            }
            if let PlanNode::And { pos, kind, .. } = &plan.node {
                if *kind == AndKind::SliceProbe {
                    // The bitmap term is the smallest operand: the driver.
                    assert!(matches!(pos[0].node, PlanNode::Term(2)), "{src}");
                }
            }
            let plans = forced_variants(plan);
            let run = || {
                plans
                    .iter()
                    .map(|plan| {
                        let (mut got, mut analyzed) = (Vec::new(), Vec::new());
                        execute_plan(&exec, &planner, plan, &mut got);
                        analyze_plan(&exec, &planner, plan, &mut analyzed);
                        (plan.describe(), got, analyzed)
                    })
                    .collect::<Vec<_>>()
            };
            let runs = if fsi_kernels::simd::available_levels().contains(&level) {
                fsi_kernels::simd::with_level(level, run)
            } else {
                run()
            };
            for (plan, got, analyzed) in runs {
                assert_eq!(got, expect, "{level:?} {src}: {plan}");
                assert_eq!(analyzed, expect, "{level:?} analyzed {src}: {plan}");
            }
        }
    }
}

/// `plan`, then the same tree with its root operator forced: a union run
/// as a heap merge and as a chunk union over its children, and a
/// conjunction of terms under
/// every kind that intersects (`BitmapAnd` only over bitmap terms).
fn forced_variants(plan: ExprPlan) -> Vec<ExprPlan> {
    let mut forced = Vec::new();
    match &plan.node {
        PlanNode::Or { children, .. } => {
            for kind in UnionKind::ALL {
                forced.push(ExprPlan {
                    node: PlanNode::Or {
                        children: children.clone(),
                        kind,
                    },
                    ..plan.clone()
                });
            }
        }
        PlanNode::And {
            pos,
            neg,
            kind: AndKind::Multiway(m),
        } => {
            let bitmaps = m.kind == PlanKind::BitmapAnd;
            for kind in PlanKind::ALL {
                let skip = kind == PlanKind::Empty
                    || (kind == PlanKind::Single && pos.len() > 1)
                    || (kind == PlanKind::BitmapAnd && !bitmaps);
                if skip {
                    continue;
                }
                forced.push(ExprPlan {
                    node: PlanNode::And {
                        pos: pos.clone(),
                        neg: neg.clone(),
                        kind: AndKind::Multiway(MultiwayPlan { kind, ..m.clone() }),
                    },
                    ..plan.clone()
                });
            }
        }
        _ => {}
    }
    forced.insert(0, plan);
    forced
}

/// Sparse lists are chunked 16-bit arrays, read natively in every role:
/// the probe's driver (widened) and a probed operand (a chunk cursor and a
/// gallop), the merge's inputs (the 16-bit merge per shared chunk), a heap
/// union's child (widened), a chunk union's part (each run's bits set), and
/// an `AND NOT` subtrahend — of a membership pass, and of a bitmap `AND`
/// bound in place. The arrays take the layout's edge shapes: runs
/// straddling a chunk boundary, single-member chunks with empty chunks
/// between them, members in chunk `0xFFFF` up to `u32::MAX`, and runs of 1,
/// 7, 8, 15, 16 and 17 members around the merge's block widths. Every
/// query runs as planned and under every forced root operator, at every
/// tier's cost table and dispatched SIMD level, against `naive_eval`.
#[test]
fn array_operands_in_every_role_match_naive_semantics() {
    const C: u32 = BOUNDARY;
    let mut rng = StdRng::seed_from_u64(0xA77A);
    let mut list = |n| boundary_list(&mut rng, n);
    let runs: SortedSet = [1u32, 7, 8, 15, 16, 17]
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| {
            let base = if i % 2 == 0 {
                C * (i as u32 + 1) - n / 2
            } else {
                u32::MAX - 40 * i as u32
            };
            base..base + n
        })
        .chain([0, C - 1, C])
        .collect();
    let postings = vec![
        list(9_000),                                            // 0: bitmap
        list(7_000),                                            // 1: bitmap
        (C - 9..C + 9).chain(3 * C - 20..3 * C + 20).collect(), // 2: straddling runs
        (0..60u32)
            .map(|i| i * 3 * C + i)
            .chain([u32::MAX])
            .collect(), // 3: one member a chunk, gaps
        list(600),                                              // 4
        list(40),                                               // 5
        runs,                                                   // 6: block-width runs
        (u32::MAX - 3_000..=u32::MAX)
            .step_by(3)
            .chain([u32::MAX])
            .collect(), // 7: chunk 0xFFFF
    ];
    let engine = SearchEngine::from_postings(HashContext::new(80), postings);
    let slices = posting_slices(&engine);
    let exec = engine.planned_executor(Planner::default());
    let bitmaps: Vec<bool> = (0..8).map(|t| exec.list(t).bitmap().is_some()).collect();
    assert_eq!(
        bitmaps,
        [true, true, false, false, false, false, false, false]
    );
    for src in [
        "4 AND 5",
        "5 AND 0",
        "2 AND 4",
        "6 AND 4 AND 0",
        "3 AND 7",
        "7 AND 4",
        "6 AND 7",
        "2 AND 6 AND 3",
        "4 OR 5",
        "2 OR 6 OR 0",
        "3 OR 7 OR 1",
        "(4 5) OR (0 1)",
        "(0 1 AND NOT 4) OR 6",
        "0 1 AND NOT 4",
        "0 1 AND NOT 4 AND NOT 6",
        "0 AND NOT 7",
        "0 AND NOT 3 AND NOT 2",
        "4 AND NOT 5",
        "7 AND NOT 6",
        "(0 OR 4) AND NOT 6",
        "4 AND (5 OR 6)",
        "(4 OR 6) AND 0",
    ] {
        let norm = compile(src).expect("compiles");
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        for level in SimdLevel::ALL {
            let planner = ExprPlanner::new(Planner::for_simd(level));
            let plan = planner.plan(&norm, &|t| exec.list(t).stats(), exec.universe());
            let plans = forced_variants(plan);
            let run = || {
                plans
                    .iter()
                    .map(|plan| {
                        let (mut got, mut analyzed) = (Vec::new(), Vec::new());
                        execute_plan(&exec, &planner, plan, &mut got);
                        analyze_plan(&exec, &planner, plan, &mut analyzed);
                        (plan.describe(), got, analyzed)
                    })
                    .collect::<Vec<_>>()
            };
            let runs = if fsi_kernels::simd::available_levels().contains(&level) {
                fsi_kernels::simd::with_level(level, run)
            } else {
                run()
            };
            for (plan, got, analyzed) in runs {
                assert_eq!(got, expect, "{level:?} {src}: {plan}");
                assert_eq!(analyzed, expect, "{level:?} analyzed {src}: {plan}");
            }
        }
    }
}

#[test]
fn generated_boolean_streams_run_end_to_end() {
    // The shared traffic model, through the full server: every query the
    // generator emits must compile, validate, and answer identically to
    // the naive evaluator.
    let engine = test_engine(2);
    let slices = posting_slices(&engine);
    let stream = fsi_workloads::stream::generate_boolean_stream(
        &fsi_workloads::stream::BooleanStreamConfig {
            num_queries: 300,
            num_terms: NUM_TERMS,
            or_probability: 0.5,
            not_probability: 0.5,
            seed: 0xFEED,
            ..Default::default()
        },
    );
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 256,
        },
    );
    for q in &stream {
        let norm = compile(q).expect("generated queries compile");
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        let got = server
            .execute(&Request::expr(q.as_str()))
            .expect("valid query");
        assert_eq!(got.docs.as_slice(), expect.as_slice(), "{q}");
    }
    // Zipf repeats must have produced canonical-key cache hits.
    assert!(
        server.stats().cache.hits > 0,
        "stream produced no cache hits"
    );
}

#[test]
fn reordered_duplicate_queries_hit_one_cache_entry() {
    let engine = test_engine(3);
    let server = Server::new(&engine, ServeConfig { cache_capacity: 64 });
    // Six spellings of one query: 1 miss + 5 hits, one cached entry.
    let spellings = [
        "1 AND 4 AND NOT 7",
        "4 AND 1 AND NOT 7",
        "4 1 AND NOT 7",
        "1 4 1 AND NOT 7",
        "4 AND NOT 7 AND 1",
        "NOT 7 AND 4 AND 1",
    ];
    let mut results = Vec::new();
    for q in spellings {
        results.push(server.execute(&Request::expr(q)).expect("valid").docs);
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    let stats = server.stats();
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, spellings.len() as u64 - 1);
    assert_eq!(stats.cache.len, 1);
}

// ---------------------------------------------------------------------------
// Proptests: rewrite soundness and canonical-hash equivalence
// ---------------------------------------------------------------------------

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// `normalize` preserves semantics: naive universe-complement
    /// evaluation of the raw AST equals naive set-semantics evaluation of
    /// the canonical form, on random postings.
    #[test]
    fn rewrites_preserve_semantics(seed in proptest::any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_terms = rng.gen_range(1..8usize);
        let universe = rng.gen_range(1..300u32);
        let postings: Vec<Vec<Elem>> = (0..num_terms)
            .map(|_| {
                let n = rng.gen_range(0..80usize);
                let mut v: Vec<Elem> = (0..n).map(|_| rng.gen_range(0..universe)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let slices: Vec<&[Elem]> = postings.iter().map(Vec::as_slice).collect();
        let (raw, norm) = random_bounded_expr(&mut rng, num_terms, 3);
        let via_raw = naive_eval_universe(&slices, universe, &raw);
        let via_norm = naive_eval(&slices, &norm);
        proptest::prop_assert!(
            via_raw == via_norm,
            "expr {} -> {}: raw {:?} vs norm {:?}", raw, norm, via_raw, via_norm
        );
    }

    /// Unbounded expressions are exactly the ones whose universe-based
    /// value keeps growing with the universe — `normalize`'s accept/reject
    /// decision is semantically right in both directions.
    #[test]
    fn unbounded_rejection_is_sound(seed in proptest::any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_terms = rng.gen_range(1..6usize);
        let postings: Vec<Vec<Elem>> = (0..num_terms)
            .map(|_| {
                let n = rng.gen_range(0..30usize);
                let mut v: Vec<Elem> = (0..n).map(|_| rng.gen_range(0..100u32)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let slices: Vec<&[Elem]> = postings.iter().map(Vec::as_slice).collect();
        let expr = random_expr(&mut rng, num_terms, 3);
        // All postings live below 100; anything the query emits above is
        // complement mass, which only unbounded queries can produce.
        let big = naive_eval_universe(&slices, 10_000, &expr);
        let complement_mass = big.iter().filter(|&&x| x >= 100).count();
        match normalize(&expr) {
            Ok(_) => proptest::prop_assert!(
                complement_mass == 0,
                "bounded expr {} leaked {} complement values",
                expr,
                complement_mass
            ),
            Err(RewriteError::UnboundedNot) => proptest::prop_assert!(
                complement_mass > 0,
                "rejected expr {} is actually bounded",
                expr
            ),
        }
    }

    /// Canonical hashes collide for equivalent expressions: any
    /// semantics-preserving syntactic scramble (commutativity,
    /// associativity, idempotence, double negation, De Morgan spellings)
    /// produces the identical canonical form, encoding, and fingerprint —
    /// and survives a parse round trip.
    #[test]
    fn canonical_hashes_collide_for_equivalent_expressions(seed in proptest::any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (raw, norm) = random_bounded_expr(&mut rng, 8, 3);
        for _ in 0..3 {
            let variant = scramble(&mut rng, &raw);
            let via_variant = normalize(&variant);
            proptest::prop_assert!(
                via_variant.as_ref() == Ok(&norm),
                "scramble {} of {} changed the canonical form to {:?}",
                variant, raw, via_variant
            );
            let variant_norm = via_variant.expect("checked");
            proptest::prop_assert_eq!(encode(&variant_norm), encode(&norm));
            proptest::prop_assert_eq!(fingerprint(&variant_norm), fingerprint(&norm));
            // Surface-syntax round trip through the parser.
            let reparsed = parse(&variant.to_string()).expect("display reparses");
            proptest::prop_assert_eq!(normalize(&reparsed), Ok(norm.clone()));
        }
    }

    /// …and only for equivalent expressions: independently drawn pairs
    /// whose fingerprints collide must be semantically equal on random
    /// postings (with a 64-bit FNV over injective encodings, a false
    /// collision in this test would be a canonicalization bug, not luck).
    #[test]
    fn canonical_hashes_separate_inequivalent_expressions(seed in proptest::any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, a) = random_bounded_expr(&mut rng, 6, 3);
        let (_, b) = random_bounded_expr(&mut rng, 6, 3);
        let universe = 400u32;
        let postings: Vec<Vec<Elem>> = (0..6)
            .map(|_| {
                let n = rng.gen_range(0..120usize);
                let mut v: Vec<Elem> = (0..n).map(|_| rng.gen_range(0..universe)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let slices: Vec<&[Elem]> = postings.iter().map(Vec::as_slice).collect();
        if fingerprint(&a) == fingerprint(&b) {
            proptest::prop_assert!(
                encode(&a) == encode(&b),
                "64-bit fingerprint collision between distinct forms: {} vs {}", a, b
            );
            proptest::prop_assert_eq!(naive_eval(&slices, &a), naive_eval(&slices, &b));
        } else {
            proptest::prop_assert_ne!(encode(&a), encode(&b));
        }
    }
}
