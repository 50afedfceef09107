//! Cost-based expression planning: extends `fsi_index::Planner`'s
//! [`OperandStats`] cost model beyond conjunctions to **OR** (the chunk
//! union) and **AND NOT** (difference by bit test or gallop), pricing every
//! node from the planner's one cost table ([`CostUnit`]).
//!
//! [`ExprPlanner::plan`] walks a canonical [`NormExpr`] bottom-up and
//! produces an [`ExprPlan`] tree carrying, per node, the physical operator,
//! the evaluation order, and two estimates:
//!
//! * `est_rows` — predicted result cardinality under the independence
//!   assumption (`|A ∩ B| ≈ U · |A|/U · |B|/U`, inclusion–exclusion for
//!   unions, `|X ∖ N| ≈ |X| · (1 − |N|/U)` for differences), where `U` is
//!   the document-universe size. These drive evaluation order: `AND`
//!   operands ascending (the most selective drives), subtrahends
//!   descending (the most-excluding list is probed first).
//! * `est_cost` — predicted evaluation cost in the same abstract units as
//!   [`fsi_index::Planner`], so conjunctive sub-plans price exactly what
//!   the multiway cost model prices.
//!
//! A list carries one representation, so a bitmap-carrying term read as a
//! sorted run — the root of a plan, a probe's driver — is extracted, and
//! priced for that walk.
//!
//! Physical operators — one per node kind:
//!
//! | node | operator |
//! |------|----------|
//! | `AND` | one whole-list [`MultiwayPlan`] from the full [`fsi_index::Planner`] candidate table over every positive operand. A term is priced by its own stats; a sub-expression, which runs and is narrowed to chunked arrays, as a bitmap-less list of its `est_rows` rounded up and at least 1, so an estimate never plans [`PlanKind::Empty`]. A lone sub-expression operand runs straight into the output |
//! | `OR` | the chunk union (`ChunkUnion`) over any children. Where a child is swept in place — a bitmap-carrying term its words, a `BitmapAnd` child whose subtrahends are terms its word sweep (no extraction of its own) — it costs `Σ partᵢ + 2 · bitmap_word · 1024 · span + extract`, any other child its own cost plus `set_bit` per row and `span` the estimated number of chunks the union touches ([`Planner::chunks_touched`] for a listed child), the result extracted once. Otherwise every chunk is merged: `Σ costᵢ + merge · Σ nᵢ`. Nothing chooses on this price; it feeds `est_cost`, `EXPLAIN` and the misprediction histogram |
//! | `AND NOT` | one membership pass per subtrahend over the base, each priced as the conjunctive planner prices a probed operand ([`Planner::probe_cost`] at the base's estimated rows): a bit test per base element against a bitmap-carrying term, a galloping cursor through any other subtrahend — a sub-expression narrowed to chunked arrays first and sized as an `AND` operand is. The subtrahends are bounded by the base, never materialized against the universe. Over a `BitmapAnd` base whose subtrahends are all terms it is a one-child chunk union instead, priced as one |
//!
//! Every `AND` runs the [`MultiwayPlan`] [`Planner::plan`] picks for its
//! operands, whatever its parent: a union or a difference prices a child
//! as it runs and never re-plans it.

use crate::rewrite::NormExpr;
use fsi_index::{CostUnit, MultiwayPlan, OperandStats, PlanKind, Planner};
use fsi_kernels::WORDS_PER_CHUNK;

/// The physical operator of one plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Copy one posting list through.
    Term(usize),
    /// `(∩ pos) ∖ (∪ neg)`: `pos` in evaluation order (ascending
    /// `est_rows`), `neg` in probe order (descending `est_rows`).
    And {
        /// Intersected children, ascending by estimated cardinality.
        pos: Vec<ExprPlan>,
        /// Subtracted children, descending by estimated cardinality.
        neg: Vec<ExprPlan>,
        /// The whole-list plan of the intersection; its `order` indexes
        /// `pos`.
        multiway: MultiwayPlan,
    },
    /// `∪ children`, by the chunk union.
    Or {
        /// United children (order immaterial to the kernel).
        children: Vec<ExprPlan>,
    },
}

/// A planned (sub-)expression: operator, children, and the cost model's
/// two predictions for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprPlan {
    /// The physical operator tree.
    pub node: PlanNode,
    /// Estimated result cardinality (independence assumption).
    pub est_rows: f64,
    /// Estimated evaluation cost, in [`Planner`]'s abstract units
    /// (comparable only within one plan call).
    pub est_cost: f64,
}

impl ExprPlan {
    /// A compact one-line rendering of the operator tree (telemetry and
    /// bench output), e.g. `And[HashProbe](t1, t2 \ Or[ChunkUnion](t3, t4))`.
    pub fn describe(&self) -> String {
        match &self.node {
            PlanNode::Term(t) => format!("t{t}"),
            PlanNode::And { pos, neg, .. } => {
                let pos: Vec<String> = pos.iter().map(ExprPlan::describe).collect();
                let neg: Vec<String> = neg.iter().map(ExprPlan::describe).collect();
                let tail = if neg.is_empty() {
                    String::new()
                } else {
                    format!(" \\ {}", neg.join(" \\ "))
                };
                format!("And[{}]({}{tail})", self.operator(), pos.join(", "))
            }
            PlanNode::Or { children } => {
                let children: Vec<String> = children.iter().map(ExprPlan::describe).collect();
                format!("Or[{}]({})", self.operator(), children.join(", "))
            }
        }
    }

    /// This node's operator label: `Term`, the [`PlanKind`] of an `AND`,
    /// `ChunkUnion` for an `OR` — what `EXPLAIN`,
    /// [`describe`](Self::describe) and the served response's plan kind
    /// report.
    pub fn operator(&self) -> &'static str {
        match &self.node {
            PlanNode::Term(_) => "Term",
            PlanNode::And { multiway, .. } => multiway.kind.name(),
            PlanNode::Or { .. } => "ChunkUnion",
        }
    }
}

/// The expression-level cost-model dispatcher: the [`Planner`] whose cost
/// table prices every node — every `AND` runs exactly what it picks, and
/// the union and difference operators it does not know about are priced in
/// its units. [`Default`] is the scalar tier, deterministic across machines
/// (what the plan tests pin).
#[derive(Debug, Clone, Default)]
pub struct ExprPlanner {
    pub(crate) and: Planner,
}

impl ExprPlanner {
    /// Expression planning over a given conjunctive cost model.
    pub fn new(and: Planner) -> Self {
        Self { and }
    }

    /// The cost table at the SIMD tier this process dispatches to
    /// ([`Planner::auto`]) — what serving uses.
    pub fn auto() -> Self {
        Self::new(Planner::auto())
    }

    /// Plans `expr` over per-term statistics. `stats` maps a term id to
    /// its [`OperandStats`]; `universe` is the document-space size
    /// (`max_doc + 1`) the selectivity estimates divide by.
    pub fn plan(
        &self,
        expr: &NormExpr,
        stats: &impl Fn(usize) -> OperandStats,
        universe: u64,
    ) -> ExprPlan {
        let mut plan = self.plan_node(expr, stats, (universe as f64).max(1.0));
        // A term at the root is copied out whole, a bitmap extracted; any
        // other node's result is materialized as a run already.
        if let PlanNode::Term(t) = plan.node {
            plan.est_cost += self.and.sorted_read_cost(&stats(t));
        }
        plan
    }

    fn plan_node(
        &self,
        expr: &NormExpr,
        stats: &impl Fn(usize) -> OperandStats,
        u: f64,
    ) -> ExprPlan {
        match expr {
            NormExpr::Term(t) => ExprPlan {
                node: PlanNode::Term(*t),
                est_rows: stats(*t).n as f64,
                est_cost: 0.0,
            },
            NormExpr::And { pos, neg } => {
                let mut pos_plans: Vec<ExprPlan> =
                    pos.iter().map(|c| self.plan_node(c, stats, u)).collect();
                // Evaluation order: most selective first (the multiway
                // plan re-sorts its operands by the same sizes).
                pos_plans.sort_by(|a, b| a.est_rows.total_cmp(&b.est_rows));
                let op_stats: Vec<OperandStats> =
                    pos_plans.iter().map(|p| operand_stats(p, stats)).collect();
                let multiway = self.and.plan(&op_stats, u as u64);
                let and_cost = multiway.est_cost;
                let mut base_rows = u;
                for c in &pos_plans {
                    base_rows *= (c.est_rows / u).min(1.0);
                }
                let mut neg_plans: Vec<ExprPlan> =
                    neg.iter().map(|c| self.plan_node(c, stats, u)).collect();
                // Probe order: the most-excluding subtrahend first, so a
                // doomed base element dies on its first probe.
                neg_plans.sort_by(|a, b| b.est_rows.total_cmp(&a.est_rows));
                // Every base row is tested against each subtrahend, priced
                // as the multiway plan prices a probed operand.
                let diff_cost: f64 = neg_plans
                    .iter()
                    .map(|c| self.and.probe_cost(base_rows, &operand_stats(c, stats)))
                    .sum();
                let mut est_rows = base_rows;
                for c in &neg_plans {
                    est_rows *= 1.0 - (c.est_rows / u).min(1.0);
                }
                let child_cost: f64 = pos_plans.iter().chain(&neg_plans).map(|c| c.est_cost).sum();
                let subtracts = !neg_plans.is_empty();
                let mut plan = ExprPlan {
                    node: PlanNode::And {
                        pos: pos_plans,
                        neg: neg_plans,
                        multiway,
                    },
                    est_rows,
                    est_cost: child_cost + and_cost + diff_cost,
                };
                // An `AND NOT` over a swept base runs as a one-child chunk
                // union: the subtrahends come off word-wise and only the
                // difference is extracted.
                if subtracts {
                    if let Some((sweep, chunks)) = self.sweep_cost(&plan, stats) {
                        price_swept(&mut plan, sweep + self.chunk_cost(chunks, est_rows));
                    }
                }
                plan
            }
            NormExpr::Or(children) => {
                let mut plans: Vec<ExprPlan> = children
                    .iter()
                    .map(|c| self.plan_node(c, stats, u))
                    .collect();
                let mut miss = 1.0;
                for p in &plans {
                    miss *= 1.0 - (p.est_rows / u).min(1.0);
                }
                let est_rows = u * (1.0 - miss);
                // A child the union sweeps in place is priced so; any other
                // pays its own cost plus one bit per row. The accumulator
                // then pays per chunk the union touches — the chunks of the
                // universe that no child misses. Where no child is swept,
                // every chunk is merged, at `merge` per member.
                let universe_chunks = Planner::universe_chunks(u as u64);
                let (mut parts_cost, mut chunk_miss, mut swept) = (0.0, 1.0, false);
                let mut merged_cost = 0.0;
                for p in &mut plans {
                    merged_cost += p.est_cost + self.and.unit(CostUnit::Merge) * p.est_rows;
                    let (cost, chunks) = match self.sweep_cost(p, stats) {
                        Some((cost, chunks)) => {
                            price_swept(p, cost);
                            swept = true;
                            (cost, chunks)
                        }
                        None => (
                            p.est_cost + self.and.unit(CostUnit::SetBit) * p.est_rows,
                            Planner::chunks_touched(p.est_rows, universe_chunks),
                        ),
                    };
                    parts_cost += cost;
                    chunk_miss *= 1.0 - (chunks / universe_chunks).min(1.0);
                }
                let span = universe_chunks * (1.0 - chunk_miss);
                ExprPlan {
                    node: PlanNode::Or { children: plans },
                    est_rows,
                    est_cost: if swept {
                        parts_cost + self.chunk_cost(span, est_rows)
                    } else {
                        merged_cost
                    },
                }
            }
        }
    }

    /// What a chunk union pays to sweep `plan` in place, and how many
    /// chunks it contributes to — `Some` for exactly what the executor
    /// sweeps by word: a bitmap-carrying term (its words), or a `BitmapAnd`
    /// whose subtrahends are terms (one word pass per positive term and per
    /// bitmap subtrahend over the smallest chunk span, one bit per member
    /// of each bitmap-less subtrahend). `None` when the plan can only
    /// contribute its materialized result.
    fn sweep_cost(
        &self,
        plan: &ExprPlan,
        stats: &impl Fn(usize) -> OperandStats,
    ) -> Option<(f64, f64)> {
        let chunks = |p: &ExprPlan| match p.node {
            PlanNode::Term(t) => stats(t).chunks,
            _ => None,
        };
        let words = WORDS_PER_CHUNK as f64 * self.and.unit(CostUnit::BitmapWord);
        match &plan.node {
            PlanNode::Term(_) => chunks(plan).map(|c| (c as f64 * words, c as f64)),
            PlanNode::And { pos, neg, multiway } if multiway.kind == PlanKind::BitmapAnd => {
                // `None` orders first: a bitmap-less operand, or none at
                // all, leaves nothing to sweep.
                let c_min = pos.iter().map(chunks).min()?? as f64;
                let mut cost = c_min * words * pos.len() as f64;
                for n in neg {
                    let PlanNode::Term(t) = n.node else {
                        return None;
                    };
                    cost += match stats(t).chunks {
                        Some(_) => c_min * words,
                        None => self.and.unit(CostUnit::SetBit) * n.est_rows,
                    };
                }
                Some((cost, c_min))
            }
            _ => None,
        }
    }

    /// What a chunk union pays per chunk it touches — clearing or copying
    /// the accumulator and the extraction's popcount pass — plus the one
    /// extraction of its `rows`-member result.
    fn chunk_cost(&self, chunks: f64, rows: f64) -> f64 {
        let words = chunks * WORDS_PER_CHUNK as f64;
        2.0 * self.and.unit(CostUnit::BitmapWord) * words + self.and.extract_cost(rows, words)
    }
}

/// `plan` as an operand of the conjunctive planner: a term at its own
/// stats, a sub-expression as the bitmap-less list it is narrowed to. Its
/// size is only estimated, so it is rounded up and is never 0: `Empty`
/// follows only from an exact term size.
fn operand_stats(plan: &ExprPlan, stats: &impl Fn(usize) -> OperandStats) -> OperandStats {
    match plan.node {
        PlanNode::Term(t) => stats(t),
        _ => OperandStats {
            n: (plan.est_rows.ceil() as usize).max(1),
            chunks: None,
        },
    }
}

/// Prices an `AND` a chunk union sweeps in place at `cost`, its multiway
/// plan's estimate included; its kind stays the one [`Planner::plan`]
/// picked. A swept term is priced by its union alone.
fn price_swept(plan: &mut ExprPlan, cost: f64) {
    if let PlanNode::And { multiway, .. } = &mut plan.node {
        multiway.est_cost = cost;
        plan.est_cost = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::rewrite::normalize;
    use fsi_index::PlanKind;

    fn stats_for(sizes: &[(usize, Option<usize>)]) -> impl Fn(usize) -> OperandStats + '_ {
        |t| OperandStats {
            n: sizes[t].0,
            chunks: sizes[t].1,
        }
    }

    fn plan(src: &str, sizes: &[(usize, Option<usize>)], u: u64) -> ExprPlan {
        let norm = normalize(&parse(src).expect("parses")).expect("bounded");
        ExprPlanner::default().plan(&norm, &stats_for(sizes), u)
    }

    #[test]
    fn and_of_terms_delegates_to_the_multiway_cost_model() {
        // A small driver against a bitmap: the conjunctive model picks
        // HashProbe; the expression plan must carry exactly that choice.
        let p = plan("0 AND 1", &[(1000, None), (64_000, Some(1))], 1 << 24);
        match &p.node {
            PlanNode::And { multiway, neg, .. } => {
                assert_eq!(multiway.kind, PlanKind::HashProbe);
                assert!(neg.is_empty());
            }
            other => panic!("expected multiway And, got {other:?}"),
        }
        assert!(p.est_rows > 0.0 && p.est_cost > 0.0);
    }

    #[test]
    fn and_orders_pos_ascending_and_neg_descending() {
        let sizes = [
            (5000, None),
            (100, None),
            (2000, None),
            (9000, None),
            (50, None),
        ];
        let p = plan("0 1 2 AND NOT 3 AND NOT 4", &sizes, 1 << 20);
        let PlanNode::And { pos, neg, .. } = &p.node else {
            panic!("expected And");
        };
        let pos_rows: Vec<f64> = pos.iter().map(|c| c.est_rows).collect();
        assert_eq!(pos_rows, vec![100.0, 2000.0, 5000.0]);
        let neg_rows: Vec<f64> = neg.iter().map(|c| c.est_rows).collect();
        assert_eq!(neg_rows, vec![9000.0, 50.0]);
        // Difference can only shrink the base estimate.
        assert!(p.est_rows <= 100.0);
    }

    /// The multiway kinds of an `Or`'s `And` children, in plan order.
    fn child_kinds(p: &ExprPlan) -> Vec<PlanKind> {
        let PlanNode::Or { children, .. } = &p.node else {
            panic!("expected Or, got {p:?}");
        };
        children
            .iter()
            .filter_map(|c| match &c.node {
                PlanNode::And { multiway, .. } => Some(multiway.kind),
                _ => None,
            })
            .collect()
    }

    /// Every `OR` is the chunk union. With a child swept in place it is
    /// priced as today's accumulator — the swept parts, every other child's
    /// bits, per chunk touched and one extraction — and with none as a
    /// merge of every child's members.
    #[test]
    fn or_prices_swept_and_merged_chunks() {
        let planner = ExprPlanner::default();
        let unit = |u| planner.and.unit(u);
        // Three ≈ 30-row children of no bitmap: every chunk is merged.
        let thin = [(30, None), (31, None), (29, None)];
        let p = plan("0 OR 1 OR 2", &thin, 20 << 16);
        assert_eq!(p.operator(), "ChunkUnion");
        assert!((p.est_cost - unit(CostUnit::Merge) * 90.0).abs() < 1e-9);
        // A bitmap term is swept (its one chunk's words), the other term's
        // bits are set, and the union touches both chunks of the universe.
        let mixed = [(50_000, Some(1)), (60_000, None)];
        let p = plan("0 OR 1", &mixed, 1 << 17);
        assert_eq!(p.operator(), "ChunkUnion");
        let expect = unit(CostUnit::BitmapWord) * WORDS_PER_CHUNK as f64
            + unit(CostUnit::SetBit) * 60_000.0
            + planner.chunk_cost(2.0, p.est_rows);
        assert!(
            (p.est_cost - expect).abs() < 1e-6,
            "{} vs {expect}",
            p.est_cost
        );
    }

    #[test]
    fn bitmap_and_groups_are_swept_in_place_under_a_chunk_union() {
        // The benchmark corpus's shape: 2 M documents, 31 chunks; t0 600 k,
        // t1 300 k, t2 200 k, t3 40 k — every one carries a bitmap.
        let corpus = [
            (600_000, Some(31)),
            (300_000, Some(31)),
            (200_000, Some(31)),
            (40_000, Some(31)),
        ];
        let u = 2_000_000;
        // Two `BitmapAnd` groups over t0: one union, no extraction per
        // group.
        let p = plan("(0 1) OR (0 2)", &corpus, u);
        assert_eq!(p.operator(), "ChunkUnion", "{}", p.describe());
        assert_eq!(child_kinds(&p), [PlanKind::BitmapAnd; 2]);
        // On its own `0 ∧ 3` sweeps too (probing t3's 40 k members would
        // first extract them) and pays its own extraction; under the union
        // its words are swept in place and extracted with the union's.
        let alone = plan("0 3", &corpus, u);
        assert_eq!(alone.operator(), "BitmapAnd");
        let p = plan("(0 3) OR (0 1)", &corpus, u);
        assert_eq!(p.operator(), "ChunkUnion", "{}", p.describe());
        assert_eq!(
            child_kinds(&p),
            [PlanKind::BitmapAnd; 2],
            "{}",
            p.describe()
        );
        // Each child is priced as swept, not at its stand-alone plan.
        let PlanNode::Or { children, .. } = &p.node else {
            unreachable!("checked above");
        };
        let swept = children.iter().find(|c| c.describe() == alone.describe());
        assert!(
            swept.is_some_and(|c| c.est_cost < alone.est_cost),
            "{children:?}"
        );
        // An AND NOT over a bitmap AND is a one-child chunk union.
        let p = plan("0 1 AND NOT 2", &corpus, u);
        assert_eq!(p.operator(), "BitmapAnd");
    }

    /// A difference pays the multiway planner's probe price per
    /// subtrahend: a gallop per base row and log₂ of the subtrahend's size,
    /// so a larger one raises the price, or a bit test per base row against
    /// a bitmap. Over a `BitmapAnd` base it is a one-child chunk union,
    /// whose price does not rise with the subtrahend as fast.
    #[test]
    fn the_galloping_difference_is_priced_by_its_subtrahend() {
        // The benchmark corpus's shape: t0–t3 carry bitmaps; t4 holds 40
        // members, t5 28 000 and t6 12 000, and none of those three does.
        // `t6 ∧ t0` probes t6's members (≈ 3 600 survivors).
        let corpus = [
            (600_000, Some(31)),
            (300_000, Some(31)),
            (200_000, Some(31)),
            (40_000, Some(31)),
            (40, None),
            (28_000, None),
            (12_000, None),
        ];
        let u = 2_000_000;
        let kind = |p: &ExprPlan| match &p.node {
            PlanNode::And { multiway, .. } => multiway.kind,
            other => panic!("expected an And, got {other:?}"),
        };
        let probe = |base: &ExprPlan, t: usize| {
            let (n, chunks) = corpus[t];
            ExprPlanner::default()
                .and
                .probe_cost(base.est_rows, &OperandStats { n, chunks })
        };
        let base = plan("0 6", &corpus, u);
        assert_eq!(kind(&base), PlanKind::HashProbe, "{}", base.describe());
        assert!(probe(&base, 5) > 2.0 * probe(&base, 4));
        // Each subtrahend is probed after the base at exactly the probe's
        // price: galloped through arrays, bit-tested against a bitmap
        // whatever its size.
        for (src, t) in [
            ("0 6 AND NOT 4", 4),
            ("0 6 AND NOT 5", 5),
            ("0 6 AND NOT 1", 1),
        ] {
            let p = plan(src, &corpus, u);
            assert_eq!(kind(&p), PlanKind::HashProbe, "{}", p.describe());
            assert!((p.est_cost - base.est_cost - probe(&base, t)).abs() < 1e-6);
        }
        let bit_test = probe(&base, 1) / base.est_rows;
        assert!((probe(&base, 0) / base.est_rows - bit_test).abs() < 1e-9);
        // Over the `t0 ∧ t3` sweep (≈ 12 k survivors) the 28 000-member
        // subtrahend comes off word by word in a one-child chunk union,
        // for less than galloping it.
        let swept = plan("0 3", &corpus, u);
        let large = plan("0 3 AND NOT 5", &corpus, u);
        assert_eq!(kind(&large), PlanKind::BitmapAnd, "{}", large.describe());
        assert!(large.est_cost < swept.est_cost + probe(&swept, 5));
    }

    #[test]
    fn union_estimate_is_inclusion_exclusion() {
        let sizes = [(1000, None), (1000, None)];
        let u = 10_000u64;
        let p = plan("0 OR 1", &sizes, u);
        // 1 - (1 - 0.1)^2 = 0.19.
        assert!((p.est_rows - 1900.0).abs() < 1e-6, "{}", p.est_rows);
        assert!(matches!(p.node, PlanNode::Or { .. }));
    }

    /// A mixed `AND` runs the multiway plan the conjunctive model picks
    /// over its terms and its sub-expressions, each sub-expression as a
    /// bitmap-less list of its estimated size rounded up.
    #[test]
    fn mixed_and_runs_the_multiway_plan_and_prices_children() {
        let sizes = [(4000, None), (3000, None), (2000, None)];
        let p = plan("0 AND (1 OR 2)", &sizes, 1 << 20);
        let PlanNode::And { pos, multiway, .. } = &p.node else {
            panic!("expected And");
        };
        let or = pos
            .iter()
            .find(|c| matches!(c.node, PlanNode::Or { .. }))
            .expect("an Or operand");
        let op_stats: Vec<OperandStats> = pos
            .iter()
            .map(|c| OperandStats {
                n: match c.node {
                    PlanNode::Term(t) => sizes[t].0,
                    _ => c.est_rows.ceil() as usize,
                },
                chunks: None,
            })
            .collect();
        assert_eq!(
            *multiway,
            ExprPlanner::default().and.plan(&op_stats, 1 << 20)
        );
        // The Or child's union cost is part of the total.
        assert!(or.est_cost > 0.0);
        assert!(p.est_cost >= or.est_cost + multiway.est_cost);
        // A sub-expression estimated under one row is still planned as a
        // one-member list: only an exact term size plans `Empty`.
        let same = [(100, None); 5];
        let p = plan("0 AND ((1 2) OR (3 4))", &same, 1 << 20);
        let PlanNode::And { pos, multiway, .. } = &p.node else {
            panic!("expected And");
        };
        assert!(pos[0].est_rows < 0.5, "{}", pos[0].est_rows);
        assert_ne!(multiway.kind, PlanKind::Empty, "{}", p.describe());
    }

    #[test]
    fn describe_renders_the_tree() {
        let sizes = [(100, None), (200, None), (300, None)];
        let p = plan("0 AND (1 OR 2) AND NOT 1", &sizes, 1 << 20);
        let d = p.describe();
        assert!(d.starts_with("And["), "{d}");
        assert!(d.contains("Or[ChunkUnion]"), "{d}");
        assert!(d.contains('\\'), "{d}");
    }
}
