//! Cost-based expression planning: extends `fsi_index::Planner`'s
//! [`OperandStats`] cost model beyond conjunctions to **OR** (k-way union)
//! and **AND NOT** (difference by bit test or gallop), pricing every node
//! from the planner's one cost table ([`CostUnit`]).
//!
//! [`ExprPlanner::plan`] walks a canonical [`NormExpr`] bottom-up and
//! produces an [`ExprPlan`] tree carrying, per node, the chosen physical
//! operator, the evaluation order, and two estimates:
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
//! sorted run — the root of a plan, a mixed `AND`'s driver, a heap-union
//! child — is extracted, and priced for that walk.
//!
//! Physical operator choices:
//!
//! | node | candidates |
//! |------|------------|
//! | `AND` (all operands are terms) | the full [`fsi_index::Planner`] candidate table — one whole-list [`MultiwayPlan`], zero materialized intermediates |
//! | `AND` (mixed operands) | materialize sub-results, copy the smallest operand and filter it through the rest in ascending length ([`AndKind::SliceProbe`]; a term is bit-tested where it carries a bitmap, and extracted where it is the smallest), priced as the probe ([`Planner::probe_price`]: terms by their own stats, sub-expressions by `est_rows` as bitmap-less lists; a bitmap driver pays [`Planner::sorted_read_cost`]) |
//! | `OR` | heap k-way union over materialized children (`Σ costᵢ + Σ rᵢ + heap_union · Σnᵢ · log₂ k`, `rᵢ` the extraction of a bitmap-carrying term child, [`Planner::sorted_read_cost`]) vs the chunk union over *any* children (`Σ partᵢ + 2 · bitmap_word · 1024 · span + extract`): a bitmap-carrying term costs its words, a `BitmapAnd` child whose subtrahends are terms its word sweep (no extraction of its own), any other child its own cost plus `set_bit` per row; `span` is the estimated number of chunks the union touches, and the result is extracted once |
//! | `AND NOT` | one membership pass per subtrahend over the base: a bit test per base element for a subtrahend that is a bitmap-carrying term (`bit_test · |base|`), a galloping cursor through any other (`gallop · |base| · Σⱼ log₂(|Nⱼ|/|base| + 2)`, [`Planner::gallop_cost`]) — the subtrahends are bounded by the base, never materialized against the universe. Over a `BitmapAnd` base whose subtrahends are all terms it is instead a one-child chunk union, priced as one, wherever that is cheaper |

use crate::rewrite::NormExpr;
use fsi_index::{CostUnit, MultiwayPlan, OperandStats, PlanKind, Planner};
use fsi_kernels::WORDS_PER_CHUNK;

/// How an `AND` node's positive intersection runs.
#[derive(Debug, Clone, PartialEq)]
pub enum AndKind {
    /// Every positive operand is a term: one whole-list multiway plan from
    /// the underlying conjunctive cost model (the embedded
    /// [`MultiwayPlan`]'s `order` indexes this node's `pos` children).
    Multiway(MultiwayPlan),
    /// Sub-expressions among the operands: materialize them, copy the
    /// smallest operand and filter it through the others in ascending
    /// length — a term by its prepared list (bit tests where it carries a
    /// bitmap), a sub-expression by a galloping cursor through its result.
    SliceProbe,
}

/// How an `OR` node's union runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionKind {
    /// Binary min-heap k-way union over sorted slices.
    HeapMerge,
    /// The chunk union (`fsi_kernels::chunk_union_into`) over any children:
    /// per chunk, one accumulator `OR`s bitmap-carrying terms' words,
    /// `BitmapAnd` children's word-wise `AND`s and every other child's
    /// bits, and the result is extracted once.
    BitmapOr,
}

impl UnionKind {
    /// Every kind, in declaration order (`UnionKind::ALL[k as usize] == k`).
    pub const ALL: [UnionKind; 2] = [UnionKind::HeapMerge, UnionKind::BitmapOr];

    /// The label telemetry and EXPLAIN output report.
    pub fn name(self) -> &'static str {
        match self {
            UnionKind::HeapMerge => "HeapMerge",
            UnionKind::BitmapOr => "BitmapOr",
        }
    }
}

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
        /// The chosen intersection operator.
        kind: AndKind,
    },
    /// `∪ children`.
    Or {
        /// United children (order immaterial to the kernels).
        children: Vec<ExprPlan>,
        /// The chosen union operator.
        kind: UnionKind,
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
    /// bench output), e.g. `And[HashProbe](t1, t2 \ Or[HeapMerge](t3, t4))`.
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
            PlanNode::Or { children, .. } => {
                let children: Vec<String> = children.iter().map(ExprPlan::describe).collect();
                format!("Or[{}]({})", self.operator(), children.join(", "))
            }
        }
    }

    /// This node's operator label: `Term`, the [`PlanKind`] or
    /// `SliceProbe` of an `AND`, the [`UnionKind`] of an `OR` — what
    /// `EXPLAIN`, [`describe`](Self::describe) and the served response's
    /// plan kind report.
    pub fn operator(&self) -> &'static str {
        match &self.node {
            PlanNode::Term(_) => "Term",
            PlanNode::And { kind, .. } => match kind {
                AndKind::Multiway(m) => m.kind.name(),
                AndKind::SliceProbe => "SliceProbe",
            },
            PlanNode::Or { kind, .. } => kind.name(),
        }
    }

    /// Whether a chunk union binds this node in place instead of taking
    /// its materialized result: a term that carries a bitmap (its words),
    /// or a `BitmapAnd` node whose subtrahends are all terms (its word-wise
    /// `AND`, subtrahends removed per chunk). `has_bitmap` says which terms
    /// carry one.
    pub(crate) fn binds_in_place(&self, has_bitmap: impl Fn(usize) -> bool) -> bool {
        match &self.node {
            PlanNode::Term(t) => has_bitmap(*t),
            PlanNode::And {
                neg,
                kind: AndKind::Multiway(m),
                ..
            } => {
                m.kind == PlanKind::BitmapAnd
                    && neg.iter().all(|n| matches!(n.node, PlanNode::Term(_)))
            }
            _ => false,
        }
    }
}

/// Values one bitmap chunk covers.
const CHUNK_SPAN: f64 = (WORDS_PER_CHUNK * 64) as f64;

/// The expression-level cost-model dispatcher: the [`Planner`] whose cost
/// table prices every node — `AND`-of-terms nodes run exactly what it
/// picks, and the union and difference operators it does not know about
/// are priced in its units. [`Default`] is the scalar tier, deterministic
/// across machines (what the plan tests pin).
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
        // A term at the root is copied out whole.
        plan.est_cost += self.read_cost(&plan, stats);
        plan
    }

    /// What reading `plan`'s result as a sorted run costs beyond its own
    /// `est_cost`: the extraction of a bitmap-carrying term, and nothing
    /// for any other node, whose result is materialized as a run.
    fn read_cost(&self, plan: &ExprPlan, stats: &impl Fn(usize) -> OperandStats) -> f64 {
        match plan.node {
            PlanNode::Term(t) => self.and.sorted_read_cost(&stats(t)),
            _ => 0.0,
        }
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
                // Evaluation order: most selective first (kernels also
                // re-derive driver order from true sizes at run time; the
                // estimate order is what mixed/materialized nodes use).
                pos_plans.sort_by(|a, b| a.est_rows.total_cmp(&b.est_rows));
                // Terms are priced by their own stats, a sub-expression as
                // a bitmap-less list of its estimated size.
                let op_stats: Vec<OperandStats> = pos_plans
                    .iter()
                    .map(|p| match p.node {
                        PlanNode::Term(t) => stats(t),
                        _ => OperandStats {
                            n: p.est_rows.round() as usize,
                            chunks: None,
                        },
                    })
                    .collect();
                let (kind, and_cost) = if pos_plans
                    .iter()
                    .all(|p| matches!(p.node, PlanNode::Term(_)))
                {
                    let mplan = self.and.plan(&op_stats, u as u64);
                    let cost = mplan.est_cost;
                    (AndKind::Multiway(mplan), cost)
                } else {
                    // The probe's filter, over materialized operands.
                    let cost = self.and.probe_price(&op_stats, u as u64);
                    (AndKind::SliceProbe, cost)
                };
                let mut base_rows = u;
                for c in &pos_plans {
                    base_rows *= (c.est_rows / u).min(1.0);
                }
                let mut neg_plans: Vec<ExprPlan> =
                    neg.iter().map(|c| self.plan_node(c, stats, u)).collect();
                // Probe order: the most-excluding subtrahend first, so a
                // doomed base element dies on its first probe.
                neg_plans.sort_by(|a, b| b.est_rows.total_cmp(&a.est_rows));
                // The difference bit-tests every base row against each
                // subtrahend that is a bitmap-carrying term, and gallops one
                // cursor through each other subtrahend — priced like every
                // other gallop, so a larger subtrahend costs more.
                let tested = |c: &&ExprPlan| matches!(c.node, PlanNode::Term(t) if stats(t).chunks.is_some());
                let bit_tests = neg_plans.iter().filter(tested).count() as f64;
                let galloped = neg_plans.iter().filter(|c| !tested(c));
                let diff_cost = self.and.unit(CostUnit::BitTest) * base_rows * bit_tests
                    + self
                        .and
                        .gallop_cost(base_rows, galloped.map(|c| c.est_rows));
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
                        kind,
                    },
                    est_rows,
                    est_cost: child_cost + and_cost + diff_cost,
                };
                // An AND NOT over bitmap-carrying terms may run as a
                // one-child chunk union instead: the subtrahends come off
                // word-wise and only the difference is extracted. A
                // `BitmapAnd` base always does.
                if subtracts {
                    if let Some((sweep, chunks)) = self.sweep_cost(&plan, stats) {
                        let cost = sweep + self.chunk_cost(chunks, est_rows);
                        if cost < plan.est_cost
                            || plan.binds_in_place(|t| stats(t).chunks.is_some())
                        {
                            bind_sweep(&mut plan, cost);
                        }
                    }
                }
                plan
            }
            NormExpr::Or(children) => {
                let mut plans: Vec<ExprPlan> = children
                    .iter()
                    .map(|c| self.plan_node(c, stats, u))
                    .collect();
                let total: f64 = plans.iter().map(|p| p.est_rows).sum();
                let k = plans.len() as f64;
                let child_cost: f64 = plans.iter().map(|p| p.est_cost).sum();
                let read_cost: f64 = plans.iter().map(|p| self.read_cost(p, stats)).sum();
                let heap_cost =
                    child_cost + read_cost + self.and.unit(CostUnit::HeapUnion) * total * k.log2();
                let mut miss = 1.0;
                for p in &plans {
                    miss *= 1.0 - (p.est_rows / u).min(1.0);
                }
                let est_rows = u * (1.0 - miss);
                // The chunk union pays per child — swept in place where
                // that is cheaper than its own cost plus one bit per row —
                // and per chunk it touches: the chunks of the universe that
                // no child misses.
                let universe_chunks = (u / CHUNK_SPAN).ceil();
                let mut parts_cost = 0.0;
                let mut chunk_miss = 1.0;
                let mut sweeps = Vec::with_capacity(plans.len());
                for p in &plans {
                    let listed = p.est_cost + self.and.unit(CostUnit::SetBit) * p.est_rows;
                    let sweep = self.sweep_cost(p, stats).filter(|&(cost, _)| {
                        cost < listed || p.binds_in_place(|t| stats(t).chunks.is_some())
                    });
                    let (cost, chunks) = sweep.unwrap_or_else(|| {
                        let touched =
                            universe_chunks * (1.0 - (-p.est_rows / universe_chunks).exp());
                        (listed, touched)
                    });
                    parts_cost += cost;
                    chunk_miss *= 1.0 - (chunks / universe_chunks).min(1.0);
                    sweeps.push(sweep.map(|(cost, _)| cost));
                }
                let span = universe_chunks * (1.0 - chunk_miss);
                let bitmap_cost = parts_cost + self.chunk_cost(span, est_rows);
                let (kind, est_cost) = if bitmap_cost < heap_cost {
                    for (p, sweep) in plans.iter_mut().zip(sweeps) {
                        if let Some(cost) = sweep {
                            bind_sweep(p, cost);
                        }
                    }
                    (UnionKind::BitmapOr, bitmap_cost)
                } else {
                    (UnionKind::HeapMerge, heap_cost)
                };
                ExprPlan {
                    node: PlanNode::Or {
                        children: plans,
                        kind,
                    },
                    est_rows,
                    est_cost,
                }
            }
        }
    }

    /// What a chunk union pays to bind `plan` in place, and how many chunks
    /// it contributes to: a bitmap-carrying term's words, or the sweep of
    /// an `AND` of terms whose positive terms all carry bitmaps and whose
    /// subtrahends are terms — one word pass per positive term and per
    /// bitmap subtrahend over the smallest chunk span, one bit per member
    /// of each table-carrying subtrahend. `None` when the plan can only
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
            PlanNode::And {
                pos,
                neg,
                kind: AndKind::Multiway(_),
            } => {
                let c_min = pos
                    .iter()
                    .map(chunks)
                    .collect::<Option<Vec<usize>>>()?
                    .into_iter()
                    .min()? as f64;
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

/// Marks an `AND` of terms [`ExprPlanner::sweep_cost`] priced as swept in
/// place at `cost`: its multiway kind becomes [`PlanKind::BitmapAnd`], which
/// is what [`ExprPlan::binds_in_place`] — and so the executor — binds.
fn bind_sweep(plan: &mut ExprPlan, cost: f64) {
    if let PlanNode::And {
        kind: AndKind::Multiway(m),
        ..
    } = &mut plan.node
    {
        m.kind = PlanKind::BitmapAnd;
        m.est_cost = cost;
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
            PlanNode::And {
                kind: AndKind::Multiway(m),
                neg,
                ..
            } => {
                assert_eq!(m.kind, PlanKind::HashProbe);
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

    fn union_kind(p: &ExprPlan) -> UnionKind {
        match p.node {
            PlanNode::Or { kind, .. } => kind,
            _ => panic!("expected Or, got {p:?}"),
        }
    }

    /// The multiway kinds of an `Or`'s `And` children, in plan order.
    fn child_kinds(p: &ExprPlan) -> Vec<PlanKind> {
        let PlanNode::Or { children, .. } = &p.node else {
            panic!("expected Or, got {p:?}");
        };
        children
            .iter()
            .filter_map(|c| match &c.node {
                PlanNode::And {
                    kind: AndKind::Multiway(m),
                    ..
                } => Some(m.kind),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn or_picks_the_chunk_union_by_cost_over_any_children() {
        let dense = [(50_000, Some(1)), (60_000, Some(1))];
        assert_eq!(
            union_kind(&plan("0 OR 1", &dense, 1 << 17)),
            UnionKind::BitmapOr
        );
        // A child without a bitmap no longer vetoes the sweep: its bits
        // are set into the accumulator.
        let mixed = [(50_000, Some(1)), (60_000, None)];
        assert_eq!(
            union_kind(&plan("0 OR 1", &mixed, 1 << 17)),
            UnionKind::BitmapOr
        );
        // Sparse-but-bitmapped operands spanning many chunks fall back to
        // the heap merge: the word sweep would touch more words than the
        // heap touches elements.
        let wide = [(300, Some(200)), (300, Some(200))];
        assert_eq!(
            union_kind(&plan("0 OR 1", &wide, 1 << 30)),
            UnionKind::HeapMerge
        );
        // Three ≈ 30-row children spread over 20 chunks: too few rows for
        // the chunks a union would clear and scan.
        let thin = [(30, None), (31, None), (29, None)];
        let p = plan("0 OR 1 OR 2", &thin, 20 << 16);
        assert_eq!(union_kind(&p), UnionKind::HeapMerge);
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
        assert_eq!(union_kind(&p), UnionKind::BitmapOr, "{}", p.describe());
        assert_eq!(child_kinds(&p), [PlanKind::BitmapAnd; 2]);
        // On its own `0 ∧ 3` sweeps too (probing t3's 40 k members would
        // first extract them) and pays its own extraction; under the union
        // its words are swept in place and extracted with the union's.
        let alone = plan("0 3", &corpus, u);
        assert!(matches!(
            &alone.node,
            PlanNode::And { kind: AndKind::Multiway(m), .. } if m.kind == PlanKind::BitmapAnd
        ));
        let p = plan("(0 3) OR (0 1)", &corpus, u);
        assert_eq!(union_kind(&p), UnionKind::BitmapOr, "{}", p.describe());
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
        assert!(matches!(
            &p.node,
            PlanNode::And { kind: AndKind::Multiway(m), .. } if m.kind == PlanKind::BitmapAnd
        ));
    }

    /// The galloping difference pays per base row and log₂ of each
    /// subtrahend's size, so a larger subtrahend raises the price — and
    /// over a bitmap base the chunk union, whose price does not rise with
    /// it as fast, binds the node.
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
            PlanNode::And {
                kind: AndKind::Multiway(m),
                ..
            } => m.kind,
            other => panic!("expected a multiway And, got {other:?}"),
        };
        let gallop = |base: &ExprPlan, n: f64| {
            ExprPlanner::default()
                .and
                .gallop_cost(base.est_rows, std::iter::once(n))
        };
        let base = plan("0 6", &corpus, u);
        assert_eq!(kind(&base), PlanKind::HashProbe, "{}", base.describe());
        assert!(gallop(&base, 28_000.0) > 2.0 * gallop(&base, 40.0));
        // Each subtrahend is galloped after the probe, at exactly the
        // gallop's price.
        for (src, n) in [("0 6 AND NOT 4", 40.0), ("0 6 AND NOT 5", 28_000.0)] {
            let p = plan(src, &corpus, u);
            assert_eq!(kind(&p), PlanKind::HashProbe, "{}", p.describe());
            assert!((p.est_cost - base.est_cost - gallop(&base, n)).abs() < 1e-6);
        }
        // A bitmap-carrying subtrahend is bit-tested, priced per base row
        // whatever its size.
        let tested = plan("0 6 AND NOT 1", &corpus, u);
        let bit_test = ExprPlanner::default().and.unit(CostUnit::BitTest);
        assert!((tested.est_cost - base.est_cost - bit_test * base.est_rows).abs() < 1e-6);
        // Over the `t0 ∧ t3` sweep (≈ 12 k survivors) the 28 000-member
        // subtrahend comes off word by word in a one-child chunk union,
        // for less than galloping it.
        let swept = plan("0 3", &corpus, u);
        let large = plan("0 3 AND NOT 5", &corpus, u);
        assert_eq!(kind(&large), PlanKind::BitmapAnd, "{}", large.describe());
        assert!(large.est_cost < swept.est_cost + gallop(&swept, 28_000.0));
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

    #[test]
    fn mixed_and_uses_slice_probe_and_prices_children() {
        let sizes = [(4000, None), (3000, None), (2000, None)];
        let p = plan("0 AND (1 OR 2)", &sizes, 1 << 20);
        let PlanNode::And { pos, kind, .. } = &p.node else {
            panic!("expected And");
        };
        assert_eq!(*kind, AndKind::SliceProbe);
        // The Or child's union cost is part of the total.
        let or_cost: f64 = pos
            .iter()
            .filter(|c| matches!(c.node, PlanNode::Or { .. }))
            .map(|c| c.est_cost)
            .sum();
        assert!(or_cost > 0.0);
        assert!(p.est_cost >= or_cost);
    }

    #[test]
    fn describe_renders_the_tree() {
        let sizes = [(100, None), (200, None), (300, None)];
        let p = plan("0 AND (1 OR 2) AND NOT 1", &sizes, 1 << 20);
        let d = p.describe();
        assert!(d.starts_with("And["), "{d}");
        assert!(d.contains("Or[HeapMerge]"), "{d}");
        assert!(d.contains('\\'), "{d}");
    }
}
