//! Differential suite for the boolean expression engine: the whole stack
//! — parser, rewrites, expression planner, kernels, cache-keyed serving —
//! pinned byte-identical to a naive `BTreeSet` set-semantics evaluator,
//! across random ASTs and both planner calibrations, plus proptests that the rewrites preserve semantics and
//! that canonical hashes collide exactly for equivalent expressions.

use fsi_core::{Elem, HashContext, SortedSet};
use fsi_index::{Planner, SearchEngine};
use fsi_query::naive::{naive_eval, naive_eval_universe};
use fsi_query::{compile, encode, fingerprint, normalize, parse, Expr, NormExpr, RewriteError};
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
// Engine differential: both planner calibrations vs naive semantics
// ---------------------------------------------------------------------------

#[test]
fn expression_engine_matches_naive_semantics_across_planners() {
    let engine = test_engine(1);
    let slices = posting_slices(&engine);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let exprs: Vec<NormExpr> = (0..40)
        .map(|_| random_bounded_expr(&mut rng, NUM_TERMS, 3).1)
        .collect();
    // "Both planners": the scalar-calibrated default and the SIMD-tier
    // auto calibration (identical answers, possibly different plans).
    let planners = [("default", Planner::default()), ("auto", Planner::auto())];
    for (label, planner) in &planners {
        let server = Server::new(
            &engine,
            ServeConfig {
                planner: planner.clone(),
                ..ServeConfig::default()
            },
        );
        for expr in &exprs {
            let expect: Vec<Elem> = naive_eval(&slices, expr).into_iter().collect();
            assert_eq!(
                server.engine().query_expr(expr),
                expect,
                "{label} expr={expr}"
            );
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
            planner: Planner::default(),
            ..ServeConfig::default()
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
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 64,
            ..ServeConfig::default()
        },
    );
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
