//! Integration: report samples rendered from probe witnesses equal the
//! samples a separate sample query returns.
//!
//! A probe that runs a node's full plan keeps the first `sample_limit`
//! result tuples as the node's witness, and the report renders an alive
//! node from it instead of querying again (DESIGN.md §15). That is only
//! sound if the witness is exactly what [`AlivenessOracle::sample`] would
//! fetch. This suite checks it over the ten Table 2 queries on small DBLife,
//! every strategy, cache on and off, inline and pooled probing, and two
//! sample limits: every alive node in every report carries the tuples an
//! independent, uncached oracle samples for it.

use datagen::{generate_dblife, paper_queries, DblifeConfig};
use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::traversal::{self, StrategyKind};
use kwdebug::Jnts;
use relengine::{Database, RowId};

const ALL_SIX: [StrategyKind; 6] = [
    StrategyKind::BottomUp,
    StrategyKind::TopDown,
    StrategyKind::BottomUpWithReuse,
    StrategyKind::TopDownWithReuse,
    StrategyKind::ScoreBasedHeuristic,
    StrategyKind::BruteForce,
];

/// The report's tuple format: `table<copy>(v1, v2) ⋈ ...`.
fn render(db: &Database, jnts: &Jnts, tuple: &[RowId]) -> String {
    jnts.nodes()
        .iter()
        .zip(tuple)
        .map(|(ts, &rid)| {
            let table = db.table(ts.table);
            let values: Vec<String> = table.row(rid).iter().map(|v| v.to_string()).collect();
            format!("{}{}({})", table.schema().name, ts.copy, values.join(", "))
        })
        .collect::<Vec<_>>()
        .join(" ⋈ ")
}

/// Per interpretation, the rendered samples of every alive node the report
/// lists, in report order: answers, then each non-answer's MPANs.
fn expected_samples(
    sys: &NonAnswerDebugger,
    text: &str,
    limit: usize,
) -> Vec<Vec<Vec<String>>> {
    let (db, lattice) = (sys.database(), sys.lattice());
    let mapping = map_keywords(&KeywordQuery::parse(text).expect("parses"), sys.index());
    let mut out = Vec::new();
    for interp in &mapping.interpretations {
        let pruned = PrunedLattice::build(lattice, interp);
        let mut oracle =
            AlivenessOracle::new(db, Some(sys.index()), interp, &mapping.keywords, false);
        let outcome =
            traversal::run(StrategyKind::BruteForce, lattice, &pruned, &mut oracle, 0.5)
                .expect("reference traversal runs");
        let alive = outcome.alive_mtns.iter().chain(outcome.mpans.iter().flatten());
        let mut samples = Vec::new();
        for &dense in alive {
            let jnts = pruned.jnts(lattice, dense);
            let tuples = oracle.sample(jnts, limit).expect("reference sample runs");
            assert!(!tuples.is_empty(), "{text}: an alive node samples a tuple");
            samples.push(tuples.iter().map(|t| render(db, jnts, t)).collect());
        }
        out.push(samples);
    }
    out
}

#[test]
fn witness_samples_equal_independent_sample_queries() {
    let base = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::small()),
        DebugConfig { max_joins: 4, ..DebugConfig::default() },
    )
    .expect("system builds");
    let mut checked = 0usize;
    for limit in [1, 3] {
        let config = DebugConfig { max_joins: 4, sample_limit: limit, ..DebugConfig::default() };
        let mut sys = NonAnswerDebugger::from_shared(base.shared_parts(), config)
            .expect("session builds");
        for q in paper_queries() {
            let expected = expected_samples(&sys, q.text, limit);
            for cache in [false, true] {
                sys.set_eval_cache(cache);
                for workers in [1, 4] {
                    sys.set_workers(workers);
                    for kind in ALL_SIX {
                        let ctx =
                            format!("{} {kind} cache={cache} w={workers} limit={limit}", q.id);
                        let report = sys.debug_with_strategy(q.text, kind).expect("runs");
                        assert_eq!(report.interpretations.len(), expected.len(), "{ctx}");
                        for (interp, want) in report.interpretations.iter().zip(&expected) {
                            let got: Vec<&Vec<String>> = interp
                                .answers
                                .iter()
                                .chain(interp.non_answers.iter().flat_map(|n| &n.mpans))
                                .map(|info| &info.sample_tuples)
                                .collect();
                            assert_eq!(got.len(), want.len(), "{ctx}: alive nodes");
                            for (g, w) in got.iter().zip(want) {
                                assert_eq!(*g, w, "{ctx}");
                            }
                            checked += got.len();
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 1000, "the matrix reports alive nodes: {checked}");
}
