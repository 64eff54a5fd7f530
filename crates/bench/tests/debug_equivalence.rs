//! The experiment binaries measure `NonAnswerDebugger::debug_with_strategy`.
//! This pins that request path to the paper's pipeline run by hand — keyword
//! mapping, Phase 1–2 pruning, one oracle per interpretation and
//! `traversal::run` — so that every figure the experiments report counts
//! the same work: same SQL queries, answers, MPANs, unknowns and retries for
//! every workload query and strategy, clean and under injected faults.

use bench::{build_system, chaos, DataScale};
use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::traversal::{self, StrategyKind};

#[test]
fn debug_matches_hand_built_pipeline() {
    let mut system = build_system(DataScale::Tiny, 7, 5);
    let mut strategies = StrategyKind::ALL.to_vec();
    strategies.push(StrategyKind::BruteForce);
    for rate in [0, 10, 100] {
        system.set_chaos(chaos(7, rate));
        for q in datagen::paper_queries() {
            for &kind in &strategies {
                let report = system.debug_with_strategy(q.text, kind).unwrap();
                let query = KeywordQuery::parse(q.text).unwrap();
                let mapping = map_keywords(&query, system.index());
                let (mut sql, mut answers, mut mpans, mut unknowns, mut retries) =
                    (0, 0, 0, 0, 0);
                for interp in &mapping.interpretations {
                    let pruned = PrunedLattice::build(system.lattice(), interp);
                    let mut oracle = AlivenessOracle::new(
                        system.database(),
                        Some(system.index()),
                        interp,
                        &mapping.keywords,
                        false,
                    );
                    if let Some(chaos) = system.config().chaos {
                        oracle = oracle.with_chaos(chaos);
                    }
                    let out = traversal::run(kind, system.lattice(), &pruned, &mut oracle, 0.5)
                        .unwrap();
                    sql += out.sql_queries;
                    answers += out.alive_mtns.len();
                    mpans += out.mpan_total();
                    unknowns += out.unknown_mtns.len();
                    retries += out.probes.retries;
                }
                let cell = format!("{} {kind} {rate}‰", q.id);
                assert_eq!(report.sql_queries(), sql, "{cell}");
                assert_eq!(report.answer_count(), answers, "{cell}");
                assert_eq!(report.mpan_count(), mpans, "{cell}");
                assert_eq!(report.unknown_count(), unknowns, "{cell}");
                assert_eq!(report.probes().retries, retries, "{cell}");
            }
        }
    }
}
