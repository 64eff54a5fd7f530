//! Bench for Figures 14/15: our approach vs Return Nothing vs Return
//! Everything.
//!
//! Measures end-to-end response cost per approach for a two-keyword and a
//! three-keyword query. Expected shape: ours ≤ RE everywhere; RN loses
//! ground on three-keyword queries (exponentially many subset submissions).

use bench::harness::{black_box, Bench};
use bench::{build_system, run_re, run_rn, DataScale};
use kwdebug::traversal::StrategyKind;

fn main() {
    let system = build_system(DataScale::Small, 7, 5);
    let mut b = Bench::from_args();
    for (qid, text) in [("Q4", "DeRose VLDB"), ("Q8", "Probabilistic Data Washington")] {
        b.run(&format!("fig14_alternatives_{qid}/ours_sbh"), 20, || {
            black_box(
                system
                    .debug_with_strategy(text, StrategyKind::ScoreBasedHeuristic)
                    .expect("query runs"),
            )
            .sql_queries()
        });
        b.run(&format!("fig14_alternatives_{qid}/return_nothing"), 20, || {
            black_box(run_rn(&system, text).expect("RN runs")).sql_queries
        });
        b.run(&format!("fig14_alternatives_{qid}/return_everything"), 20, || {
            black_box(run_re(&system, text).expect("RE runs")).0
        });
    }
}
