//! Bench for Figures 11/12 and Table 4: traversal strategies.
//!
//! Measures the full Phase-3 run (SQL executions included) for each of the
//! five strategies on a light query (Q1) and the heavy one (Q3). Expected
//! ordering mirrors the paper: with-reuse variants beat their counterparts;
//! SBH is never far from the best.

use bench::harness::{black_box, Bench};
use bench::{build_system, DataScale};
use kwdebug::traversal::StrategyKind;

fn main() {
    let system = build_system(DataScale::Small, 7, 5);
    let mut b = Bench::from_args();
    for (qid, text) in [("Q1", "Widom Trio"), ("Q3", "Agrawal Chaudhuri Das")] {
        for kind in StrategyKind::ALL {
            b.run(&format!("fig11_traversal_{qid}/{}", kind.name()), 20, || {
                black_box(system.debug_with_strategy(text, kind).expect("query runs")).sql_queries()
            });
        }
    }
}
