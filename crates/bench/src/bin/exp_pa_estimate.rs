//! Ablation — fixed `p_a = 0.5` vs statistics-estimated vs online-observed
//! `p_a` (§2.5.3 future work, implemented in `kwdebug::estimate`).
//!
//! Runs SBH over the workload four ways: the paper's fixed prior, the
//! per-interpretation static estimate (row counts, join-key distinct counts,
//! keyword document frequencies), and the online per-level alive-rate
//! estimator ([`kwdebug::OnlinePa`]) twice — a first pass that starts at the
//! paper's prior and learns from its own executed verdicts, and a second
//! pass over the same workload with the estimator already warmed (the
//! cross-session steady state under the serving layer, DESIGN.md §12).
//! Reports executed-SQL counts side by side; outputs are asserted identical
//! by the library's equivalence tests — `p_a` only reorders the greedy
//! frontier.
//!
//! Usage: `exp_pa_estimate [--scale S] [--max-level N]` (default N=5).

use bench::{build_system, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::estimate::PaEstimator;
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::traversal::{self, StrategyKind};

const SBH: StrategyKind = StrategyKind::ScoreBasedHeuristic;

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== Ablation: SBH with fixed vs estimated vs online p_a (scale {:?}, level {max_level}) ==\n",
        args.scale
    );
    let system = build_system(args.scale, args.seed, max_level);
    // The online session reads and feeds the substrate's estimator, exactly
    // as `SharedParts` shares it across a server's sessions: pass 1 warms
    // it, pass 2 reads the accumulated evidence. The fixed-prior runs never
    // record into it.
    let online = NonAnswerDebugger::from_shared(
        system.shared_parts(),
        DebugConfig { online_pa: true, ..*system.config() },
    )
    .expect("valid session configuration");
    let sql = |s: &NonAnswerDebugger, text: &str| -> u64 {
        s.debug_with_strategy(text, SBH).expect("SBH runs").sql_queries()
    };

    let mut rows = Vec::new();
    for q in paper_queries() {
        let fixed = sql(&system, q.text);
        // The static estimate is a prior per interpretation, which no
        // session configuration expresses, so this column drives Phases 1–3
        // itself.
        let query = KeywordQuery::parse(q.text).expect("workload query parses");
        let mapping = map_keywords(&query, system.index());
        let mut estimated = 0u64;
        let mut pa_shown = String::from("-");
        for interp in &mapping.interpretations {
            let pruned = PrunedLattice::build(system.lattice(), interp);
            let pa = PaEstimator::new(system.database(), system.index(), interp, &mapping.keywords)
                .estimate_pa(system.lattice(), &pruned);
            pa_shown = format!("{pa:.2}");
            let mut oracle = AlivenessOracle::new(
                system.database(),
                Some(system.index()),
                interp,
                &mapping.keywords,
                false,
            );
            let out = traversal::run(SBH, system.lattice(), &pruned, &mut oracle, pa)
                .expect("SBH runs");
            estimated += out.sql_queries;
        }
        let cold = sql(&online, q.text);
        rows.push((q, pa_shown, fixed, estimated, cold));
    }
    // Second pass: the estimator now carries every verdict of pass 1.
    let observations = online.pa_stats().observations();
    let mut table = Vec::new();
    for (q, pa_shown, fixed, estimated, cold) in rows {
        let warm = sql(&online, q.text);
        table.push(vec![
            q.id.to_string(),
            pa_shown,
            fixed.to_string(),
            estimated.to_string(),
            cold.to_string(),
            warm.to_string(),
            format!("{:+}", estimated as i64 - fixed as i64),
        ]);
    }
    print_table(
        &["query", "est_pa", "SBH@0.5", "SBH@est", "SBH@onl", "SBH@onl-warm", "delta"],
        &table,
    );
    println!(
        "\n(outputs are identical; only the greedy order — and thus query count — shifts.\n online estimator observed {observations} executed verdicts in pass 1; levels with\n no observations keep the paper's 0.5 prior via Laplace smoothing)"
    );
}
