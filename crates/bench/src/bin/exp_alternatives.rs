//! Experiments E10/E11 — Figures 14 and 15: our approach vs RN vs RE.
//!
//! Per workload query: total SQL execution time (and query counts) for
//!
//! * **Ours** — the lattice pipeline with the score-based heuristic;
//! * **Return Nothing** — the developer re-submits every keyword subset and
//!   the plain KWS-S system executes all candidate networks of each;
//! * **Return Everything** — every descendant of every dead MTN is executed
//!   with no lattice inference and no cross-MTN sharing.
//!
//! Paper shape: our approach wins; the gap is largest on the three-keyword
//! queries (Q2, Q3, Q8, Q10) and grows with the lattice level (run with
//! `--max-level 7` for the Figure 15 variant).
//!
//! Usage: `exp_alternatives [--scale S] [--max-level N]` (default N=5,
//! matching Figure 14).

use bench::{build_system, print_table, run_re, run_rn, ExpArgs};
use datagen::paper_queries;
use kwdebug::traversal::StrategyKind;

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== Figure {}: response time vs alternatives (scale {:?}, level {max_level}) ==\n",
        if max_level >= 7 { 15 } else { 14 },
        args.scale
    );
    let system = build_system(args.scale, args.seed, max_level);

    let mut rows = Vec::new();
    for q in paper_queries() {
        let ours = system
            .debug_with_strategy(q.text, StrategyKind::ScoreBasedHeuristic)
            .expect("workload query runs");
        let rn = run_rn(&system, q.text).expect("RN baseline runs");
        let (re_queries, re_time) = run_re(&system, q.text).expect("RE baseline runs");
        rows.push(vec![
            q.id.to_string(),
            bench::ms(ours.sql_time()),
            bench::ms(rn.sql_time),
            bench::ms(re_time),
            ours.sql_queries().to_string(),
            rn.sql_queries.to_string(),
            re_queries.to_string(),
        ]);
    }
    print_table(
        &["query", "ours_ms", "RN_ms", "RE_ms", "ours_q", "RN_q", "RE_q"],
        &rows,
    );
}
