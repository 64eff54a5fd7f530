//! Experiment E7 — Table 3: MTN and MPAN counts at lattice levels 3/5/7.
//!
//! For each workload query and each maximum lattice level, the number of
//! candidate networks (MTNs) and of maximal partially alive nodes (MPANs)
//! across the dead ones. Paper shape: both counts grow steeply with the
//! level — most MTNs and MPANs live at the higher levels, which is why
//! top-down traversals beat bottom-up ones on this workload.
//!
//! Usage: `exp_distribution [--scale S] [--max-level N]` — levels 3 and 5
//! always run; 7 runs when `--max-level 7`.

use bench::{build_system, print_table, ExpArgs};
use datagen::paper_queries;
use kwdebug::traversal::StrategyKind;

fn main() {
    let args = ExpArgs::parse();
    let top = args.max_level.unwrap_or(5);
    let levels: Vec<usize> = [3usize, 5, 7].into_iter().filter(|&l| l <= top).collect();
    println!("== Table 3: MTN/MPAN distribution (scale {:?}, levels {levels:?}) ==\n", args.scale);

    // (query, level) -> (mtns, mpans)
    let mut cells = vec![vec![(0usize, 0usize); levels.len()]; 10];
    for (li, &level) in levels.iter().enumerate() {
        let system = build_system(args.scale, args.seed, level);
        for (qi, q) in paper_queries().iter().enumerate() {
            let report = system
                .debug_with_strategy(q.text, StrategyKind::TopDownWithReuse)
                .expect("workload query runs");
            let mtns = report.answer_count() + report.non_answer_count();
            cells[qi][li] = (mtns, report.mpan_count());
        }
    }

    let mut headers: Vec<String> = vec!["query".into()];
    for &l in &levels {
        headers.push(format!("MTN@L{l}"));
    }
    for &l in &levels {
        headers.push(format!("MPAN@L{l}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for (qi, q) in paper_queries().iter().enumerate() {
        let mut row = vec![q.id.to_string()];
        row.extend(cells[qi].iter().map(|c| c.0.to_string()));
        row.extend(cells[qi].iter().map(|c| c.1.to_string()));
        rows.push(row);
    }
    print_table(&header_refs, &rows);
    println!("\n(most MTNs and MPANs concentrate at the higher levels, as in the paper)");
}
