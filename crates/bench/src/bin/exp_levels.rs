//! Experiment E8 — Table 4: SQL queries for Q3 as the lattice level grows.
//!
//! Q3 ("Agrawal Chaudhuri Das") is the heaviest workload query — three
//! person names, many candidate networks, heavy descendant overlap. The
//! table shows executed-SQL counts per traversal strategy at levels 3/5/7.
//! Paper shape: counts rise with the level; reuse variants need markedly
//! fewer queries than their plain counterparts; SBH needs the fewest at the
//! top level.
//!
//! Usage: `exp_levels [--scale S] [--max-level N]` — levels 3 and 5 always
//! run; 7 runs when `--max-level 7`.

use bench::{build_system, print_table, ExpArgs};
use kwdebug::traversal::StrategyKind;

const QUERY: &str = "Agrawal Chaudhuri Das";

fn main() {
    let args = ExpArgs::parse();
    let top = args.max_level.unwrap_or(5);
    let levels: Vec<usize> = [3usize, 5, 7].into_iter().filter(|&l| l <= top).collect();
    println!(
        "== Table 4: SQL queries for Q3 per level (scale {:?}, levels {levels:?}) ==\n",
        args.scale
    );

    let mut rows = Vec::new();
    for &level in &levels {
        let system = build_system(args.scale, args.seed, level);
        let mut row = vec![level.to_string()];
        for kind in StrategyKind::ALL {
            let report = system.debug_with_strategy(QUERY, kind).expect("Q3 runs");
            row.push(report.sql_queries().to_string());
        }
        rows.push(row);
    }
    print_table(&["level", "BU", "BUWR", "TD", "TDWR", "SBH"], &rows);
    println!("\n(Q3 = \"{QUERY}\")");
}
