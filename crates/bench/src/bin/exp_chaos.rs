//! Experiment E12 — robustness extension: traversal under probe faults.
//!
//! Not a figure from the paper: it exercises the fault-tolerance layer the
//! paper's production setting would need. Per workload query and traversal
//! strategy, sweep the per-probe transient-fault rate (0/10/50/100 per
//! mille, deterministic seed) with the default retry policy, and report how
//! much of the classification survives: retries spent, probes abandoned,
//! and MTNs left `Unknown` in the partial report. Expected shape: at 0‰
//! every strategy matches the clean run byte for byte; as the rate grows,
//! retries absorb most faults and the `Unknown` count stays near zero until
//! retries themselves start failing.
//!
//! Usage: `exp_chaos [--scale S] [--max-level N] [--seed N]` (default N=5).
//! The injection seed is derived from `--seed` so runs are reproducible.

use bench::{build_system, chaos, emit_metrics, print_table, snapshot, ExpArgs};
use datagen::paper_queries;
use kwdebug::traversal::StrategyKind;

/// Transient-fault rates swept, in probes-per-mille.
const RATES: [u32; 4] = [0, 10, 50, 100];

fn main() {
    let args = ExpArgs::parse();
    let max_level = args.max_level.unwrap_or(5);
    println!(
        "== E12: degraded-mode traversal under injected probe faults (scale {:?}, level {max_level}) ==\n",
        args.scale
    );
    let mut system = build_system(args.scale, args.seed, max_level);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for q in paper_queries() {
        for kind in StrategyKind::ALL {
            let mut row = vec![q.id.to_string(), kind.to_string()];
            for rate in RATES {
                system.set_chaos(chaos(args.seed, rate));
                let report = system
                    .debug_with_strategy(q.text, kind)
                    .expect("chaos run degrades instead of failing");
                let probes = report.probes();
                assert_eq!(
                    probes.probes_executed,
                    report.sql_queries(),
                    "probe accounting must hold under faults"
                );
                row.push(format!(
                    "{}/{}/{}",
                    probes.retries,
                    probes.probes_abandoned,
                    report.unknown_count()
                ));
                let mut snap =
                    snapshot(&report, "exp_chaos", q.id, &kind.to_string(), args.scale, max_level);
                snap.variant = format!("fault_pm={rate}");
                records.push(snap);
            }
            rows.push(row);
        }
    }

    let headers = ["query", "strategy", "0‰", "10‰", "50‰", "100‰"];
    println!("retries / probes abandoned / MTNs left unknown, per fault rate:");
    print_table(&headers, &rows);
    println!();
    emit_metrics("exp_chaos", &records);
}
