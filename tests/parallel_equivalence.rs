//! Integration: the pooled probe executor is observably identical to the
//! inline one.
//!
//! The contract of `kwdebug::parallel` (DESIGN.md §8) is that `workers`
//! changes wall-clock and nothing else: for every strategy, database and
//! budget, a parallel debug run must produce the same rendered report, the
//! same answer/non-answer/unknown structure, and the same probe counters as
//! `workers = 1` — including the partial results of a traversal cut short
//! by a probe budget mid-wave. Only `probe_time_ns` and the parallel-only
//! `workers`/`steals` counters may differ.
//!
//! Budgets here are probe-count caps only. Deadlines trip on wall-clock.
//! Tuple-scan caps do not depend on timing but on reservation order: the
//! inline executor runs each probe right after reserving it, while the pool
//! reserves a whole wave before executing any of it, so a tuple cap can
//! trip later under the pool. (Chaos runs are covered by the soundness
//! smoke at the bottom, not by equivalence.)

use datagen::{generate_dblife, paper_queries, product_database, DblifeConfig};
use kwdebug::budget::ProbeBudget;
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::ProbeCounters;
use kwdebug::traversal::StrategyKind;
use kwdebug::DebugReport;
use relengine::FaultConfig;

const ALL_SIX: [StrategyKind; 6] = [
    StrategyKind::BottomUp,
    StrategyKind::TopDown,
    StrategyKind::BottomUpWithReuse,
    StrategyKind::TopDownWithReuse,
    StrategyKind::ScoreBasedHeuristic,
    StrategyKind::BruteForce,
];

/// Blanks the wall-clock portion of rendered report lines.
fn scrub(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" SQL queries, ") {
            Some(i) => format!("{} SQL queries, (t)", &l[..i]),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Drops the counters that legitimately vary with the worker count.
fn timeless(mut p: ProbeCounters) -> ProbeCounters {
    p.probe_time_ns = 0;
    p.workers = 0;
    p.steals = 0;
    p
}

/// Asserts a parallel report is observably identical to the sequential one.
fn assert_equivalent(seq: &DebugReport, par: &DebugReport, ctx: &str) {
    assert_eq!(scrub(&par.to_string()), scrub(&seq.to_string()), "{ctx}: rendered report");
    assert_eq!(par.interpretations.len(), seq.interpretations.len(), "{ctx}");
    for (p, s) in par.interpretations.iter().zip(&seq.interpretations) {
        assert_eq!(p.answers, s.answers, "{ctx}: answers");
        assert_eq!(p.non_answers, s.non_answers, "{ctx}: non-answers");
        assert_eq!(p.unknown, s.unknown, "{ctx}: unknown");
        assert_eq!(p.budget_exhausted, s.budget_exhausted, "{ctx}: exhaustion cause");
        assert_eq!(p.sql_queries, s.sql_queries, "{ctx}: query count");
        assert_eq!(timeless(p.probes), timeless(s.probes), "{ctx}: probe counters");
    }
    // Wave independence means a parallel run never executes a probe that
    // same-wave inference could have answered.
    assert_eq!(par.probes().inference_suppressed_probes, 0, "{ctx}: suppressed probes");
    assert!(par.probes().probes_executed <= seq.probes().probes_executed, "{ctx}");
}

/// Every strategy × workers ∈ {2, 4} on the paper's Figure 2 toy store,
/// with and without memoization (the sharded memo path).
#[test]
fn toydb_reports_match_sequential_for_every_strategy() {
    for memoize in [false, true] {
        let mut sys = NonAnswerDebugger::new(
            product_database(),
            DebugConfig { max_joins: 2, sample_limit: 0, memoize, ..DebugConfig::default() },
        )
        .expect("toy system builds");
        for kind in ALL_SIX {
            sys.set_workers(1);
            let seq = sys.debug_with_strategy("saffron scented candle", kind).expect("runs");
            for workers in [2, 4] {
                sys.set_workers(workers);
                let par =
                    sys.debug_with_strategy("saffron scented candle", kind).expect("runs");
                assert_equivalent(&seq, &par, &format!("toydb {kind} w={workers} memo={memoize}"));
            }
        }
    }
}

/// Every strategy × workers ∈ {2, 4} over seeded DBLife instances and a
/// slice of the paper's Table 2 workload.
#[test]
fn dblife_reports_match_sequential_across_seeds() {
    for seed in [DblifeConfig::tiny().seed, 99] {
        let mut sys = NonAnswerDebugger::new(
            generate_dblife(&DblifeConfig { seed, ..DblifeConfig::tiny() }),
            DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() },
        )
        .expect("system builds");
        for q in paper_queries().iter().take(3) {
            for kind in ALL_SIX {
                sys.set_workers(1);
                let seq = sys.debug_with_strategy(q.text, kind).expect("runs");
                for workers in [2, 4] {
                    sys.set_workers(workers);
                    let par = sys.debug_with_strategy(q.text, kind).expect("runs");
                    assert_equivalent(
                        &seq,
                        &par,
                        &format!("dblife seed={seed} {} {kind} w={workers}", q.id),
                    );
                }
            }
        }
    }
}

/// A probe budget that trips mid-traversal must stop the parallel run at
/// exactly the same probe as the sequential one: identical partial reports,
/// identical `unknown` sets, the trip counted once.
#[test]
fn tight_probe_budgets_cut_identically() {
    let mut sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() },
    )
    .expect("system builds");
    for cap in [0, 1, 3, 7] {
        sys.set_budget(ProbeBudget::probes(cap));
        for kind in ALL_SIX {
            sys.set_workers(1);
            let seq = sys.debug_with_strategy("Widom Trio", kind).expect("runs");
            for workers in [2, 4] {
                sys.set_workers(workers);
                let par = sys.debug_with_strategy("Widom Trio", kind).expect("runs");
                let ctx = format!("budget={cap} {kind} w={workers}");
                assert_equivalent(&seq, &par, &ctx);
                if cap == 0 {
                    assert!(!par.is_complete(), "{ctx}: zero budget must degrade");
                    assert_eq!(par.sql_queries(), 0, "{ctx}");
                }
            }
        }
    }
}

/// Chaos + parallelism is soundness-only: per-worker fault schedules differ
/// from the sequential engine's, so reports may legitimately differ — but
/// the run must stay sound (no panic, no hard error, counters consistent
/// with the engine, only fault-degraded omissions).
#[test]
fn chaos_under_parallelism_stays_sound() {
    let mut sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() },
    )
    .expect("system builds");
    sys.set_chaos(Some(FaultConfig::transient(7, 300)));
    let complete = {
        let mut clean = NonAnswerDebugger::new(
            generate_dblife(&DblifeConfig::tiny()),
            DebugConfig { max_joins: 3, sample_limit: 0, ..DebugConfig::default() },
        )
        .expect("system builds");
        clean.set_workers(4);
        clean.debug("Widom Trio").expect("clean run")
    };
    for workers in [2, 4] {
        sys.set_workers(workers);
        let r = sys.debug("Widom Trio").expect("chaotic parallel run never hard-errors");
        let p = r.probes();
        assert_eq!(p.probes_executed, r.sql_queries(), "w={workers}: counters mirror engine");
        // Soundness: everything the degraded run classifies, the clean run
        // agrees with (it can only *miss* classifications, never invent).
        assert!(r.answer_count() <= complete.answer_count(), "w={workers}");
        assert!(r.non_answer_count() <= complete.non_answer_count(), "w={workers}");
    }
}
