//! A traced replay is deterministic: two single-client replays of the same
//! seed at a reduced size count exactly the same work — probes executed,
//! sample queries, tuples scanned, cache hits by layer, Phase-1 nodes
//! touched and write invalidations — and every replayed report equals what
//! `debug()` returns for the same text.

use datagen::DblifeConfig;
use perfbench::run::{replay_served, replay_writes, Stop};
use perfbench::trace::Counts;
use perfbench::workload::{Workload, DATA_SEED};

fn tiny() -> DblifeConfig {
    DblifeConfig {
        seed: DATA_SEED,
        ..DblifeConfig::tiny()
    }
}

fn served_counts(workload: Workload, seed: u64) -> Counts {
    let replay = replay_served(workload, &tiny(), 1, seed, Stop::Rounds(40)).expect("replay runs");
    assert_eq!(replay.mismatched, 0, "replayed reports equal debug()");
    replay.counts
}

#[test]
fn shared_cache_replay_counts_repeat_exactly() {
    let first = served_counts(Workload::MediumTenants, 5);
    assert_eq!(first, served_counts(Workload::MediumTenants, 5));
    assert_eq!(first.requests, 40);
    assert!(first.probes_executed > 0 && first.sample_queries > 0);
    assert!(
        first.verdict_hits > 0,
        "warm shared cache answers verdicts: {first:?}"
    );
    assert!(first.phase1_nodes_touched > 0);
}

#[test]
fn uncached_replay_counts_repeat_exactly() {
    let first = served_counts(Workload::PaperSolo, 9);
    assert_eq!(first, served_counts(Workload::PaperSolo, 9));
    assert_eq!(
        first.requests, 400,
        "40 whole passes of the ten Table 2 queries"
    );
    assert_eq!(
        first.selection_hits + first.subtree_hits + first.verdict_hits,
        0
    );
}

#[test]
fn writes_replay_counts_repeat_exactly() {
    let run = || {
        let replay = replay_writes(&tiny(), 3, Stop::Rounds(6)).expect("replay runs");
        assert_eq!(replay.mismatched, 0, "replayed reports equal debug()");
        replay.counts
    };
    let first = run();
    assert_eq!(first, run());
    assert!(first.writes > 0 && first.invalidated > 0, "{first:?}");
    assert!(first.tuples_scanned + first.sample_tuples_scanned > 0);
}
