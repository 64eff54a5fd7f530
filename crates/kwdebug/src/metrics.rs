//! Probe-level observability: counters, timers and serializable snapshots.
//!
//! The paper's entire evaluation (§3) ranks strategies by *how many SQL
//! queries they execute* and *where the time goes*. This module makes those
//! quantities first-class: every [`crate::oracle::AlivenessOracle`] owns a
//! [`Metrics`] block of lock-free counters that the oracle and the Phase-3
//! traversals increment as they work, and every layer above (traversal →
//! debugger → bench binaries) reads them through cheap [`ProbeCounters`]
//! snapshots with delta semantics.
//!
//! Each counter is declared once, as one row of the `counters!` table in
//! this module's source. The row's doc comment says what increments the
//! counter and names its paper counterpart (it renders on the matching
//! [`ProbeCounters`] field); the row also gives its JSON key, whether it is
//! an event or a gauge, and how it travels on the wire. The table generates
//! [`Metrics`], [`ProbeCounters`] with its delta/merge and `(name, value)`
//! view, the `probes` object of [`MetricsSnapshot::to_json`], and the
//! report probes-block codec ([`ProbeCounters::write_wire`]).
//!
//! The invariant the integration tests pin down: `probes_executed` equals the
//! engine's own `ExecStats::queries`, so a strategy can never misreport its
//! probe count. All counters are relaxed atomics, which also makes the whole
//! block safe to share across the worker threads of [`crate::parallel`] —
//! workers increment the *same* `Metrics`, so one snapshot already is the
//! merged per-worker view.
//!
//! [`MetricsSnapshot`] bundles one experiment record (probes + per-phase
//! timings + Phase-1/2 statistics) and renders it as a single stable-key JSON
//! object — hand-rolled like [`crate::lattice_io`], no external dependencies —
//! which the bench binaries write as `BENCH_*.json` lines. The keys of the
//! `probes` object are emitted in sorted order so bench diffs stay clean as
//! counters are added.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::lattice::LevelStats;
use crate::prune::PruneStats;

/// A monotonically increasing event counter (relaxed atomic, so it can be
/// bumped through a shared borrow while the owner is otherwise `&mut`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value — for the gauge rows of the counter table, which
    /// mirror external state instead of counting events.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A monotonic accumulator of elapsed wall-clock time (stored as nanoseconds).
#[derive(Debug, Default)]
pub struct TimeCounter(AtomicU64);

impl TimeCounter {
    /// A timer starting at zero.
    pub const fn new() -> TimeCounter {
        TimeCounter(AtomicU64::new(0))
    }

    /// Accumulates one elapsed span.
    pub fn add(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total accumulated time.
    pub fn get(&self) -> Duration {
        Duration::from_nanos(self.nanos())
    }

    /// Total accumulated nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// How a counter combines: across a snapshot window ([`ProbeCounters::delta`])
/// and across merged windows ([`ProbeCounters::accumulate`]).
#[derive(Clone, Copy)]
enum Kind {
    /// Counts events: a window subtracts its baseline, a merge sums.
    Event,
    /// Mirrors external state: a window keeps the latest value, a merge
    /// takes the maximum (per-interpretation windows of one debug call share
    /// one epoch and one final cache/index state).
    Gauge,
}

impl Kind {
    fn window(self, now: u64, baseline: u64) -> u64 {
        match self {
            Kind::Event => now - baseline,
            Kind::Gauge => now,
        }
    }

    fn merge(self, a: u64, b: u64) -> u64 {
        match self {
            Kind::Event => a + b,
            Kind::Gauge => a.max(b),
        }
    }
}

/// How a counter travels in the canonical report probes block
/// ([`ProbeCounters::write_wire`]).
#[derive(Clone, Copy)]
enum Wire {
    /// One u64 slot carrying the value.
    Value,
    /// One u64 slot, always written as 0: the value is wall clock or
    /// scheduling noise, so equal computations must still encode equally.
    Zero,
    /// No slot at all; decodes as 0 (cross-session scheduling noise added
    /// after the layout was fixed).
    Absent,
}

impl Wire {
    fn write(self, v: u64, put: &mut impl FnMut(u64)) {
        match self {
            Wire::Value => put(v),
            Wire::Zero => put(0),
            Wire::Absent => {}
        }
    }

    fn read<E>(self, next: &mut impl FnMut() -> Result<u64, E>) -> Result<u64, E> {
        match self {
            Wire::Value | Wire::Zero => next(),
            Wire::Absent => Ok(0),
        }
    }
}

/// Generates every per-counter item from one table of rows
/// `/// docs  live: Type [=> snapshot], Kind, Wire [, "json key"];`. The
/// snapshot field defaults to the live name, the JSON key to the snapshot
/// name. The first arms normalise each row; `@emit` writes the code.
macro_rules! counters {
    (@rows [$($done:tt)*]) => { counters!(@emit $($done)*); };
    (@rows [$($done:tt)*] $(#[doc = $doc:literal])* $live:ident: Counter,
        $kind:ident, $wire:ident $(, $key:literal)?; $($rest:tt)*) => {
        counters!(@rows [$($done)* [$($doc)*] $live Counter $live $kind $wire [$($key)?];]
            $($rest)*);
    };
    (@rows [$($done:tt)*] $(#[doc = $doc:literal])* $live:ident: TimeCounter => $snap:ident,
        $kind:ident, $wire:ident $(, $key:literal)?; $($rest:tt)*) => {
        counters!(@rows [$($done)* [$($doc)*] $live TimeCounter $snap $kind $wire [$($key)?];]
            $($rest)*);
    };
    (@key $snap:ident) => { stringify!($snap) };
    (@key $snap:ident $key:literal) => { $key };
    (@emit $([$($doc:literal)*] $live:ident $ty:ident $snap:ident $kind:ident $wire:ident
        [$($key:literal)?];)*) => {
        /// The live instrumentation block owned by an aliveness oracle.
        ///
        /// The oracle maintains the probe counters itself; the Phase-3
        /// strategies record their inference/reuse events through
        /// [`crate::oracle::AlivenessOracle::metrics`]. All fields are
        /// atomics, so recording never needs `&mut`.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $doc])* pub $live: $ty,)*
        }

        impl Metrics {
            /// A zeroed metrics block.
            pub const fn new() -> Metrics {
                Metrics { $($live: $ty::new()),* }
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> ProbeCounters {
                ProbeCounters { $($snap: self.$live.0.load(Ordering::Relaxed)),* }
            }

            /// Resets every counter to zero.
            pub fn reset(&self) {
                $(self.$live.reset();)*
            }
        }

        /// A plain-value snapshot of [`Metrics`], with delta and merge
        /// semantics.
        ///
        /// Snapshots taken before and after a traversal subtract
        /// ([`ProbeCounters::delta`]) to attribute counts to that traversal
        /// alone; per-interpretation counters sum
        /// ([`ProbeCounters::accumulate`]) into per-query aggregates.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ProbeCounters {
            $($(#[doc = $doc])* pub $snap: u64,)*
        }

        impl ProbeCounters {
            const COUNT: usize = [$(stringify!($snap)),*].len();

            /// Counts attributable to the window between `baseline` and
            /// `self`. Gauge fields are state mirrors, not event counts, so
            /// the window carries `self`'s value unchanged.
            pub fn delta(self, baseline: ProbeCounters) -> ProbeCounters {
                ProbeCounters { $($snap: Kind::$kind.window(self.$snap, baseline.$snap)),* }
            }

            /// Adds another window's counts into this one. Gauge fields take
            /// the maximum: the windows of one debug call report its single
            /// epoch and final cache/index state, not a sum of repeats.
            pub fn accumulate(&mut self, other: ProbeCounters) {
                $(self.$snap = Kind::$kind.merge(self.$snap, other.$snap);)*
            }

            /// Every counter as `(field name, value)`, in declaration order.
            pub fn named(&self) -> [(&'static str, u64); ProbeCounters::COUNT] {
                [$((stringify!($snap), self.$snap)),*]
            }

            /// Every counter as `(JSON key, value)`, in declaration order.
            fn json_keyed(&self) -> [(&'static str, u64); ProbeCounters::COUNT] {
                [$((counters!(@key $snap $($key)?), self.$snap)),*]
            }

            /// Writes the canonical report probes block, one `put` per u64
            /// slot in declaration order: wall-clock and scheduling counters
            /// are written as 0 or have no slot, so equal computations
            /// encode equally. SERVING.md §4.1 lists the slots.
            pub fn write_wire(&self, mut put: impl FnMut(u64)) {
                $(Wire::$wire.write(self.$snap, &mut put);)*
            }

            /// Reads a probes block written by [`ProbeCounters::write_wire`],
            /// one `next` per slot; counters without a slot read as 0.
            pub fn read_wire<E>(
                mut next: impl FnMut() -> Result<u64, E>,
            ) -> Result<ProbeCounters, E> {
                Ok(ProbeCounters { $($snap: Wire::$wire.read(&mut next)?),* })
            }
        }
    };
    ($($rows:tt)*) => { counters!(@rows [] $($rows)*); };
}

counters! {
    /// SQL probes actually executed, counted by the oracle per execution:
    /// `is_alive` misses, plus one sample query for each reported alive node
    /// without a witness (a probe that ran the node's full plan kept its
    /// sample tuples). A report's counters cover the traversal only. Paper:
    /// "# of SQL queries" (Figs. 11, 14; Table 4).
    probes_executed: Counter, Event, Value, "executed";
    /// Wall-clock time the oracle spent inside probe executions. Paper:
    /// "SQL time" (Figs. 12, 15).
    probe_time: TimeCounter => probe_time_ns, Event, Zero, "time_ns";
    /// Engine rows examined across all probes, counted by the oracle. Paper:
    /// the cost model behind §3.4.
    tuples_scanned: Counter, Event, Value;
    /// `is_alive` calls the oracle answered from its memo table without
    /// executing. Beyond the paper (re-execution baseline ablation).
    memo_hits: Counter, Event, Value;
    /// Nodes the traversals classified alive by rule R1 (descendants of an
    /// executed alive node), excluding the executed node itself. Paper: §2.4
    /// rule 1.
    r1_inferences: Counter, Event, Value;
    /// Nodes the traversals classified dead by rule R2 (ancestors of an
    /// executed dead node), excluding the executed node itself. Paper: §2.4
    /// rule 2.
    r2_inferences: Counter, Event, Value;
    /// Traversal visits skipped because the node was already classified:
    /// cross-MTN sharing for the with-reuse strategies, within-MTN R1/R2
    /// coverage for BU/TD. Paper: the "WR" in BUWR/TDWR (Fig. 13).
    reuse_hits: Counter, Event, Value;
    /// Probe attempts the oracle re-issued after a transient failure (one per
    /// retry, not per probe). Beyond the paper (degraded mode).
    retries: Counter, Event, Value;
    /// Fault errors ([`relengine::EngineError::is_fault`]), injected or real,
    /// observed by the oracle whether or not a retry later succeeded. Beyond
    /// the paper (degraded mode).
    faults_injected: Counter, Event, Value;
    /// Probes the oracle gave up on after a permanent failure or exhausted
    /// retries; the node stays `Unknown` in the partial report. Beyond the
    /// paper (degraded mode).
    probes_abandoned: Counter, Event, Value;
    /// Times a [`crate::budget::ProbeBudget`] cap tripped (at most once per
    /// oracle, since budgets are sticky). Beyond the paper (degraded mode).
    budget_exhausted: Counter, Event, Value;
    /// Worker threads of the pooled executor ([`crate::parallel`]): the pool
    /// size, summed per traversal it runs; 0 otherwise, batched or not.
    /// Beyond the paper (parallel probing).
    workers: Counter, Event, Value;
    /// Jobs a parallel worker stole from another worker's queue; 0 on
    /// sequential runs (and scheduling-dependent, so never compared exactly).
    /// Beyond the paper (parallel probing).
    steals: Counter, Event, Zero;
    /// Executed verdicts the wave loop discarded because their node was
    /// already classified when the verdict was applied — possible only if a
    /// strategy's wave broke the wave-independence invariant (DESIGN.md §8),
    /// so structurally 0 under every executor. Beyond the paper (parallel
    /// probing).
    inference_suppressed_probes: Counter, Event, Value;
    /// Posting-list entries the debugger's postings-based Phase 1 scanned
    /// (union of unbound copies + bound-copy intersection; see `DESIGN.md`
    /// §9): a proxy for Phase-1 work that shrinks with selective keywords.
    /// Beyond the paper (compact substrate).
    phase1_nodes_touched: Counter, Event, Value;
    /// `PrunedLattice` builds the debugger served from a pooled
    /// [`crate::workspace::QueryWorkspace`] instead of fresh scratch (first
    /// build on a pool slot counts 0). Beyond the paper (compact substrate).
    workspace_reuses: Counter, Event, Value;
    /// Plan nodes whose keyword selection the oracle served from the
    /// [`crate::evalcache`] instead of re-evaluating the containment
    /// predicate (population-order-dependent in parallel runs). Beyond the
    /// paper (evaluation cache).
    selection_cache_hits: Counter, Event, Value;
    /// Probe subtrees the oracle pruned because a cached semi-join value-set
    /// stood in for their reduction (population-order-dependent in parallel
    /// runs). Beyond the paper (evaluation cache).
    subtree_cache_hits: Counter, Event, Value;
    /// Probes the oracle or wave loop answered Dead without touching the
    /// engine because a cached cut value-set was empty; counted like an
    /// inference, never as a probe. Beyond the paper (evaluation cache).
    subtree_cache_dead_shortcuts: Counter, Event, Value;
    /// Probes the oracle or wave loop answered (Alive *or* Dead) without
    /// touching the engine from a cached verdict for the network's canonical
    /// binding key ([`crate::evalcache::network_key`]). Beyond the paper
    /// (evaluation cache).
    verdict_cache_hits: Counter, Event, Value;
    /// Payload bytes this oracle newly added to the session
    /// [`crate::evalcache::EvalCache`]; summed across a session it equals
    /// the cache's resident size (warm runs that add nothing report 0).
    /// Beyond the paper (evaluation cache).
    cache_bytes: Counter, Event, Value;
    /// Bound plan nodes whose posting list the oracle assembled by a
    /// merge-on-read over pending write deltas
    /// ([`textindex::InvertedIndex::rows_containing`] returning an owned
    /// union) instead of a borrowed base list; 0 on fully-compacted indexes.
    /// Beyond the paper (mutable databases).
    delta_postings_merged: Counter, Event, Value;
    /// Waves the exchange executor parked in a cross-session
    /// [`crate::batch::WaveExchange`] instead of executing alone; 0 when
    /// batching is off or bypassed (single-session traffic). Depends on
    /// which sessions overlapped, so it has no wire slot. Beyond the paper
    /// (cross-session batching).
    batched_waves: Counter, Event, Absent;
    /// Probes the exchange executor answered by another session's in-flight
    /// execution of the same canonical network in a merged wave — counted
    /// like an inference, never as `probes_executed`. The probe still
    /// charges this session's budget at its original dispatch slot, so
    /// budget-cut partials match unbatched runs. No wire slot, like
    /// `batched_waves`. Beyond the paper (cross-session batching).
    coalesced_probes: Counter, Event, Absent;
    /// Gauge: the database write epoch the debugger pinned this session at
    /// (set once per debug call). Beyond the paper (mutable databases).
    epoch: Counter, Gauge, Value;
    /// Gauge: total entries the attached evaluation cache has evicted through
    /// write-delta invalidation ([`crate::evalcache::EvalCache::invalidated`]);
    /// 0 without a cache. Beyond the paper (mutable databases).
    entries_invalidated: Counter, Gauge, Value;
    /// Gauge: total delta-postings compactions of the session's inverted
    /// index ([`textindex::InvertedIndex::compactions`]); 0 without an index.
    /// Beyond the paper (mutable databases).
    compactions: Counter, Gauge, Value;
}

impl ProbeCounters {
    /// Probe time as a [`Duration`].
    pub fn probe_time(&self) -> Duration {
        Duration::from_nanos(self.probe_time_ns)
    }

    /// Total nodes classified without execution (R1 + R2 inferences).
    pub fn inferences(&self) -> u64 {
        self.r1_inferences + self.r2_inferences
    }
}

/// Wall-clock breakdown of one debug call across the paper's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase 1 lookup: keyword → schema-term mapping (§3.3).
    pub mapping: Duration,
    /// Phases 1–2: lattice pruning and MTN identification (Figure 10).
    pub pruning: Duration,
    /// Phase 3: traversal, including SQL (Figures 11–12).
    pub traversal: Duration,
    /// SQL execution alone (subset of `traversal`).
    pub sql: Duration,
    /// Report assembly: SQL rendering and sample fetching.
    pub reporting: Duration,
    /// End-to-end elapsed time.
    pub total: Duration,
}

impl PhaseTiming {
    /// Adds another breakdown into this one, phase by phase.
    pub fn accumulate(&mut self, other: &PhaseTiming) {
        self.mapping += other.mapping;
        self.pruning += other.pruning;
        self.traversal += other.traversal;
        self.sql += other.sql;
        self.reporting += other.reporting;
        self.total += other.total;
    }
}

/// One serializable experiment record: identification, probe counters,
/// per-phase timings, and the Phase-0/1/2 statistics that already existed
/// ([`LevelStats`], [`PruneStats`]) folded into a single object.
///
/// [`MetricsSnapshot::to_json`] renders it as one JSON object with a stable
/// key order, suitable for newline-delimited `BENCH_*.json` files.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Emitting experiment (e.g. `exp_traversal`).
    pub experiment: String,
    /// Workload query id or raw keyword text.
    pub query: String,
    /// Traversal strategy short name (`BU`, `SBH`, ...), if one applies.
    pub strategy: String,
    /// Free-form run variant label (e.g. `fault_pm=50` for chaos sweeps);
    /// empty when the record has no sub-variant.
    pub variant: String,
    /// Dataset scale label (`tiny`..`paper`).
    pub scale: String,
    /// Lattice levels (`maxJoins + 1`).
    pub max_level: u64,
    /// Interpretations explored for the query.
    pub interpretations: u64,
    /// Resident bytes of the shared offline lattice arena (see
    /// [`crate::lattice::Lattice::memory_footprint`]); 0 when the record does
    /// not cover a lattice-backed run.
    pub lattice_bytes: u64,
    /// Probe and inference counters (summed over interpretations).
    pub probes: ProbeCounters,
    /// Per-phase wall-clock breakdown.
    pub phases: PhaseTiming,
    /// Phase-1/2 statistics, when the record covers a query run.
    pub prune: Option<PruneStats>,
    /// Phase-0 per-level lattice build statistics, when relevant.
    pub levels: Vec<LevelStats>,
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Renders the record as one JSON object with stable key order.
    ///
    /// Durations are emitted as integer nanoseconds (`*_ns`), so records are
    /// byte-stable for identical inputs and need no float parsing.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut j = String::with_capacity(512);
        let _ = write!(
            j,
            "{{\"experiment\":\"{}\",\"query\":\"{}\",\"strategy\":\"{}\",\
             \"variant\":\"{}\",\"scale\":\"{}\",\"max_level\":{},\"interpretations\":{},\
             \"lattice_bytes\":{}",
            esc(&self.experiment),
            esc(&self.query),
            esc(&self.strategy),
            esc(&self.variant),
            esc(&self.scale),
            self.max_level,
            self.interpretations,
            self.lattice_bytes,
        );
        // Counter keys in sorted order, so diffs stay clean as counters grow.
        let mut probes = self.probes.json_keyed();
        probes.sort_unstable_by_key(|&(key, _)| key);
        j.push_str(",\"probes\":{");
        for (i, (key, v)) in probes.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(j, "{sep}\"{key}\":{v}");
        }
        j.push('}');
        let t = &self.phases;
        let _ = write!(
            j,
            ",\"phases\":{{\"mapping_ns\":{},\"pruning_ns\":{},\"traversal_ns\":{},\
             \"sql_ns\":{},\"reporting_ns\":{},\"total_ns\":{}}}",
            t.mapping.as_nanos(),
            t.pruning.as_nanos(),
            t.traversal.as_nanos(),
            t.sql.as_nanos(),
            t.reporting.as_nanos(),
            t.total.as_nanos(),
        );
        match &self.prune {
            None => j.push_str(",\"prune\":null"),
            Some(s) => {
                let _ = write!(
                    j,
                    ",\"prune\":{{\"lattice_nodes\":{},\"retained_phase1\":{},\
                     \"total_nodes\":{},\"mtn_count\":{},\"pruned_nodes\":{},\
                     \"mtn_descendants_total\":{},\"mtn_descendants_unique\":{}}}",
                    s.lattice_nodes,
                    s.retained_phase1,
                    s.total_nodes,
                    s.mtn_count,
                    s.pruned_nodes,
                    s.mtn_descendants_total,
                    s.mtn_descendants_unique,
                );
            }
        }
        j.push_str(",\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "{{\"level\":{},\"generated\":{},\"duplicates\":{},\"kept\":{},\"elapsed_ns\":{}}}",
                i + 1,
                l.generated,
                l.duplicates,
                l.kept,
                l.elapsed.as_nanos(),
            );
        }
        j.push_str("]}");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let t = TimeCounter::new();
        t.add(Duration::from_micros(3));
        t.add(Duration::from_micros(2));
        assert_eq!(t.get(), Duration::from_micros(5));
        t.reset();
        assert_eq!(t.nanos(), 0);
    }

    #[test]
    fn snapshot_delta_and_accumulate() {
        let m = Metrics::new();
        m.probes_executed.add(3);
        m.r2_inferences.add(2);
        m.epoch.set(5);
        m.compactions.set(1);
        let before = m.snapshot();
        m.probes_executed.add(4);
        m.probe_time.add(Duration::from_nanos(70));
        m.reuse_hits.incr();
        let window = m.snapshot().delta(before);
        assert_eq!(window.probes_executed, 4);
        assert_eq!(window.probe_time_ns, 70);
        assert_eq!(window.r2_inferences, 0);
        assert_eq!(window.reuse_hits, 1);
        assert_eq!(window.inferences(), 0);
        assert_eq!(window.epoch, 5, "gauges pass through a delta window");
        assert_eq!(window.compactions, 1);

        let mut sum = ProbeCounters::default();
        sum.accumulate(window);
        sum.accumulate(window);
        assert_eq!(sum.probes_executed, 8);
        assert_eq!(sum.probe_time(), Duration::from_nanos(140));
        assert_eq!(sum.epoch, 5, "gauges accumulate by max, not sum");
    }

    /// Every counter with distinct values: `full(s)` holds `s * i` in the
    /// `i`-th declared counter.
    fn full(s: u64) -> ProbeCounters {
        ProbeCounters {
            probes_executed: s,
            probe_time_ns: 2 * s,
            tuples_scanned: 3 * s,
            memo_hits: 4 * s,
            r1_inferences: 5 * s,
            r2_inferences: 6 * s,
            reuse_hits: 7 * s,
            retries: 8 * s,
            faults_injected: 9 * s,
            probes_abandoned: 10 * s,
            budget_exhausted: 11 * s,
            workers: 12 * s,
            steals: 13 * s,
            inference_suppressed_probes: 14 * s,
            phase1_nodes_touched: 15 * s,
            workspace_reuses: 16 * s,
            selection_cache_hits: 17 * s,
            subtree_cache_hits: 18 * s,
            subtree_cache_dead_shortcuts: 19 * s,
            verdict_cache_hits: 20 * s,
            cache_bytes: 21 * s,
            delta_postings_merged: 22 * s,
            batched_waves: 23 * s,
            coalesced_probes: 24 * s,
            epoch: 25 * s,
            entries_invalidated: 26 * s,
            compactions: 27 * s,
        }
    }

    /// One independent spec row per counter: JSON key, snapshot field, live
    /// field bump, and whether it is a gauge.
    type Row = (&'static str, fn(&ProbeCounters) -> u64, fn(&Metrics), bool);

    const GAUGE: bool = true;
    const EVENT: bool = false;

    const ROWS: [Row; 27] = [
        ("executed", |p| p.probes_executed, |m| m.probes_executed.incr(), EVENT),
        ("time_ns", |p| p.probe_time_ns, |m| m.probe_time.add(Duration::from_nanos(1)), EVENT),
        ("tuples_scanned", |p| p.tuples_scanned, |m| m.tuples_scanned.incr(), EVENT),
        ("memo_hits", |p| p.memo_hits, |m| m.memo_hits.incr(), EVENT),
        ("r1_inferences", |p| p.r1_inferences, |m| m.r1_inferences.incr(), EVENT),
        ("r2_inferences", |p| p.r2_inferences, |m| m.r2_inferences.incr(), EVENT),
        ("reuse_hits", |p| p.reuse_hits, |m| m.reuse_hits.incr(), EVENT),
        ("retries", |p| p.retries, |m| m.retries.incr(), EVENT),
        ("faults_injected", |p| p.faults_injected, |m| m.faults_injected.incr(), EVENT),
        ("probes_abandoned", |p| p.probes_abandoned, |m| m.probes_abandoned.incr(), EVENT),
        ("budget_exhausted", |p| p.budget_exhausted, |m| m.budget_exhausted.incr(), EVENT),
        ("workers", |p| p.workers, |m| m.workers.incr(), EVENT),
        ("steals", |p| p.steals, |m| m.steals.incr(), EVENT),
        (
            "inference_suppressed_probes",
            |p| p.inference_suppressed_probes,
            |m| m.inference_suppressed_probes.incr(),
            EVENT,
        ),
        (
            "phase1_nodes_touched",
            |p| p.phase1_nodes_touched,
            |m| m.phase1_nodes_touched.incr(),
            EVENT,
        ),
        ("workspace_reuses", |p| p.workspace_reuses, |m| m.workspace_reuses.incr(), EVENT),
        (
            "selection_cache_hits",
            |p| p.selection_cache_hits,
            |m| m.selection_cache_hits.incr(),
            EVENT,
        ),
        ("subtree_cache_hits", |p| p.subtree_cache_hits, |m| m.subtree_cache_hits.incr(), EVENT),
        (
            "subtree_cache_dead_shortcuts",
            |p| p.subtree_cache_dead_shortcuts,
            |m| m.subtree_cache_dead_shortcuts.incr(),
            EVENT,
        ),
        ("verdict_cache_hits", |p| p.verdict_cache_hits, |m| m.verdict_cache_hits.incr(), EVENT),
        ("cache_bytes", |p| p.cache_bytes, |m| m.cache_bytes.incr(), EVENT),
        (
            "delta_postings_merged",
            |p| p.delta_postings_merged,
            |m| m.delta_postings_merged.incr(),
            EVENT,
        ),
        ("batched_waves", |p| p.batched_waves, |m| m.batched_waves.incr(), EVENT),
        ("coalesced_probes", |p| p.coalesced_probes, |m| m.coalesced_probes.incr(), EVENT),
        ("epoch", |p| p.epoch, |m| m.epoch.incr(), GAUGE),
        ("entries_invalidated", |p| p.entries_invalidated, |m| m.entries_invalidated.incr(), GAUGE),
        ("compactions", |p| p.compactions, |m| m.compactions.incr(), GAUGE),
    ];

    #[test]
    fn every_counter_has_its_declared_kind() {
        let (one, three) = (full(1), full(3));
        let window = three.delta(one);
        let (mut up, mut down) = (one, three);
        up.accumulate(three);
        down.accumulate(one);
        let json = MetricsSnapshot { probes: one, ..MetricsSnapshot::default() }.to_json();
        let start = json.find("\"probes\":{").unwrap() + "\"probes\":{".len();
        let block = &json[start..start + json[start..].find('}').unwrap()];
        let keys: Vec<&str> =
            block.split(',').map(|kv| kv.split(':').next().unwrap().trim_matches('"')).collect();
        assert_eq!(keys.len(), ROWS.len(), "{block}");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted and unique: {block}");

        let m = Metrics::new();
        for (i, &(key, get, bump, gauge)) in ROWS.iter().enumerate() {
            let v = i as u64 + 1;
            assert_eq!(get(&one), v, "{key}: spec row out of declaration order");
            // snapshot reads the right live field, and reset zeroes it.
            bump(&m);
            let snap = m.snapshot();
            assert_eq!(get(&snap), 1, "{key}: snapshot");
            assert!(ROWS.iter().all(|r| r.0 == key || (r.1)(&snap) == 0), "{key}: stray field");
            m.reset();
            assert_eq!(m.snapshot(), ProbeCounters::default(), "{key}: reset");
            // Events subtract in a window and sum on merge; gauges keep the
            // latest value in a window and take the max on merge.
            let (win, merged) = if gauge { (3 * v, 3 * v) } else { (2 * v, 4 * v) };
            assert_eq!(get(&window), win, "{key}: delta");
            assert_eq!(get(&up), merged, "{key}: accumulate");
            assert_eq!(get(&down), merged, "{key}: accumulate (other order)");
            let kv = format!("\"{key}\":{v}");
            assert_eq!(block.split(',').filter(|s| *s == kv).count(), 1, "{key}: JSON {block}");
        }
    }

    #[test]
    fn metrics_reset_zeroes_everything() {
        let m = Metrics::new();
        m.probes_executed.incr();
        m.memo_hits.incr();
        m.r1_inferences.incr();
        m.reset();
        assert_eq!(m.snapshot(), ProbeCounters::default());
    }

    #[test]
    fn phase_timing_accumulates() {
        let mut a = PhaseTiming { mapping: Duration::from_nanos(5), ..PhaseTiming::default() };
        let b = PhaseTiming {
            mapping: Duration::from_nanos(7),
            sql: Duration::from_nanos(11),
            ..PhaseTiming::default()
        };
        a.accumulate(&b);
        assert_eq!(a.mapping, Duration::from_nanos(12));
        assert_eq!(a.sql, Duration::from_nanos(11));
        assert_eq!(a.pruning, Duration::ZERO);
    }

    #[test]
    fn json_is_stable_and_complete() {
        let snap = MetricsSnapshot {
            experiment: "exp_traversal".into(),
            query: "Q3".into(),
            strategy: "BUWR".into(),
            variant: "fault_pm=50".into(),
            scale: "small".into(),
            max_level: 5,
            interpretations: 1,
            lattice_bytes: 4096,
            probes: ProbeCounters {
                probes_executed: 12,
                probe_time_ns: 345,
                tuples_scanned: 678,
                memo_hits: 0,
                r1_inferences: 4,
                r2_inferences: 9,
                reuse_hits: 3,
                retries: 2,
                faults_injected: 5,
                probes_abandoned: 1,
                budget_exhausted: 1,
                workers: 4,
                steals: 7,
                inference_suppressed_probes: 2,
                phase1_nodes_touched: 42,
                workspace_reuses: 1,
                selection_cache_hits: 13,
                subtree_cache_hits: 6,
                subtree_cache_dead_shortcuts: 2,
                verdict_cache_hits: 8,
                cache_bytes: 512,
                delta_postings_merged: 3,
                batched_waves: 3,
                coalesced_probes: 4,
                epoch: 11,
                entries_invalidated: 7,
                compactions: 2,
            },
            phases: PhaseTiming {
                mapping: Duration::from_nanos(1),
                pruning: Duration::from_nanos(2),
                traversal: Duration::from_nanos(3),
                sql: Duration::from_nanos(4),
                reporting: Duration::from_nanos(5),
                total: Duration::from_nanos(6),
            },
            prune: Some(PruneStats {
                lattice_nodes: 100,
                retained_phase1: 20,
                total_nodes: 5,
                mtn_count: 2,
                pruned_nodes: 15,
                mtn_descendants_total: 8,
                mtn_descendants_unique: 6,
            }),
            levels: vec![LevelStats {
                generated: 10,
                duplicates: 4,
                kept: 6,
                elapsed: Duration::from_nanos(9),
            }],
        };
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"experiment\":\"exp_traversal\",\"query\":\"Q3\",\"strategy\":\"BUWR\",\
             \"variant\":\"fault_pm=50\",\
             \"scale\":\"small\",\"max_level\":5,\"interpretations\":1,\
             \"lattice_bytes\":4096,\
             \"probes\":{\"batched_waves\":3,\"budget_exhausted\":1,\"cache_bytes\":512,\
             \"coalesced_probes\":4,\"compactions\":2,\
             \"delta_postings_merged\":3,\"entries_invalidated\":7,\"epoch\":11,\
             \"executed\":12,\
             \"faults_injected\":5,\
             \"inference_suppressed_probes\":2,\"memo_hits\":0,\"phase1_nodes_touched\":42,\
             \"probes_abandoned\":1,\
             \"r1_inferences\":4,\"r2_inferences\":9,\"retries\":2,\"reuse_hits\":3,\
             \"selection_cache_hits\":13,\
             \"steals\":7,\"subtree_cache_dead_shortcuts\":2,\"subtree_cache_hits\":6,\
             \"time_ns\":345,\"tuples_scanned\":678,\"verdict_cache_hits\":8,\"workers\":4,\
             \"workspace_reuses\":1},\
             \"phases\":{\"mapping_ns\":1,\"pruning_ns\":2,\"traversal_ns\":3,\
             \"sql_ns\":4,\"reporting_ns\":5,\"total_ns\":6},\
             \"prune\":{\"lattice_nodes\":100,\"retained_phase1\":20,\"total_nodes\":5,\
             \"mtn_count\":2,\"pruned_nodes\":15,\"mtn_descendants_total\":8,\
             \"mtn_descendants_unique\":6},\
             \"levels\":[{\"level\":1,\"generated\":10,\"duplicates\":4,\"kept\":6,\
             \"elapsed_ns\":9}]}"
        );
        // The default record still renders a full object.
        let empty = MetricsSnapshot::default().to_json();
        assert!(empty.contains("\"prune\":null"));
        assert!(empty.ends_with("\"levels\":[]}"));
    }

    #[test]
    fn json_escapes_strings() {
        let snap = MetricsSnapshot {
            query: "say \"hi\"\\\n".into(),
            ..MetricsSnapshot::default()
        };
        assert!(snap.to_json().contains("say \\\"hi\\\"\\\\\\n"));
    }
}
