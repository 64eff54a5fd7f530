//! The traced replay: the debug pipeline driven from outside through each
//! layer's public functions, one span per call.
//!
//! [`Replayer::replay`] mirrors `NonAnswerDebugger::debug_with_strategy`
//! (parse, keyword mapping, then per interpretation: pruning, a fresh
//! oracle, the traversal, and SQL text plus samples for every reported
//! node), followed by the wire codec. Because it is a copy, every replayed
//! report is compared with what `debug()` returns for the same text; a
//! difference means the copy drifted from the library.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kwdebug::binding::{map_keywords, Interpretation, KeywordQuery};
use kwdebug::evalcache::EvalCache;
use kwdebug::jnts::Jnts;
use kwdebug::lattice::Lattice;
use kwdebug::metrics::{PhaseTiming, ProbeCounters};
use kwdebug::oracle::AlivenessOracle;
use kwdebug::prune::PrunedLattice;
use kwdebug::report::{DebugReport, InterpretationOutcome, NonAnswerInfo, QueryInfo};
use kwdebug::traversal;
use kwdebug::workspace::QueryWorkspace;
use kwdebug::{DebugConfig, KwError, OnlinePa, SharedParts};
use relengine::{Database, RowId};
use textindex::InvertedIndex;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The replayed request it belongs to.
    pub request: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans held in memory for the whole run.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`, returning its duration.
    pub fn close(&mut self, id: u32) -> Duration {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        Duration::from_nanos(span.ns())
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, Duration) {
        let request = self.spans[parent as usize].request;
        let id = self.open(name, request, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.request, parent, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Deterministic work counts of replayed requests, summed. Two replays of
/// the same stream on the same seed give equal counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests replayed.
    pub requests: u64,
    /// Keyword interpretations debugged.
    pub interpretations: u64,
    /// Minimal total nodes found by pruning.
    pub mtns: u64,
    /// Lattice postings touched by Phase 1.
    pub phase1_nodes_touched: u64,
    /// Probes executed by the engine during traversals.
    pub probes_executed: u64,
    /// Verdicts inferred instead of executed: R1 + R2 + memo + reuse.
    pub inferred: u64,
    /// Tuples scanned by traversal probes.
    pub tuples_scanned: u64,
    /// Sample queries run for the report.
    pub sample_queries: u64,
    /// Tuples scanned by sample queries.
    pub sample_tuples_scanned: u64,
    /// Layer-1 selection cache hits.
    pub selection_hits: u64,
    /// Layer-2 subtree cache hits.
    pub subtree_hits: u64,
    /// Layer-3 verdict cache hits.
    pub verdict_hits: u64,
    /// Delta postings merged on read by the text index.
    pub delta_postings_merged: u64,
    /// Cache entries invalidated by writes.
    pub invalidated: u64,
    /// Writes applied.
    pub writes: u64,
}

impl Counts {
    fn add_probes(&mut self, p: &ProbeCounters) {
        self.probes_executed += p.probes_executed;
        self.inferred += p.r1_inferences + p.r2_inferences + p.memo_hits + p.reuse_hits;
        self.tuples_scanned += p.tuples_scanned;
        self.selection_hits += p.selection_cache_hits;
        self.subtree_hits += p.subtree_cache_hits;
        self.verdict_hits += p.verdict_cache_hits;
        self.delta_postings_merged += p.delta_postings_merged;
    }
}

/// Timings of replayed requests that are not spans of their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Engine time inside traversals, from the oracle's probe-time counter.
    pub relengine_ns: u64,
}

/// Drives the pipeline of one session configuration over one substrate.
pub struct Replayer<'a> {
    db: &'a Database,
    index: &'a InvertedIndex,
    lattice: &'a Lattice,
    config: DebugConfig,
    cache: Arc<EvalCache>,
    pa_stats: Arc<OnlinePa>,
    workspace: QueryWorkspace,
}

impl<'a> Replayer<'a> {
    /// A replayer over `parts`, configured like a session built with
    /// `NonAnswerDebugger::from_shared(parts, config)`: it probes through
    /// the shared cache's handle when `parts` carries one, and feeds the
    /// substrate's online `p_a` estimator.
    pub fn new(parts: &'a SharedParts, config: DebugConfig) -> Replayer<'a> {
        let cache = match parts.shared_cache() {
            Some(shared) => shared.handle(),
            None => Arc::new(EvalCache::with_identity(parts.db_id(), parts.epoch(), None)),
        };
        Replayer {
            db: parts.database(),
            index: parts.index(),
            lattice: parts.lattice(),
            config,
            cache,
            pa_stats: Arc::clone(parts.pa_stats()),
            workspace: QueryWorkspace::new(),
        }
    }

    /// Replays one request as request `request`, recording its spans in
    /// `tracer` and its work in `counts`/`timings`. Returns the report as it
    /// comes back from the wire codec.
    pub fn replay(
        &mut self,
        text: &str,
        request: u32,
        tracer: &mut Tracer,
        counts: &mut Counts,
        timings: &mut Timings,
    ) -> Result<DebugReport, KwError> {
        let root = tracer.open("request", request, None);
        let (query, _) = tracer.time("binding.parse", root, || KeywordQuery::parse(text));
        let query = query?;
        let (mapping, mapping_time) = tracer.time("binding.map_keywords", root, || {
            map_keywords(&query, self.index)
        });
        let mut interpretations = Vec::with_capacity(mapping.interpretations.len());
        for interp in &mapping.interpretations {
            interpretations.push(self.interpretation(
                interp,
                &mapping.keywords,
                root,
                tracer,
                counts,
                timings,
            )?);
        }
        let mut timing = PhaseTiming {
            mapping: mapping_time,
            ..PhaseTiming::default()
        };
        for i in &interpretations {
            timing.accumulate(&i.timing);
        }
        let report = DebugReport {
            keywords: mapping.keywords,
            unknown_keywords: mapping.unknown,
            interpretations,
            mapping_time,
            total_time: timing.total,
            timing,
        };
        let (payload, _) = tracer.time("kwserve.encode_report", root, || {
            kwserve::protocol::encode_report(&report)
        });
        let (decoded, _) = tracer.time("kwserve.decode_report", root, || {
            kwserve::protocol::decode_report(&payload)
        });
        tracer.close(root);
        counts.requests += 1;
        counts.interpretations += report.interpretations.len() as u64;
        decoded.map_err(|e| KwError::BadConfig(format!("report codec: {e}")))
    }

    fn interpretation(
        &mut self,
        interp: &Interpretation,
        keywords: &[String],
        root: u32,
        tracer: &mut Tracer,
        counts: &mut Counts,
        timings: &mut Timings,
    ) -> Result<InterpretationOutcome, KwError> {
        let config = self.config;
        let (pruned, pruning) = tracer.time("prune.build", root, || {
            PrunedLattice::build_with(self.lattice, interp, &mut self.workspace)
        });
        let (mut oracle, _) = tracer.time("oracle.new", root, || {
            let mut oracle =
                AlivenessOracle::new(self.db, Some(self.index), interp, keywords, config.memoize)
                    .with_budget(config.budget)
                    .with_retry(config.retry);
            if config.eval_cache {
                oracle = oracle.with_eval_cache(Arc::clone(&self.cache));
            }
            if config.online_pa {
                oracle = oracle.with_pa_stats(Arc::clone(&self.pa_stats));
            }
            oracle
        });
        let pa = if config.online_pa {
            self.pa_stats.estimate_pa(&pruned)
        } else {
            config.pa
        };
        let (outcome, traversal_time) = tracer.time("traversal.run", root, || {
            traversal::run(config.strategy, self.lattice, &pruned, &mut oracle, pa)
        });
        let mut outcome = outcome?;
        outcome.probes.phase1_nodes_touched = pruned.phase1_nodes_touched();
        outcome.probes.epoch = self.db.epoch();
        outcome.probes.entries_invalidated = self.cache.invalidated();
        outcome.probes.compactions = self.index.compactions();
        counts.mtns += pruned.mtns().len() as u64;
        counts.phase1_nodes_touched += pruned.phase1_nodes_touched();
        counts.add_probes(&outcome.probes);
        timings.relengine_ns += outcome.probes.probe_time_ns;

        let report_start = Instant::now();
        let keyword_tables = keywords
            .iter()
            .zip(interp.tables())
            .map(|(k, &t)| (k.clone(), self.db.table(t).schema().name.clone()))
            .collect();
        let mut node =
            |dense: usize, alive: bool, tracer: &mut Tracer, oracle: &mut AlivenessOracle| {
                self.query_info(&pruned, dense, alive, root, tracer, oracle, counts)
            };
        let mut answers = Vec::with_capacity(outcome.alive_mtns.len());
        for &m in &outcome.alive_mtns {
            answers.push(node(m, true, tracer, &mut oracle)?);
        }
        let mut non_answers = Vec::with_capacity(outcome.dead_mtns.len());
        for ((&m, mpans), possible) in outcome
            .dead_mtns
            .iter()
            .zip(&outcome.mpans)
            .zip(&outcome.possible_mpans)
        {
            let query = node(m, false, tracer, &mut oracle)?;
            let mut infos = Vec::with_capacity(mpans.len());
            for &p in mpans {
                infos.push(node(p, true, tracer, &mut oracle)?);
            }
            let mut possible_infos = Vec::with_capacity(possible.len());
            for &p in possible {
                possible_infos.push(node(p, true, tracer, &mut oracle)?);
            }
            non_answers.push(NonAnswerInfo {
                query,
                mpans: infos,
                possible_mpans: possible_infos,
            });
        }
        let mut unknown = Vec::with_capacity(outcome.unknown_mtns.len());
        for &m in &outcome.unknown_mtns {
            unknown.push(node(m, false, tracer, &mut oracle)?);
        }
        let reporting = report_start.elapsed();

        Ok(InterpretationOutcome {
            keyword_tables,
            answers,
            non_answers,
            unknown,
            budget_exhausted: outcome.exhausted,
            prune_stats: pruned.stats().clone(),
            sql_queries: outcome.sql_queries,
            sql_time: outcome.sql_time,
            probes: outcome.probes,
            timing: PhaseTiming {
                pruning,
                traversal: traversal_time,
                sql: outcome.sql_time,
                reporting,
                ..PhaseTiming::default()
            },
        })
    }

    /// One reported node: its SQL text and, when alive, sample tuples.
    #[allow(clippy::too_many_arguments)]
    fn query_info(
        &self,
        pruned: &PrunedLattice,
        dense: usize,
        alive: bool,
        root: u32,
        tracer: &mut Tracer,
        oracle: &mut AlivenessOracle<'_>,
        counts: &mut Counts,
    ) -> Result<QueryInfo, KwError> {
        let jnts = pruned.jnts(self.lattice, dense);
        let (sql, _) = tracer.time("report.sql", root, || oracle.sql(jnts));
        let sql = sql?;
        let limit = self.config.sample_limit;
        let sample_tuples = if alive && limit > 0 {
            let before = oracle.metrics().snapshot();
            let (sampled, _) = tracer.time("report.sample", root, || oracle.sample(jnts, limit));
            let after = oracle.metrics().snapshot();
            counts.sample_queries += after.probes_executed - before.probes_executed;
            counts.sample_tuples_scanned += after.tuples_scanned - before.tuples_scanned;
            match sampled {
                Ok(tuples) => {
                    let (rendered, _) = tracer.time("report.render", root, || {
                        tuples
                            .iter()
                            .map(|t| render_tuple(self.db, jnts, t))
                            .collect()
                    });
                    rendered
                }
                Err(KwError::BudgetExhausted(_)) => Vec::new(),
                Err(KwError::Engine(e)) if e.is_fault() => Vec::new(),
                Err(e) => return Err(e),
            }
        } else {
            Vec::new()
        };
        Ok(QueryInfo {
            sql,
            level: pruned.level(dense),
            sample_tuples,
        })
    }
}

/// Renders one result tuple as `table0(v1, v2) ⋈ table1(...)`, the report's
/// sample format.
fn render_tuple(db: &Database, jnts: &Jnts, tuple: &[RowId]) -> String {
    let parts: Vec<String> = jnts
        .nodes()
        .iter()
        .zip(tuple)
        .map(|(ts, &rid)| {
            let table = db.table(ts.table);
            let values: Vec<String> = table.row(rid).iter().map(|v| v.to_string()).collect();
            format!("{}{}({})", table.schema().name, ts.copy, values.join(", "))
        })
        .collect();
    parts.join(" ⋈ ")
}
