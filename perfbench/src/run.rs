//! Running a workload: one measured run (`--trace 0`) and one traced run
//! (`--trace 1`) per workload.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::DblifeConfig;
use kwdebug::evalcache::EvalCache;
use kwdebug::{MutableDatabase, NonAnswerDebugger, SharedParts};

use crate::gen::{sub_seed, APPENDS_PER_BATCH, LIVE_CAP};
use crate::report::{
    mean, median, peak_rss_mb, percentile, ratio, scrubbed, slice, window_medians, Metric, Outcome,
    Window,
};
use crate::served::{check_against_reference, timed_setup, windows, ClientLog, Traffic};
use crate::trace::{Counts, Replayer, Timings, Tracer};
use crate::workload::{
    build_mutable, build_parts, trial_seed, Workload, CACHE_BUDGET, TRIALS, WARMUP_REQUESTS,
};
use crate::writes::{check_epoch, WriteKind, Writer, READS_PER_ROUND, REFERENCE_EVERY};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `workload` for `seconds` with tracing off and returns the
/// end-to-end metrics.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match workload {
        Workload::PaperSolo | Workload::MediumTenants => measure_served(workload, seed, seconds),
        Workload::MediumWrites => measure_writes(seed, seconds),
    }
}

/// Share of timed requests whose text was sent before (warm-up included),
/// and the number of distinct texts sent.
fn repeats<'a>(warm: impl IntoIterator<Item = &'a str>, timed: &[&'a str]) -> (f64, usize) {
    let mut seen: HashSet<&str> = warm.into_iter().collect();
    let mut repeated = 0;
    for t in timed {
        if !seen.insert(t) {
            repeated += 1;
        }
    }
    (ratio(repeated as f64, timed.len() as f64), seen.len())
}

fn end_to_end(setups: &[f64], windows: &[Window], out: &mut Outcome) -> Result<(), String> {
    let all: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    let n = all.len();
    let (rps, p50, p90) = window_medians(windows);
    out.metrics = vec![
        Metric::new("setup_s", "s", median(setups), setups.len()),
        Metric::new("throughput_rps", "1/s", rps, n),
        Metric::new("latency_p90_ms", "ms", p90, n),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()?, 1),
    ];
    // The median request sits on a step in the latency distribution on
    // every workload (between two query costs on paper_solo, between the
    // cheap and the heavy texts on the medium ones), so it moves with small
    // shifts of the mix and of machine speed: printed, not gated.
    out.notes
        .push(format!("latency_p50_ms {p50:.6} ms (n={n}, windowed)"));
    out.notes.push(format!(
        "{} windows; over all {n} requests: p50 {:.6} ms, p90 {:.6} ms",
        windows.len(),
        percentile(&all, 0.5),
        percentile(&all, 0.9)
    ));
    if n >= 1000 {
        out.notes.push(format!(
            "latency_p99_ms {:.6} ms (n={n})",
            percentile(&all, 0.99)
        ));
    }
    Ok(())
}

fn measure_served(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(TRIALS);
    let mut windows_all = Vec::new();
    let mut reference: Option<SharedParts> = None;
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut cache_bytes = None;
    for trial in 0..TRIALS {
        let (mut deployment, parts, secs) = timed_setup(workload, trial_seed(seed, trial))?;
        setups.push(secs);
        deployment.run(seconds / TRIALS as f64);
        cache_bytes = deployment.server.shared_cache().map(|c| c.handle().bytes());
        let trial_logs = std::mem::take(&mut deployment.logs);
        deployment.shutdown();
        windows_all.extend(windows(&trial_logs, workload == Workload::PaperSolo));
        if trial == 0 {
            // Trials draw their inputs alike; the first one's describe them.
            let mut timed: Vec<(Duration, &str)> = trial_logs
                .iter()
                .flat_map(|l| {
                    l.samples
                        .iter()
                        .map(|s| (s.start, l.texts[s.text].as_str()))
                })
                .collect();
            timed.sort();
            let timed: Vec<&str> = timed.into_iter().map(|(_, t)| t).collect();
            let warm = trial_logs
                .iter()
                .flat_map(|l| l.texts[..l.warm_distinct].iter().map(String::as_str));
            let (repeat, distinct) = repeats(warm, &timed);
            out.notes.push(format!(
                "per trial: {} timed requests, repeat share {repeat:.3}, {distinct} distinct texts",
                timed.len()
            ));
            // The first trial's substrate, its server gone, is the cold
            // reference for every trial's reports.
            reference = Some(parts);
        }
        logs.extend(trial_logs);
    }
    let reference = reference.ok_or("no trial ran")?;
    let (checked, mismatched) = check_against_reference(&reference, &logs)?;
    for log in &logs {
        out.attempted += log.attempted();
        out.failed += log.failed();
    }
    out.failed += mismatched;
    out.notes.push(format!(
        "{checked} distinct texts checked against the reference, {mismatched} mismatched"
    ));
    if let Some(bytes) = cache_bytes {
        out.notes.push(format!(
            "shared cache {bytes} bytes resident of {CACHE_BUDGET} budget"
        ));
    }
    end_to_end(&setups, &windows_all, &mut out)?;
    Ok(out)
}

/// Latencies of write calls, by kind.
#[derive(Debug, Default)]
struct WriteLog {
    all_us: Vec<f64>,
    append_us: Vec<f64>,
    update_us: Vec<f64>,
    delete_us: Vec<f64>,
}

impl WriteLog {
    fn record(&mut self, kind: WriteKind, d: Duration) {
        let us = d.as_nanos() as f64 / 1e3;
        self.all_us.push(us);
        match kind {
            WriteKind::Append => self.append_us.push(us),
            WriteKind::Update => self.update_us.push(us),
            WriteKind::Delete => self.delete_us.push(us),
        }
    }
}

/// Builds the coordinator, fills the live set of appended rows so the timed
/// phase starts in steady state, and warms the shared cache with the first
/// requests of the read stream.
fn writes_setup(
    data: &DblifeConfig,
    seed: u64,
) -> Result<(MutableDatabase, Writer, Traffic, Vec<String>), String> {
    let workload = Workload::MediumWrites;
    let mut m = build_mutable(data).map_err(err)?;
    let mut writer = Writer::new(&m, seed).map_err(err)?;
    for _ in 0..LIVE_CAP.div_ceil(APPENDS_PER_BATCH) {
        writer.apply_batch(&mut m, |_, _| {}).map_err(err)?;
    }
    let mut traffic = Traffic::new(workload, seed, 0);
    let mut warm = Vec::with_capacity(WARMUP_REQUESTS);
    {
        let session = m.session(workload.session_config()).map_err(err)?;
        for _ in 0..WARMUP_REQUESTS {
            for text in traffic.next_batch() {
                session.debug(&text).map_err(err)?;
                warm.push(text);
            }
        }
    }
    Ok((m, writer, traffic, warm))
}

fn measure_writes(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let workload = Workload::MediumWrites;
    let config = workload.session_config();
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(TRIALS);
    let mut windows_all = Vec::new();
    let mut writes = WriteLog::default();
    let (mut checked, mut mismatched, mut compactions, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    let limit = Duration::from_secs_f64(seconds / TRIALS as f64);
    for trial in 0..TRIALS {
        let t = Instant::now();
        let (mut m, mut writer, mut traffic, warm) =
            writes_setup(&workload.data(), trial_seed(seed, trial))?;
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += warm.len() as u64;
        let offset = sub_seed(seed, 0xC0FFEE) % REFERENCE_EVERY;
        let compactions_before = m.index().compactions();
        let mut active = Duration::ZERO;
        let mut reads = Vec::new();
        let mut texts: Vec<String> = Vec::new();
        let mut round = 0u64;
        while active < limit {
            let t = Instant::now();
            writer
                .apply_batch(&mut m, |kind, d| writes.record(kind, d))
                .map_err(err)?;
            let check = round % REFERENCE_EVERY == offset;
            let mut kept = Vec::new();
            {
                let session = m.session(config).map_err(err)?;
                for _ in 0..READS_PER_ROUND {
                    let text = traffic.next_batch().remove(0);
                    let r = Instant::now();
                    let result = session.debug(&text);
                    let latency = r.elapsed().as_nanos() as f64 / 1e6;
                    reads.push(((active + t.elapsed()).as_secs_f64(), latency));
                    match result {
                        Ok(report) if report.is_complete() => {
                            if check {
                                kept.push((text.clone(), report));
                            }
                        }
                        _ => out.failed += 1,
                    }
                    texts.push(text);
                }
            }
            active += t.elapsed();
            if check {
                let kept: Vec<(String, Vec<u8>)> =
                    kept.into_iter().map(|(t, r)| (t, scrubbed(r))).collect();
                checked += kept.len() as u64;
                mismatched += check_epoch(&m, &kept).map_err(err)?;
            }
            round += 1;
        }
        out.attempted += reads.len() as u64;
        windows_all.extend(slice(reads.iter().copied(), active.as_secs_f64()));
        compactions += m.index().compactions() - compactions_before;
        rounds += round;
        if trial == 0 {
            let timed: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (repeat, distinct) = repeats(warm.iter().map(String::as_str), &timed);
            out.notes.push(format!(
                "per trial: {} reads, repeat share {repeat:.3}, {distinct} distinct texts",
                reads.len()
            ));
        }
    }
    out.attempted += writes.all_us.len() as u64;
    out.failed += mismatched;
    let n = writes.all_us.len();
    out.notes.push(format!(
        "write_p50_us {:.6} us (n={n})\nwrite_p90_us {:.6} us (n={n})",
        percentile(&writes.all_us, 0.5),
        percentile(&writes.all_us, 0.9)
    ));
    out.notes.push(format!(
        "{rounds} rounds, {compactions} compactions, {checked} reads checked against fresh \
         rebuilds, {mismatched} mismatched"
    ));
    end_to_end(&setups, &windows_all, &mut out)?;
    Ok(out)
}

/// When a traced replay stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long (finishing the current pass or round).
    After(Duration),
    /// After this many passes or rounds.
    Rounds(u64),
}

impl Stop {
    fn done(self, started: Instant, rounds: u64) -> bool {
        match self {
            Stop::After(d) => started.elapsed() >= d,
            Stop::Rounds(n) => rounds >= n,
        }
    }
}

/// What a traced replay measured.
#[derive(Default)]
pub struct Replay {
    /// Every span of the timed replay.
    pub tracer: Tracer,
    /// Work counts of the timed replay.
    pub counts: Counts,
    /// Engine time of the timed replay.
    pub timings: Timings,
    /// Untraced `debug()` time over the same requests.
    pub debug_ns: u64,
    /// Replayed reports that differed from `debug()`.
    pub mismatched: u64,
    /// Evaluation-cache activity of the timed replay.
    pub cache: CacheStats,
    /// Index compactions during the timed replay.
    pub compactions: u64,
    /// Write call latencies (writes workload only).
    writes: WriteLog,
}

/// One request through both paths on two identical substrates: untraced
/// `debug()` on one, the traced replay on the other, sides alternating by
/// request. Both substrates then see every request in the same order, so
/// their caches and `p_a` estimators stay in step, and neither path keeps
/// the substrate whose memory layout happens to be faster. Counts a
/// mismatch if the two reports differ.
fn both(
    debuggers: [&NonAnswerDebugger; 2],
    replayers: &mut [Replayer<'_>; 2],
    text: &str,
    replay: &mut Replay,
) -> Result<(), String> {
    let request = replay.counts.requests as u32;
    let side = (request % 2) as usize;
    let t = Instant::now();
    let truth = debuggers[side].debug(text).map_err(err)?;
    replay.debug_ns += t.elapsed().as_nanos() as u64;
    let replayed = replayers[1 - side]
        .replay(
            text,
            request,
            &mut replay.tracer,
            &mut replay.counts,
            &mut replay.timings,
        )
        .map_err(err)?;
    if scrubbed(truth) != scrubbed(replayed) {
        eprintln!("replay differs from debug(): {text:?}");
        replay.mismatched += 1;
    }
    Ok(())
}

/// Evaluation-cache activity per replay substrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Store hits.
    pub hits: u64,
    /// Store misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Resident payload bytes.
    pub bytes: u64,
}

impl CacheStats {
    /// Counters summed over `caches`.
    fn read(caches: &[Arc<EvalCache>]) -> CacheStats {
        caches
            .iter()
            .fold(CacheStats::default(), |acc, c| CacheStats {
                hits: acc.hits + c.hits(),
                misses: acc.misses + c.misses(),
                evictions: acc.evictions + c.evictions(),
                bytes: acc.bytes + c.bytes(),
            })
    }

    /// Change since `before`, per substrate (the two replay substrates see
    /// the same requests); bytes as of now.
    fn since(self, before: CacheStats) -> CacheStats {
        CacheStats {
            hits: (self.hits - before.hits) / 2,
            misses: (self.misses - before.misses) / 2,
            evictions: (self.evictions - before.evictions) / 2,
            bytes: self.bytes / 2,
        }
    }
}

/// Replays the traffic of `clients` clients of a served workload in
/// process over `data`, one request at a time, after the same warm-up the
/// served run does.
pub fn replay_served(
    workload: Workload,
    data: &DblifeConfig,
    clients: usize,
    seed: u64,
    stop: Stop,
) -> Result<Replay, String> {
    let config = workload.session_config();
    let mut parts = [
        build_parts(data).map_err(err)?,
        build_parts(data).map_err(err)?,
    ];
    if config.eval_cache {
        for p in &mut parts {
            p.share_eval_cache(Some(CACHE_BUDGET));
        }
    }
    let a = NonAnswerDebugger::from_shared(parts[0].clone(), config).map_err(err)?;
    let b = NonAnswerDebugger::from_shared(parts[1].clone(), config).map_err(err)?;
    let mut replayers = [
        Replayer::new(&parts[0], config),
        Replayer::new(&parts[1], config),
    ];
    let mut traffic: Vec<Traffic> = (0..clients)
        .map(|c| Traffic::new(workload, seed, c))
        .collect();
    let mut replay = Replay::default();
    let mut send = |traffic: &mut Vec<Traffic>, replay: &mut Replay| -> Result<(), String> {
        for t in traffic.iter_mut() {
            for text in t.next_batch() {
                both([&a, &b], &mut replayers, &text, replay)?;
            }
        }
        Ok(())
    };
    if matches!(workload, Workload::MediumTenants) {
        for _ in 0..WARMUP_REQUESTS {
            send(&mut traffic, &mut replay)?;
        }
    }
    replay = Replay::default();
    let caches: Vec<_> = parts
        .iter()
        .filter_map(|p| p.shared_cache().map(|c| c.handle()))
        .collect();
    let before = CacheStats::read(&caches);
    let started = Instant::now();
    let mut rounds = 0;
    while !stop.done(started, rounds) {
        send(&mut traffic, &mut replay)?;
        rounds += 1;
    }
    replay.cache = CacheStats::read(&caches).since(before);
    Ok(replay)
}

/// Replays the writes workload over `data`: two coordinators receive the
/// same writes, and the reads of each round go through [`both`].
pub fn replay_writes(data: &DblifeConfig, seed: u64, stop: Stop) -> Result<Replay, String> {
    let config = Workload::MediumWrites.session_config();
    let (mut ma, mut wa, mut traffic, _) = writes_setup(data, seed)?;
    let (mut mb, mut wb, _, _) = writes_setup(data, seed)?;
    let caches: Vec<_> = [&ma, &mb]
        .iter()
        .filter_map(|m| m.shared_cache().map(|c| c.handle()))
        .collect();
    let before = CacheStats::read(&caches);
    let compactions = mb.index().compactions();
    let mut replay = Replay::default();
    let started = Instant::now();
    let mut rounds = 0;
    while !stop.done(started, rounds) {
        wa.apply_batch(&mut ma, |_, _| {}).map_err(err)?;
        let invalidated = caches[1].invalidated();
        let writes = &mut replay.writes;
        wb.apply_batch(&mut mb, |kind, d| writes.record(kind, d))
            .map_err(err)?;
        replay.counts.invalidated += caches[1].invalidated() - invalidated;
        let (da, db) = (
            ma.session(config).map_err(err)?,
            mb.session(config).map_err(err)?,
        );
        let (pa, pb) = (ma.parts(), mb.parts());
        let mut replayers = [Replayer::new(&pa, config), Replayer::new(&pb, config)];
        for _ in 0..READS_PER_ROUND {
            let text = traffic.next_batch().remove(0);
            both([&da, &db], &mut replayers, &text, &mut replay)?;
        }
        rounds += 1;
    }
    replay.counts.writes = replay.writes.all_us.len() as u64;
    replay.cache = CacheStats::read(&caches).since(before);
    replay.compactions = mb.index().compactions() - compactions;
    Ok(replay)
}

/// What the served phase of a traced run saw.
#[derive(Debug, Default)]
struct ServedStats {
    requests: usize,
    wire_us: f64,
    server_us: f64,
    response_bytes: f64,
    shed: u64,
    degraded: u64,
    merged_waves: u64,
    coalesced: u64,
    submitted: u64,
}

fn served_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<ServedStats, String> {
    let (mut deployment, parts, _) = timed_setup(workload, seed)?;
    drop(parts);
    let exchange = |d: &crate::served::Deployment| {
        d.server.wave_exchange().map_or((0, 0, 0), |x| {
            (x.merged_waves(), x.coalesced_probes(), x.submitted_probes())
        })
    };
    let before = exchange(&deployment);
    deployment.run(seconds);
    let after = exchange(&deployment);
    let logs: Vec<ClientLog> = std::mem::take(&mut deployment.logs);
    let metrics = deployment.shutdown();
    let samples: Vec<_> = logs.iter().flat_map(|l| &l.samples).collect();
    for log in &logs {
        out.attempted += log.attempted();
        out.failed += log.failed();
    }
    let us = |f: &dyn Fn(&crate::served::Sample) -> f64| {
        mean(&samples.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    Ok(ServedStats {
        requests: samples.len(),
        wire_us: us(&|s| s.rtt_ns.saturating_sub(s.server_ns) as f64 / 1e3),
        server_us: us(&|s| s.server_ns as f64 / 1e3),
        response_bytes: us(&|s| s.bytes as f64),
        shed: metrics
            .requests_shed
            .load(std::sync::atomic::Ordering::Relaxed)
            + metrics
                .sessions_shed
                .load(std::sync::atomic::Ordering::Relaxed),
        degraded: metrics
            .reports_degraded
            .load(std::sync::atomic::Ordering::Relaxed),
        merged_waves: after.0 - before.0,
        coalesced: after.1 - before.1,
        submitted: after.2 - before.2,
    })
}

/// Runs `workload` traced and returns the per-layer metrics. Served
/// workloads spend half of `seconds` served (wire and batching figures) and
/// half replaying in process. Both parts send the inputs of the measured
/// run's first trial. Spans are written to `spans_to` as JSON lines.
pub fn trace(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_to: &std::path::Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let seed = trial_seed(seed, 0);
    let (served, replay) = match workload {
        Workload::MediumWrites => (
            ServedStats::default(),
            replay_writes(&workload.data(), seed, Stop::After(half * 2))?,
        ),
        Workload::PaperSolo | Workload::MediumTenants => {
            let served = served_phase(workload, seed, half.as_secs_f64(), &mut out)?;
            let stop = Stop::After(half);
            (
                served,
                replay_served(workload, &workload.data(), workload.clients(), seed, stop)?,
            )
        }
    };
    out.attempted += replay.counts.requests + replay.counts.writes;
    out.failed += replay.mismatched;
    out.metrics = layers(&served, &replay);
    if let Some(dir) = spans_to.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    std::fs::write(spans_to, replay.tracer.to_json_lines()).map_err(err)?;
    out.notes.push(format!(
        "{} spans written to {}",
        replay.tracer.spans.len(),
        spans_to.display()
    ));
    Ok(out)
}

/// Per-layer metrics from the served phase and the replay.
fn layers(served: &ServedStats, replay: &Replay) -> Vec<Metric> {
    let c = &replay.counts;
    let n = c.requests.max(1) as f64;
    let reqs = c.requests as usize;
    let mut by_name: HashMap<&str, u64> = HashMap::new();
    let (mut roots, mut children) = (0u64, 0u64);
    for s in &replay.tracer.spans {
        *by_name.entry(s.name).or_default() += s.ns();
        if s.parent.is_some() {
            children += s.ns();
        } else {
            roots += s.ns();
        }
    }
    let span = |names: &[&str]| {
        names
            .iter()
            .map(|k| by_name.get(k).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let per_req_us = |names: &[&str]| span(names) / n / 1e3;
    let relengine = replay.timings.relengine_ns as f64;
    let layer_sum_us = (children as f64 - span(&["kwserve.decode_report"])) / n / 1e3;
    let served_n = served.requests;
    let per_served = |v: u64| ratio(v as f64, served_n as f64);
    let w = &replay.writes;
    vec![
        Metric::new("kwserve.wire_us", "us", served.wire_us, served_n),
        Metric::new("kwserve.server_us", "us", served.server_us, served_n),
        Metric::new(
            "kwserve.response_bytes",
            "bytes",
            served.response_bytes,
            served_n,
        ),
        Metric::new(
            "kwserve.codec_us",
            "us",
            per_req_us(&["kwserve.encode_report", "kwserve.decode_report"]),
            reqs,
        ),
        Metric::new(
            "kwserve.requests_shed",
            "count",
            served.shed as f64,
            served_n,
        ),
        Metric::new(
            "kwserve.reports_degraded",
            "count",
            served.degraded as f64,
            served_n,
        ),
        Metric::new(
            "binding.map_us",
            "us",
            per_req_us(&["binding.parse", "binding.map_keywords"]),
            reqs,
        ),
        Metric::new(
            "binding.interpretations",
            "count",
            c.interpretations as f64 / n,
            reqs,
        ),
        Metric::new("prune.build_us", "us", per_req_us(&["prune.build"]), reqs),
        Metric::new(
            "prune.phase1_nodes_touched",
            "count",
            c.phase1_nodes_touched as f64 / n,
            reqs,
        ),
        Metric::new("prune.mtns", "count", c.mtns as f64 / n, reqs),
        Metric::new(
            "traversal.self_us",
            "us",
            (span(&["traversal.run", "oracle.new"]) - relengine) / n / 1e3,
            reqs,
        ),
        Metric::new(
            "traversal.probes_executed",
            "count",
            c.probes_executed as f64 / n,
            reqs,
        ),
        Metric::new(
            "traversal.inferred_share",
            "ratio",
            ratio(c.inferred as f64, (c.inferred + c.probes_executed) as f64),
            reqs,
        ),
        Metric::new("relengine.sql_ms", "ms", relengine / n / 1e6, reqs),
        Metric::new(
            "relengine.us_per_probe",
            "us",
            ratio(relengine / 1e3, c.probes_executed as f64),
            reqs,
        ),
        Metric::new(
            "relengine.tuples_per_probe",
            "count",
            ratio(c.tuples_scanned as f64, c.probes_executed as f64),
            reqs,
        ),
        Metric::new(
            "report.ms",
            "ms",
            span(&["report.sql", "report.sample", "report.render"]) / n / 1e6,
            reqs,
        ),
        Metric::new(
            "report.sample_queries",
            "count",
            c.sample_queries as f64 / n,
            reqs,
        ),
        Metric::new(
            "report.sample_tuples_scanned",
            "count",
            c.sample_tuples_scanned as f64 / n,
            reqs,
        ),
        Metric::new(
            "evalcache.verdict_hits",
            "count",
            c.verdict_hits as f64 / n,
            reqs,
        ),
        Metric::new(
            "evalcache.selection_hits",
            "count",
            c.selection_hits as f64 / n,
            reqs,
        ),
        Metric::new(
            "evalcache.subtree_hits",
            "count",
            c.subtree_hits as f64 / n,
            reqs,
        ),
        Metric::new(
            "evalcache.hit_ratio",
            "ratio",
            ratio(
                replay.cache.hits as f64,
                (replay.cache.hits + replay.cache.misses) as f64,
            ),
            reqs,
        ),
        Metric::new("evalcache.bytes", "bytes", replay.cache.bytes as f64, 1),
        Metric::new(
            "evalcache.evictions",
            "count",
            replay.cache.evictions as f64,
            reqs,
        ),
        Metric::new(
            "evalcache.invalidated_per_write",
            "count",
            ratio(c.invalidated as f64, c.writes as f64),
            c.writes as usize,
        ),
        Metric::new(
            "batch.merged_waves",
            "count",
            per_served(served.merged_waves),
            served_n,
        ),
        Metric::new(
            "batch.coalesced_probes",
            "count",
            per_served(served.coalesced),
            served_n,
        ),
        Metric::new(
            "batch.coalesce_ratio",
            "ratio",
            ratio(served.coalesced as f64, served.submitted as f64),
            served_n,
        ),
        Metric::new(
            "batch.unattributed_us",
            "us",
            if served_n > 0 {
                served.server_us - layer_sum_us
            } else {
                0.0
            },
            served_n,
        ),
        Metric::new(
            "mutable.append_us",
            "us",
            mean(&w.append_us),
            w.append_us.len(),
        ),
        Metric::new(
            "mutable.update_us",
            "us",
            mean(&w.update_us),
            w.update_us.len(),
        ),
        Metric::new(
            "mutable.delete_us",
            "us",
            mean(&w.delete_us),
            w.delete_us.len(),
        ),
        Metric::new(
            "mutable.write_p50_us",
            "us",
            percentile(&w.all_us, 0.5),
            w.all_us.len(),
        ),
        Metric::new(
            "mutable.write_p90_us",
            "us",
            percentile(&w.all_us, 0.9),
            w.all_us.len(),
        ),
        Metric::new(
            "textindex.delta_postings_merged",
            "count",
            c.delta_postings_merged as f64 / n,
            reqs,
        ),
        Metric::new(
            "textindex.compactions",
            "count",
            replay.compactions as f64,
            reqs,
        ),
        Metric::new(
            "trace.coverage_pct",
            "%",
            100.0 * ratio(children as f64, roots as f64),
            reqs,
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0
                * ratio(
                    roots as f64 - replay.debug_ns as f64,
                    replay.debug_ns as f64,
                ),
            reqs,
        ),
    ]
}
