//! Served traffic: closed-loop clients against an in-process `kwserve`
//! server over loopback TCP.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use kwdebug::{BatchConfig, KwError, NonAnswerDebugger, SharedParts};
use kwserve::{
    ClientError, DebugClient, ErrorCode, ServeConfig, Server, SharedCacheConfig, TenantPolicy,
    TenantRegistry,
};

use crate::gen::{paper_pass, sub_seed, TextStream};
use crate::report::{fingerprint, slice, Window};
use crate::workload::{build_parts, reference_config, Workload, WARMUP_REQUESTS};

/// What one client sends.
pub enum Traffic {
    /// Whole passes over the Table 2 queries in a seeded order.
    Passes(Vec<&'static str>),
    /// A Zipf-skewed stream of keyword texts.
    Stream(TextStream),
}

impl Traffic {
    /// The traffic of client `client` of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Traffic {
        let seed = sub_seed(seed, client as u64 + 1);
        match workload {
            Workload::PaperSolo => Traffic::Passes(paper_pass(seed)),
            Workload::MediumTenants | Workload::MediumWrites => {
                Traffic::Stream(TextStream::new(seed))
            }
        }
    }

    /// The next batch of requests: a whole pass, or one stream text.
    pub fn next_batch(&mut self) -> Vec<String> {
        match self {
            Traffic::Passes(pass) => pass.iter().map(|t| t.to_string()).collect(),
            Traffic::Stream(s) => vec![s.next_text()],
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request's text in [`ClientLog::texts`].
    pub text: usize,
    /// Send time, since the run's origin.
    pub start: Duration,
    /// Receive time, since the run's origin.
    pub end: Duration,
    /// Client-observed round trip.
    pub rtt_ns: u64,
    /// Server-side time of the debug call, from the response.
    pub server_ns: u64,
    /// Canonical report payload size.
    pub bytes: usize,
}

/// Everything one client observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Answered requests of the timed phase.
    pub samples: Vec<Sample>,
    /// Index into [`ClientLog::samples`] where each timed batch (a whole
    /// pass, or one stream request) starts.
    pub batches: Vec<usize>,
    /// Distinct answered texts, in first-answer order (warm-up included).
    pub texts: Vec<String>,
    /// [`fingerprint`] of the first report received for each of
    /// [`ClientLog::texts`]. A fingerprint, not the payload, so the
    /// benchmark's own bookkeeping does not grow `peak_rss_mb` with the
    /// number of texts served.
    pub reports: Vec<u64>,
    index: HashMap<String, usize>,
    /// Requests sent during warm-up.
    pub warmup: u64,
    /// How many of [`ClientLog::texts`] were first sent during warm-up.
    pub warm_distinct: usize,
    /// Requests that failed outright.
    pub errors: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Reports degraded to partial bounds.
    pub degraded: u64,
}

impl ClientLog {
    fn send(&mut self, client: &mut DebugClient, text: &str, origin: Instant, timed: bool) {
        let start = origin.elapsed();
        let t0 = Instant::now();
        let result = client.debug(text);
        let rtt_ns = t0.elapsed().as_nanos() as u64;
        let end = origin.elapsed();
        match result {
            Ok(wire) => {
                if wire.degraded {
                    self.degraded += 1;
                }
                let bytes = wire.canonical.len();
                let idx = match self.index.get(text) {
                    Some(&idx) => idx,
                    None => {
                        self.index.insert(text.to_owned(), self.texts.len());
                        self.texts.push(text.to_owned());
                        self.reports.push(fingerprint(wire.report));
                        self.texts.len() - 1
                    }
                };
                if timed {
                    self.samples.push(Sample {
                        text: idx,
                        start,
                        end,
                        rtt_ns,
                        server_ns: wire.server_ns,
                        bytes,
                    });
                } else {
                    self.warmup += 1;
                }
            }
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => self.shed += 1,
            Err(_) => self.errors += 1,
        }
    }

    /// Requests attempted, warm-up included.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.warmup + self.errors + self.shed
    }

    /// Failed requests: errors, sheds and degraded reports.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.degraded
    }
}

/// The server configuration of a served workload.
pub fn serve_config(workload: Workload) -> ServeConfig {
    match workload {
        Workload::MediumTenants => ServeConfig {
            workers: 2,
            shared_cache: Some(SharedCacheConfig::default()),
            batching: Some(BatchConfig::default()),
            ..ServeConfig::default()
        },
        Workload::PaperSolo | Workload::MediumWrites => ServeConfig::default(),
    }
}

/// A started server with connected, warmed-up clients.
pub struct Deployment {
    /// The server.
    pub server: Server,
    /// One connected client per tenant.
    clients: Vec<DebugClient>,
    /// Each client's traffic, positioned after its warm-up.
    traffic: Vec<Traffic>,
    /// Each client's log, holding its warm-up.
    pub logs: Vec<ClientLog>,
}

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Starts the server over `parts`, connects one client per tenant and runs
/// the untimed warm-up.
pub fn deploy(workload: Workload, seed: u64, parts: SharedParts) -> Result<Deployment, String> {
    let server = Server::start(
        parts,
        TenantRegistry::new(TenantPolicy::default()),
        serve_config(workload),
    )
    .map_err(io)?;
    let mut clients = Vec::new();
    for c in 0..workload.clients() {
        clients.push(DebugClient::connect(server.addr(), &format!("tenant-{c}")).map_err(io)?);
    }
    let mut traffic: Vec<Traffic> = (0..workload.clients())
        .map(|c| Traffic::new(workload, seed, c))
        .collect();
    let mut logs: Vec<ClientLog> = (0..workload.clients())
        .map(|_| ClientLog::default())
        .collect();
    if matches!(workload, Workload::MediumTenants) {
        let origin = Instant::now();
        std::thread::scope(|s| {
            for ((client, traffic), log) in clients.iter_mut().zip(&mut traffic).zip(&mut logs) {
                s.spawn(move || {
                    for _ in 0..WARMUP_REQUESTS {
                        for text in traffic.next_batch() {
                            log.send(client, &text, origin, false);
                        }
                    }
                    log.warm_distinct = log.texts.len();
                });
            }
        });
    }
    Ok(Deployment {
        server,
        clients,
        traffic,
        logs,
    })
}

impl Deployment {
    /// The closed-loop timed phase: every client sends its next request as
    /// soon as the previous one is answered, until `seconds` have passed
    /// (for whole passes: until the pass that crosses `seconds` ends).
    pub fn run(&mut self, seconds: f64) {
        let limit = Duration::from_secs_f64(seconds);
        let origin = Instant::now();
        std::thread::scope(|s| {
            for ((client, traffic), log) in self
                .clients
                .iter_mut()
                .zip(&mut self.traffic)
                .zip(&mut self.logs)
            {
                s.spawn(move || {
                    let start = Instant::now();
                    while start.elapsed() < limit {
                        log.batches.push(log.samples.len());
                        for text in traffic.next_batch() {
                            log.send(client, &text, origin, true);
                        }
                    }
                });
            }
        });
    }

    /// Says goodbye on every client and stops the server, returning its
    /// final counters.
    pub fn shutdown(self) -> kwserve::ServerMetrics {
        for client in self.clients {
            let _ = client.bye();
        }
        self.server.shutdown()
    }
}

/// Timed requests cut into windows: one per whole pass when `passes`,
/// else [`WINDOW_S`] slices of the interval in which every client was
/// active (from the latest first send to the earliest last answer), so a
/// run does not depend on how long the slower client's final request took.
pub fn windows(logs: &[ClientLog], passes: bool) -> Vec<Window> {
    if passes {
        return logs
            .iter()
            .flat_map(|log| {
                let ends = log
                    .batches
                    .iter()
                    .skip(1)
                    .copied()
                    .chain([log.samples.len()]);
                log.batches
                    .iter()
                    .zip(ends)
                    .filter(|(a, b)| b > *a)
                    .map(|(&a, b)| {
                        let pass = &log.samples[a..b];
                        Window {
                            secs: (pass[pass.len() - 1].end - pass[0].start).as_secs_f64(),
                            latencies_ms: pass.iter().map(|s| s.rtt_ns as f64 / 1e6).collect(),
                        }
                    })
            })
            .collect();
    }
    let from = logs
        .iter()
        .filter_map(|l| l.samples.first())
        .map(|s| s.start)
        .max();
    let to = logs
        .iter()
        .filter_map(|l| l.samples.last())
        .map(|s| s.end)
        .min();
    let (Some(from), Some(to)) = (from, to) else {
        return Vec::new();
    };
    let ends = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.end > from && s.end <= to)
        .map(|s| ((s.end - from).as_secs_f64(), s.rtt_ns as f64 / 1e6));
    slice(ends, (to - from).as_secs_f64())
}

/// Compares the first served report of every distinct text, from every
/// client and trial, with a cold, cache-off, unbatched single-session
/// reference over `reference`. Returns `(texts checked, reports
/// mismatched)`.
pub fn check_against_reference(
    reference: &SharedParts,
    logs: &[ClientLog],
) -> Result<(u64, u64), String> {
    let debugger =
        NonAnswerDebugger::from_shared(reference.without_shared_cache(), reference_config())
            .map_err(io)?;
    let mut by_text: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    for log in logs {
        for (text, &report) in log.texts.iter().zip(&log.reports) {
            by_text.entry(text).or_default().insert(report);
        }
    }
    let mut mismatched = 0;
    for (text, reports) in &by_text {
        let truth = fingerprint(debugger.debug(text).map_err(|e: KwError| e.to_string())?);
        for &served in reports {
            if served != truth {
                eprintln!("reference mismatch: {text:?}");
                mismatched += 1;
            }
        }
    }
    Ok((by_text.len() as u64, mismatched))
}

/// Builds a substrate and deploys on it; returns the set-up time too.
pub fn timed_setup(
    workload: Workload,
    seed: u64,
) -> Result<(Deployment, SharedParts, f64), String> {
    let t = Instant::now();
    let parts = build_parts(&workload.data()).map_err(io)?;
    let deployment = deploy(workload, seed, parts.clone())?;
    Ok((deployment, parts, t.elapsed().as_secs_f64()))
}
