//! The three workloads and what they share: substrate, session
//! configuration and the per-workload sizes.

use datagen::{generate_dblife, DblifeConfig};
use kwdebug::{DebugConfig, KwError, MutableDatabase, NonAnswerDebugger, SharedParts};

/// Independent trials per measured run: each builds its own substrate
/// (timed as set-up) and then measures a `1 / TRIALS` slice of the run on
/// its own part of the seeded inputs. `setup_s` is the median set-up; the
/// other metrics are medians over the windows of all trials, so one trial's
/// unlucky memory layout or a burst of outside load moves a minority of
/// windows, not the result.
pub const TRIALS: usize = 3;

/// The input seed of trial `trial` of a run with seed `seed`. The traced
/// run replays trial 0's inputs.
pub fn trial_seed(seed: u64, trial: usize) -> u64 {
    crate::gen::sub_seed(seed, 0x7121A1 + trial as u64)
}
/// Untimed warm-up requests per client before the timed phase of the
/// Zipf-stream workloads.
pub const WARMUP_REQUESTS: usize = 400;
/// Shared evaluation cache budget: the server's default.
pub const CACHE_BUDGET: u64 = 64 << 20;
/// Generator seed of the DBLife snapshot. The data is a fixed fixture (the
/// snapshot every experiment of the repository uses); `--seed` drives the
/// traffic and the writes.
pub const DATA_SEED: u64 = 7;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale, one client over kwserve with the default configuration,
    /// whole passes of the Table 2 queries.
    PaperSolo,
    /// Medium scale, two tenants with Zipf streams over kwserve, shared
    /// cache and batching on.
    MediumTenants,
    /// Medium scale in process: write batches beside rounds of reads.
    MediumWrites,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSolo,
        Workload::MediumTenants,
        Workload::MediumWrites,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSolo => "paper_solo",
            Workload::MediumTenants => "medium_tenants",
            Workload::MediumWrites => "medium_writes",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The DBLife size the workload runs on.
    pub fn data(self) -> DblifeConfig {
        let mut cfg = match self {
            Workload::PaperSolo => DblifeConfig::paper_scale(),
            Workload::MediumTenants | Workload::MediumWrites => DblifeConfig::medium(),
        };
        cfg.seed = DATA_SEED;
        cfg
    }

    /// The session configuration requests run under. For the served
    /// workloads it is what the server hands each session: the shared-cache
    /// knob turns the evaluation cache and online `p_a` on.
    pub fn session_config(self) -> DebugConfig {
        match self {
            Workload::PaperSolo => DebugConfig::default(),
            Workload::MediumTenants | Workload::MediumWrites => DebugConfig {
                eval_cache: true,
                online_pa: true,
                ..DebugConfig::default()
            },
        }
    }

    /// Clients (tenants) sending requests.
    pub fn clients(self) -> usize {
        match self {
            Workload::MediumTenants => 2,
            Workload::PaperSolo | Workload::MediumWrites => 1,
        }
    }
}

/// Builds an immutable substrate (data, index, schema graph, lattice) for
/// `data`.
pub fn build_parts(data: &DblifeConfig) -> Result<SharedParts, KwError> {
    let debugger = NonAnswerDebugger::new(generate_dblife(data), DebugConfig::default())?;
    Ok(debugger.shared_parts())
}

/// Builds the single-writer coordinator for `data`, with a shared cache.
pub fn build_mutable(data: &DblifeConfig) -> Result<MutableDatabase, KwError> {
    let mut m = MutableDatabase::new(generate_dblife(data), DebugConfig::default().max_joins)?;
    m.share_eval_cache(Some(CACHE_BUDGET));
    Ok(m)
}

/// The cold reference every report is compared with: cache off, unbatched,
/// one session.
pub fn reference_config() -> DebugConfig {
    DebugConfig::default()
}
