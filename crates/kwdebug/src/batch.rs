//! Cross-session batched probing: merge concurrent sessions' frontiers into
//! shared dispatch waves.
//!
//! The process-wide [`crate::evalcache::SharedEvalCache`] deduplicates
//! overlapping probes *after* the first session has paid for the execution.
//! This module removes the other half of the redundancy: probes that are
//! simultaneously **in flight** across sessions. Concurrent sessions on the
//! same `(db_id, epoch)` park each wave in a shared [`WaveExchange`] for up
//! to a configured window; probes are canonicalized by the same
//! [`crate::evalcache::network_key`] the layer-3 verdict cache uses, equal
//! keys coalesce, and each distinct probe executes exactly once — on the
//! executor of the first session that submitted it (the *owner*). Every
//! other subscriber (a *follower*) receives the verdict in flight, with the
//! owner's witness tuples when the probe kept any, and books it like a memo
//! hit (`coalesced_probes`), never as an execution. A probe that keeps a
//! witness extends its key with its sample limit and vertex order, so a
//! follower only ever inherits the witness its own execution would have
//! kept. The price: such a probe no longer coalesces with a session of
//! another sample limit, a cache-on session, or an isomorphic network
//! numbered another way (DESIGN.md §15.3 measures it).
//!
//! The *exchange executor* (`Exchange`) is one of the traversal wave loop's
//! executors (see [`crate::traversal`]). It wraps the session's inline or
//! pooled executor: it parks the wave's keys, runs the probes this session
//! owns on the inner executor, and re-runs orphaned probes there too.
//!
//! **Determinism** (DESIGN.md §14): the wave loop reserves and applies in
//! each session's own slot order whatever the executor, so per-session
//! reports are identical to unbatched runs. Three properties make this
//! sound:
//!
//! * *Wave independence* (§8) — no verdict in a wave can classify another
//!   member, so within a wave the apply order is the only order that
//!   matters, and the loop preserves it per session.
//! * *Ground-truth verdicts* — two probes with equal canonical keys on the
//!   same database snapshot are the same query; the owner's verdict (and
//!   witness) is bit-for-bit what the follower's own engine would have
//!   produced.
//! * *Deterministic budgets* — followers reserve their own
//!   [`crate::budget::BudgetGate`] slot at their original dispatch position
//!   *before* parking, so a `max_probes` budget trips at exactly the node
//!   where the unbatched run would have stopped. A parked wave is reserved
//!   whole before it executes, so a tuple cap can trip later than inline.
//!
//! **Liveness**: a session always executes and publishes *all* probes it
//! owns before waiting on any follower cell, so two sessions can never wait
//! on each other. If an owner dies mid-wave (panic, hard failure), an RAII
//! guard orphans its unpublished cells and each follower re-executes the
//! probe on its own executor — the reservation it already holds makes that
//! a pure fallback to unbatched behavior. The exchange never outlives its
//! sessions: registrations are RAII (one `BatchTicket` per attached
//! debugger, for the debugger's lifetime), groups are removed when their
//! last session leaves, and the per-round cell map is cleared at every
//! flush. A session leaving mid-round re-checks the everyone-parked flush
//! condition, so parked peers never wait on a session that is gone.
//!
//! A wave that begins while fewer than [`BatchConfig::min_sessions`]
//! sessions are *registered* on the group bypasses the exchange entirely —
//! every submit passes straight through to the inner executor, with no
//! lock, no parking and no gauge touched — so a solo session runs exactly
//! as unbatched for one atomic load per wave. Registration is
//! session-lifetime rather than
//! call-lifetime deliberately: real requests are often far shorter than the
//! scheduling jitter between them, so "who is in a debug call *right now*"
//! would almost never overlap — what predicts a mergeable peer is "who is
//! attached and sending traffic". The price is that a wave parked while a
//! registered peer sits idle waits out the window; [`BatchConfig::window_us`]
//! is exactly that worst-case latency tax, and single-registration groups
//! never pay it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use relengine::MatchTuple;

use crate::error::KwError;
use crate::oracle::Probe;
use crate::traversal::{ProbeCtx, ProbeExecutor};

/// Tuning knobs for the cross-session wave exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// How long a parked wave waits for other sessions to join the round
    /// before a leader flushes it, in microseconds. The worst-case latency
    /// a batched wave can add to a session.
    pub window_us: u64,
    /// Probe count at which a round flushes immediately, without waiting
    /// out the window.
    pub max_wave: usize,
    /// Minimum registered sessions on a `(db_id, epoch)` group before waves
    /// park at all; below this the exchange is bypassed and traffic behaves
    /// exactly as if batching were off.
    pub min_sessions: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { window_us: 500, max_wave: 256, min_sessions: 2 }
    }
}

impl BatchConfig {
    /// Validates the knobs (a zero `max_wave` or `min_sessions` would make
    /// every round degenerate).
    pub fn validate(&self) -> Result<(), KwError> {
        if self.max_wave == 0 {
            return Err(KwError::BadConfig("batching max_wave must be at least 1".into()));
        }
        if self.min_sessions == 0 {
            return Err(KwError::BadConfig("batching min_sessions must be at least 1".into()));
        }
        Ok(())
    }
}

/// Outcome of one coalesced probe cell.
enum CellState {
    /// The owner has not delivered yet.
    Pending,
    /// The owner executed the probe; the ground-truth verdict and the
    /// owner's witness tuples (empty when it keeps none).
    Done(bool, Vec<MatchTuple>),
    /// The owner gave up (fault, budget, death) — followers re-execute.
    Orphaned,
}

/// One coalesced probe in flight: the owner fulfills (or orphans) it,
/// followers block on it after finishing their own owned probes.
struct ProbeCell {
    state: Mutex<CellState>,
    done: Condvar,
}

impl ProbeCell {
    fn new() -> ProbeCell {
        ProbeCell { state: Mutex::new(CellState::Pending), done: Condvar::new() }
    }

    /// Publishes the owner's verdict and witness (idempotent; verdicts
    /// never change).
    fn fulfill(&self, alive: bool, witness: Vec<MatchTuple>) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, CellState::Pending) {
            *st = CellState::Done(alive, witness);
            self.done.notify_all();
        }
    }

    /// Marks the cell undeliverable; a no-op if a verdict already landed.
    fn orphan(&self) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, CellState::Pending) {
            *st = CellState::Orphaned;
            self.done.notify_all();
        }
    }

    /// Blocks until the owner fulfills or orphans the cell.
    fn wait(&self) -> Option<(bool, Vec<MatchTuple>)> {
        let mut st = self.state.lock().unwrap();
        loop {
            match &*st {
                CellState::Pending => st = self.done.wait(st).unwrap(),
                CellState::Done(alive, witness) => return Some((*alive, witness.clone())),
                CellState::Orphaned => return None,
            }
        }
    }
}

/// Mutable state of one `(db_id, epoch)` group's current round.
struct GroupState {
    /// Monotonic round number; bumped at every flush so parked sessions can
    /// detect that their round closed.
    round: u64,
    /// Sessions parked in the current round.
    parked: usize,
    /// Probes submitted to the current round.
    total: usize,
    /// Wall-clock bound of the current round, set by its first parker.
    deadline: Option<Instant>,
    /// Canonical probe key → in-flight cell, for the current round only.
    /// Cleared at flush: the exchange deduplicates *in-flight* work; repeats
    /// across rounds belong to the verdict cache.
    cells: HashMap<Vec<u8>, Arc<ProbeCell>>,
}

/// One `(db_id, epoch)` batching domain: sessions pinned to different
/// epochs land in different groups and are never merged into one wave.
struct Group {
    state: Mutex<GroupState>,
    /// Signaled at every flush (and on session exit, which can complete the
    /// everyone-parked condition).
    flushed: Condvar,
    /// Sessions currently registered (holding a [`BatchTicket`]) on this
    /// group.
    members: AtomicUsize,
}

impl Group {
    fn new() -> Group {
        Group {
            state: Mutex::new(GroupState {
                round: 0,
                parked: 0,
                total: 0,
                deadline: None,
                cells: HashMap::new(),
            }),
            flushed: Condvar::new(),
            members: AtomicUsize::new(0),
        }
    }

    /// Closes the current round: parked sessions are released (they already
    /// hold their roles), the cell map is cleared so the next round starts
    /// fresh, and the merged-wave gauge counts rounds ≥ 2 sessions wide.
    fn flush(&self, st: &mut GroupState, exchange: &WaveExchange) {
        if st.parked >= 2 {
            exchange.merged_waves.fetch_add(1, Ordering::Relaxed);
        }
        st.round += 1;
        st.parked = 0;
        st.total = 0;
        st.deadline = None;
        st.cells.clear();
        self.flushed.notify_all();
    }
}

/// The process-wide meeting point where concurrent sessions' probe waves
/// merge (see the module docs). One exchange serves any number of
/// databases and epochs; sessions on different `(db_id, epoch)` snapshots
/// never share a wave. Created once (e.g. by `kwserve` from
/// `ServeConfig::batching`) and attached to each session's debugger via
/// [`crate::debugger::NonAnswerDebugger::set_wave_exchange`].
pub struct WaveExchange {
    config: BatchConfig,
    /// The exchange's own keyword interner: canonical keys must agree
    /// *across* sessions, so they cannot use any session cache's ids.
    interner: Mutex<HashMap<String, u64>>,
    groups: Mutex<HashMap<(u64, u64), Arc<Group>>>,
    /// Rounds that closed with ≥ 2 sessions parked.
    merged_waves: AtomicU64,
    /// Probes parked across all rounds (bypassed waves never count).
    submitted: AtomicU64,
    /// Parked probes answered by another session's in-flight execution.
    coalesced: AtomicU64,
}

impl WaveExchange {
    /// An empty exchange with the given knobs.
    pub fn new(config: BatchConfig) -> WaveExchange {
        WaveExchange {
            config,
            interner: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            merged_waves: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Rounds that actually merged ≥ 2 sessions' waves.
    pub fn merged_waves(&self) -> u64 {
        self.merged_waves.load(Ordering::Relaxed)
    }

    /// Probes parked in the exchange (owners + followers; bypassed waves
    /// never park).
    pub fn submitted_probes(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Parked probes answered by another session's execution.
    pub fn coalesced_probes(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Sessions currently registered, across all groups. Zero once every
    /// session has ended — the leak check of the equivalence suite.
    pub fn active_sessions(&self) -> usize {
        self.groups
            .lock()
            .unwrap()
            .values()
            .map(|g| g.members.load(Ordering::Relaxed))
            .sum()
    }

    /// In-flight cells of all current rounds. Zero whenever no wave is
    /// parked — flushed rounds always clear their cell map.
    pub fn pending_cells(&self) -> usize {
        self.groups.lock().unwrap().values().map(|g| g.state.lock().unwrap().cells.len()).sum()
    }

    /// The exchange-wide id of a keyword (stable for the exchange's
    /// lifetime, shared by every session).
    fn intern(&self, kw: &str) -> u64 {
        let mut map = self.interner.lock().unwrap();
        let next = map.len() as u64;
        *map.entry(kw.to_owned()).or_insert(next)
    }

    /// Registers a session on the `(db_id, epoch)` group for the session's
    /// lifetime. The returned RAII ticket deregisters on drop; a drop
    /// mid-round also re-checks the everyone-parked flush condition so
    /// parked peers never wait on a session that left.
    pub(crate) fn register(self: &Arc<Self>, db_id: u64, epoch: u64) -> BatchTicket {
        let group = {
            let mut groups = self.groups.lock().unwrap();
            let group = groups.entry((db_id, epoch)).or_insert_with(|| Arc::new(Group::new()));
            group.members.fetch_add(1, Ordering::Relaxed);
            group.clone()
        };
        BatchTicket { exchange: self.clone(), group, key: (db_id, epoch) }
    }
}

/// A session's registration on one `(db_id, epoch)` group — RAII, held by
/// the attached debugger for its lifetime (see the module docs for why
/// registration outlives individual debug calls).
pub(crate) struct BatchTicket {
    exchange: Arc<WaveExchange>,
    group: Arc<Group>,
    key: (u64, u64),
}

/// What the exchange assigned this session for one pending probe.
enum Role {
    /// First submitter of the key this round: executes and publishes.
    Owner(Arc<ProbeCell>),
    /// A later submitter: waits for the owner's verdict.
    Follower(Arc<ProbeCell>),
}

impl BatchTicket {
    /// The exchange this registration belongs to.
    pub(crate) fn exchange(&self) -> &Arc<WaveExchange> {
        &self.exchange
    }

    /// Parks one wave's pending probes (canonical keys, in dispatch-slot
    /// order) in the current round and blocks until the round flushes.
    /// Returns `None` — with nothing parked and no gauges touched — when
    /// fewer than `min_sessions` sessions are registered on the group.
    fn park(&self, keys: &[Vec<u8>]) -> Option<Vec<Role>> {
        if self.group.members.load(Ordering::Relaxed) < self.exchange.config.min_sessions {
            return None;
        }
        let window = Duration::from_micros(self.exchange.config.window_us);
        let mut st = self.group.state.lock().unwrap();
        let round = st.round;
        // Roles are fixed at park time; the flush only opens the barrier.
        let roles: Vec<Role> = keys
            .iter()
            .map(|k| match st.cells.entry(k.clone()) {
                Entry::Occupied(e) => Role::Follower(e.get().clone()),
                Entry::Vacant(v) => Role::Owner(v.insert(Arc::new(ProbeCell::new())).clone()),
            })
            .collect();
        st.parked += 1;
        st.total += keys.len();
        self.exchange.submitted.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let deadline = *st.deadline.get_or_insert_with(|| Instant::now() + window);
        if st.parked >= self.group.members.load(Ordering::Relaxed)
            || st.total >= self.exchange.config.max_wave
        {
            self.group.flush(&mut st, &self.exchange);
        } else {
            while st.round == round {
                let now = Instant::now();
                if now >= deadline {
                    self.group.flush(&mut st, &self.exchange);
                    break;
                }
                st = self.group.flushed.wait_timeout(st, deadline - now).unwrap().0;
            }
        }
        Some(roles)
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        let mut groups = self.exchange.groups.lock().unwrap();
        let remaining = self.group.members.fetch_sub(1, Ordering::Relaxed) - 1;
        // Leaving can complete the everyone-parked condition for a round
        // that was waiting on this session.
        let mut st = self.group.state.lock().unwrap();
        if st.parked > 0 && st.parked >= remaining {
            self.group.flush(&mut st, &self.exchange);
        }
        drop(st);
        if remaining == 0 {
            groups.remove(&self.key);
        }
    }
}

/// RAII custody of the cells a session owns in one wave: any cell not yet
/// published when the guard drops (hard failure, panic unwinding through
/// the wave loop) is orphaned so followers fall back to self-execution.
struct OwnedCells {
    cells: HashMap<usize, Arc<ProbeCell>>,
}

impl OwnedCells {
    /// Publishes the outcome of owned slot `slot`, if it is owned, with the
    /// witness the execution kept. Faults, hard failures and budget trips
    /// are session-local, so they orphan the cell and followers re-execute
    /// on their own.
    fn publish(&mut self, slot: usize, probe: &Probe, witness: impl FnOnce() -> Vec<MatchTuple>) {
        if let Some(cell) = self.cells.remove(&slot) {
            match probe {
                Probe::Verdict(alive) => cell.fulfill(*alive, witness()),
                _ => cell.orphan(),
            }
        }
    }
}

impl Drop for OwnedCells {
    fn drop(&mut self) {
        for cell in self.cells.values() {
            cell.orphan();
        }
    }
}

/// The exchange executor of one session holding a [`BatchTicket`], wrapped
/// around its inline or pooled executor (see the module docs). A wave that
/// begins below `min_sessions` passes every submit straight through;
/// otherwise submits are collected and the whole wave is parked, executed
/// and delivered at `finish_wave`.
pub(crate) struct Exchange<'x, 'e, 'a> {
    ctx: ProbeCtx<'e, 'a>,
    ticket: &'x BatchTicket,
    inner: &'x mut dyn ProbeExecutor,
    /// Whether the current wave parks; decided when it begins.
    parks: bool,
    /// The parking wave's dense nodes, by slot.
    pending: Vec<usize>,
}

impl<'x, 'e, 'a> Exchange<'x, 'e, 'a> {
    pub(crate) fn new(
        ctx: ProbeCtx<'e, 'a>,
        ticket: &'x BatchTicket,
        inner: &'x mut dyn ProbeExecutor,
    ) -> Self {
        Exchange { ctx, ticket, inner, parks: false, pending: Vec::new() }
    }
}

impl ProbeExecutor for Exchange<'_, '_, '_> {
    fn begin_wave(&mut self) {
        let members = self.ticket.group.members.load(Ordering::Relaxed);
        self.parks = members >= self.ticket.exchange.config.min_sessions;
        self.inner.begin_wave();
    }

    fn submit(&mut self, slot: usize, dense: usize) -> Option<Probe> {
        if !self.parks {
            return self.inner.submit(slot, dense);
        }
        debug_assert_eq!(slot, self.pending.len());
        self.pending.push(dense);
        None
    }

    fn finish_wave(&mut self, deliver: &mut dyn FnMut(usize, Probe)) {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return self.inner.finish_wave(deliver);
        }
        let (ctx, exchange) = (self.ctx, &self.ticket.exchange);
        let keys: Vec<Vec<u8>> = pending
            .iter()
            .map(|&dense| ctx.core.exchange_key(ctx.jnts(dense), &mut |kw| exchange.intern(kw)))
            .collect();
        // No roles: the group shrank below `min_sessions` before parking,
        // so every probe is this session's own.
        let roles = self.ticket.park(&keys).unwrap_or_default();
        if !roles.is_empty() {
            ctx.core.metrics.batched_waves.incr();
        }
        // Take custody of every owned cell before the first execution, so
        // an unwind mid-wave orphans the not-yet-published remainder.
        let mut owned = OwnedCells { cells: HashMap::new() };
        for (slot, role) in roles.iter().enumerate() {
            if let Role::Owner(cell) = role {
                owned.cells.insert(slot, cell.clone());
            }
        }
        // Run every probe this session owns and publish each verdict as it
        // lands — all before waiting on any follower cell, which is what
        // makes the exchange deadlock-free.
        let mut publish = |slot: usize, probe: Probe| {
            owned.publish(slot, &probe, || {
                ctx.core.witness(ctx.node(pending[slot])).unwrap_or_default()
            });
            deliver(slot, probe);
        };
        for (slot, &dense) in pending.iter().enumerate() {
            if matches!(roles.get(slot), Some(Role::Follower(_))) {
                continue;
            }
            if let Some(probe) = self.inner.submit(slot, dense) {
                publish(slot, probe);
            }
        }
        self.inner.finish_wave(&mut publish);
        // Collect follower verdicts; an orphaned cell re-runs on the inner
        // executor (the budget slot reserved for it still stands).
        for (slot, role) in roles.iter().enumerate() {
            let Role::Follower(cell) = role else { continue };
            let dense = pending[slot];
            match cell.wait() {
                Some((alive, witness)) => {
                    ctx.core.record_coalesced(ctx.node(dense), ctx.jnts(dense), alive, witness);
                    exchange.coalesced.fetch_add(1, Ordering::Relaxed);
                    deliver(slot, Probe::Verdict(alive));
                }
                None => {
                    if let Some(probe) = self.inner.submit(slot, dense) {
                        deliver(slot, probe);
                    }
                }
            }
        }
        self.inner.finish_wave(deliver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_deliver_and_orphan() {
        let cell = ProbeCell::new();
        cell.fulfill(true, vec![vec![4, 2]]);
        cell.orphan(); // late orphan must not clobber a verdict
        assert_eq!(cell.wait(), Some((true, vec![vec![4, 2]])));

        let cell = ProbeCell::new();
        cell.orphan();
        cell.fulfill(false, Vec::new()); // late verdict must not resurrect an orphan
        assert_eq!(cell.wait(), None);
    }

    #[test]
    fn tickets_register_and_clean_up_groups() {
        let ex = Arc::new(WaveExchange::new(BatchConfig::default()));
        assert_eq!(ex.active_sessions(), 0);
        let t1 = ex.register(1, 0);
        let t2 = ex.register(1, 0);
        let t3 = ex.register(1, 1); // pinned to another epoch: separate group
        assert_eq!(ex.active_sessions(), 3);
        assert_eq!(ex.groups.lock().unwrap().len(), 2);
        drop(t2);
        drop(t3);
        assert_eq!(ex.active_sessions(), 1);
        assert_eq!(ex.groups.lock().unwrap().len(), 1, "empty groups are removed");
        drop(t1);
        assert_eq!(ex.active_sessions(), 0);
        assert!(ex.groups.lock().unwrap().is_empty());
    }

    #[test]
    fn solo_sessions_bypass_the_exchange() {
        let ex = Arc::new(WaveExchange::new(BatchConfig::default()));
        let t = ex.register(7, 0);
        assert!(t.park(&[vec![1, 2, 3]]).is_none(), "one session < min_sessions");
        assert_eq!(ex.submitted_probes(), 0, "bypassed waves touch no gauge");
        assert_eq!(ex.pending_cells(), 0);
    }

    #[test]
    fn overlapping_parks_coalesce_and_separate_epochs_never_merge() {
        let ex = Arc::new(WaveExchange::new(BatchConfig {
            window_us: 200_000,
            ..BatchConfig::default()
        }));
        let a = ex.register(1, 0);
        let b = ex.register(1, 0);
        let shared = vec![9, 9, 9];
        let roles = std::thread::scope(|s| {
            let ra = s.spawn(|| a.park(std::slice::from_ref(&shared)).unwrap());
            let rb = s.spawn(|| b.park(std::slice::from_ref(&shared)).unwrap());
            (ra.join().unwrap(), rb.join().unwrap())
        });
        let owners = usize::from(matches!(roles.0[0], Role::Owner(_)))
            + usize::from(matches!(roles.1[0], Role::Owner(_)));
        assert_eq!(owners, 1, "exactly one session owns a coalesced key");
        assert_eq!(ex.submitted_probes(), 2);
        assert_eq!(ex.merged_waves(), 1);
        assert_eq!(ex.pending_cells(), 0, "flushing clears the round's cells");

        // A session pinned to another epoch is alone on its group: bypass.
        let c = ex.register(1, 3);
        assert!(c.park(std::slice::from_ref(&shared)).is_none());
        assert_eq!(ex.submitted_probes(), 2);
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(BatchConfig::default().validate().is_ok());
        assert!(BatchConfig { max_wave: 0, ..BatchConfig::default() }.validate().is_err());
        assert!(BatchConfig { min_sessions: 0, ..BatchConfig::default() }.validate().is_err());
    }
}
