//! Cross-probe evaluation cache: session-scoped by default, optionally
//! promoted to a process-wide [`SharedEvalCache`].
//!
//! Every aliveness probe of a debug session runs against one epoch-stamped
//! snapshot of the database, and the probed networks are subtrees of the same
//! MTNs — so most of the work of one probe is a verbatim replay of another's.
//! This module caches that work in four layers, below the node-id memo/R1/R2
//! reuse (CACHING.md §1):
//!
//! * **Selections** (layer 1) — `(table, keyword)` → the sorted row ids
//!   satisfying the keyword's containment predicate; probes attach them to
//!   plan nodes and the executor skips predicate evaluation.
//! * **Selection postings** (layer 1.5) — `(selection, column)` → that
//!   selection's value→rows postings in one join column
//!   (`PlanNode::col_postings`).
//! * **Subtree value-sets** (layer 2) — canonical *binding* key of a cut
//!   subtree plus its outgoing join column → the join values surviving its
//!   Yannakakis reduction. A parent probe semi-joins against the cached set
//!   instead of re-reducing the subtree; an *empty* set proves any network
//!   joining through that cut dead without touching the engine.
//! * **Verdicts** (layer 3) — canonical binding key of a *whole* network
//!   ([`network_key`]) → its completed verdict, answering repeats alive or
//!   dead across traversals and (shared) sessions (`verdict_cache_hits`).
//!
//! The four layers are four instances of one private layer type, which owns
//! the lock-striped maps (like `parallel::ShardedMemo`) and the whole entry
//! protocol: epoch fences, keep-the-winner inserts, LRU stamps, byte
//! accounting, invalidation, purges and the eviction scan. They differ only
//! in key, byte footprint, table mask and invalidation predicate. Entries are
//! only written from *completed* reductions (chaos faults abort the probe
//! before execution, so a failed probe contributes nothing).
//!
//! ## The epoch contract (DESIGN.md §13, CACHING.md)
//!
//! The cache is keyed by **database identity**: the substrate's
//! [`Database::db_id`] (process-unique per build) plus its monotonic write
//! **epoch**. Every entry is stamped with the epoch of the snapshot it was
//! computed from, every lookup and insert carries the caller's *pin* epoch:
//!
//! 1. **Read fence** — a lookup pinned at `E` ignores entries stamped
//!    `E' > E`. (Older entries are safe: invalidation removed every entry a
//!    later write dirtied, so a survivor is what the reader would compute.)
//! 2. **Write fence** — an insert pinned below the cache's current epoch is
//!    dropped, checked under the shard lock after [`EvalCache::invalidate`]
//!    published the new epoch: either the insert lands before the scan
//!    reaches its shard (and the scan removes it if dirty), or it is dropped.
//! 3. **Selective invalidation** — [`EvalCache::invalidate`] advances to the
//!    database's epoch and evicts exactly what the intervening
//!    [`relengine::EpochDelta`]s can have changed: selections whose keyword
//!    occurs (case-insensitively) in a touched text value of their table;
//!    postings whose selection is dirty or whose column was written; subtree
//!    sets and verdicts whose `tables_mask` meets a written table. If the
//!    delta log no longer covers the cache's epoch, the store is purged.
//!
//! ## Process-wide sharing (DESIGN.md §12, CACHING.md)
//!
//! [`SharedEvalCache`] promotes one `EvalCache` to a process-wide store
//! handed to every session through [`crate::debugger::SharedParts`], bounded
//! by a **byte-budget LRU**: every touch stamps the entry with a logical
//! clock, and when an insert pushes [`EvalCache::bytes`] past the budget the
//! least-recently-used entries across all four layers are evicted until it
//! fits. Every removal — eviction, invalidation, purge — returns the entry's
//! bytes as it goes, so `bytes()` always equals
//! [`EvalCache::accounted_bytes`].
//!
//! A panic while a shard lock is held poisons that shard. The next lock of it
//! empties the shard (its entries count as invalidated and return their
//! bytes) and clears the poison: the cache only saves work, so dropping
//! entries is always sound. The keyword interner and the eviction lock
//! recover the same way but keep their state, which no holder leaves
//! half-written.
//!
//! Sharing never changes answers: `tests/probe_cache_equivalence.rs`,
//! `tests/shared_cache_equivalence.rs` and `tests/mutation_equivalence.rs`
//! pin reports bit-identical with the cache off, session-scoped or shared.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use relengine::sortedvals::ValuePostings;
use relengine::{ColId, Database, DataType, DeltaKind, EpochDelta, RowId, TableId, Value};

use crate::canonical::{direction_aware_adjacency, rooted_subtree_key};
use crate::jnts::Jnts;

/// Number of lock stripes per layer (same as `parallel::MEMO_SHARDS`).
const SHARDS: usize = 16;

/// Key of one cached selection: table, interned keyword id, and whether the
/// session restricts candidates through the inverted index (the cached rows
/// must equal what the uncached path would have produced, and that path
/// differs with index availability).
type SelectionKey = (TableId, u64, bool);

/// The table-set bit of one table in a `tables_mask`: tables `0..63` get
/// their own bit, everything above shares bit 63 (a sound catch-all — masks
/// only ever *over*-approximate reachability).
pub fn table_mask_bit(table: TableId) -> u64 {
    1u64 << (table as u64).min(63)
}

/// The `tables_mask` of a whole network: the union of its vertices' table
/// bits. Stamped on verdict-cache entries so invalidation can evict exactly
/// the verdicts reachable from written tables.
pub fn network_mask(j: &Jnts) -> u64 {
    j.nodes().iter().fold(0, |m, ts| m | table_mask_bit(ts.table))
}

/// Locks `m` even if a panicking holder poisoned it, clearing the poison.
/// Returns whether it was poisoned, so the caller can drop whatever the
/// holder may have left half-done.
fn lock<T>(m: &Mutex<T>) -> (MutexGuard<'_, T>, bool) {
    match m.lock() {
        Ok(guard) => (guard, false),
        Err(poisoned) => {
            m.clear_poison();
            (poisoned.into_inner(), true)
        }
    }
}

/// One resident cache entry: the shared value, its accounted footprint, the
/// LRU stamp of its last touch, the epoch it was computed at (read fence) and
/// the tables it was computed over (invalidation).
struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    stamp: u64,
    epoch: u64,
    mask: u64,
}

/// The store-wide state every layer reads and updates.
#[derive(Default)]
struct Tally {
    /// Database epoch the resident entries are valid at (the write fence).
    epoch: AtomicU64,
    /// Logical LRU clock; every touch (insert or hit) takes the next tick.
    clock: AtomicU64,
    /// Sum of resident entry footprints (`bytes() == accounted_bytes()`).
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Entries removed by invalidation, purges and poison recovery
    /// (distinct from LRU `evictions`).
    invalidated: AtomicU64,
}

impl Tally {
    /// The next logical-clock tick (monotone across threads).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// One cache layer: `SHARDS` independently locked maps, the layer's byte
/// footprint of an entry, and the entry protocol every layer shares (module
/// docs).
struct Layer<K, V> {
    shards: Vec<Mutex<HashMap<K, Entry<V>>>>,
    footprint: fn(&K, &V) -> u64,
}

impl<K: Hash + Eq, V> Layer<K, V> {
    fn new(footprint: fn(&K, &V) -> u64) -> Self {
        Layer { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(), footprint }
    }

    /// The stripe of `key`, hashed in the borrowed form lookups use (a
    /// `Vec<u8>` key and its `&[u8]` lookup hash alike).
    fn shard_of<Q: Hash + ?Sized>(key: &Q) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// Locks stripe `i`. A stripe a panicking holder poisoned is emptied
    /// first — its entries count as invalidated and return their bytes.
    fn shard(&self, t: &Tally, i: usize) -> MutexGuard<'_, HashMap<K, Entry<V>>> {
        let (mut map, poisoned) = lock(&self.shards[i]);
        if poisoned {
            let freed: u64 = map.values().map(|e| e.bytes).sum();
            t.bytes.fetch_sub(freed, Ordering::Relaxed);
            t.invalidated.fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
        map
    }

    /// Looks `key` up as seen from epoch `pin` (read fence), stamping a hit
    /// most-recently-used and counting the hit or miss.
    fn get<Q>(&self, t: &Tally, pin: u64, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut map = self.shard(t, Self::shard_of(key));
        match map.get_mut(key) {
            Some(entry) if entry.epoch <= pin => {
                entry.stamp = t.tick();
                t.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            _ => {
                t.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` computed at epoch `pin` over the tables in `mask`,
    /// unless the cache has moved past `pin` (write fence) or an entry is
    /// already resident (it wins the race). Returns the canonical value —
    /// the resident one when visible at `pin` — and the bytes added.
    fn insert(&self, t: &Tally, pin: u64, key: K, mask: u64, value: V) -> (Arc<V>, u64) {
        let stamp = t.tick();
        let mut map = self.shard(t, Self::shard_of(&key));
        if pin != t.epoch.load(Ordering::SeqCst) {
            return (Arc::new(value), 0);
        }
        if let Some(existing) = map.get(&key) {
            let value =
                if existing.epoch <= pin { Arc::clone(&existing.value) } else { Arc::new(value) };
            return (value, 0);
        }
        let bytes = (self.footprint)(&key, &value);
        let value = Arc::new(value);
        map.insert(key, Entry { value: Arc::clone(&value), bytes, stamp, epoch: pin, mask });
        t.bytes.fetch_add(bytes, Ordering::Relaxed);
        (value, bytes)
    }

    /// Removes every entry of stripes `shards` that `keep` rejects,
    /// returning each one's bytes as it goes. Returns the number removed.
    fn retain(
        &self,
        t: &Tally,
        shards: Range<usize>,
        mut keep: impl FnMut(&K, &Entry<V>) -> bool,
    ) -> u64 {
        let mut removed = 0;
        for i in shards {
            self.shard(t, i).retain(|k, e| {
                let kept = keep(k, e);
                if !kept {
                    t.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    removed += 1;
                }
                kept
            });
        }
        removed
    }

    /// Number of resident entries.
    fn len(&self, t: &Tally) -> usize {
        (0..SHARDS).map(|i| self.shard(t, i).len()).sum()
    }
}

/// What the store-wide passes — eviction, purge, byte audit — need of a
/// layer, whatever its key and value types.
trait AnyLayer {
    /// Stamp and stripe of the layer's least-recently-used entry.
    fn oldest(&self, t: &Tally) -> Option<(u64, usize)>;
    /// Removes the entry stamped `stamp` from stripe `shard` (none if a
    /// racing touch restamped it); returns the number removed.
    fn evict(&self, t: &Tally, shard: usize, stamp: u64) -> u64;
    /// Removes every entry; returns the number removed.
    fn clear(&self, t: &Tally) -> u64;
    /// Sum of resident entry footprints, recomputed.
    fn resident_bytes(&self, t: &Tally) -> u64;
}

impl<K: Hash + Eq, V> AnyLayer for Layer<K, V> {
    fn oldest(&self, t: &Tally) -> Option<(u64, usize)> {
        (0..SHARDS)
            .filter_map(|i| self.shard(t, i).values().map(|e| e.stamp).min().map(|s| (s, i)))
            .min()
    }

    fn evict(&self, t: &Tally, shard: usize, stamp: u64) -> u64 {
        self.retain(t, shard..shard + 1, |_, e| e.stamp != stamp)
    }

    fn clear(&self, t: &Tally) -> u64 {
        self.retain(t, 0..SHARDS, |_, _| false)
    }

    fn resident_bytes(&self, t: &Tally) -> u64 {
        (0..SHARDS).map(|i| self.shard(t, i).values().map(|e| e.bytes).sum::<u64>()).sum()
    }
}

/// The cross-probe evaluation cache shared by all probes (and all parallel
/// workers) of one debug session — or, wrapped in a [`SharedEvalCache`], by
/// every session of a serving process. See the module docs for the layers,
/// the epoch contract and the LRU byte budget.
pub struct EvalCache {
    selections: Layer<SelectionKey, Vec<RowId>>,
    /// Per-column value→rows postings of a cached selection — the derived
    /// sets probes attach as `PlanNode::col_postings`, extracted once per
    /// (selection, column) per epoch.
    sel_postings: Layer<(SelectionKey, ColId), ValuePostings>,
    subtrees: Layer<Vec<u8>, Vec<i64>>,
    /// Completed whole-network verdicts by canonical binding key (see
    /// [`network_key`]); `true` = alive.
    verdicts: Layer<Vec<u8>, bool>,
    /// Keyword → id. Ids are only ever appended, so a panicking holder
    /// cannot leave it inconsistent; it survives poisoning intact (emptying
    /// it would hand an old id to a new keyword).
    interner: Mutex<HashMap<String, u64>>,
    tally: Tally,
    /// Byte budget (`None` = unbounded, the session-scoped default). When an
    /// insert pushes `bytes` past it, least-recently-stamped entries are
    /// evicted until the store fits.
    budget: Option<u64>,
    /// [`Database::db_id`] this cache was built for (0 = session-private
    /// caches built before the substrate existed; real builds always stamp).
    db_id: u64,
    /// Serializes evictors so concurrent over-budget inserts don't stampede
    /// the shard scan; held only during eviction, never during lookups.
    evict_lock: Mutex<()>,
}

impl EvalCache {
    /// Creates an empty, unbounded cache with the null identity
    /// `(db_id 0, epoch 0)` — fine for session-private use against an
    /// unwritten database.
    pub fn new() -> EvalCache {
        EvalCache::with_identity(0, 0, None)
    }

    /// Creates an empty cache for database `db_id` at write epoch `epoch`,
    /// bounded by `budget` payload bytes (`None` = unbounded).
    pub fn with_identity(db_id: u64, epoch: u64, budget: Option<u64>) -> EvalCache {
        EvalCache {
            selections: Layer::new(|_, rows| std::mem::size_of_val(rows.as_slice()) as u64),
            sel_postings: Layer::new(|_, postings| postings.payload_bytes()),
            subtrees: Layer::new(|key, values| {
                (key.len() + std::mem::size_of_val(values.as_slice())) as u64
            }),
            verdicts: Layer::new(|key, _| (key.len() + 1) as u64),
            interner: Mutex::new(HashMap::new()),
            tally: Tally { epoch: AtomicU64::new(epoch), ..Tally::default() },
            budget,
            db_id,
            evict_lock: Mutex::new(()),
        }
    }

    /// The four layers, for the store-wide passes.
    fn layers(&self) -> [&dyn AnyLayer; 4] {
        [&self.selections, &self.sel_postings, &self.subtrees, &self.verdicts]
    }

    /// Stable per-cache id of a keyword string (used in binding labels and
    /// selection keys, so entries survive across queries sharing keywords).
    pub fn intern(&self, keyword: &str) -> u64 {
        let (mut map, _) = lock(&self.interner);
        let next = map.len() as u64;
        *map.entry(keyword.to_owned()).or_insert(next)
    }

    /// [`Layer::insert`] into `layer`, then evicts down to the budget when
    /// the insert added bytes.
    fn put<K: Hash + Eq, V>(
        &self,
        layer: &Layer<K, V>,
        pin: u64,
        key: K,
        mask: u64,
        value: V,
    ) -> (Arc<V>, u64) {
        let (value, added) = layer.insert(&self.tally, pin, key, mask, value);
        if added > 0 {
            self.maybe_evict();
        }
        (value, added)
    }

    /// Get-or-insert on `layer`: a hit, or `compute()` — run outside every
    /// lock — [`EvalCache::put`]. Returns the value, whether it hit, and the
    /// bytes newly added.
    fn fetch<K: Hash + Eq, V>(
        &self,
        layer: &Layer<K, V>,
        pin: u64,
        key: K,
        mask: u64,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool, u64) {
        if let Some(value) = layer.get(&self.tally, pin, &key) {
            return (value, true, 0);
        }
        let (value, added) = self.put(layer, pin, key, mask, compute());
        (value, false, added)
    }

    /// Looks a selection up as seen from epoch `pin`, stamping it
    /// most-recently-used.
    pub fn selection(
        &self,
        pin: u64,
        table: TableId,
        kw: u64,
        indexed: bool,
    ) -> Option<Arc<Vec<RowId>>> {
        self.selections.get(&self.tally, pin, &(table, kw, indexed))
    }

    /// Inserts a selection computed at epoch `pin`, keeping the existing
    /// entry on a race and dropping the write when the cache has moved past
    /// `pin`. Returns the canonical shared vector plus the bytes newly added
    /// to the cache (0 when it lost the race or was fenced out — the caller
    /// still gets a usable `Arc` either way).
    pub fn insert_selection(
        &self,
        pin: u64,
        table: TableId,
        kw: u64,
        indexed: bool,
        rows: Vec<RowId>,
    ) -> (Arc<Vec<RowId>>, u64) {
        self.put(&self.selections, pin, (table, kw, indexed), table_mask_bit(table), rows)
    }

    /// The selection `(table, kw, indexed)` as seen from epoch `pin`, or
    /// `compute()` published: the selection, whether it hit, and the bytes
    /// newly added.
    pub(crate) fn selection_or_insert_with(
        &self,
        pin: u64,
        table: TableId,
        kw: u64,
        indexed: bool,
        compute: impl FnOnce() -> Vec<RowId>,
    ) -> (Arc<Vec<RowId>>, bool, u64) {
        self.fetch(&self.selections, pin, (table, kw, indexed), table_mask_bit(table), compute)
    }

    /// Looks up the value→rows postings of selection `(table, kw, indexed)`
    /// in column `col` as seen from epoch `pin`, stamping them
    /// most-recently-used.
    pub fn selection_postings(
        &self,
        pin: u64,
        table: TableId,
        kw: u64,
        indexed: bool,
        col: ColId,
    ) -> Option<Arc<ValuePostings>> {
        self.sel_postings.get(&self.tally, pin, &((table, kw, indexed), col))
    }

    /// Inserts the value→rows postings of a selection in one column, keeping
    /// the existing entry on a race and dropping fenced-out writes. Returns
    /// the canonical shared postings plus the bytes newly added (0 when it
    /// lost the race or was fenced).
    pub fn insert_selection_postings(
        &self,
        pin: u64,
        table: TableId,
        kw: u64,
        indexed: bool,
        col: ColId,
        postings: ValuePostings,
    ) -> (Arc<ValuePostings>, u64) {
        let key = ((table, kw, indexed), col);
        self.put(&self.sel_postings, pin, key, table_mask_bit(table), postings)
    }

    /// The postings of selection `(table, kw, indexed)` in column `col` as
    /// seen from epoch `pin`, or `compute()` published: the postings, whether
    /// they hit, and the bytes newly added.
    pub(crate) fn selection_postings_or_insert_with(
        &self,
        pin: u64,
        table: TableId,
        kw: u64,
        indexed: bool,
        col: ColId,
        compute: impl FnOnce() -> ValuePostings,
    ) -> (Arc<ValuePostings>, bool, u64) {
        let key = ((table, kw, indexed), col);
        self.fetch(&self.sel_postings, pin, key, table_mask_bit(table), compute)
    }

    /// Looks up a cached subtree value-set by its binding key as seen from
    /// epoch `pin`, stamping it most-recently-used.
    pub fn subtree(&self, pin: u64, key: &[u8]) -> Option<Arc<Vec<i64>>> {
        self.subtrees.get(&self.tally, pin, key)
    }

    /// Inserts a subtree value-set computed at epoch `pin` over the tables in
    /// `tables_mask`, keeping the existing entry on a race and dropping
    /// fenced-out writes. Returns the bytes newly added to the cache (0 when
    /// it lost the race or was fenced).
    pub fn insert_subtree(
        &self,
        pin: u64,
        key: Vec<u8>,
        tables_mask: u64,
        values: Vec<i64>,
    ) -> u64 {
        self.put(&self.subtrees, pin, key, tables_mask, values).1
    }

    /// Looks up a completed whole-network verdict by canonical binding key as
    /// seen from epoch `pin`, stamping it most-recently-used.
    pub fn verdict(&self, pin: u64, key: &[u8]) -> Option<bool> {
        self.verdicts.get(&self.tally, pin, key).map(|alive| *alive)
    }

    /// Inserts a completed whole-network verdict computed at epoch `pin` over
    /// the tables in `tables_mask`, keeping the existing entry on a race and
    /// dropping fenced-out writes. Returns the bytes newly added (0 when it
    /// lost the race or was fenced).
    pub fn insert_verdict(&self, pin: u64, key: Vec<u8>, tables_mask: u64, alive: bool) -> u64 {
        self.put(&self.verdicts, pin, key, tables_mask, alive).1
    }

    /// Advances the cache to `db`'s current epoch, evicting exactly the
    /// entries the intervening write deltas can have changed, or everything
    /// when the delta log no longer covers this cache's epoch (module docs,
    /// rules 2–3). Returns the number of entries invalidated.
    pub fn invalidate(&self, db: &Database) -> u64 {
        if db.db_id() != self.db_id {
            return 0;
        }
        let from = self.epoch();
        let to = db.epoch();
        if to <= from {
            return 0;
        }
        self.tally.epoch.store(to, Ordering::SeqCst);
        let deltas = db.deltas_since(from);
        // One delta per epoch bump: a shorter slice means the log was
        // truncated past `from` and the gap is unauditable.
        let removed = if deltas.len() as u64 != to - from {
            self.layers().iter().map(|layer| layer.clear(&self.tally)).sum()
        } else {
            self.remove_dirty(db, deltas)
        };
        self.tally.invalidated.fetch_add(removed, Ordering::Relaxed);
        removed
    }

    /// Removes the entries `deltas` dirtied; returns how many.
    fn remove_dirty(&self, db: &Database, deltas: &[EpochDelta]) -> u64 {
        // Per-table dirt gathered from the deltas: the changed text values
        // (ASCII-lowercased, matching the containment predicate), the set of
        // written columns, and the union bitmask for subtree/verdict
        // reachability.
        let mut dirty_text: HashMap<TableId, Vec<String>> = HashMap::new();
        let mut dirty_cols: HashMap<TableId, HashSet<ColId>> = HashMap::new();
        let mut dirty_mask = 0u64;
        for d in deltas {
            dirty_mask |= table_mask_bit(d.table);
            let t = db.table(d.table);
            let text_cols: Vec<ColId> = t
                .schema()
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ty == DataType::Text)
                .map(|(i, _)| i)
                .collect();
            let texts = dirty_text.entry(d.table).or_default();
            let mut push = |row: &[Value], cols: &[ColId]| {
                let text = cols.iter().filter_map(|&c| row[c].as_text());
                texts.extend(text.map(str::to_ascii_lowercase));
            };
            match d.kind {
                DeltaKind::Append => d.rows.iter().for_each(|&rid| push(t.row(rid), &text_cols)),
                DeltaKind::Update => {
                    dirty_cols.entry(d.table).or_default().extend(d.cols.iter().copied());
                    let cols: Vec<ColId> =
                        d.cols.iter().copied().filter(|c| text_cols.contains(c)).collect();
                    for (rid, old) in &d.old {
                        push(old, &cols);
                        push(t.row(*rid), &cols);
                    }
                }
                DeltaKind::Delete => d.old.iter().for_each(|(_, old)| push(old, &text_cols)),
            }
        }

        // A selection (table, kw) is dirty iff some changed text value of its
        // table contains the keyword — the exact condition under which a row
        // enters, leaves, or re-enters the predicate's answer.
        let dirty_kws: HashSet<(TableId, u64)> = {
            let (interner, _) = lock(&self.interner);
            let mut dirty = HashSet::new();
            for (kw, &id) in interner.iter() {
                let kw_lower = kw.to_ascii_lowercase();
                for (&table, texts) in &dirty_text {
                    if texts.iter().any(|t| t.contains(&kw_lower)) {
                        dirty.insert((table, id));
                    }
                }
            }
            dirty
        };

        let t = &self.tally;
        // Postings are derived from (selection rows, column values): dirty
        // when the selection is, or when the column itself was updated under
        // a surviving selection. Appends and deletes need no extra test —
        // they change a selection's postings only by changing the selection,
        // and a row joining or leaving a selection always carries the keyword
        // in its text, which the selection test already catches.
        self.selections.retain(t, 0..SHARDS, |k, _| !dirty_kws.contains(&(k.0, k.1)))
            + self.sel_postings.retain(t, 0..SHARDS, |(sel, col), _| {
                !dirty_kws.contains(&(sel.0, sel.1))
                    && !dirty_cols.get(&sel.0).is_some_and(|cols| cols.contains(col))
            })
            + self.subtrees.retain(t, 0..SHARDS, |_, e| e.mask & dirty_mask == 0)
            + self.verdicts.retain(t, 0..SHARDS, |_, e| e.mask & dirty_mask == 0)
    }

    /// Evicts the entry with the globally smallest stamp, across all four
    /// layers, until the store fits its budget. Losing a race with a
    /// concurrent touch only spares that entry this round.
    fn maybe_evict(&self) {
        let Some(budget) = self.budget else { return };
        if self.bytes() <= budget {
            return;
        }
        let _guard = lock(&self.evict_lock);
        while self.bytes() > budget {
            let oldest = self
                .layers()
                .into_iter()
                .filter_map(|layer| {
                    layer.oldest(&self.tally).map(|(stamp, shard)| (stamp, shard, layer))
                })
                .min_by_key(|&(stamp, ..)| stamp);
            let Some((stamp, shard, layer)) = oldest else { break };
            let removed = layer.evict(&self.tally, shard, stamp);
            self.tally.evictions.fetch_add(removed, Ordering::Relaxed);
        }
    }

    /// Total payload bytes currently resident, across all four layers;
    /// always equals [`EvalCache::accounted_bytes`].
    pub fn bytes(&self) -> u64 {
        self.tally.bytes.load(Ordering::Relaxed)
    }

    /// Recomputes the resident footprint by walking every shard — the slow
    /// ground truth for the `bytes()` accounting identity, used by the
    /// shared-cache differential suite.
    pub fn accounted_bytes(&self) -> u64 {
        self.layers().iter().map(|layer| layer.resident_bytes(&self.tally)).sum()
    }

    /// The byte budget, if this cache is bounded.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// [`Database::db_id`] this cache serves (0 = null identity).
    pub fn db_id(&self) -> u64 {
        self.db_id
    }

    /// Database epoch the resident entries are valid at.
    pub fn epoch(&self) -> u64 {
        self.tally.epoch.load(Ordering::SeqCst)
    }

    /// Lookups answered from the cache (all four layers).
    pub fn hits(&self) -> u64 {
        self.tally.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (all four layers).
    pub fn misses(&self) -> u64 {
        self.tally.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to keep the store within its byte budget.
    pub fn evictions(&self) -> u64 {
        self.tally.evictions.load(Ordering::Relaxed)
    }

    /// Entries removed by write-delta invalidation (and by purges and
    /// poison recovery).
    pub fn invalidated(&self) -> u64 {
        self.tally.invalidated.load(Ordering::Relaxed)
    }

    /// Number of cached selections.
    pub fn selection_entries(&self) -> usize {
        self.selections.len(&self.tally)
    }

    /// Number of cached per-column selection postings.
    pub fn postings_entries(&self) -> usize {
        self.sel_postings.len(&self.tally)
    }

    /// Number of cached subtree value-sets.
    pub fn subtree_entries(&self) -> usize {
        self.subtrees.len(&self.tally)
    }

    /// Number of cached whole-network verdicts.
    pub fn verdict_entries(&self) -> usize {
        self.verdicts.len(&self.tally)
    }

    /// Number of interned keywords.
    pub fn interned_keywords(&self) -> usize {
        lock(&self.interner).0.len()
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

/// A process-wide evaluation cache handle, shared by every session of a
/// serving process (DESIGN.md §12–§13, CACHING.md): one [`EvalCache`], so a
/// keyword one tenant warmed is free for the next. Cloning shares the store;
/// `Deref` reaches every [`EvalCache`] method. Attach with
/// [`crate::debugger::SharedParts::share_eval_cache`] (which stamps the
/// matching identity) or [`crate::debugger::SharedParts::adopt_eval_cache`]
/// (which validates it). After writes, [`EvalCache::invalidate`] advances
/// the store in place; older-pinned sessions keep reading through the fence.
#[derive(Clone)]
pub struct SharedEvalCache {
    inner: Arc<EvalCache>,
}

impl SharedEvalCache {
    /// Creates a process-wide store for database `db_id` at write epoch
    /// `epoch`, bounded by `budget_bytes` (`None` = unbounded).
    pub fn new(db_id: u64, epoch: u64, budget_bytes: Option<u64>) -> SharedEvalCache {
        SharedEvalCache { inner: Arc::new(EvalCache::with_identity(db_id, epoch, budget_bytes)) }
    }

    /// The shared store, in the form sessions attach to their oracles.
    pub fn handle(&self) -> Arc<EvalCache> {
        Arc::clone(&self.inner)
    }
}

impl Deref for SharedEvalCache {
    type Target = EvalCache;

    fn deref(&self) -> &EvalCache {
        &self.inner
    }
}

impl std::fmt::Debug for SharedEvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEvalCache")
            .field("db_id", &self.db_id())
            .field("epoch", &self.epoch())
            .field("bytes", &self.bytes())
            .field("budget", &self.budget())
            .field("evictions", &self.evictions())
            .field("invalidated", &self.invalidated())
            .finish()
    }
}

/// One cut subtree of a network, as seen from the tree rooted at vertex 0:
/// removing the edge `parent — vertex` leaves the component containing
/// `vertex`, whose canonical binding key (plus the component's outgoing join
/// column) addresses the subtree cache.
pub struct SubtreeRef {
    /// Root of the cut component (jnts vertex index).
    pub vertex: usize,
    /// The vertex on the root-0 side of the cut edge.
    pub parent: usize,
    /// `vertex`-side join column of the cut edge — the column the cached
    /// value-set is projected on.
    pub child_col: ColId,
    /// `parent`-side join column of the cut edge — the column a reusing probe
    /// constrains.
    pub parent_col: ColId,
    /// Cache key: rooted binding key of the component ++ `child_col`.
    pub key: Vec<u8>,
    /// Union of [`table_mask_bit`]s of the component's tables — stamped on
    /// the cache entry so invalidation can evict subtrees reachable from
    /// written tables.
    pub tables_mask: u64,
}

/// Canonical binding key of a *whole* network: the rooted byte code of the
/// full tree (rooted at vertex 0, matching the executor's reduction root),
/// with vertices labeled by binding like the cut-subtree keys. Two probes
/// with this key equal ask the engine the exact same question, so the
/// verdict-cache layer ([`EvalCache::verdict`]) answers the second from the
/// first's completed reduction — within a session or, through
/// [`SharedEvalCache`], across every session of the epoch.
pub fn network_key(j: &Jnts, vid: &dyn Fn(usize) -> u64) -> Vec<u8> {
    rooted_subtree_key(0, usize::MAX, &direction_aware_adjacency(j), vid)
}

/// Computes the [`SubtreeRef`] of every non-root vertex of `j` (rooted at
/// vertex 0, matching the executor's reduction root), in DFS pre-order.
/// `vid` labels vertices by binding — see
/// [`crate::oracle::AlivenessOracle::with_eval_cache`] for how labels are
/// built from an interpretation.
pub fn subtree_refs(j: &Jnts, db: &Database, vid: &dyn Fn(usize) -> u64) -> Vec<SubtreeRef> {
    let n = j.node_count();
    let dadj = direction_aware_adjacency(j);
    // Plain adjacency with edge indices, for join columns.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (ei, e) in j.edges().iter().enumerate() {
        adj[e.a as usize].push((ei, e.b as usize));
        adj[e.b as usize].push((ei, e.a as usize));
    }
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    let mut stack = vec![(0usize, usize::MAX)];
    let mut visited = vec![false; n];
    while let Some((u, parent)) = stack.pop() {
        if visited[u] {
            continue;
        }
        visited[u] = true;
        for &(ei, v) in &adj[u] {
            if v == parent || visited[v] {
                continue;
            }
            let e = &j.edges()[ei];
            let (a_col, b_col) = e.join_cols(db);
            let (child_col, parent_col) =
                if e.a as usize == v { (a_col, b_col) } else { (b_col, a_col) };
            let mut key = rooted_subtree_key(v, u, &dadj, vid);
            key.extend_from_slice(&(child_col as u64).to_le_bytes());
            let tables_mask = 0; // filled in below
            out.push(SubtreeRef { vertex: v, parent: u, child_col, parent_col, key, tables_mask });
            stack.push((v, u));
        }
    }
    // Every cut follows its parent's, so walking them backwards completes
    // each component's table set before it joins its parent's.
    let mut masks: Vec<u64> = j.nodes().iter().map(|ts| table_mask_bit(ts.table)).collect();
    for r in out.iter_mut().rev() {
        r.tables_mask = masks[r.vertex];
        masks[r.parent] |= masks[r.vertex];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relengine::{DatabaseBuilder, Value};

    #[test]
    fn interner_is_stable() {
        let c = EvalCache::new();
        let a = c.intern("saffron");
        let b = c.intern("candle");
        assert_ne!(a, b);
        assert_eq!(c.intern("saffron"), a);
        assert_eq!(c.interned_keywords(), 2);
    }

    #[test]
    fn selection_roundtrip_and_race() {
        let c = EvalCache::new();
        assert!(c.selection(0, 0, 1, true).is_none());
        let (first, added) = c.insert_selection(0, 0, 1, true, vec![3, 5, 8]);
        assert_eq!(*first, vec![3, 5, 8]);
        assert!(added > 0);
        let bytes = c.bytes();
        assert_eq!(bytes, added);
        // Losing writer keeps the existing entry and adds no bytes.
        let (second, re_added) = c.insert_selection(0, 0, 1, true, vec![9]);
        assert_eq!(*second, vec![3, 5, 8]);
        assert_eq!(re_added, 0);
        assert_eq!(c.bytes(), bytes);
        assert_eq!(c.selection_entries(), 1);
        // Indexed flag is part of the key.
        assert!(c.selection(0, 0, 1, false).is_none());
    }

    #[test]
    fn subtree_roundtrip_and_race() {
        let c = EvalCache::new();
        assert!(c.subtree(0, b"k1").is_none());
        let added = c.insert_subtree(0, b"k1".to_vec(), 1, vec![7, 9]);
        assert!(added > 0);
        assert_eq!(*c.subtree(0, b"k1").unwrap(), vec![7, 9]);
        assert_eq!(c.insert_subtree(0, b"k1".to_vec(), 1, vec![1]), 0);
        assert_eq!(*c.subtree(0, b"k1").unwrap(), vec![7, 9]);
        assert_eq!(c.subtree_entries(), 1);
        // Empty sets are legitimate entries (dead-subtree proofs).
        c.insert_subtree(0, b"k2".to_vec(), 1, vec![]);
        assert_eq!(*c.subtree(0, b"k2").unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn hit_miss_counters_track_all_layers() {
        let c = EvalCache::new();
        assert!(c.selection(0, 0, 0, true).is_none());
        assert!(c.subtree(0, b"nope").is_none());
        assert_eq!((c.hits(), c.misses()), (0, 2));
        c.insert_selection(0, 0, 0, true, vec![1]);
        c.insert_subtree(0, b"yes".to_vec(), 1, vec![4]);
        assert!(c.selection(0, 0, 0, true).is_some());
        assert!(c.subtree(0, b"yes").is_some());
        assert_eq!((c.hits(), c.misses()), (2, 2));
    }

    #[test]
    fn budget_evicts_lru_and_returns_bytes() {
        // Each selection of 4 RowIds costs 16 bytes; budget fits two.
        let c = EvalCache::with_identity(7, 0, Some(32));
        assert_eq!(c.db_id(), 7);
        c.insert_selection(0, 0, 0, true, vec![1, 2, 3, 4]);
        c.insert_selection(0, 1, 1, true, vec![1, 2, 3, 4]);
        assert_eq!(c.evictions(), 0);
        // Touch the first so the second is the LRU victim.
        assert!(c.selection(0, 0, 0, true).is_some());
        c.insert_selection(0, 2, 2, true, vec![1, 2, 3, 4]);
        assert_eq!(c.evictions(), 1, "one entry evicted to fit the budget");
        assert!(c.bytes() <= 32, "budget enforced: {}", c.bytes());
        assert!(c.selection(0, 0, 0, true).is_some(), "recently-touched entry survives");
        assert!(c.selection(0, 1, 1, true).is_none(), "LRU entry evicted");
        assert!(c.selection(0, 2, 2, true).is_some(), "newest entry resident");
        assert_eq!(c.bytes(), c.accounted_bytes(), "accounting identity after eviction");
    }

    #[test]
    fn eviction_spans_layers_and_keeps_identity() {
        let c = EvalCache::with_identity(1, 0, Some(48));
        c.insert_subtree(0, b"old-subtree-key".to_vec(), 1, vec![1, 2]);
        c.insert_selection(0, 0, 0, true, vec![1, 2, 3, 4]);
        c.insert_selection(0, 1, 1, true, vec![1, 2, 3, 4]);
        // 15+16 key/value + 16 + 16 = 63 > 48: the oldest (subtree) goes.
        assert!(c.evictions() > 0);
        assert!(c.subtree(0, b"old-subtree-key").is_none(), "oldest layer-2 entry evicted");
        assert!(c.bytes() <= 48);
        assert_eq!(c.bytes(), c.accounted_bytes());
    }

    #[test]
    fn shared_handle_is_one_store() {
        let shared = SharedEvalCache::new(3, 0, Some(1 << 20));
        let a = shared.handle();
        let b = shared.handle();
        a.insert_subtree(0, b"k".to_vec(), 1, vec![1]);
        assert!(b.subtree(0, b"k").is_some(), "handles alias one store");
        assert_eq!(shared.db_id(), 3);
        assert_eq!(shared.epoch(), 0);
        assert_eq!(shared.budget(), Some(1 << 20));
        assert!(shared.bytes() > 0);
        assert_eq!(shared.hits(), 1);
        assert_eq!(shared.subtree_entries(), 1);
    }

    /// A two-table db (color ← item) used by the invalidation tests.
    fn writable_db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("color")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").expect("static");
        let mut db = b.finish().expect("static");
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).expect("row");
        db.insert_values("color", vec![Value::Int(2), Value::text("blue")]).expect("row");
        db.insert_values(
            "item",
            vec![Value::Int(10), Value::text("red candle"), Value::Int(1)],
        )
        .expect("row");
        db.finalize();
        db
    }

    #[test]
    fn read_fence_hides_future_entries() {
        let c = EvalCache::with_identity(9, 3, None);
        c.insert_selection(3, 0, 0, true, vec![1, 2]);
        // A reader pinned before the entry's epoch must miss it…
        assert!(c.selection(2, 0, 0, true).is_none(), "entry from the future is invisible");
        // …while a reader at (or past) it hits.
        assert!(c.selection(3, 0, 0, true).is_some());
        assert!(c.selection(4, 0, 0, true).is_some());
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn write_fence_drops_stale_inserts() {
        let mut db = writable_db();
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let color = db.table_id("color").expect("table");
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("green")]]).expect("write");
        assert_eq!(c.invalidate(&db), 0, "empty cache: nothing to invalidate");
        assert_eq!(c.epoch(), db.epoch());
        // A session still pinned at epoch 0 computes against superseded data;
        // its inserts must not land.
        let (arc, added) = c.insert_selection(0, 0, 0, true, vec![1]);
        assert_eq!(added, 0, "stale insert fenced out");
        assert_eq!(*arc, vec![1], "caller still gets a usable value");
        assert_eq!(c.selection_entries(), 0);
        assert_eq!(c.insert_subtree(0, b"k".to_vec(), 1, vec![1]), 0);
        assert_eq!(c.insert_verdict(0, b"k".to_vec(), 1, true), 0);
        assert_eq!(c.bytes(), 0);
        // Current-epoch inserts land normally.
        let (_, added) = c.insert_selection(c.epoch(), 0, 0, true, vec![1]);
        assert!(added > 0);
    }

    #[test]
    fn invalidation_is_selective_per_keyword_and_table() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let item = db.table_id("item").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let red = c.intern("red");
        let candle = c.intern("candle");
        // Selections on both tables, both keywords; one subtree per table.
        c.insert_selection(0, color, red, true, vec![0]);
        c.insert_selection(0, color, candle, true, vec![]);
        c.insert_selection(0, item, red, true, vec![0]);
        c.insert_selection(0, item, candle, true, vec![0]);
        c.insert_subtree(0, b"color-side".to_vec(), table_mask_bit(color), vec![1]);
        c.insert_subtree(0, b"item-side".to_vec(), table_mask_bit(item), vec![10]);
        c.insert_verdict(
            0,
            b"net".to_vec(),
            table_mask_bit(color) | table_mask_bit(item),
            true,
        );

        // Append a color whose text mentions "red" but not "candle".
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("dark red")]])
            .expect("write");
        let removed = c.invalidate(&db);
        let pin = c.epoch();
        assert!(
            c.selection(pin, color, red, true).is_none(),
            "(color, red) dirtied by the append"
        );
        assert!(
            c.selection(pin, color, candle, true).is_some(),
            "(color, candle) untouched: 'dark red' does not contain 'candle'"
        );
        assert!(c.selection(pin, item, red, true).is_some(), "item selections untouched");
        assert!(c.selection(pin, item, candle, true).is_some());
        assert!(c.subtree(pin, b"color-side").is_none(), "color-reachable subtree evicted");
        assert!(c.subtree(pin, b"item-side").is_some(), "item-only subtree survives");
        assert!(c.verdict(pin, b"net").is_none(), "verdict spanning the written table evicted");
        assert_eq!(removed, 3);
        assert_eq!(c.invalidated(), 3);
        assert_eq!(c.bytes(), c.accounted_bytes(), "accounting identity after invalidation");
    }

    #[test]
    fn update_invalidation_uses_old_and_new_text() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let red = c.intern("red");
        let blue = c.intern("blue");
        let green = c.intern("green");
        c.insert_selection(0, color, red, true, vec![0]);
        c.insert_selection(0, color, blue, true, vec![1]);
        c.insert_selection(0, color, green, true, vec![]);
        // Rename "blue" → "teal": the old text dirties "blue"; neither text
        // mentions "red" or "green".
        db.update_row(color, 1, vec![Value::Int(2), Value::text("teal")]).expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection(pin, color, blue, true).is_none(), "old text dirties 'blue'");
        assert!(c.selection(pin, color, red, true).is_some());
        assert!(c.selection(pin, color, green, true).is_some());
        // And the reverse: rename "teal" → "green" dirties "green" via the
        // new text.
        db.update_row(color, 1, vec![Value::Int(2), Value::text("green")]).expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection(pin, color, green, true).is_none(), "new text dirties 'green'");
        assert!(c.selection(pin, color, red, true).is_some());
    }

    #[test]
    fn postings_invalidated_by_column_writes() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let item = db.table_id("item").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let candle = c.intern("candle");
        let mk = || ValuePostings::build(vec![(1, 0)]);
        c.insert_selection_postings(0, item, candle, true, 2, mk());
        c.insert_selection_postings(0, item, candle, true, 0, mk());
        // Repoint the item's color_id (column 2) without touching its text:
        // the selection survives, the col-2 postings don't, the col-0
        // postings do.
        db.update_row(
            item,
            0,
            vec![Value::Int(10), Value::text("red candle"), Value::Int(2)],
        )
        .expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection_postings(pin, item, candle, true, 2).is_none());
        assert!(c.selection_postings(pin, item, candle, true, 0).is_some());
        // A delete dirties every column's postings of the touched table.
        db.delete_row(color, 1).expect("write");
        c.insert_selection_postings(c.epoch(), color, candle, true, 1, mk());
        db.delete_row(item, 0).expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection_postings(pin, item, candle, true, 0).is_none());
        assert!(
            c.selection_postings(pin, color, candle, true, 1).is_some(),
            "postings on the untouched table survive"
        );
        assert_eq!(c.bytes(), c.accounted_bytes());
    }

    #[test]
    fn truncated_delta_log_purges_everything() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        c.insert_selection(0, color, 0, true, vec![0]);
        c.insert_subtree(0, b"s".to_vec(), table_mask_bit(1), vec![1]);
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("green")]]).expect("write");
        db.truncate_deltas(db.epoch());
        let removed = c.invalidate(&db);
        assert_eq!(removed, 2, "unauditable gap: everything goes");
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.selection_entries() + c.subtree_entries(), 0);
    }

    #[test]
    fn foreign_database_is_ignored() {
        let db = writable_db();
        let c = EvalCache::with_identity(db.db_id().wrapping_add(1), 0, None);
        c.insert_selection(0, 0, 0, true, vec![0]);
        assert_eq!(c.invalidate(&db), 0, "identity mismatch: no-op");
        assert_eq!(c.selection_entries(), 1);
    }

    #[test]
    fn invalidating_an_evicted_entry_never_double_subtracts() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        // Budget fits two 16-byte selections; the third insert evicts the
        // LRU one — which is exactly the entry the write then dirties.
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), Some(32));
        let red = c.intern("red");
        let stale = c.intern("stale");
        c.insert_selection(0, color, red, true, vec![0, 1, 2, 3]);
        c.insert_selection(0, color, stale, true, vec![0, 1, 2, 3]);
        assert!(c.selection(0, color, stale, true).is_some(), "touch: 'red' becomes LRU");
        c.insert_selection(0, 1, 9, true, vec![0, 1, 2, 3]);
        assert_eq!(c.evictions(), 1, "'red' evicted by the budget");
        let before = c.bytes();
        assert_eq!(before, c.accounted_bytes());
        // Append text matching both keywords: invalidation wants both
        // selections, but 'red' is already gone — it must be skipped, not
        // subtracted again.
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("stale red")]])
            .expect("write");
        let removed = c.invalidate(&db);
        assert_eq!(removed, 1, "only the resident entry is invalidated");
        assert_eq!(c.invalidated(), 1);
        assert_eq!(c.bytes(), c.accounted_bytes(), "no double subtraction");
        assert!(c.bytes() < before);
    }

    /// One layer driven through its public methods: `insert(cache, pin,
    /// key, n)` stores an `n`-sized value under key `key` and returns the
    /// bytes added; `get(cache, pin, key)` returns the size of the value it
    /// finds; `footprint(n)` is the bytes an `n`-sized entry at key 1 costs.
    struct LayerOps {
        name: &'static str,
        insert: fn(&EvalCache, u64, u8, usize) -> u64,
        get: fn(&EvalCache, u64, u8) -> Option<usize>,
        entries: fn(&EvalCache) -> usize,
        footprint: fn(usize) -> u64,
    }

    fn postings(n: usize) -> ValuePostings {
        ValuePostings::build((0..n as i64).map(|v| (v, v as RowId)).collect())
    }

    fn layer_ops() -> [LayerOps; 4] {
        [
            LayerOps {
                name: "selections",
                insert: |c, pin, key, n| c.insert_selection(pin, key.into(), 0, true, vec![0; n]).1,
                get: |c, pin, key| c.selection(pin, key.into(), 0, true).map(|rows| rows.len()),
                entries: EvalCache::selection_entries,
                footprint: |n| (n * std::mem::size_of::<RowId>()) as u64,
            },
            LayerOps {
                name: "postings",
                insert: |c, pin, key, n| {
                    c.insert_selection_postings(pin, 0, 0, true, key.into(), postings(n)).1
                },
                get: |c, pin, key| {
                    c.selection_postings(pin, 0, 0, true, key.into()).map(|p| p.values().len())
                },
                entries: EvalCache::postings_entries,
                footprint: |n| postings(n).payload_bytes(),
            },
            LayerOps {
                name: "subtrees",
                insert: |c, pin, key, n| c.insert_subtree(pin, vec![key], 1, vec![0; n]),
                get: |c, pin, key| c.subtree(pin, &[key]).map(|values| values.len()),
                entries: EvalCache::subtree_entries,
                footprint: |n| (1 + n * std::mem::size_of::<i64>()) as u64,
            },
            LayerOps {
                name: "verdicts",
                insert: |c, pin, key, n| c.insert_verdict(pin, vec![key], 1, n % 2 == 1),
                get: |c, pin, key| c.verdict(pin, &[key]).map(usize::from),
                entries: EvalCache::verdict_entries,
                footprint: |_| 2,
            },
        ]
    }

    #[test]
    fn every_layer_keeps_the_fences_the_winner_and_the_accounting() {
        for ops in layer_ops() {
            let name = ops.name;
            let c = EvalCache::with_identity(9, 3, None);
            // Byte accounting: the insert adds exactly the layer's footprint.
            let added = (ops.insert)(&c, 3, 1, 1);
            assert_eq!(added, (ops.footprint)(1), "{name}: footprint");
            assert_eq!((c.bytes(), c.accounted_bytes()), (added, added), "{name}: accounting");
            // Read fence: an entry stamped epoch 3 is invisible at pin 2.
            assert_eq!((ops.get)(&c, 2, 1), None, "{name}: entry from the future is invisible");
            assert_eq!((ops.get)(&c, 3, 1), Some(1), "{name}: visible at its epoch");
            assert_eq!((ops.get)(&c, 4, 1), Some(1), "{name}: visible after it");
            assert_eq!((c.hits(), c.misses()), (2, 1), "{name}: hit/miss counters");
            // Keep-the-winner: a losing insert adds nothing and changes nothing.
            assert_eq!((ops.insert)(&c, 3, 1, 2), 0, "{name}: losing insert adds no bytes");
            assert_eq!((ops.get)(&c, 3, 1), Some(1), "{name}: the first entry wins");
            // Write fence: only inserts pinned at the cache's epoch land.
            assert_eq!((ops.insert)(&c, 2, 2, 1), 0, "{name}: stale pin fenced out");
            assert_eq!((ops.insert)(&c, 4, 2, 1), 0, "{name}: future pin fenced out");
            assert_eq!((ops.entries)(&c), 1, "{name}: fenced inserts left no entry");
            assert_eq!((c.bytes(), c.accounted_bytes()), (added, added), "{name}: accounting");
        }
    }

    fn poisoned<K, V>(layer: &Layer<K, V>) -> bool {
        layer.shards.iter().any(|s| s.is_poisoned())
    }

    #[test]
    fn poisoned_shards_are_emptied_and_the_cache_keeps_serving() {
        fn poison<R>(f: impl FnOnce() -> R) {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            assert!(caught.is_err(), "the injected panic fired");
        }

        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let red = c.intern("red");
        let mask = table_mask_bit(color);
        let fill = |c: &EvalCache| {
            c.insert_selection(0, color, red, true, vec![0]);
            c.insert_selection_postings(0, color, red, true, 0, postings(1));
            c.insert_subtree(0, b"s".to_vec(), mask, vec![1]);
            c.insert_verdict(0, b"v".to_vec(), mask, true);
        };
        fill(&c);
        // A panic inside each layer's retain poisons the shard it holds.
        let t = &c.tally;
        poison(|| c.selections.retain(t, 0..SHARDS, |_, _| panic!("injected")));
        poison(|| c.sel_postings.retain(t, 0..SHARDS, |_, _| panic!("injected")));
        poison(|| c.subtrees.retain(t, 0..SHARDS, |_, _| panic!("injected")));
        poison(|| c.verdicts.retain(t, 0..SHARDS, |_, _| panic!("injected")));
        poison(|| {
            let _interner = c.interner.lock();
            panic!("injected")
        });
        assert!(poisoned(&c.selections) && poisoned(&c.sel_postings));
        assert!(poisoned(&c.subtrees) && poisoned(&c.verdicts));

        // Lookups succeed; each poisoned shard was emptied and its entry
        // counted as invalidated, with its bytes returned.
        let pin = c.epoch();
        assert!(c.selection(pin, color, red, true).is_none());
        assert!(c.selection_postings(pin, color, red, true, 0).is_none());
        assert!(c.subtree(pin, b"s").is_none());
        assert!(c.verdict(pin, b"v").is_none());
        assert_eq!(c.invalidated(), 4);
        assert_eq!((c.bytes(), c.accounted_bytes()), (0, 0));
        assert_eq!(c.intern("red"), red, "the interner survives intact");
        assert!(!c.interner.is_poisoned());
        assert!(!poisoned(&c.selections) && !poisoned(&c.sel_postings));
        assert!(!poisoned(&c.subtrees) && !poisoned(&c.verdicts));

        // Inserts land again, and invalidation after a write still works.
        fill(&c);
        assert_eq!(c.postings_entries() + c.verdict_entries(), 2);
        assert_eq!(c.bytes(), c.accounted_bytes());
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("dark red")]])
            .expect("write");
        assert_eq!(c.invalidate(&db), 4);
        assert_eq!((c.bytes(), c.accounted_bytes()), (0, 0));

        // A poisoned eviction lock still evicts.
        let b = EvalCache::with_identity(1, 0, Some(16));
        poison(|| {
            let _evicting = b.evict_lock.lock();
            panic!("injected")
        });
        b.insert_selection(0, 0, 0, true, vec![1, 2, 3, 4]);
        b.insert_selection(0, 1, 1, true, vec![1, 2, 3, 4]);
        assert_eq!(b.evictions(), 1);
        assert_eq!(b.bytes(), b.accounted_bytes());
    }
}
