//! Mutable-database coordinator: the single writer over the epoch-stamped
//! stack.
//!
//! Everything below the debugger treats a database as an immutable snapshot:
//! probes pin the epoch of the `&Database` they borrow, cache entries are
//! stamped with the epoch they were computed at, and the inverted index
//! serves merge-on-read views synchronized to an applied epoch. This module
//! is the one place writes are allowed to happen, and its job is ordering:
//! every write flows
//!
//! 1. into the [`Database`] (which bumps the epoch and records an
//!    [`relengine::EpochDelta`] dirty set),
//! 2. through [`InvertedIndex::apply_deltas`] (incremental delta postings,
//!    threshold compaction — never a drop-and-rebuild),
//! 3. through [`crate::evalcache::EvalCache::invalidate`] (selective
//!    eviction of exactly the entries the delta's dirty sets can have
//!    changed).
//!
//! Readers never observe a torn state because the coordinator only mutates
//! while it holds the **only** reference to the snapshot: a write with
//! outstanding [`SharedParts`] handles or sessions is refused with
//! [`KwError::BadConfig`] rather than silently forking the database
//! (a [`Database`] clone gets a fresh `db_id`, which would orphan every
//! cache entry). Quiesce — drop sessions — write — re-issue parts: epochs
//! stay monotonic and the `(db_id, epoch)` cache identity stays continuous,
//! which is what makes warm-cache incremental maintenance beat rebuilding
//! the world (benchmarked by E19, `exp_mutate`).
//!
//! Schema is fixed for the lifetime of the coordinator (writes are DML
//! only), so the [`crate::schema_graph::SchemaGraph`] and the offline
//! [`crate::lattice::Lattice`] — both pure functions of the schema — are
//! built once and never refreshed.

use std::sync::Arc;

use relengine::{Database, RowId, TableId, Value};
use textindex::InvertedIndex;

use crate::debugger::{DebugConfig, NonAnswerDebugger, SharedParts};
use crate::error::KwError;
use crate::evalcache::SharedEvalCache;

/// A database plus its derived read structures under single-writer mutation.
///
/// See the [module docs](crate::mutable) for the write-path contract. The
/// substrate is one [`SharedParts`], whose read accessors (`database`,
/// `index`, `epoch`, `shared_cache`, ...) the coordinator exposes through
/// `Deref`. Its shared cache is the one the write path keeps epoch-current,
/// and its online `p_a` estimator survives writes deliberately: it only
/// ever tunes the score-based heuristic's probe order, never its output.
/// Debug sessions are built over snapshots: [`MutableDatabase::parts`]
/// hands out a [`SharedParts`] pinned at the current epoch, and
/// [`MutableDatabase::session`] is the one-call shortcut.
pub struct MutableDatabase {
    parts: SharedParts,
}

impl std::ops::Deref for MutableDatabase {
    type Target = SharedParts;

    fn deref(&self) -> &SharedParts {
        &self.parts
    }
}

impl MutableDatabase {
    /// Builds the coordinator over `db` ([`SharedParts::build`]): finalizes
    /// it, builds the inverted index, the schema graph and the offline
    /// lattice for `max_joins`.
    pub fn new(db: Database, max_joins: usize) -> Result<Self, KwError> {
        Ok(MutableDatabase { parts: SharedParts::build(db, max_joins)? })
    }

    /// Resolves a table name to its id.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.database().table_id(name)
    }

    /// Creates and attaches a [`SharedEvalCache`] stamped with the current
    /// `(db_id, epoch)` identity, bounded by `budget_bytes` payload bytes
    /// (`None` = unbounded). The write path keeps it epoch-current from then
    /// on; sessions built from later [`MutableDatabase::parts`] share it.
    pub fn share_eval_cache(&mut self, budget_bytes: Option<u64>) -> SharedEvalCache {
        self.parts.share_eval_cache(budget_bytes)
    }

    /// Sets the pending-row threshold at which the index folds delta
    /// postings into its base (see
    /// [`InvertedIndex::set_compaction_threshold`]).
    pub fn set_compaction_threshold(&mut self, pending_rows: usize) {
        self.index_mut().set_compaction_threshold(pending_rows);
    }

    /// Appends `rows` to `table`, returning their new row ids. One epoch per
    /// call; the index and the shared cache are current when this returns.
    pub fn append_rows(
        &mut self,
        table: TableId,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<RowId>, KwError> {
        let ids = self.db_mut()?.append_rows(table, rows)?;
        self.sync();
        Ok(ids)
    }

    /// Replaces row `id` of `table` in place, returning the new epoch.
    pub fn update_row(
        &mut self,
        table: TableId,
        id: RowId,
        values: Vec<Value>,
    ) -> Result<u64, KwError> {
        self.db_mut()?.update_row(table, id, values)?;
        self.sync();
        Ok(self.epoch())
    }

    /// Tombstones row `id` of `table`, returning the new epoch. Row ids are
    /// positional and never reused, so surviving ids are unchanged.
    pub fn delete_row(&mut self, table: TableId, id: RowId) -> Result<u64, KwError> {
        self.db_mut()?.delete_row(table, id)?;
        self.sync();
        Ok(self.epoch())
    }

    /// A [`SharedParts`] snapshot pinned at the current epoch. Sessions built
    /// from it (and the handle itself) block writes until dropped — the
    /// single-writer contract.
    pub fn parts(&self) -> SharedParts {
        self.parts.clone()
    }

    /// Builds a debug session over the current snapshot
    /// ([`NonAnswerDebugger::from_shared`] over [`MutableDatabase::parts`]).
    /// `config.max_joins` must match the lattice this coordinator was built
    /// with.
    pub fn session(&self, config: DebugConfig) -> Result<NonAnswerDebugger, KwError> {
        NonAnswerDebugger::from_shared(self.parts(), config)
    }

    /// Exclusive access to the database, or a refusal while snapshots are
    /// outstanding.
    fn db_mut(&mut self) -> Result<&mut Database, KwError> {
        Arc::get_mut(&mut self.parts.db).ok_or_else(|| {
            KwError::BadConfig(
                "database snapshot has outstanding holders; \
                 drop sessions and parts before writing"
                    .into(),
            )
        })
    }

    /// Exclusive access to the index. Snapshot holders always hold the
    /// database too, so after a successful [`MutableDatabase::db_mut`] this
    /// is uncontended; the clone fallback covers any other holder.
    fn index_mut(&mut self) -> &mut InvertedIndex {
        let index = &mut self.parts.index;
        if Arc::get_mut(index).is_none() {
            *index = Arc::new((**index).clone());
        }
        Arc::get_mut(index).expect("index arc is uniquely held")
    }

    /// Brings the derived read structures up to the database's epoch: the
    /// index absorbs pending deltas, then the shared cache (if any) evicts
    /// what those deltas dirtied. Order matters — the cache's recomputation
    /// path reads the index, so the index must already be current. Once both
    /// are current no consumer needs the deltas any more, so the log is
    /// truncated: it would otherwise keep every write's old rows for the
    /// coordinator's lifetime. A cache stamped at an older epoch (one a
    /// session shared and kept) finds the gap and purges itself when next
    /// adopted, rather than serving stale entries.
    fn sync(&mut self) {
        let db = Arc::clone(&self.parts.db);
        self.index_mut().apply_deltas(&db);
        if let Some(cache) = self.shared_cache() {
            cache.invalidate(&db);
        }
        drop(db);
        if let Ok(db) = self.db_mut() {
            let epoch = db.epoch();
            db.truncate_deltas(epoch);
        }
    }
}

impl std::fmt::Debug for MutableDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableDatabase")
            .field("db_id", &self.db_id())
            .field("epoch", &self.epoch())
            .field("tables", &self.database().table_count())
            .field("pending_delta_rows", &self.index().pending_delta_rows())
            .field("compactions", &self.index().compactions())
            .field("shared_cache", &self.shared_cache().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relengine::{DataType, DatabaseBuilder};

    /// color ← item: one saffron color, one candle item pointing at red.
    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("color").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").unwrap();
        let mut db = b.finish().unwrap();
        db.insert_values("color", vec![Value::Int(1), Value::text("saffron")]).unwrap();
        db.insert_values("color", vec![Value::Int(2), Value::text("red")]).unwrap();
        db.insert_values(
            "item",
            vec![Value::Int(1), Value::text("wax candle"), Value::Int(2)],
        )
        .unwrap();
        db
    }

    fn config() -> DebugConfig {
        DebugConfig { max_joins: 2, eval_cache: true, ..DebugConfig::default() }
    }

    #[test]
    fn writes_flow_through_index_and_cache() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        let store = m.share_eval_cache(None);
        assert_eq!(m.epoch(), 0);

        // Warm the cache: "saffron candle" is a non-answer.
        let before = m.session(config()).unwrap().debug("saffron candle").unwrap();
        assert_eq!(before.non_answer_count(), 1);
        assert!(store.bytes() > 0, "session warmed the shared store");

        // Append a candle pointing at the saffron color; the non-answer must
        // become an answer (through the join — the new text itself does not
        // mention saffron, so the interpretation set stays put).
        let item = m.table_id("item").unwrap();
        let ids = m
            .append_rows(
                item,
                vec![vec![Value::Int(2), Value::text("glow candle"), Value::Int(1)]],
            )
            .unwrap();
        assert_eq!(ids, vec![1]);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.index().applied_epoch(), 1, "index absorbed the delta");
        assert_eq!(store.epoch(), 1, "cache re-pinned to the new epoch");
        assert!(store.invalidated() > 0, "dirtied entries evicted");

        let after = m.session(config()).unwrap().debug("saffron candle").unwrap();
        assert_eq!(after.answer_count(), 1, "the appended row answers the query");
        assert_eq!(after.non_answer_count(), 0);
    }

    #[test]
    fn delete_kills_an_answer() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        // A second candle keeps the keyword mapped after the delete below.
        m.append_rows(
            item,
            vec![vec![Value::Int(2), Value::text("brass candle holder"), Value::Int(1)]],
        )
        .unwrap();
        let before = m.session(config()).unwrap().debug("red candle").unwrap();
        assert_eq!(before.answer_count(), 1);

        m.delete_row(item, 0).unwrap();
        let after = m.session(config()).unwrap().debug("red candle").unwrap();
        assert_eq!(after.answer_count(), 0, "deleted row no longer joins");
        assert_eq!(after.non_answer_count(), 1);
    }

    #[test]
    fn update_moves_a_keyword() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        // Re-point the candle from red to saffron.
        let epoch = m
            .update_row(
                item,
                0,
                vec![Value::Int(1), Value::text("wax candle"), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(epoch, 1);
        let r = m.session(config()).unwrap().debug("saffron candle").unwrap();
        assert_eq!(r.answer_count(), 1);
    }

    #[test]
    fn writes_refused_while_snapshots_outstanding() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        let session = m.session(config()).unwrap();
        let item = m.table_id("item").unwrap();
        let err = m.delete_row(item, 0);
        assert!(matches!(err, Err(KwError::BadConfig(_))), "live session blocks writes");
        drop(session);
        m.delete_row(item, 0).expect("write proceeds once quiesced");
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn the_delta_log_stays_empty_across_many_writes() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        let color = m.table_id("color").unwrap();
        // A store some session shared and kept, stamped at epoch 0 and warm.
        let mut parts = m.parts();
        let stale = parts.share_eval_cache(None);
        NonAnswerDebugger::from_shared(parts, config())
            .unwrap()
            .debug("saffron candle")
            .unwrap();
        assert!(stale.bytes() > 0);

        for i in 0..40i64 {
            let row = |text: &str, color: i64| {
                vec![Value::Int(100 + i), Value::text(text), Value::Int(color)]
            };
            let ids = m.append_rows(item, vec![row("saffron candle", 2)]).unwrap();
            m.update_row(item, ids[0], row("teal candle", 1)).unwrap();
            if i % 2 == 0 {
                m.delete_row(item, ids[0]).unwrap();
            }
        }
        m.append_rows(color, vec![vec![Value::Int(3), Value::text("teal")]]).unwrap();
        assert_eq!(m.epoch(), 101);
        assert_eq!(m.database().oldest_delta_epoch(), m.epoch(), "the log holds no deltas");
        assert!(m.database().deltas_since(0).is_empty());

        // Reports still equal a from-scratch rebuild.
        let fresh = NonAnswerDebugger::new(m.database().clone(), config()).unwrap();
        let same = |a: &crate::DebugReport, b: &crate::DebugReport, q: &str| {
            assert_eq!(a.keywords, b.keywords, "{q}");
            assert_eq!(a.interpretations.len(), b.interpretations.len(), "{q}");
            for (x, y) in a.interpretations.iter().zip(&b.interpretations) {
                assert_eq!(x.answers, y.answers, "{q}: answers (SQL + samples)");
                assert_eq!(x.non_answers, y.non_answers, "{q}: non-answers + MPANs");
                assert_eq!(x.unknown, y.unknown, "{q}");
            }
        };
        for q in ["saffron candle", "teal candle", "red candle"] {
            same(&m.session(config()).unwrap().debug(q).unwrap(), &fresh.debug(q).unwrap(), q);
        }

        // The old store cannot audit the writes it missed, so adopting it
        // purges it instead of serving its epoch-0 entries.
        let mut parts = m.parts();
        parts.adopt_eval_cache(stale.clone()).unwrap();
        assert_eq!(stale.epoch(), m.epoch());
        assert_eq!(stale.bytes(), 0, "purged on adoption");
        let adopted = NonAnswerDebugger::from_shared(parts, config()).unwrap();
        for q in ["saffron candle", "teal candle"] {
            same(&adopted.debug(q).unwrap(), &fresh.debug(q).unwrap(), q);
        }
    }

    #[test]
    fn reports_match_a_fresh_debugger_after_mutations() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        let color = m.table_id("color").unwrap();
        // Warm, mutate, warm again — entries from epoch 0 survive exactly
        // when clean.
        m.session(config()).unwrap().debug("saffron candle").unwrap();
        m.append_rows(color, vec![vec![Value::Int(3), Value::text("teal")]]).unwrap();
        m.append_rows(
            item,
            vec![vec![Value::Int(2), Value::text("teal candle"), Value::Int(3)]],
        )
        .unwrap();
        m.delete_row(item, 0).unwrap();

        let fresh = NonAnswerDebugger::new(m.database().clone(), config()).unwrap();
        for q in ["saffron candle", "teal candle", "red candle"] {
            let a = m.session(config()).unwrap().debug(q).unwrap();
            let b = fresh.debug(q).unwrap();
            assert_eq!(a.answer_count(), b.answer_count(), "{q}");
            assert_eq!(a.non_answer_count(), b.non_answer_count(), "{q}");
            assert_eq!(a.mpan_count(), b.mpan_count(), "{q}");
        }
    }
}
