//! Writes beside reads: seeded write batches through `MutableDatabase`
//! alternating with rounds of reads through `MutableDatabase::session`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use kwdebug::{KwError, MutableDatabase, NonAnswerDebugger};
use relengine::{RowId, TableId, Value};

use crate::gen::{Write, WriteGen, LINKS_PER_BATCH};

/// Reads per round, between two write batches.
pub const READS_PER_ROUND: usize = 16;
/// Every this many rounds (from a seeded offset) the round's reports are
/// compared with a fresh debugger built over a copy of the data.
pub const REFERENCE_EVERY: u64 = 32;

/// The kind of a write call, for per-kind latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `MutableDatabase::append_rows`.
    Append,
    /// `MutableDatabase::update_row`.
    Update,
    /// `MutableDatabase::delete_row`.
    Delete,
}

/// An appended publication still alive: its row, id value and link rows.
struct Live {
    row: RowId,
    id: i64,
    links: Vec<RowId>,
}

/// Applies generated write batches, one `MutableDatabase` call at a time.
pub struct Writer {
    gen: WriteGen,
    publication: TableId,
    writes: TableId,
    live: VecDeque<Live>,
}

impl Writer {
    /// The writer of one run.
    pub fn new(m: &MutableDatabase, seed: u64) -> Result<Writer, KwError> {
        let table = |name: &str| {
            m.table_id(name)
                .ok_or_else(|| KwError::BadConfig(format!("no table {name}")))
        };
        Ok(Writer {
            gen: WriteGen::new(seed, m.database().table(table("person")?).len() as i64),
            publication: table("publication")?,
            writes: table("writes")?,
            live: VecDeque::new(),
        })
    }

    /// Applies the next batch; `timed` receives the kind and latency of
    /// every `MutableDatabase` call.
    pub fn apply_batch(
        &mut self,
        m: &mut MutableDatabase,
        mut timed: impl FnMut(WriteKind, Duration),
    ) -> Result<(), KwError> {
        let mut appended = 0..0;
        for write in self.gen.next_batch() {
            match write {
                Write::AppendPublications(titled) => {
                    let ids: Vec<i64> = titled.iter().map(|(id, _)| *id).collect();
                    let rows = titled
                        .into_iter()
                        .map(|(id, title)| vec![Value::Int(id), Value::text(title)])
                        .collect();
                    let t = Instant::now();
                    let rows = m.append_rows(self.publication, rows)?;
                    timed(WriteKind::Append, t.elapsed());
                    let first = self.live.len();
                    self.live
                        .extend(rows.into_iter().zip(ids).map(|(row, id)| Live {
                            row,
                            id,
                            links: Vec::new(),
                        }));
                    appended = first..self.live.len();
                }
                Write::AppendLinks(authors) => {
                    let targets: Vec<usize> = appended.clone().take(LINKS_PER_BATCH).collect();
                    let rows = authors
                        .iter()
                        .zip(&targets)
                        .map(|(&a, &p)| vec![Value::Int(a), Value::Int(self.live[p].id)])
                        .collect();
                    let t = Instant::now();
                    let rows = m.append_rows(self.writes, rows)?;
                    timed(WriteKind::Append, t.elapsed());
                    for (row, &p) in rows.into_iter().zip(&targets) {
                        self.live[p].links.push(row);
                    }
                }
                Write::Retitle { live, title } => {
                    let target = &self.live[live];
                    let values = vec![Value::Int(target.id), Value::text(title)];
                    let t = Instant::now();
                    m.update_row(self.publication, target.row, values)?;
                    timed(WriteKind::Update, t.elapsed());
                }
                Write::DeleteOldest => {
                    let oldest = self
                        .live
                        .pop_front()
                        .expect("generator deletes only live rows");
                    let t = Instant::now();
                    m.delete_row(self.publication, oldest.row)?;
                    timed(WriteKind::Delete, t.elapsed());
                    for link in oldest.links {
                        let t = Instant::now();
                        m.delete_row(self.writes, link)?;
                        timed(WriteKind::Delete, t.elapsed());
                    }
                }
            }
        }
        Ok(())
    }
}

/// Compares `reports` (text, scrubbed bytes) of the current epoch with a
/// fresh `NonAnswerDebugger::new` over a copy of the data. Returns the
/// number of mismatched texts.
pub fn check_epoch(m: &MutableDatabase, reports: &[(String, Vec<u8>)]) -> Result<u64, KwError> {
    let fresh = NonAnswerDebugger::new(m.database().clone(), crate::workload::reference_config())?;
    let mut mismatched = 0;
    for (text, bytes) in reports {
        if crate::report::scrubbed(fresh.debug(text)?) != *bytes {
            eprintln!("reference mismatch at epoch {}: {text:?}", m.epoch());
            mismatched += 1;
        }
    }
    Ok(mismatched)
}
