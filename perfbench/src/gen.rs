//! Seeded input generators. Every request text and every written row of a
//! run comes from here, derived from the run's `--seed`; the program under
//! test only ever sees the generated inputs.

use relengine::rng::SplitMix64;

/// The 20 case-folded keywords of the paper's Table 2 queries, in the order
/// they first appear there. That order is also their popularity rank in the
/// skewed streams, so the hot set is the same for every seed and only the
/// draws change.
pub const KEYWORDS: [&str; 20] = [
    "widom",
    "trio",
    "hristidis",
    "keyword",
    "search",
    "agrawal",
    "chaudhuri",
    "das",
    "derose",
    "vldb",
    "gray",
    "sigmod",
    "dewitt",
    "tutorial",
    "probabilistic",
    "data",
    "washington",
    "xml",
    "stream",
    "histograms",
];

/// Zipf exponent of keyword popularity in the skewed streams.
const ZIPF_S: f64 = 0.5;

/// Words that occur in no stream keyword, used to pad written titles.
const FILLER: [&str; 8] = [
    "notes",
    "revisited",
    "lessons",
    "primer",
    "outlook",
    "retrospective",
    "digest",
    "sketch",
];

/// Derives an independent sub-seed (one per client, per stream role) from
/// the run seed, so clients never share a sequence.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// An endless Zipf-skewed stream of 2–3-keyword texts over [`KEYWORDS`].
pub struct TextStream {
    rng: SplitMix64,
    cdf: Vec<f64>,
}

impl TextStream {
    /// The stream of one client: same seed, same texts.
    pub fn new(seed: u64) -> TextStream {
        let weights: Vec<f64> = (0..KEYWORDS.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        TextStream {
            rng: SplitMix64::seed_from_u64(seed),
            cdf,
        }
    }

    fn keyword(&mut self) -> usize {
        let u = unit(&mut self.rng);
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(KEYWORDS.len() - 1)
    }

    /// `n` distinct keywords, in draw order.
    fn keywords(&mut self, n: usize) -> Vec<usize> {
        let mut picked = Vec::with_capacity(n);
        while picked.len() < n {
            let k = self.keyword();
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        picked
    }

    /// The next request text.
    pub fn next_text(&mut self) -> String {
        let n = if self.rng.gen_ratio(1, 2) { 3 } else { 2 };
        let picked = self.keywords(n);
        picked
            .iter()
            .map(|&k| KEYWORDS[k])
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Stream keywords that already occur in generated publication titles.
/// Written titles use only these, so writes move postings and answers but
/// never give a keyword a new table to bind to: a read's interpretations
/// stay those of the base data, and read cost stays comparable across seeds.
const TITLE_KEYWORDS: [&str; 3] = ["trio", "tutorial", "washington"];

/// A written title: two title keywords, a filler word and a serial, so each
/// write dirties cache entries of texts the readers send.
fn title(rng: &mut SplitMix64, serial: u64) -> String {
    let first = rng.below(3) as usize;
    let second = (first + 1 + rng.below(2) as usize) % 3;
    let filler = FILLER[rng.below(FILLER.len() as u64) as usize];
    format!(
        "{} {} {filler} {serial}",
        TITLE_KEYWORDS[first], TITLE_KEYWORDS[second]
    )
}

/// The pass order of the Table 2 queries for `seed`: the paper's order,
/// rotated by a seeded offset. Every pass repeats it, so each query always
/// follows the same query and the CPU-cache state it meets does not change
/// from seed to seed.
pub fn paper_pass(seed: u64) -> Vec<&'static str> {
    let mut texts: Vec<&'static str> = datagen::paper_queries().iter().map(|q| q.text).collect();
    let offset = SplitMix64::seed_from_u64(seed).below(texts.len() as u64) as usize;
    texts.rotate_left(offset);
    texts
}

/// One write of a batch, against the DBLife `publication` and `writes`
/// tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// Append `publication` rows with these ids and titles.
    AppendPublications(Vec<(i64, String)>),
    /// Append `writes` (person, publication) links to the publications of
    /// the preceding append.
    AppendLinks(Vec<i64>),
    /// Re-title a previously appended publication (index into the live
    /// queue, oldest first).
    Retitle { live: usize, title: String },
    /// Delete the oldest appended publication and its links.
    DeleteOldest,
}

/// Publications appended per batch.
pub const APPENDS_PER_BATCH: usize = 96;
/// Links appended per batch (to the first publications of the append).
pub const LINKS_PER_BATCH: usize = 48;
/// Re-titled publications per batch.
pub const RETITLES_PER_BATCH: usize = 24;
/// Appended publications kept alive; older ones are deleted, so the live
/// data stays the same size over a run.
pub const LIVE_CAP: usize = 1024;

/// Seeded write batches: appends, updates and deletes of rows whose text
/// contains stream keywords.
pub struct WriteGen {
    rng: SplitMix64,
    next_id: i64,
    /// Person ids run from 1 to this.
    persons: i64,
    /// Appended publications still alive; mirrors the applier's queue so
    /// retitles can name a live row.
    live: usize,
}

/// First id of appended publications, above every generated id.
pub const FIRST_APPENDED_ID: i64 = 10_000_000;

impl WriteGen {
    /// The write stream of one run over a database of `persons` people.
    pub fn new(seed: u64, persons: i64) -> WriteGen {
        WriteGen {
            rng: SplitMix64::seed_from_u64(sub_seed(seed, 0xB0B)),
            next_id: FIRST_APPENDED_ID,
            persons: persons.max(10),
            live: 0,
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<Write> {
        let mut batch = Vec::new();
        let rows = (0..APPENDS_PER_BATCH)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                (id, title(&mut self.rng, id as u64))
            })
            .collect();
        batch.push(Write::AppendPublications(rows));
        // Authors are drawn from the planted people (ids 1..=9, the Table 2
        // names) half the time, so writes move the answers readers ask for.
        let authors = (0..LINKS_PER_BATCH)
            .map(|_| {
                if self.rng.gen_ratio(1, 2) {
                    self.rng.gen_range(1..=9i64)
                } else {
                    self.rng.gen_range(10..=self.persons)
                }
            })
            .collect();
        batch.push(Write::AppendLinks(authors));
        self.live += APPENDS_PER_BATCH;
        for _ in 0..RETITLES_PER_BATCH {
            let live = self.rng.below(self.live as u64) as usize;
            let serial = self.rng.next_u64() % 1_000_000;
            batch.push(Write::Retitle {
                live,
                title: title(&mut self.rng, serial),
            });
        }
        while self.live > LIVE_CAP {
            batch.push(Write::DeleteOldest);
            self.live -= 1;
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<String> = {
            let mut s = TextStream::new(11);
            (0..50).map(|_| s.next_text()).collect()
        };
        let b: Vec<String> = {
            let mut s = TextStream::new(11);
            (0..50).map(|_| s.next_text()).collect()
        };
        let c: Vec<String> = {
            let mut s = TextStream::new(sub_seed(11, 1));
            (0..50).map(|_| s.next_text()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        for t in &a {
            let n = t.split(' ').count();
            assert!(n == 2 || n == 3, "{t}");
        }
    }

    #[test]
    fn write_batches_keep_the_live_set_bounded() {
        let mut g = WriteGen::new(3, 40);
        for _ in 0..20 {
            g.next_batch();
            assert!(g.live <= LIVE_CAP);
        }
    }
}
