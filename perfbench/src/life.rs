//! Generated personal data and its plaintext reference.
//!
//! Every record a workload ingests into a token is mirrored here: the
//! document text into `pds_search`'s in-RAM oracle, the row into a plain
//! vector per table. Answers the token gives are checked against this
//! mirror, never against the token itself.

use pds_core::data::{
    synthetic_life, BANK_CATEGORIES, BANK_TABLE, EMAIL_TABLE, HEALTH_CATEGORIES, HEALTH_TABLE,
};
use pds_core::{AccessContext, Pds, PdsError, Predicate, Purpose, Row, Value};
use pds_obs::rng::{Rng, StdRng};
use pds_search::{NaiveSearch, SearchHit};

/// One personal record, as a source would hand it to the token.
#[derive(Debug, Clone)]
pub enum Record {
    Email {
        day: u64,
        sender: String,
        subject: String,
        body: String,
    },
    Health {
        day: u64,
        category: &'static str,
        measure: u64,
        note: String,
    },
    Bank {
        day: u64,
        category: &'static str,
        amount: u64,
        counterparty: String,
    },
}

impl Record {
    /// Payload bytes a user hands over (strings plus 8 per integer).
    pub fn user_bytes(&self) -> u64 {
        (match self {
            Record::Email {
                sender,
                subject,
                body,
                ..
            } => 8 + sender.len() + subject.len() + body.len(),
            Record::Health { category, note, .. } => 16 + category.len() + note.len(),
            Record::Bank {
                category,
                counterparty,
                ..
            } => 16 + category.len() + counterparty.len(),
        }) as u64
    }

    /// Ingest into the token (no commit).
    pub fn ingest(&self, pds: &mut Pds) -> Result<(), PdsError> {
        match self {
            Record::Email {
                day,
                sender,
                subject,
                body,
            } => pds.ingest_email(*day, sender, subject, body),
            Record::Health {
                day,
                category,
                measure,
                note,
            } => pds.ingest_health(*day, category, *measure, note),
            Record::Bank {
                day,
                category,
                amount,
                counterparty,
            } => pds.ingest_bank(*day, category, *amount, counterparty),
        }
    }
}

/// `days` of `synthetic_life`, flattened into ingestion order (day by
/// day: that day's emails, health records, then bank records).
pub fn records(days: u64, rng: &mut StdRng) -> Vec<Record> {
    let life = synthetic_life(days, rng);
    let mut out: Vec<(u64, u8, Record)> = Vec::new();
    for (day, sender, subject, body) in life.emails {
        out.push((
            day,
            0,
            Record::Email {
                day,
                sender,
                subject,
                body,
            },
        ));
    }
    for (day, category, measure, note) in life.health {
        out.push((
            day,
            1,
            Record::Health {
                day,
                category,
                measure,
                note,
            },
        ));
    }
    for (day, category, amount, counterparty) in life.bank {
        out.push((
            day,
            2,
            Record::Bank {
                day,
                category,
                amount,
                counterparty,
            },
        ));
    }
    // Stable: within a day and family the generator's order is kept.
    out.sort_by_key(|(day, fam, _)| (*day, *fam));
    out.into_iter().map(|(_, _, r)| r).collect()
}

/// A fresh record for `day`, drawn like `synthetic_life` draws them.
pub fn new_record(day: u64, rng: &mut StdRng) -> Record {
    let senders = ["bank", "employer", "dr.martin", "newsletter", "family"];
    let topics = [
        "appointment reminder",
        "monthly statement",
        "blood test results",
        "holiday plans",
        "invoice due",
    ];
    match rng.gen_range(0..10u32) {
        0..=4 => {
            let s = senders[rng.gen_range(0..senders.len())];
            let t = topics[rng.gen_range(0..topics.len())];
            Record::Email {
                day,
                sender: s.to_string(),
                subject: t.to_string(),
                body: format!("message from {s} about {t} on day {day}"),
            }
        }
        5..=6 => {
            let c = HEALTH_CATEGORIES[rng.gen_range(0..HEALTH_CATEGORIES.len())];
            Record::Health {
                day,
                category: c,
                measure: rng.gen_range(50..200),
                note: format!("{c} measurement recorded"),
            }
        }
        _ => Record::Bank {
            day,
            category: BANK_CATEGORIES[rng.gen_range(0..BANK_CATEGORIES.len())],
            amount: rng.gen_range(500..200_000),
            counterparty: format!("shop-{}", rng.gen_range(0..20)),
        },
    }
}

/// The plaintext reference of one token's contents.
#[derive(Default)]
pub struct Mirror {
    oracle: NaiveSearch,
    docs: Vec<String>,
    email: Vec<Row>,
    health: Vec<Row>,
    bank: Vec<Row>,
}

impl Mirror {
    /// Apply `r` exactly as the token does (docids are dense, in
    /// ingestion order).
    pub fn apply(&mut self, r: &Record) {
        match r {
            Record::Email {
                day,
                sender,
                subject,
                body,
            } => {
                let text = format!("{subject} {body}");
                let doc = self.index(text);
                self.email.push(vec![
                    Value::U64(*day),
                    Value::str(sender),
                    Value::str(subject),
                    Value::U64(doc),
                ]);
            }
            Record::Health {
                day,
                category,
                measure,
                note,
            } => {
                let doc = self.index(note.clone());
                self.health.push(vec![
                    Value::U64(*day),
                    Value::str(category),
                    Value::U64(*measure),
                    Value::U64(doc),
                ]);
            }
            Record::Bank {
                day,
                category,
                amount,
                counterparty,
            } => self.bank.push(vec![
                Value::U64(*day),
                Value::str(category),
                Value::U64(*amount),
                Value::str(counterparty),
            ]),
        }
    }

    fn index(&mut self, text: String) -> u64 {
        let doc = self.oracle.index(&text);
        self.docs.push(text);
        u64::from(doc)
    }

    pub fn doc(&self, doc: u32) -> Option<&str> {
        self.docs.get(doc as usize).map(String::as_str)
    }

    pub fn num_docs(&self) -> u32 {
        self.docs.len() as u32
    }

    fn rows(&self, table: &str) -> &[Row] {
        match table {
            EMAIL_TABLE => &self.email,
            HEALTH_TABLE => &self.health,
            _ => &self.bank,
        }
    }

    /// `SELECT * FROM table WHERE pred` over the plaintext rows.
    pub fn select(&self, table: &str, col: usize, pred: &Predicate) -> Vec<Row> {
        self.rows(table)
            .iter()
            .filter(|r| pred.matches(&r[col]))
            .cloned()
            .collect()
    }

    /// Every row of `table` (the durability check reads them all back).
    pub fn all_rows(&self, table: &str) -> Vec<Row> {
        self.rows(table).to_vec()
    }

    /// Top-`n` hits agree with the oracle: same length, the same scores
    /// rank by rank, and each returned document carries the oracle's
    /// score for it (documents tied on score may swap places).
    pub fn search_matches(&self, keywords: &[&str], n: usize, hits: &[SearchHit]) -> bool {
        let expected = self.oracle.search(keywords, n);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        if hits.len() != expected.len()
            || !hits
                .iter()
                .zip(&expected)
                .all(|(h, e)| close(h.score, e.score))
        {
            return false;
        }
        let all = self.oracle.search(keywords, usize::MAX);
        hits.iter().all(|h| {
            all.iter()
                .find(|e| e.doc == h.doc)
                .is_some_and(|e| close(e.score, h.score))
        })
    }
}

/// The owner's own context (the default policy grants it everything).
pub fn owner_ctx(owner: &str) -> AccessContext {
    AccessContext::new(owner, Purpose::PersonalUse)
}

/// Keywords for searches: frequent terms, sender and category names,
/// day numbers (rare: a few documents each) and a term no document has.
pub fn keyword(rng: &mut StdRng, days: u64) -> String {
    const WORDS: &[&str] = &[
        "message",
        "blood",
        "test",
        "results",
        "appointment",
        "reminder",
        "monthly",
        "statement",
        "holiday",
        "plans",
        "invoice",
        "family",
        "employer",
        "newsletter",
        "martin",
        "glucose",
        "weight",
        "prescription",
        "vaccination",
        "measurement",
        "zeppelin",
    ];
    if rng.gen_bool(0.25) {
        format!("{}", rng.gen_range(10..days.max(11)))
    } else {
        WORDS[rng.gen_range(0..WORDS.len())].to_string()
    }
}

/// A selection the gateway serves, with the column it constrains.
pub struct Select {
    pub kind: &'static str,
    pub table: &'static str,
    pub col: usize,
    pub pred: Predicate,
}

/// Columns `create_index` is called on at setup.
pub const INDEXED: &[(&str, &str)] = &[(BANK_TABLE, "counterparty"), (BANK_TABLE, "category")];

/// Draw a selection of one of four kinds (`kind % 4`): on an unindexed
/// column of HEALTH or of EMAIL (full scan), on an indexed column with
/// a rare or absent value (BANK.counterparty), or on an indexed column
/// with a common value (BANK.category, about a sixth of the rows).
pub fn select(rng: &mut StdRng, kind: u32) -> Select {
    match kind % 4 {
        0 => Select {
            kind: "unindexed",
            table: HEALTH_TABLE,
            col: 1,
            pred: Predicate::eq(
                "category",
                Value::str(HEALTH_CATEGORIES[rng.gen_range(0..HEALTH_CATEGORIES.len())]),
            ),
        },
        1 => {
            let senders = ["bank", "employer", "dr.martin", "newsletter", "family"];
            Select {
                kind: "unindexed",
                table: EMAIL_TABLE,
                col: 1,
                pred: Predicate::eq(
                    "sender",
                    Value::str(senders[rng.gen_range(0..senders.len())]),
                ),
            }
        }
        2 => {
            // One draw in four asks for a counterparty no row has.
            let shop = rng.gen_range(0..26u32);
            Select {
                kind: "indexed_rare",
                table: BANK_TABLE,
                col: 3,
                pred: Predicate::eq("counterparty", Value::Str(format!("shop-{shop}"))),
            }
        }
        _ => Select {
            kind: "indexed_common",
            table: BANK_TABLE,
            col: 1,
            pred: Predicate::eq(
                "category",
                Value::str(BANK_CATEGORIES[rng.gen_range(0..BANK_CATEGORIES.len())]),
            ),
        },
    }
}
