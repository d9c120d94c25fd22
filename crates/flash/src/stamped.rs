//! The stamped log — one append-only, durably recoverable log of
//! fixed-width records with a RAM mirror.
//!
//! Two structures of a personal data server are this shape: the MVCC
//! change log ([`crate::ChangeLog`], records stamped with the commit's
//! HLC) and the flight recorder ([`crate::BlackBox`], frames stamped
//! with a per-token tick). Both ride ordinary [`LogWriter`] record
//! pages, so they inherit the whole flash contract: strictly sequential
//! programs, per-page CRCs, and a recovery scan that truncates a torn
//! tail to the durable prefix.
//!
//! The record type states its own order rule ([`FixedRecord::follows`]);
//! [`StampedLog::append`] refuses a record that breaks it, and
//! [`StampedLog::recover`] cuts the log at the first record that fails
//! to decode or breaks it. The exposed log is therefore always a causal
//! prefix of what was appended, and the mirror is sorted by stamp, so a
//! "records since" read is a binary search without page I/O.
//!
//! Compaction is a whole-log rewrite (partial GC never occurs on this
//! flash): the kept suffix goes to a fresh log, which is flushed before
//! the old blocks return to the pool — compaction never narrows the
//! durable history.

use crate::error::{FlashError, Result};
use crate::geometry::BlockId;
use crate::log::LogWriter;
use crate::Flash;

/// A record with a fixed wire form and an order rule.
pub trait FixedRecord: Copy {
    /// Wire bytes of one record.
    type Wire: AsRef<[u8]>;

    /// Fixed wire form.
    fn encode(&self) -> Self::Wire;

    /// Parse the wire form; `None` on anything that is not exactly one
    /// well-formed record (a torn record is dropped, never half-decoded).
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// True when `self` may be appended right after `prev`.
    fn follows(&self, prev: &Self) -> bool;
}

/// What a [`StampedLog::recover`] scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StampedRecovery {
    /// Records recovered into the rebuilt log.
    pub records_recovered: u64,
    /// Torn pages discarded at the CRC truncation point.
    pub torn_pages_discarded: u64,
    /// 1 when a record failed to decode or broke the order rule and cut
    /// the log there (everything after it is dropped too).
    pub malformed_dropped: u64,
}

impl StampedRecovery {
    /// True when the scan truncated anything — the signature of a crash
    /// mid-append, as opposed to a clean shutdown.
    pub fn truncated(&self) -> bool {
        self.torn_pages_discarded > 0 || self.malformed_dropped > 0
    }
}

/// An appendable, durably recoverable log of `R` records with a RAM
/// mirror of every exposed record, in stamp order.
pub struct StampedLog<R> {
    flash: Flash,
    log: LogWriter,
    records: Vec<R>,
}

impl<R: FixedRecord> StampedLog<R> {
    /// An empty log; no flash block is held until the first flush.
    pub fn new(flash: &Flash) -> Self {
        StampedLog {
            flash: flash.clone(),
            log: flash.new_log(),
            records: Vec::new(),
        }
    }

    /// Every exposed record (flushed + buffered), in stamp order.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// The newest record, if any.
    pub fn last(&self) -> Option<&R> {
        self.records.last()
    }

    /// The erase blocks the log occupies — its durable identity, to be
    /// carried by the layer above and handed to [`StampedLog::recover`].
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks().to_vec()
    }

    /// The records after the leading run that `covered` accepts — a
    /// binary search, so `covered` must hold on a prefix of the log
    /// (any stamp comparison does).
    pub fn since(&self, covered: impl FnMut(&R) -> bool) -> &[R] {
        &self.records[self.records.partition_point(covered)..]
    }

    /// Append one record. A record that does not follow the newest one
    /// is refused with [`FlashError::OutOfOrderChange`].
    pub fn append(&mut self, rec: R) -> Result<()> {
        if self.last().is_some_and(|last| !rec.follows(last)) {
            return Err(FlashError::OutOfOrderChange);
        }
        self.log.append(rec.encode().as_ref())?;
        self.records.push(rec);
        Ok(())
    }

    /// Durably flush buffered records to flash; returns the pages
    /// programmed.
    pub fn flush(&mut self) -> Result<u64> {
        let before = self.log.num_pages();
        self.log.flush()?;
        Ok(u64::from(self.log.num_pages() - before))
    }

    /// Drop the suffix of records starting at the first one `keep`
    /// rejects; returns how many were dropped. The flash pages still
    /// hold the dropped bytes until the next compaction rewrites them
    /// away.
    pub fn retain_prefix(&mut self, keep: impl Fn(&R) -> bool) -> u64 {
        let cut = self
            .records
            .iter()
            .position(|r| !keep(r))
            .unwrap_or(self.records.len());
        let dropped = (self.records.len() - cut) as u64;
        self.records.truncate(cut);
        dropped
    }

    /// Drop the records before index `keep_from` by rewriting the rest
    /// into a fresh log, flushing it, and only then returning the old
    /// blocks to the pool (the fresh blocks come from the allocator's
    /// wear rotation). Returns the pages the rewrite programmed.
    pub fn compact_keep_from(&mut self, keep_from: usize) -> Result<u64> {
        let mut fresh = self.flash.new_log();
        for rec in &self.records[keep_from..] {
            fresh.append(rec.encode().as_ref())?;
        }
        fresh.flush()?;
        let pages = u64::from(fresh.num_pages());
        let old = std::mem::replace(&mut self.log, fresh);
        old.discard();
        self.records.drain(..keep_from);
        Ok(pages)
    }

    /// Rebuild a log after a power loss from its block list. The page
    /// scan is [`LogWriter::recover`] (CRC-checked, torn tail
    /// truncated); on top of it, the first record that fails to decode
    /// or does not follow its predecessor cuts the log there.
    pub fn recover(flash: &Flash, blocks: &[BlockId]) -> Result<(Self, StampedRecovery)> {
        let (log, rep) = LogWriter::recover(flash, blocks)?;
        let mut records: Vec<R> = Vec::new();
        let mut malformed = 0u64;
        'pages: for page in 0..log.num_pages() {
            for bytes in log.read_page_records(page)? {
                match R::decode(&bytes) {
                    Some(rec) if records.last().is_none_or(|last| rec.follows(last)) => {
                        records.push(rec)
                    }
                    _ => {
                        malformed = 1;
                        break 'pages;
                    }
                }
            }
        }
        let report = StampedRecovery {
            records_recovered: records.len() as u64,
            torn_pages_discarded: rep.torn_pages_discarded,
            malformed_dropped: malformed,
        };
        Ok((
            StampedLog {
                flash: flash.clone(),
                log,
                records,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlackBox, ChangeLog, ChangeRec, FaultPlan};
    use pds_obs::flight::{code, subsystem, EventFrame, Severity};

    /// The two record types under test, built from a stamp (`k` tells
    /// apart records sharing one) and recovered through their wrapper.
    trait Case: FixedRecord + PartialEq + std::fmt::Debug {
        fn at(stamp: u64, k: u32) -> Self;
        fn recover(flash: &Flash, blocks: &[BlockId]) -> (Vec<Self>, StampedRecovery);
    }

    impl Case for ChangeRec {
        fn at(stamp: u64, k: u32) -> Self {
            ChangeRec {
                hlc: stamp,
                node: 7,
                kind: 1,
                store: 0,
                entity: k,
            }
        }
        fn recover(flash: &Flash, blocks: &[BlockId]) -> (Vec<Self>, StampedRecovery) {
            let (log, report) = ChangeLog::recover(flash, blocks).unwrap();
            (log.records().to_vec(), report)
        }
    }

    impl Case for EventFrame {
        fn at(stamp: u64, k: u32) -> Self {
            let mut f = EventFrame::new(
                Severity::Info,
                subsystem::CORE,
                code::CORE_INGEST,
                [u64::from(k), 0],
            );
            f.tick = stamp;
            f
        }
        fn recover(flash: &Flash, blocks: &[BlockId]) -> (Vec<Self>, StampedRecovery) {
            let (bb, report) = BlackBox::recover(flash, blocks).unwrap();
            (bb.frames().to_vec(), report)
        }
    }

    /// A hand-written log (`None` = a junk record) and how many leading
    /// records each type's recovery keeps: change records allow an equal
    /// stamp (one commit), frames need a strictly higher tick.
    const WRITTEN: &[(&str, &[Option<u64>], usize, usize)] = &[
        ("in order", &[Some(1), Some(2), Some(3)], 3, 3),
        ("junk record", &[Some(1), None, Some(2)], 1, 1),
        ("junk first", &[None, Some(1)], 0, 0),
        (
            "decreasing stamp",
            &[Some(1), Some(2), Some(3), Some(9), Some(4), Some(10)],
            4,
            4,
        ),
        ("equal stamp", &[Some(1), Some(2), Some(2), Some(3)], 4, 2),
    ];

    fn check_written<R: Case>(name: &str, written: &[Option<u64>], kept: usize) {
        let f = Flash::small(16);
        let mut log = f.new_log();
        let mut expect = Vec::new();
        for (k, w) in written.iter().enumerate() {
            match w {
                Some(stamp) => {
                    let rec = R::at(*stamp, k as u32);
                    log.append(rec.encode().as_ref()).unwrap();
                    expect.push(rec);
                }
                None => {
                    log.append(b"not a record").unwrap();
                }
            }
        }
        log.flush().unwrap();
        // Append refuses exactly the record recovery cuts at.
        if written.iter().all(Option::is_some) {
            let mut fresh = StampedLog::<R>::new(&f);
            let refused = expect.iter().position(|&rec| match fresh.append(rec) {
                Ok(()) => false,
                Err(e) => {
                    assert_eq!(e, FlashError::OutOfOrderChange, "{name}");
                    true
                }
            });
            assert_eq!(refused.unwrap_or(expect.len()), kept, "{name}");
        }
        let (got, report) = R::recover(&f.reboot(), log.blocks());
        assert_eq!(got, expect[..kept], "{name}");
        assert_eq!(report.records_recovered, kept as u64, "{name}");
        let cut = kept < written.len();
        assert_eq!(report.malformed_dropped, u64::from(cut), "{name}");
        assert_eq!(report.truncated(), cut, "{name}");
    }

    /// Power dies mid-flush after a durable prefix of 40 records; returns
    /// the torn pages the recovery discarded.
    fn check_torn_tail<R: Case>(seed: u64) -> u64 {
        let cut_after = seed % 8;
        let f = Flash::small(16);
        let mut log = StampedLog::<R>::new(&f);
        for stamp in 0..40 {
            log.append(R::at(stamp, 0)).unwrap();
        }
        log.flush().unwrap();
        f.inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
        // Bursts of 16 records fill most of a page, so a torn program
        // leaves bytes the page CRC rejects.
        'bursts: for burst in 0..250 {
            for stamp in 40 + 16 * burst..56 + 16 * burst {
                if log.append(R::at(stamp, 0)).is_err() {
                    break 'bursts;
                }
            }
            if log.flush().is_err() {
                break;
            }
        }
        assert!(!f.is_powered(), "cut_after {cut_after}: cut never fired");
        let (got, report) = R::recover(&f.reboot(), &log.blocks());
        // A prefix of what was appended: at least the durable part, and
        // never a record decoded out of torn bytes.
        assert!(got.len() >= 40, "cut_after {cut_after}: prefix lost");
        assert_eq!(got, log.records()[..got.len()], "cut_after {cut_after}");
        assert_eq!(report.records_recovered, got.len() as u64);
        report.torn_pages_discarded
    }

    #[test]
    fn recovery_keeps_a_prefix_and_cuts_at_the_first_bad_record() {
        for &(name, written, changes, frames) in WRITTEN {
            check_written::<ChangeRec>(name, written, changes);
            check_written::<EventFrame>(name, written, frames);
        }
        let mut torn = 0;
        for seed in 0..16 {
            torn += check_torn_tail::<ChangeRec>(seed);
            torn += check_torn_tail::<EventFrame>(seed);
        }
        assert!(torn > 0, "no power cut tore a page");
    }
}
