//! The durable flight recorder — a power-loss-surviving black box.
//!
//! The pds-obs event ring is RAM-only: it dies with the power, exactly
//! when its content matters most. The black box persists structured
//! [`EventFrame`]s (`{tick, severity, subsystem, code, args}` — codes
//! and ids only, never payload bytes) through the same fault-injectable
//! NAND layer as the data it describes. Frames ride ordinary
//! [`LogWriter`](crate::LogWriter) record pages, so they inherit the
//! whole flash contract: strictly sequential programs, per-page CRCs,
//! and a recovery scan that truncates a torn tail to the durable prefix
//! — torn frames are *dropped*, never decoded.
//!
//! Ticks are a per-token monotone sequence stamped at absorb time; the
//! ring is a [`StampedLog`] whose order rule is a strictly increasing
//! tick, so the recovered ring is always a causal prefix of the
//! pre-crash timeline: [`BlackBox::recover`] cuts at the first frame
//! that fails to decode or does not raise the tick, and everything after
//! the cut is discarded with it. The ring is bounded ([`FRAME_CAP`])
//! and wear-aware: when it overflows, the newest half is rewritten into
//! a fresh log whose blocks come from the allocator's normal wear
//! rotation.
//!
//! The recorder sits *outside* the MVCC/changelog machinery on purpose:
//! it must stay appendable while those structures are mid-recovery, and
//! its loss must never imply data loss (see DESIGN.md, "Flight
//! recorder").
//!
//! Counters: `blackbox.frames_written`, `blackbox.frames_dropped`,
//! `blackbox.compactions`, `blackbox.pages_flushed`,
//! `blackbox.frames_recovered`, `blackbox.torn_tails_truncated`.

use pds_obs::flight::{EventFrame, FRAME_BYTES};

use crate::error::Result;
use crate::geometry::BlockId;
use crate::stamped::{FixedRecord, StampedLog, StampedRecovery};
use crate::Flash;

/// Bounded capacity of one token's ring, in frames.
pub const FRAME_CAP: usize = 512;

impl FixedRecord for EventFrame {
    type Wire = [u8; FRAME_BYTES];

    fn encode(&self) -> [u8; FRAME_BYTES] {
        EventFrame::encode(self)
    }

    fn decode(bytes: &[u8]) -> Option<EventFrame> {
        EventFrame::decode(bytes)
    }

    /// Strictly increasing tick: every frame gets its own.
    fn follows(&self, prev: &EventFrame) -> bool {
        self.tick > prev.tick
    }
}

/// A bounded, durably recoverable ring of [`EventFrame`]s with a RAM
/// mirror (28 B per frame) serving timeline reads without page I/O.
pub struct BlackBox {
    log: StampedLog<EventFrame>,
    next_tick: u64,
}

impl BlackBox {
    /// An empty ring; no flash block is held until the first flush.
    pub fn new(flash: &Flash) -> Self {
        BlackBox {
            log: StampedLog::new(flash),
            next_tick: 0,
        }
    }

    /// Frames currently exposed (flushed + buffered), in tick order.
    pub fn frames(&self) -> &[EventFrame] {
        self.log.records()
    }

    /// The erase blocks the ring occupies — its durable identity, to be
    /// carried by the layer above and handed to [`BlackBox::recover`].
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks()
    }

    /// Stamp one staged frame with the next tick and append it. When
    /// the ring overflows [`FRAME_CAP`], the oldest half is compacted
    /// away.
    pub fn record(&mut self, mut frame: EventFrame) -> Result<()> {
        frame.tick = self.next_tick;
        self.log.append(frame)?;
        self.next_tick += 1;
        pds_obs::counter("blackbox.frames_written").inc();
        if self.frames().len() > FRAME_CAP {
            self.compact()?;
        }
        Ok(())
    }

    /// Stamp and append a drained batch (the obs staging buffer), in
    /// order. Returns how many frames were absorbed.
    pub fn absorb(&mut self, frames: impl IntoIterator<Item = EventFrame>) -> Result<u64> {
        let mut n = 0u64;
        for f in frames {
            self.record(f)?;
            n += 1;
        }
        Ok(n)
    }

    /// Durably flush buffered frames to flash.
    pub fn flush(&mut self) -> Result<()> {
        let pages = self.log.flush()?;
        if pages > 0 {
            pds_obs::counter("blackbox.pages_flushed").add(pages);
        }
        Ok(())
    }

    /// Drop the oldest half of the ring (a chatty recorder cannot pin
    /// one block until it dies).
    fn compact(&mut self) -> Result<()> {
        let keep_from = self.frames().len() / 2;
        let pages = self.log.compact_keep_from(keep_from)?;
        pds_obs::counter("blackbox.pages_flushed").add(pages);
        pds_obs::counter("blackbox.compactions").inc();
        pds_obs::counter("blackbox.frames_dropped").add(keep_from as u64);
        Ok(())
    }

    /// Rebuild a ring after a power loss from its block list
    /// ([`StampedLog::recover`]); torn bytes are never decoded into
    /// phantom events, and ticks continue after the recovered prefix.
    pub fn recover(flash: &Flash, blocks: &[BlockId]) -> Result<(BlackBox, StampedRecovery)> {
        let (log, report) = StampedLog::<EventFrame>::recover(flash, blocks)?;
        pds_obs::counter("blackbox.frames_recovered").add(report.records_recovered);
        if report.truncated() {
            pds_obs::counter("blackbox.torn_tails_truncated").inc();
        }
        let next_tick = log.last().map_or(0, |f| f.tick + 1);
        Ok((BlackBox { log, next_tick }, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::flight::{code, subsystem, Severity};

    fn frame(code16: u16, a: u64) -> EventFrame {
        EventFrame::new(Severity::Info, subsystem::CORE, code16, [a, 0])
    }

    #[test]
    fn record_stamps_a_monotone_tick_sequence() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        for k in 0..10u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        assert_eq!(bb.frames().len(), 10);
        let ticks: Vec<u64> = bb.frames().iter().map(|fr| fr.tick).collect();
        assert_eq!(ticks, (0..10).collect::<Vec<_>>());
        assert_eq!(bb.frames().last().map(|fr| fr.tick), Some(9));
    }

    #[test]
    fn recover_returns_the_durable_prefix() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        for k in 0..200u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        bb.flush().unwrap();
        let durable: Vec<EventFrame> = bb.frames().to_vec();
        // Buffered-only frames die with RAM.
        bb.record(frame(code::CORE_COMMIT, 777)).unwrap();
        let blocks = bb.blocks();

        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(report.records_recovered, durable.len() as u64);
        assert_eq!(rec.frames(), &durable[..], "durable prefix verbatim");
        assert!(!report.truncated(), "clean flush: nothing torn");
        assert_eq!(rec.frames().last().map(|fr| fr.tick), Some(199));
    }

    #[test]
    fn recovered_ring_keeps_stamping_after_the_prefix() {
        let f = Flash::small(16);
        let mut bb = BlackBox::new(&f);
        for k in 0..5u64 {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        bb.flush().unwrap();
        let blocks = bb.blocks();
        let f2 = f.reboot();
        let (mut rec, _) = BlackBox::recover(&f2, &blocks).unwrap();
        rec.record(frame(code::CORE_SYNC, 0)).unwrap();
        assert_eq!(
            rec.frames().last().map(|fr| fr.tick),
            Some(5),
            "ticks continue past recovery"
        );
    }

    #[test]
    fn overflow_compacts_to_the_newest_half_and_frees_blocks() {
        let f = Flash::small(64);
        let before = f.free_blocks();
        let mut bb = BlackBox::new(&f);
        // Ten rings' worth: uncompacted, this would fill 20 blocks.
        let n = 10 * FRAME_CAP as u64;
        for k in 0..n {
            bb.record(frame(code::CORE_INGEST, k)).unwrap();
        }
        assert!(bb.frames().len() <= FRAME_CAP, "ring stays bounded");
        // The surviving window is the newest frames, ticks intact.
        let last = bb.frames().last().unwrap();
        assert_eq!(last.tick, n - 1);
        assert_eq!(last.args[0], n - 1);
        let ticks: Vec<u64> = bb.frames().iter().map(|fr| fr.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "monotone survivors");
        // Compaction returned old blocks: the ring occupies a bounded
        // number of blocks no matter how much was recorded through it.
        // A full ring is 512 frames of 30 B = 32 pages of 512 B = 2
        // blocks of 16 pages, plus the partly filled tail block.
        bb.flush().unwrap();
        let pinned = before - f.free_blocks();
        assert!(pinned <= 3, "ring pinned {pinned} blocks");
        assert_eq!(pinned, bb.blocks().len(), "no block leaked");
        // And the compacted ring still recovers verbatim.
        let durable: Vec<EventFrame> = bb.frames().to_vec();
        let blocks = bb.blocks();
        let f2 = f.reboot();
        let (rec, _) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(rec.frames(), &durable[..]);
    }

    #[test]
    fn torn_tail_truncates_and_never_decodes() {
        for cut_after in [1u64, 3, 7, 11] {
            let f = Flash::small(16);
            let mut bb = BlackBox::new(&f);
            // A durable prefix, then a fault plan that cuts the power
            // mid-flush of the next burst.
            for k in 0..40u64 {
                bb.record(frame(code::CORE_INGEST, k)).unwrap();
            }
            bb.flush().unwrap();
            let durable: Vec<EventFrame> = bb.frames().to_vec();
            f.inject_faults(crate::FaultPlan::new(0xB0 + cut_after).power_loss_after(cut_after));
            let mut burst = 40u64;
            let crashed = loop {
                if burst == 4000 {
                    break false;
                }
                let r = bb
                    .record(frame(code::CORE_INGEST, burst))
                    .and_then(|()| bb.flush());
                match r {
                    Ok(()) => burst += 1,
                    Err(_) => break true,
                }
            };
            assert!(crashed, "cut_after {cut_after}: cut never fired");
            let blocks = bb.blocks();
            let f2 = f.reboot();
            let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
            assert_eq!(report.records_recovered, rec.frames().len() as u64);
            // The recovered timeline is a causal prefix: at least the
            // durable prefix, never a frame that was not recorded.
            assert!(rec.frames().len() >= durable.len(), "prefix lost");
            assert_eq!(
                &rec.frames()[..durable.len()],
                &durable[..],
                "cut_after {cut_after}: durable prefix rewritten"
            );
            let ticks: Vec<u64> = rec.frames().iter().map(|fr| fr.tick).collect();
            assert!(ticks.windows(2).all(|w| w[0] < w[1]), "non-monotone tail");
            for fr in rec.frames() {
                assert!(fr.args[0] < burst, "phantom frame {fr:?}");
            }
        }
    }

    #[test]
    fn a_non_monotone_frame_cuts_the_ring_there() {
        // Hand-craft a log whose tail breaks tick monotonicity: the
        // recovered ring must stop at the break, dropping everything
        // after it (a causal prefix, not a best-effort salvage).
        let f = Flash::small(16);
        let mut log = f.new_log();
        for tick in [1u64, 2, 3, 9, 4, 10] {
            let mut fr = frame(code::CORE_INGEST, tick);
            fr.tick = tick;
            log.append(&fr.encode()).unwrap();
        }
        log.flush().unwrap();
        let blocks = log.blocks().to_vec();
        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(rec.frames().len(), 4, "1,2,3,9 kept; 4 cuts; 10 dropped");
        assert_eq!(report.malformed_dropped, 1);
        assert!(report.truncated());
        assert_eq!(rec.frames().last().map(|fr| fr.tick), Some(9));
    }

    #[test]
    fn junk_records_cut_the_ring() {
        let f = Flash::small(16);
        let mut log = f.new_log();
        log.append(&frame(code::CORE_INGEST, 0).encode()).unwrap();
        log.append(b"not a frame").unwrap();
        log.append(&frame(code::CORE_INGEST, 2).encode()).unwrap();
        log.flush().unwrap();
        let blocks = log.blocks().to_vec();
        let f2 = f.reboot();
        let (rec, report) = BlackBox::recover(&f2, &blocks).unwrap();
        assert_eq!(rec.frames().len(), 1);
        assert_eq!(report.malformed_dropped, 1);
    }
}
