//! Error type shared by the flash substrate.

use crate::geometry::{BlockId, PageAddr};
use std::fmt;

/// Result alias for flash operations.
pub type Result<T> = std::result::Result<T, FlashError>;

/// Everything that can go wrong when driving the NAND chip.
///
/// The simulator is strict on purpose: the tutorial's whole point is that
/// embedded data structures must be *legal by construction* on NAND, so any
/// violation is surfaced as a hard error rather than silently emulated by a
/// flash-translation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Page address beyond the chip capacity.
    BadAddress(PageAddr),
    /// Block id beyond the chip capacity.
    BadBlock(BlockId),
    /// Attempt to program a page that is not in the erased state
    /// (in-place update — illegal on NAND).
    WriteToProgrammed(PageAddr),
    /// Attempt to program pages of a block out of sequential order.
    /// Real NAND chips require (or strongly recommend) in-order
    /// programming within an erase block.
    OutOfOrderProgram {
        /// The page that was requested.
        requested: PageAddr,
        /// The next page the block would accept.
        expected: PageAddr,
    },
    /// Data length does not match the page size.
    BadPageSize { given: usize, expected: usize },
    /// The block allocator has no free block left.
    OutOfBlocks,
    /// A record larger than the per-page payload capacity was appended.
    RecordTooLarge { len: usize, max: usize },
    /// A log reader met a corrupt page layout (bad slot count / lengths).
    CorruptPage(PageAddr),
    /// A log reader met a fully-erased page (all 0xFF, never programmed).
    /// Distinct from corruption: during a recovery scan an erased page
    /// marks the clean tail of the log, while a corrupt one marks a torn
    /// write to discard.
    ErasedPage(PageAddr),
    /// Record address pointing outside the log or at a missing slot.
    BadRecordAddr,
    /// Power was lost mid-operation (injected by a [`crate::FaultPlan`]).
    /// The chip is offline: every subsequent primitive fails with this
    /// error until the host "reboots" via [`crate::Flash::reboot`].
    PowerLoss,
    /// The block's erase no longer completes (worn out / stuck cells).
    /// The allocator retires such blocks from the pool.
    StuckBlock(BlockId),
    /// A record was appended to a stamped log out of its order rule
    /// (e.g. a change record with an HLC stamp below the log's newest
    /// stamp). A stamped log is a causal history: it must be monotone by
    /// construction, so a non-monotone append is a caller bug surfaced
    /// as a typed error, never silently reordered.
    OutOfOrderChange,
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::BadAddress(a) => write!(f, "page address {} out of range", a.0),
            FlashError::BadBlock(b) => write!(f, "block id {} out of range", b.0),
            FlashError::WriteToProgrammed(a) => {
                write!(f, "illegal in-place update of programmed page {}", a.0)
            }
            FlashError::OutOfOrderProgram {
                requested,
                expected,
            } => write!(
                f,
                "out-of-order program: requested page {}, block expects {}",
                requested.0, expected.0
            ),
            FlashError::BadPageSize { given, expected } => {
                write!(f, "bad page buffer size {given}, expected {expected}")
            }
            FlashError::OutOfBlocks => write!(f, "flash exhausted: no free erase block"),
            FlashError::RecordTooLarge { len, max } => {
                write!(
                    f,
                    "record of {len} bytes exceeds page payload capacity {max}"
                )
            }
            FlashError::CorruptPage(a) => write!(f, "corrupt page layout at {}", a.0),
            FlashError::ErasedPage(a) => write!(f, "page {} is erased (log tail)", a.0),
            FlashError::BadRecordAddr => write!(f, "record address outside log"),
            FlashError::PowerLoss => write!(f, "power lost: chip offline until reboot"),
            FlashError::StuckBlock(b) => write!(f, "block {} is stuck (erase failed)", b.0),
            FlashError::OutOfOrderChange => {
                write!(f, "out-of-order record appended to a stamped log")
            }
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FlashError::OutOfOrderProgram {
            requested: PageAddr(9),
            expected: PageAddr(8),
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('8'));
        assert!(FlashError::OutOfBlocks.to_string().contains("exhausted"));
    }
}
