//! Deterministic I/O fault injection (the storage-layer extension of the
//! executor's `FailPoint`; DESIGN.md §13).
//!
//! The corruption test harness drives the disk path through every failure
//! mode a real device exhibits — a read that errors, a read that comes up
//! short, a page whose bytes rotted since they were written, a crash in
//! the middle of a build — and asserts typed-error-or-correct-answer,
//! never a panic. All injection points are counted deterministically
//! (Nth call, 1-based), so failures reproduce without any timing games.

/// Injected storage faults. `Default` injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoFailPoint {
    /// Fail the Nth `BufferManager::pin` with an injected I/O error.
    pub fail_pin_at: Option<u64>,
    /// Make the Nth page read from disk come up short (simulates a
    /// truncated file appearing mid-query).
    pub short_read_at: Option<u64>,
    /// Flip the low bit of byte `offset` of page `page` every time that
    /// page is read from disk (simulates media corruption; caught by the
    /// page checksum).
    pub flip_byte: Option<(u32, u32)>,
    /// Fail the Nth file write during a store build (simulates a crash /
    /// `kill -9` mid-build; the atomic-build protocol must then leave no
    /// store file behind).
    pub fail_write_at: Option<u64>,
    /// Fail the data-file fsync at the end of a build.
    pub fail_sync: bool,
    /// Fail the temp→final rename at the end of a build.
    pub fail_rename: bool,
}

impl IoFailPoint {
    /// No injected faults.
    pub fn none() -> IoFailPoint {
        IoFailPoint::default()
    }

    /// The injected error used for all counted fault points.
    pub fn injected_error() -> std::io::Error {
        std::io::Error::other("injected I/O fault")
    }
}

/// Injected incremental-repair faults (the update-path sibling of
/// [`IoFailPoint`]). `Default` injects nothing.
///
/// A triggered abort leaves the store's index in an undefined state —
/// deliberately: the `WriteBatch` layer applies every update to a private
/// copy and discards the whole copy on any error, so the published
/// document is untouched. The counter is 1-based and deterministic, like
/// every other fault point in this codebase. It starts when the failpoint
/// is armed (`ArenaStore::set_repair_failpoint`), so repairs from a
/// store's earlier history, or replayed while a write batch brings a
/// retained snapshot forward, never count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairFailPoint {
    /// Abort the Nth incremental index repair attempted after arming.
    pub fail_repair_at: Option<u64>,
}

impl RepairFailPoint {
    /// No injected faults.
    pub fn none() -> RepairFailPoint {
        RepairFailPoint::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let fp = IoFailPoint::none();
        assert_eq!(fp.fail_pin_at, None);
        assert_eq!(fp.fail_write_at, None);
        assert!(!fp.fail_sync && !fp.fail_rename);
        assert_eq!(RepairFailPoint::none().fail_repair_at, None);
    }
}
