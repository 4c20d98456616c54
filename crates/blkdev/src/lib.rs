//! Block device abstractions for the LSVD workspace.
//!
//! Two planes are provided, matching the repository's overall design:
//!
//! - **Functional devices** ([`BlockDevice`], [`RamDisk`], [`FileDisk`])
//!   hold real bytes. The LSVD write-back cache and the crash-consistency
//!   experiments run against these; [`CrashDisk`] also keeps the image a
//!   power cut would leave, holding only flushed writes.
//! - **Simulated devices** ([`model::DiskModel`]) hold no data at all; they
//!   compute *when* an I/O would complete on a device with a given
//!   performance profile, and account busy time and byte counters the way
//!   `/proc/diskstats` does. The performance-plane engines use these to
//!   regenerate the paper's throughput and utilization figures.

pub mod crash;
pub mod file;
pub mod mem;
pub mod model;

pub use crash::CrashDisk;
pub use file::FileDisk;
pub use mem::RamDisk;
pub use model::{DiskModel, DiskProfile, IoKind};

use std::fmt;
use std::sync::Arc;

/// Errors returned by functional block devices.
#[derive(Debug)]
pub enum BlkError {
    /// An access extended past the end of the device.
    OutOfRange {
        /// Requested byte offset.
        offset: u64,
        /// Requested length in bytes.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// An underlying I/O error (file-backed devices only).
    Io(std::io::Error),
}

impl fmt::Display for BlkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlkError::OutOfRange {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of range (capacity {capacity})"
            ),
            BlkError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for BlkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlkError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BlkError {
    fn from(e: std::io::Error) -> Self {
        BlkError::Io(e)
    }
}

/// Result alias for block device operations.
pub type Result<T> = std::result::Result<T, BlkError>;

/// A byte-addressable block device holding real data.
///
/// Methods take `&self`; implementations provide interior synchronization so
/// a device can be shared between the cache writer and the writeback path,
/// as the LSVD prototype shares its cache SSD between kernel and userspace.
pub trait BlockDevice: Send + Sync {
    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Reads `buf.len()` bytes starting at byte `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `data` starting at byte `offset`.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;

    /// Commit barrier: all previously acknowledged writes are durable when
    /// this returns.
    fn flush(&self) -> Result<()>;
}

impl<T: BlockDevice + ?Sized> BlockDevice for Arc<T> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        (**self).write_at(offset, data)
    }
    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
}

pub(crate) fn check_range(offset: u64, len: usize, capacity: u64) -> Result<()> {
    let len = len as u64;
    if offset.checked_add(len).is_none_or(|end| end > capacity) {
        return Err(BlkError::OutOfRange {
            offset,
            len,
            capacity,
        });
    }
    Ok(())
}
