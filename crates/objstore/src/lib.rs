//! S3-like object storage for the LSVD workspace.
//!
//! As with [`blkdev`], two planes are provided:
//!
//! - **Functional stores** hold real object bytes behind the
//!   [`ObjectStore`] trait: [`MemStore`] (RAM), [`DirStore`] (one file per
//!   object in a host directory), and [`ChaosStore`] (a fault-injecting
//!   wrapper used by the crash-recovery tests to create "stranded object"
//!   states).
//! - **Simulated backends** ([`pool::BackendPool`], [`link::LinkModel`])
//!   model *when* operations complete on a Ceph-like storage cluster —
//!   triple-replicated mutable objects for the RBD baseline, 4+2
//!   erasure-coded immutable objects for LSVD's RGW backend — and account
//!   per-disk operations, bytes and busy time for the paper's Figures
//!   12–14.

pub mod cache;
pub mod chaos;
pub mod cut;
pub mod dir;
pub mod latency;
pub mod link;
pub mod mem;
pub mod metrics;
pub mod pool;
pub mod retry;

pub use cache::CachingStore;
pub use chaos::{ChaosSchedule, ChaosStore, OutageWindow};
pub use cut::{CutHandle, CutStore};
pub use dir::DirStore;
pub use latency::LatencyStore;
pub use mem::MemStore;
pub use metrics::{MetricsHandle, MetricsStore};
pub use retry::{retry_transient, RetryCounters, RetryHandle, RetryPolicy, RetryStore};

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

/// Whether a failure is worth retrying.
///
/// The taxonomy drives every retry decision in the stack: [`RetryStore`]
/// only re-issues operations whose error [`is_transient`](ObjError::is_transient),
/// and the volume's degraded-mode writeback queues batches only behind
/// transient PUT failures — a permanent failure aborts immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The operation may succeed if retried (timeout, throttle, flaky link).
    Transient,
    /// Retrying cannot help (missing object, corrupt payload, bad request).
    Permanent,
}

/// Errors returned by object stores.
#[derive(Debug)]
pub enum ObjError {
    /// The named object does not exist.
    NotFound(String),
    /// A range read extended past the end of the object.
    BadRange {
        /// Object name.
        name: String,
        /// Requested byte offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual object size.
        size: u64,
    },
    /// An underlying I/O error (directory-backed stores only).
    Io(std::io::Error),
    /// The operation did not complete in time (transient).
    Timeout(String),
    /// The backend rejected the operation under load (transient).
    Throttled(String),
    /// The connection dropped mid-operation (transient).
    ConnReset(String),
    /// The returned payload failed an integrity check (permanent: the
    /// stored bytes themselves are damaged, retrying reads them again).
    PayloadCorrupt {
        /// Object name.
        name: String,
        /// What check failed.
        detail: String,
    },
    /// A fault injected by [`ChaosStore`], carrying the class the
    /// injector intended.
    Injected {
        /// Whether the injected fault models a retryable failure.
        class: FaultClass,
        /// Which fault was injected.
        what: &'static str,
    },
}

impl ObjError {
    /// Whether a retry of the failed operation could plausibly succeed.
    ///
    /// Timeouts, throttling and connection resets are transient; missing
    /// objects, bad ranges and detected payload corruption are permanent.
    /// Raw I/O errors are classified by [`std::io::ErrorKind`]. Injected
    /// faults carry their class explicitly.
    pub fn is_transient(&self) -> bool {
        use std::io::ErrorKind;
        match self {
            ObjError::Timeout(_) | ObjError::Throttled(_) | ObjError::ConnReset(_) => true,
            ObjError::NotFound(_) | ObjError::BadRange { .. } | ObjError::PayloadCorrupt { .. } => {
                false
            }
            ObjError::Io(e) => matches!(
                e.kind(),
                ErrorKind::TimedOut
                    | ErrorKind::Interrupted
                    | ErrorKind::WouldBlock
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe
                    | ErrorKind::UnexpectedEof
            ),
            ObjError::Injected { class, .. } => *class == FaultClass::Transient,
        }
    }

    /// The error's [`FaultClass`].
    pub fn class(&self) -> FaultClass {
        if self.is_transient() {
            FaultClass::Transient
        } else {
            FaultClass::Permanent
        }
    }
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::NotFound(name) => write!(f, "object not found: {name}"),
            ObjError::BadRange {
                name,
                offset,
                len,
                size,
            } => write!(
                f,
                "range [{offset}, {offset}+{len}) out of bounds for {name} (size {size})"
            ),
            ObjError::Io(e) => write!(f, "I/O error: {e}"),
            ObjError::Timeout(what) => write!(f, "timed out: {what}"),
            ObjError::Throttled(what) => write!(f, "throttled: {what}"),
            ObjError::ConnReset(what) => write!(f, "connection reset: {what}"),
            ObjError::PayloadCorrupt { name, detail } => {
                write!(f, "corrupt payload for {name}: {detail}")
            }
            ObjError::Injected { class, what } => {
                write!(f, "injected {class:?} fault: {what}")
            }
        }
    }
}

impl std::error::Error for ObjError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObjError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObjError {
    fn from(e: std::io::Error) -> Self {
        ObjError::Io(e)
    }
}

/// Result alias for object store operations.
pub type Result<T> = std::result::Result<T, ObjError>;

/// An S3-like object store: immutable whole-object PUT, ranged GET,
/// DELETE and prefix LIST.
///
/// Objects are write-once: LSVD never mutates a stored object, so `put`
/// over an existing name simply replaces it atomically (needed only for
/// checkpoint rewrites).
pub trait ObjectStore: Send + Sync {
    /// Stores `data` under `name`, atomically replacing any existing object.
    fn put(&self, name: &str, data: Bytes) -> Result<()>;

    /// Retrieves the whole object.
    fn get(&self, name: &str) -> Result<Bytes>;

    /// Retrieves `len` bytes starting at `offset`.
    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes>;

    /// Returns the object's size in bytes, or [`ObjError::NotFound`].
    fn head(&self, name: &str) -> Result<u64>;

    /// Deletes the object; deleting a missing object succeeds (S3 semantics).
    fn delete(&self, name: &str) -> Result<()>;

    /// Lists object names with the given prefix, in lexicographic order.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Whether the object exists.
    fn exists(&self, name: &str) -> Result<bool> {
        match self.head(name) {
            Ok(_) => Ok(true),
            Err(ObjError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

impl<T: ObjectStore + ?Sized> ObjectStore for Arc<T> {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        (**self).put(name, data)
    }
    fn get(&self, name: &str) -> Result<Bytes> {
        (**self).get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        (**self).get_range(name, offset, len)
    }
    fn head(&self, name: &str) -> Result<u64> {
        (**self).head(name)
    }
    fn delete(&self, name: &str) -> Result<()> {
        (**self).delete(name)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        (**self).list(prefix)
    }
    fn exists(&self, name: &str) -> Result<bool> {
        (**self).exists(name)
    }
}

/// Checks that `[offset, offset + len)` lies inside an object of `size`
/// bytes.
pub(crate) fn check_range(name: &str, offset: u64, len: u64, size: u64) -> Result<()> {
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(ObjError::BadRange {
            name: name.to_string(),
            offset,
            len,
            size,
        });
    }
    Ok(())
}

pub(crate) fn slice_range(name: &str, data: &Bytes, offset: u64, len: u64) -> Result<Bytes> {
    check_range(name, offset, len, data.len() as u64)?;
    Ok(data.slice(offset as usize..(offset + len) as usize))
}
