//! # LSVD — Log-Structured Virtual Disk
//!
//! A Rust implementation of the system described in *"Beating the I/O
//! Bottleneck: A Case for Log-Structured Virtual Disks"* (Hajkazemi,
//! Aschenbrenner, et al., EuroSys '22).
//!
//! LSVD provides the abstraction of a virtual disk on top of an S3-like
//! object store, running entirely at the client:
//!
//! - incoming writes are persisted to a **log-structured write-back cache**
//!   on a local SSD ([`wlog`]), which makes small random writes sequential
//!   and turns commit barriers into a single device flush, shared by every
//!   flush waiting on it ([`commit`]);
//! - acknowledged writes are batched and shipped to the backend as a
//!   **log-structured stream of immutable objects** ([`batch`], [`objfmt`]),
//!   whose names encode their order, preserving end-to-end write ordering;
//! - in-memory **extent maps** ([`extent_map`], [`objmap`]) locate live data
//!   for reads, checkpointed periodically and recoverable from log headers
//!   ([`checkpoint`], [`recovery`]);
//! - **garbage collection** ([`gc`]) reclaims space from overwritten data
//!   using greedy selection, with snapshot-aware deferred deletes;
//! - **snapshots and clones** ([`volume`]) fall naturally out of the
//!   immutable object stream;
//! - **asynchronous replication** ([`replication`]) lazily copies the object
//!   stream to a second store;
//! - a **host cache manager** ([`host`]) partitions one local cache SSD
//!   among many volumes (the §3.1 deployment model).
//!
//! Because both the cache and the backend are order-preserving logs, LSVD is
//! *prefix consistent* even if the entire local cache is lost: the recovered
//! disk reflects all committed writes up to some point in time and nothing
//! after it (§2.2 of the paper). [`verify`] provides a checker for exactly
//! this property, used by the crash tests.
//!
//! The [`volume::Volume`] type is the functional entry point (real bytes,
//! real recovery); [`engine`] drives the same data-path logic under
//! simulated time to regenerate the paper's performance results.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use blkdev::RamDisk;
//! use lsvd::config::VolumeConfig;
//! use lsvd::volume::Volume;
//! use objstore::MemStore;
//!
//! let store = Arc::new(MemStore::new());
//! let cache = Arc::new(RamDisk::new(64 << 20));
//! let cfg = VolumeConfig::small_for_tests();
//! let mut vol = Volume::create(store, cache, "vol", 1 << 30, cfg).unwrap();
//!
//! vol.write(4096, &[7u8; 4096]).unwrap();   // acked at cache-log speed
//! vol.flush().unwrap();                     // commit barrier: one flush
//! let mut buf = [0u8; 4096];
//! vol.read(4096, &mut buf).unwrap();
//! assert_eq!(buf, [7u8; 4096]);
//! ```

pub mod batch;
pub mod checkpoint;
pub mod codec;
pub mod commit;
pub mod config;
pub mod crc;
pub mod engine;
pub mod extent_map;
pub mod fleet;
pub mod gc;
pub mod gcsim;
pub mod host;
pub mod objfmt;
pub mod objmap;
pub mod rcache;
pub mod read_plane;
pub mod recovery;
pub mod replication;
pub mod shared;
pub mod types;
pub mod verify;
pub mod volume;
pub mod wlog;
pub mod writeback;

pub use types::{LsvdError, Result};

// Telemetry vocabulary re-exported so volume users can consume
// `Volume::telemetry()`, the span ring (`Volume::span_ring()`) and the
// edge hook (`Volume::set_edge_hook`) without naming the `telemetry`
// crate themselves.
pub use telemetry::{Span, Stage, TelemetrySnapshot};
