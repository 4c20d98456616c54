//! # lsvd-nbd — a network block-device serving plane for LSVD
//!
//! The paper's client (§3.1) lives inside a virtualization host and talks
//! to the guest through a block driver. This crate is the equivalent
//! attachment point for everything else: a zero-dependency NBD server
//! over `std::net` that exports any LSVD volume to the kernel's
//! `nbd-client`, `qemu-nbd`, or the minimal in-tree [`client`].
//!
//! - [`server`] — [`serve`] / [`serve_fleet`]: a poll-based reactor
//!   thread multiplexing every connection (fixed-newstyle handshake,
//!   `NBD_OPT_GO` / `NBD_OPT_LIST` negotiation routed through an
//!   [`lsvd::fleet::ExportRegistry`]). The reactor runs read hits and
//!   writes that stay in the cache log to completion itself; FLUSH, TRIM,
//!   FUA writes and writes that need the backend go to a shared pool of
//!   4 + 1 workers, with per-export ordered-mutation lanes,
//!   deficit-round-robin fairness and per-connection in-flight windows.
//!   A read miss leaves after its local phase: one of a capped pool of
//!   fetch threads waits for its GETs. Whichever thread finishes a
//!   request writes its reply to the socket;
//! - [`client`] — a one-request-at-a-time client for tests, benches and
//!   `lsvdctl nbd-roundtrip`, plus pipelining helpers;
//! - [`proto`] — pure frame codecs, property-tested in
//!   `tests/properties.rs`.
//!
//! Serving-plane latency splits (socket-wait / queue-wait / service) and
//! per-tenant counters surface through `Volume::telemetry()` via
//! [`telemetry::ServingRecorders`].

pub mod client;
pub mod proto;
mod reactor;
mod sched;
pub mod server;

pub use client::Client;
pub use server::{serve, serve_fleet, ServerConfig, ServerHandle, MAX_IO_BYTES};
