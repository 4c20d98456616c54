//! Crash-cut store view: freeze backend state at the instant a client dies.
//!
//! When a volume crashes, requests it had not yet issued never reach the
//! backend — but a store shared with writeback worker threads keeps
//! accepting their PUTs for as long as the threads run. [`CutStore`]
//! models the network cut: after [`CutHandle::sever`], mutations (`put`,
//! `delete`) are silently swallowed — the request "left a dead client"
//! and never arrived — while reads keep working so post-crash recovery
//! can inspect the frozen state. [`CutHandle::revive`] reconnects the
//! store for the recovery phase.
//!
//! A mutation that already entered the inner store before the sever lands
//! whole (an in-flight PUT on the wire completes or not — it is never
//! torn); one that arrives after the sever vanishes entirely. The
//! crash-state model checker severs the cut from its edge hook, so
//! the backend freezes at the exact event where the simulated crash
//! happened.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::{ObjectStore, Result};

/// A store wrapper whose mutations can be cut off atomically; see the
/// module docs.
pub struct CutStore<S> {
    inner: S,
    severed: Arc<AtomicBool>,
}

/// Clonable controller for a [`CutStore`], usable from any thread (the
/// model checker severs from inside an edge hook).
#[derive(Clone)]
pub struct CutHandle {
    severed: Arc<AtomicBool>,
}

impl CutHandle {
    /// Cuts the store off: subsequent mutations are swallowed.
    pub fn sever(&self) {
        self.severed.store(true, Ordering::SeqCst);
    }

    /// Reconnects the store (recovery phase).
    pub fn revive(&self) {
        self.severed.store(false, Ordering::SeqCst);
    }

    /// Whether the store is currently cut off.
    pub fn is_severed(&self) -> bool {
        self.severed.load(Ordering::SeqCst)
    }
}

impl<S: ObjectStore> CutStore<S> {
    /// Wraps `inner`; starts connected.
    pub fn new(inner: S) -> Self {
        CutStore {
            inner,
            severed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Returns a controller for severing/reviving this store.
    pub fn handle(&self) -> CutHandle {
        CutHandle {
            severed: self.severed.clone(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ObjectStore> ObjectStore for CutStore<S> {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        if self.severed.load(Ordering::SeqCst) {
            // The client died before this request hit the wire: report
            // success to whatever thread is still running (it is about to
            // be torn down anyway) without touching the frozen state.
            return Ok(());
        }
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        self.inner.get(name)
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.inner.get_range(name, offset, len)
    }

    fn head(&self, name: &str) -> Result<u64> {
        self.inner.head(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        if self.severed.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.inner.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn sever_swallows_mutations_and_revive_restores_them() {
        let store = CutStore::new(MemStore::new());
        let cut = store.handle();
        store.put("a", Bytes::from_static(b"one")).unwrap();

        cut.sever();
        assert!(cut.is_severed());
        store.put("b", Bytes::from_static(b"two")).unwrap();
        store.delete("a").unwrap();
        // Frozen: "a" survives, "b" never arrived; reads pass through.
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"one"));
        assert!(!store.exists("b").unwrap());
        assert_eq!(store.list("").unwrap(), vec!["a".to_string()]);

        cut.revive();
        assert!(!cut.is_severed());
        store.put("b", Bytes::from_static(b"two")).unwrap();
        store.delete("a").unwrap();
        assert!(!store.exists("a").unwrap());
        assert_eq!(store.get("b").unwrap(), Bytes::from_static(b"two"));
    }

    #[test]
    fn handle_severs_across_threads() {
        let store = std::sync::Arc::new(CutStore::new(MemStore::new()));
        let cut = store.handle();
        let s2 = store.clone();
        std::thread::spawn(move || cut.sever()).join().unwrap();
        s2.put("x", Bytes::from_static(b"late")).unwrap();
        assert!(!s2.exists("x").unwrap(), "post-sever PUT swallowed");
    }
}
