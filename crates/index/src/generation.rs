//! Generation-swapped snapshots: `Arc` double-buffering for live updates.
//!
//! The frozen indexes ([`FrozenRStarTree`](crate::FrozenRStarTree),
//! [`CellOracle`](crate::CellOracle)) are immutable by design — that is
//! what makes them fast and shareable across worker threads without
//! locks. A long-running service, however, must absorb road edits, new
//! POIs and landuse revisions while annotating. This module supplies the
//! missing piece: a **generation handle** that lets a background rebuild
//! freeze generation `N+1` while readers keep annotating against
//! generation `N`, then swap the two atomically.
//!
//! The protocol:
//!
//! 1. Mutations accumulate in a side log owned by the layer above (see
//!    `LiveSeMiTri` in `semitri-core`); readers never see them directly.
//! 2. A rebuild materializes a complete new snapshot — frozen trees *and*
//!    the per-generation oracle arenas — off to the side.
//! 3. [`GenerationHandle::publish`] swaps the new snapshot in behind a
//!    short write lock. Readers that already [pinned](GenerationHandle::pin)
//!    generation `N` keep their `Arc` and finish on it; every later pin
//!    observes `N+1`.
//! 4. The handle remembers the *retired* generation (at most one), so at
//!    any instant at most two generations are reachable through it:
//!    memory stays bounded at two live worlds plus whatever in-flight
//!    readers still pin.
//!
//! The lock is held only for the pointer swap — never during a rebuild and
//! never while annotating — so publishing does not pause annotation.

use std::sync::{Arc, Mutex, RwLock};

/// Monotonic identifier of one published snapshot generation. Generation 0
/// is the snapshot the handle was created with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenerationId(pub u64);

impl std::fmt::Display for GenerationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// One immutable snapshot world, tagged with the generation it belongs to.
/// Readers hold these through `Arc<Generation<S>>`; the snapshot is
/// dropped when the last pin releases it.
#[derive(Debug)]
pub struct Generation<S> {
    id: GenerationId,
    snapshot: S,
}

impl<S> Generation<S> {
    /// The generation tag.
    #[inline]
    pub fn id(&self) -> GenerationId {
        self.id
    }

    /// The snapshot payload.
    #[inline]
    pub fn snapshot(&self) -> &S {
        &self.snapshot
    }
}

/// Double-buffered handle to the current snapshot generation.
///
/// `pin()` is the only read-side operation and costs one `RwLock` read
/// acquisition plus an `Arc` clone; annotation then proceeds entirely on
/// the pinned generation with zero further synchronization. `publish()`
/// installs a new generation and retires the previous one.
#[derive(Debug)]
pub struct GenerationHandle<S> {
    current: RwLock<Arc<Generation<S>>>,
    /// The previously-current generation. Keeping exactly one retired
    /// generation alive here bounds handle-reachable memory at two worlds
    /// while guaranteeing that a reader pinned just before a swap still
    /// shares its world with the handle (useful for diagnostics/tests);
    /// older generations die as soon as their last external pin drops.
    retired: Mutex<Option<Arc<Generation<S>>>>,
}

impl<S> GenerationHandle<S> {
    /// Wraps an initial snapshot as generation 0.
    pub fn new(snapshot: S) -> Self {
        Self {
            current: RwLock::new(Arc::new(Generation {
                id: GenerationId(0),
                snapshot,
            })),
            retired: Mutex::new(None),
        }
    }

    /// Pins the current generation: the returned `Arc` keeps that whole
    /// snapshot world alive for as long as the caller holds it, regardless
    /// of how many publishes happen in the meantime. Pin once per
    /// trajectory (or per streaming episode), not per index probe.
    pub fn pin(&self) -> Arc<Generation<S>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The id of the current generation (one lock read; for metrics and
    /// health endpoints).
    pub fn current_id(&self) -> GenerationId {
        self.current.read().unwrap_or_else(|e| e.into_inner()).id
    }

    /// The id of the retired generation, when one exists.
    pub fn retired_id(&self) -> Option<GenerationId> {
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|g| g.id)
    }

    /// Publishes `snapshot` as the next generation and returns its id.
    /// The write lock is held only for the pointer swap; in-flight readers
    /// pinned to the previous generation are unaffected. The previous
    /// generation moves to the retired slot (displacing the one before
    /// it), so at most two generations stay reachable via the handle.
    pub fn publish(&self, snapshot: S) -> GenerationId {
        let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
        let id = GenerationId(current.id.0 + 1);
        let old = std::mem::replace(&mut *current, Arc::new(Generation { id, snapshot }));
        drop(current);
        *self.retired.lock().unwrap_or_else(|e| e.into_inner()) = Some(old);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_survive_publishes_and_memory_stays_bounded() {
        let handle = GenerationHandle::new("gen0");
        assert_eq!(handle.current_id(), GenerationId(0));
        assert_eq!(handle.retired_id(), None);

        let pin0 = handle.pin();
        assert_eq!(pin0.id(), GenerationId(0));
        assert_eq!(*pin0.snapshot(), "gen0");

        assert_eq!(handle.publish("gen1"), GenerationId(1));
        // the old pin still reads its world; new pins see the new one
        assert_eq!(*pin0.snapshot(), "gen0");
        let pin1 = handle.pin();
        assert_eq!(pin1.id(), GenerationId(1));
        assert_eq!(handle.retired_id(), Some(GenerationId(0)));

        assert_eq!(handle.publish("gen2"), GenerationId(2));
        // generation 0 is no longer reachable via the handle — only the
        // external pin keeps it alive now
        assert_eq!(handle.retired_id(), Some(GenerationId(1)));
        assert_eq!(handle.current_id(), GenerationId(2));
        assert_eq!(*pin0.snapshot(), "gen0");
        assert_eq!(*pin1.snapshot(), "gen1");
    }

    #[test]
    fn publish_under_concurrent_pinning_is_race_free() {
        let handle = std::sync::Arc::new(GenerationHandle::new(0usize));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&handle);
                let s = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0usize;
                    while !s.load(std::sync::atomic::Ordering::Relaxed) {
                        let pin = h.pin();
                        let seen = *pin.snapshot();
                        // generations only move forward
                        assert!(seen >= last, "generation went backwards");
                        assert_eq!(seen as u64, pin.id().0, "snapshot/id desync");
                        last = seen;
                    }
                })
            })
            .collect();
        for g in 1..=100usize {
            assert_eq!(handle.publish(g), GenerationId(g as u64));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(handle.current_id(), GenerationId(100));
    }
}
