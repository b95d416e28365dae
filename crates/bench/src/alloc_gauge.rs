//! Optional allocation gauges for the benchmark harness.
//!
//! With the `alloc-gauge` feature enabled, this module installs a
//! counting [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper around the
//! system allocator: every allocation bumps a global counter and a
//! live-bytes gauge whose high-water mark survives until the next
//! [`reset`]. The `experiments profile` subcommand stamps the resulting
//! [`Snapshot`] into the manifest's `alloc_count` / `alloc_bytes_peak`
//! gauges.
//!
//! Without the feature the same API exists but stays inert — [`enabled`]
//! returns `false`, [`snapshot`] returns zeros, and the binary keeps the
//! plain system allocator (two atomic ops per malloc/free are not free;
//! the wall-clock benches must not pay them).

/// What the gauges read at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations observed since the last [`reset`].
    pub count: u64,
    /// High-water mark of live heap bytes since the last [`reset`].
    pub bytes_peak: u64,
}

#[cfg(feature = "alloc-gauge")]
mod imp {
    use super::Snapshot;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNT: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    /// System allocator with allocation-count and peak-live gauges.
    pub struct CountingAlloc;

    fn charge(size: usize) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                charge(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
                charge(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static GAUGED: CountingAlloc = CountingAlloc;

    pub fn enabled() -> bool {
        true
    }

    pub fn reset() {
        COUNT.store(0, Ordering::Relaxed);
        // Live bytes are a property of the heap, not of the window:
        // restart the peak from the current footprint.
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn snapshot() -> Snapshot {
        Snapshot {
            count: COUNT.load(Ordering::Relaxed),
            bytes_peak: PEAK.load(Ordering::Relaxed),
        }
    }
}

#[cfg(not(feature = "alloc-gauge"))]
mod imp {
    use super::Snapshot;

    pub fn enabled() -> bool {
        false
    }

    pub fn reset() {}

    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }
}

/// Whether the counting allocator is installed (the `alloc-gauge`
/// feature).
pub fn enabled() -> bool {
    imp::enabled()
}

/// Zeroes the allocation counter and restarts the peak from the current
/// live footprint.
pub fn reset() {
    imp::reset()
}

/// Reads the gauges. All-zero when the feature is off.
pub fn snapshot() -> Snapshot {
    imp::snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_observe_allocations_when_enabled() {
        reset();
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let after = snapshot();
        drop(v);
        if enabled() {
            assert!(after.count > before.count, "allocation not counted");
            assert!(
                after.bytes_peak >= before.bytes_peak.max(1 << 16),
                "peak missed a 64 KiB allocation: {after:?}"
            );
        } else {
            assert_eq!(after, Snapshot::default());
        }
    }
}
