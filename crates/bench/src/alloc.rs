//! Thread-local allocation counter, installable as the global allocator.
//!
//! `runall` (and the `allocs` micro-binary) install [`CountingAlloc`] so
//! that every work unit can report *allocations per simulation event*
//! next to events/sec — the metric the allocation-free request path is
//! judged on. Counting is per thread: each runner worker snapshots
//! [`thread_allocs`] around its unit, so units never see each other's
//! allocations even when run in parallel.
//!
//! It also counts the bytes those calls request ([`thread_alloc_bytes`]):
//! a calls-only count cannot tell a one-word box from a 200 KB hash
//! table, which is what the `allocs` binary's fork-cost lines need.
//!
//! Binaries that do not install the allocator still link this module;
//! [`thread_allocs`] then never advances and reported alloc counts are
//! zero (the report writer marks them as unmeasured).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation calls and the bytes they requested, on one thread.
struct Counts {
    calls: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static COUNTS: Counts = const {
        Counts {
            calls: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
}

/// A [`System`] wrapper that counts allocation *calls* (alloc, realloc
/// and alloc_zeroed; frees are not counted) and the bytes they request
/// (a realloc counts its whole new size) on the calling thread.
pub struct CountingAlloc;

#[inline]
fn bump(bytes: usize) {
    // `try_with` instead of `with`: the allocator can be re-entered
    // during TLS teardown, where touching the key would abort.
    let _ = COUNTS.try_with(|c| {
        c.calls.set(c.calls.get() + 1);
        c.bytes.set(c.bytes.get() + bytes as u64);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocation calls made by the current thread since it started (0 if
/// [`CountingAlloc`] is not the process's global allocator).
pub fn thread_allocs() -> u64 {
    COUNTS.try_with(|c| c.calls.get()).unwrap_or(0)
}

/// Bytes requested by the current thread's allocation calls since it
/// started (0 if [`CountingAlloc`] is not the process's global
/// allocator).
pub fn thread_alloc_bytes() -> u64 {
    COUNTS.try_with(|c| c.bytes.get()).unwrap_or(0)
}

/// Whether alloc counting is live in this process (i.e. the counter has
/// ever advanced on this thread). Used to distinguish "zero allocations"
/// from "allocator not installed" in reports.
pub fn counting_installed() -> bool {
    // A single probe allocation: if the counter moves, CountingAlloc is
    // the global allocator.
    let before = thread_allocs();
    let v: Vec<u8> = Vec::with_capacity(1);
    std::hint::black_box(&v);
    thread_allocs() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_allocs_is_monotonic() {
        let a = thread_allocs();
        let v = vec![0u8; 64];
        std::hint::black_box(&v);
        let b = thread_allocs();
        assert!(b >= a);
    }
}
