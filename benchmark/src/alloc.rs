//! Live-heap accounting: a `#[global_allocator]` wrapper around the
//! system allocator that, while switched on, keeps the live byte count
//! and its high-water mark. Peak RSS moved 8-20 % between same-code runs
//! on the shared box (page cache, allocator retention, thread stacks);
//! live bytes repeat exactly at one thread and to a few percent at two.
//!
//! Counting is on for set-up + the warm-up pass only. Timed passes run
//! with it off, so the two relaxed atomics per allocation never sit
//! inside a timed region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters are statistics: they publish no other data, so `Relaxed`
// is enough. A block allocated while counting is off and freed while it
// is on would drive `LIVE` below zero; the subtraction saturates instead.
fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(by))
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates
// atomic counters and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as-is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obeys the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts a counting window from zero live bytes.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Ends the window and returns its peak live bytes.
pub fn stop() -> usize {
    ON.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed)
}

/// The window is process-global and `cargo test` runs tests on parallel
/// threads: every test that opens one holds this lock meanwhile.
#[cfg(test)]
pub static TEST_WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests' allocations still land in an open window, so the
    // assertions leave room for them.
    #[test]
    fn counts_only_while_on_and_tracks_the_peak() {
        let _window = TEST_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        const BIG: usize = 64 << 20;
        let off = vec![1u8; BIG];
        assert!(std::hint::black_box(&off).len() == BIG);
        start();
        let on = vec![1u8; BIG];
        assert!(std::hint::black_box(&on).len() == BIG);
        drop(on);
        // Freed while on although allocated while off: must not wrap.
        drop(off);
        let small = vec![1u8; 1 << 10];
        assert!(std::hint::black_box(&small).len() == 1 << 10);
        let peak = stop();
        assert!(peak >= BIG, "the counted block is in the peak: {peak}");
        assert!(peak < 2 * BIG, "the uncounted block is not: {peak}");
        let again = vec![1u8; BIG];
        assert!(std::hint::black_box(&again).len() == BIG);
        assert_eq!(stop(), peak, "nothing is counted while off");
    }
}
