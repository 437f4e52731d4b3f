//! A counting global allocator (precedent: `crates/bench/src/bin/kernels.rs`),
//! split by thread role so master-side and swarm-side allocations per step
//! can be told apart and read at window boundaries from the master thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which counter a thread's allocations land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The stepping thread (master, or the simulator's only thread).
    Stepper = 0,
    /// The worker-swarm thread.
    Swarm = 1,
}

/// One counter per role, each on its own cache line so the two threads never
/// contend on the increment.
#[repr(align(64))]
struct Padded(AtomicU64);

static COUNTS: [Padded; 2] = [Padded(AtomicU64::new(0)), Padded(AtomicU64::new(0))];

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator can neither allocate nor run after thread teardown.
    static ROLE: Cell<usize> = const { Cell::new(Role::Stepper as usize) };
}

/// Routes this thread's future allocations to `role`'s counter.
pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role as usize));
}

/// Allocations counted so far under `role`.
pub fn count(role: Role) -> u64 {
    // Relaxed: a statistic that publishes no other data.
    COUNTS[role as usize].0.load(Ordering::Relaxed)
}

/// Delegates to [`System`], counting `alloc`/`realloc` calls.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed atomic
// increment selected by a const-initialised, destructor-free thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS[ROLE.with(Cell::get)]
            .0
            .fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTS[ROLE.with(Cell::get)]
            .0
            .fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTS[ROLE.with(Cell::get)]
            .0
            .fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
