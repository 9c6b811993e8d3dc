//! Allocation counts pinned exactly, the way `golden.rs` pins digests.
//!
//! A counting global allocator (this file is its own test binary, so it
//! counts nothing any other test does) wraps the system allocator, and
//! the pinned `hotpath --quick` recipe — 192 nodes, 4 subscriptions a
//! node, 600 events — runs in two phases:
//!
//! * install: `WorkloadGen::install`, then `run_to_quiescence`;
//! * publish: `WorkloadGen::schedule`, then `run_to_quiescence`.
//!
//! Each phase's calls to `alloc` (and `alloc_zeroed`) and to `realloc`
//! are counted on the running thread only. A run is seeded and
//! single-threaded, so the counts are as exact as the digest, which the
//! test checks too: a change that moves a count moved allocation, and
//! its commit states old → new. A debug and a release build count the
//! same (rustc 1.95); a toolchain upgrade can move the counts, and its
//! commit says so.

use hypersub_core::model::Registry;
use hypersub_core::sim::Network;
use hypersub_simnet::SimTime;
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocs, reallocs)` made by this thread. Constant-initialised and
    /// without a destructor, so reading it never allocates.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn bump(allocs: u64, reallocs: u64) {
    let _ = COUNTS.try_with(|c| {
        let (a, r) = c.get();
        c.set((a + allocs, r + reallocs));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(0, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocs, reallocs)` made by this thread while `f` ran.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, r0) = COUNTS.with(Cell::get);
    f();
    let (a1, r1) = COUNTS.with(Cell::get);
    (a1 - a0, r1 - r0)
}

/// `hotpath`'s seed, generator seed and `--quick` shape.
const SEED: u64 = 0xbe9c_2007;
const QUICK: (usize, usize, usize) = (192, 4, 600);
const QUICK_DIGEST: u64 = 0x420a_6a1e_f640_8bbe;

/// `[install, publish]`, each `(allocs, reallocs)`.
const PINNED: [(u64, u64); 2] = [(19_933, 4_121), (22_811, 599)];

#[test]
fn hotpath_quick_allocates_exactly_the_pinned_counts() {
    let (nodes, subs_per_node, events) = QUICK;
    let spec = WorkloadSpec::paper_table1();
    let mut net = Network::builder(nodes)
        .registry(Registry::new(vec![spec.scheme_def(0)]))
        .king_like(SimTime::from_millis(180))
        .seed(SEED)
        .build()
        .expect("valid pinned configuration");
    let mut gen = WorkloadGen::new(spec, SEED ^ 0xabcd);
    let install = counted(|| {
        gen.install(&mut net, subs_per_node);
        net.run_to_quiescence();
    });
    let publish = counted(|| {
        gen.schedule(&mut net, events);
        net.run_to_quiescence();
    });
    assert_eq!(net.run_digest(), QUICK_DIGEST, "not the pinned run");
    eprintln!("install {install:?}, publish {publish:?}");
    assert_eq!(
        [install, publish],
        PINNED,
        "[install, publish] (allocs, reallocs)"
    );
}
