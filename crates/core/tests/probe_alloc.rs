//! The allocation test of a step's fan-out: once the scoring scratches
//! have warmed up, a step whose alternatives all stand — every kept
//! search passes its record's check, so none runs again — performs
//! **zero heap allocations** between a worker's claim of its scratch
//! and its last result, at one worker and at two, both when nothing
//! changed and when a link no kept search read has flipped in its avoid
//! set (so every record is walked against the flip). The answers are the
//! kept paths, the avoid sets are recomputed into worker scratch, the
//! moves and their scores go to the worker's scratch, and each result
//! goes straight into a slot made before the workers start. A counting
//! global allocator that counts only on threads inside that window
//! enforces it on the paper's 961-aggregate HE instance (thread spawns
//! and joins lie outside it). Debug builds also re-run every kept
//! search to check it, in the same scratch, so the check counts too.
#![cfg(feature = "test-support")]

use fubar_core::optimizer::test_support::{FanOut, ProbeHarness};
use fubar_graph::LinkId;
use fubar_topology::{generators, Bandwidth};
use fubar_traffic::{workload, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations (and growth reallocations) made by a thread
/// inside its window.
struct CountingAlloc;

thread_local! {
    static IN_WINDOW: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn count() {
    if IN_WINDOW.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

fn window(open: bool) {
    IN_WINDOW.with(|w| w.set(open));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A fan-out in the counting window: asserts that every kept search
/// stood and that nothing was allocated.
fn assert_stands_without_allocating(
    harness: &mut ProbeHarness<'_>,
    threads: usize,
    first: FanOut,
    case: &str,
) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let again = harness.fan_out(threads, window);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(again.generated, 0, "threads={threads}, {case}: {again:?}");
    assert_eq!(again.searches, 0, "threads={threads}, {case}: {again:?}");
    assert_eq!((again.probes, again.moves), (first.probes, first.moves));
    assert_eq!(
        allocations, 0,
        "threads={threads}, {case}: a fan-out whose alternatives all stand allocated \
         {allocations} times over {} probes and {} moves",
        again.probes, again.moves
    );
}

#[test]
fn a_step_whose_alternatives_all_stand_allocates_nothing() {
    let topo = generators::he_core(Bandwidth::from_mbps(75.0));
    let tm = workload::generate(&topo, &WorkloadConfig::default(), 1);
    let boot = |threads| {
        let mut harness = ProbeHarness::new(&topo, &tm, threads);
        // The first fan-out finds nothing kept: every probe searches.
        let first = harness.fan_out(threads, |_| {});
        assert!(
            first.probes >= 4,
            "instance must offer real work: {first:?}"
        );
        assert_eq!(first.generated, first.probes, "{first:?}");
        assert!(first.searches >= first.probes, "{first:?}");
        harness.warm_up();
        (harness, first)
    };
    for threads in [1, 2] {
        // Nothing changed: every record passes its first check.
        let (mut harness, first) = boot(threads);
        assert_stands_without_allocating(&mut harness, threads, first, "unchanged");

        // One link flipped in the global avoid set, read by no kept
        // search: every record is walked against the flip, and stands.
        // The first such link is found by trial, each on a fresh harness.
        let flipped = (0..topo.link_count() as u32).find_map(|link| {
            let (mut harness, first) = boot(threads);
            harness.flip(LinkId(link));
            (harness.warm_up() == 0).then_some((harness, first, link))
        });
        let (mut harness, first, link) = flipped.expect("some link is read by no kept search");
        let case = format!("link {link} flipped");
        assert_stands_without_allocating(&mut harness, threads, first, &case);
    }
}
