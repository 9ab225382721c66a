//! The deterministic form of the *O(changed) measurement* claim: once
//! the fabric's reusable scratch has warmed up, a one-aggregate
//! `set_flow_count(±1)` + `peek` that keeps the aggregate's bundle count
//! patches the cached table, evaluation and report in place and
//! allocates **nothing instance-sized** — only the dirty aggregate's
//! route vectors (its buckets, split and bundle). A counting global
//! allocator (test-only, the idiom of `crates/core/tests/zero_alloc.rs`)
//! measures the bytes requested per probe, and the same bound holds on
//! the 961-aggregate HE fabric and on the 4,096-aggregate hypergrowth
//! one: measurement work does not scale with the instance.

use fubar_sdn::Fabric;
use fubar_topology::{generators, Bandwidth, Delay, Topology};
use fubar_traffic::{workload, AggregateId, TrafficMatrix, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Bytes one probe may request from the allocator, on any instance.
/// Observed: 284 on HE-961, 272 on hypergrowth — one alive-bucket list,
/// the split and its remainders, one four-slot bundle vector and one
/// link vector, the last sized by the path's hop count.
const BYTES_PER_PROBE: usize = 512;

/// Sums the bytes of every allocation (and the growth of every
/// reallocation) requested while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most bytes any single churn probe of `rounds` requested, after a
/// warm-up over the same aggregates.
fn peak_probe_bytes(topo: Topology, tm: TrafficMatrix, rounds: usize) -> usize {
    let n = tm.len() as u32;
    let mut fabric = Fabric::new(topo, tm, Delay::from_secs(30.0));
    fabric.peek();
    // A spread of aggregates over the table, each routed (intra-POP
    // pairs carry no links and would flatter the number).
    let victims: Vec<AggregateId> = (0..n)
        .step_by((n / 16) as usize)
        .map(AggregateId)
        .filter(|&id| !fabric.true_tm().aggregate(id).is_intra_pop())
        .collect();
    assert!(victims.len() >= 8, "fixture must offer routed aggregates");
    let mut utility = 0.0;
    let mut churn = |fabric: &mut Fabric, up: bool| -> usize {
        let mut peak = 0;
        for &id in &victims {
            let now = fabric.flow_count(id);
            let before = BYTES.load(Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            fabric.set_flow_count(id, if up { now + 1 } else { now - 1 });
            utility = fabric.peek().report.network_utility;
            ARMED.store(false, Ordering::SeqCst);
            peak = peak.max(BYTES.load(Ordering::SeqCst) - before);
        }
        peak
    };
    // Warm-up: grows every scratch buffer to its steady-state capacity.
    churn(&mut fabric, true);
    churn(&mut fabric, false);
    let mut peak = 0;
    for _ in 0..rounds {
        peak = peak.max(churn(&mut fabric, true));
        peak = peak.max(churn(&mut fabric, false));
    }
    // The probes were real: the cache still equals a full recompute.
    let full = fabric.peek_full();
    assert_eq!(fabric.peek().bitwise_mismatch(&full), None);
    assert!(utility > 0.0);
    peak
}

/// This file holds exactly one test so nothing else can allocate inside
/// the armed windows.
#[test]
fn one_churn_probe_allocates_the_same_small_bound_at_any_scale() {
    let he = generators::he_core(Bandwidth::from_mbps(100.0));
    let he_tm = workload::generate(&he, &WorkloadConfig::default(), 1);
    assert_eq!(he_tm.len(), 961);
    let hg = generators::hypergrowth(8, 8, Bandwidth::from_mbps(60.0));
    let hg_tm = workload::generate(
        &hg,
        &WorkloadConfig {
            flow_count: (2, 6),
            large_flow_count: (2, 4),
            ..WorkloadConfig::default()
        },
        1,
    );
    assert_eq!(hg_tm.len(), 4096);

    let he_peak = peak_probe_bytes(he, he_tm, 3);
    let hg_peak = peak_probe_bytes(hg, hg_tm, 3);
    assert!(
        he_peak <= BYTES_PER_PROBE,
        "HE-961 probe requested {he_peak} bytes (bound {BYTES_PER_PROBE})"
    );
    assert!(
        hg_peak <= BYTES_PER_PROBE,
        "hypergrowth-4096 probe requested {hg_peak} bytes (bound {BYTES_PER_PROBE})"
    );
}
