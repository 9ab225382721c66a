//! Property-based tests for the progressive-filling engine.
//!
//! Invariants checked on random topologies and random bundle sets:
//! capacity conservation, demand capping, status consistency,
//! monotonicity of total carried load in capacity, the in-place
//! patcher (`Incumbent::replace`) against the full recompute through
//! chains of random k-segment splices, and the candidate utility delta
//! (`score_network_utility_delta`) against the report of the spliced
//! table.

use fubar_graph::{LinkId, LinkSet, NodeId};
use fubar_model::{
    border_load_bound, score_network_utility_delta, utility_report, BundleDelta, BundleSpec,
    DeltaScore, FlowModel, Incumbent, PatchScratch, ReportScratch, Workspace,
};
use fubar_topology::{generators, Bandwidth, Delay, Topology};
use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
use fubar_utility::TrafficClass;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomWorkload {
    topo_seed: u64,
    nodes: usize,
    /// (src, dst, flows, demand_kbps) — indices mod node count.
    entries: Vec<(usize, usize, u32, f64)>,
    capacity_kbps: f64,
}

fn workload() -> impl Strategy<Value = RandomWorkload> {
    (
        any::<u64>(),
        4usize..12,
        proptest::collection::vec((0usize..12, 0usize..12, 1u32..30, 1.0f64..500.0), 1..40),
        100.0f64..5_000.0,
    )
        .prop_map(
            |(topo_seed, nodes, entries, capacity_kbps)| RandomWorkload {
                topo_seed,
                nodes,
                entries,
                capacity_kbps,
            },
        )
}

fn build(w: &RandomWorkload, capacity: Bandwidth) -> (Topology, Vec<BundleSpec>) {
    let topo = generators::waxman(w.nodes, 0.7, 0.4, capacity, w.topo_seed);
    let mut bundles = Vec::new();
    for (i, &(s, d, flows, demand)) in w.entries.iter().enumerate() {
        let src = NodeId((s % w.nodes) as u32);
        let dst = NodeId((d % w.nodes) as u32);
        let path = topo
            .graph()
            .shortest_path(src, dst, &LinkSet::new())
            .expect("waxman graphs are connected");
        bundles.push(BundleSpec {
            aggregate: AggregateId(i as u32),
            flow_count: flows,
            links: path.links().to_vec(),
            path_delay: Delay::from_secs(path.cost()),
            per_flow_demand: Bandwidth::from_kbps(demand),
        });
    }
    (topo, bundles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No link ever carries more than its capacity, and no bundle gets
    /// more than its demand.
    #[test]
    fn conservation(w in workload()) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let (topo, bundles) = build(&w, cap);
        let out = FlowModel::with_defaults(&topo).evaluate(&bundles);
        for l in topo.links() {
            prop_assert!(
                out.link_load[l.index()].bps() <= topo.capacity(l).bps() * (1.0 + 1e-9) + 1e-3,
                "link {} carries {} of {}",
                topo.link_label(l), out.link_load[l.index()], topo.capacity(l)
            );
        }
        for (i, b) in bundles.iter().enumerate() {
            prop_assert!(out.bundle_rates[i].bps() <= b.demand().bps() * (1.0 + 1e-9) + 1e-3);
            prop_assert!(out.bundle_rates[i].bps() >= 0.0);
        }
    }

    /// Status is consistent: satisfied bundles sit at their demand;
    /// congested bundles are strictly below and their bottleneck is
    /// saturated (fully loaded).
    #[test]
    fn status_consistency(w in workload()) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let (topo, bundles) = build(&w, cap);
        let out = FlowModel::with_defaults(&topo).evaluate(&bundles);
        for (i, b) in bundles.iter().enumerate() {
            match out.bundle_status[i] {
                fubar_model::BundleStatus::Satisfied => {
                    prop_assert!((out.bundle_rates[i].bps() - b.demand().bps()).abs() < 1.0);
                }
                fubar_model::BundleStatus::Congested(l) => {
                    prop_assert!(out.bundle_rates[i].bps() < b.demand().bps());
                    prop_assert!(b.links.contains(&l), "bottleneck must be on the path");
                    let load = out.link_load[l.index()].bps();
                    let capl = topo.capacity(l).bps();
                    prop_assert!(
                        load >= capl * (1.0 - 1e-6),
                        "bottleneck {} only {:.1}% full",
                        topo.link_label(l), 100.0 * load / capl
                    );
                }
            }
        }
    }

    /// The congestion report agrees with bundle statuses.
    #[test]
    fn congestion_report_consistency(w in workload()) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let (topo, bundles) = build(&w, cap);
        let out = FlowModel::with_defaults(&topo).evaluate(&bundles);
        let any_congested_bundle = out.bundle_status.iter().any(|s| s.is_congested());
        prop_assert_eq!(out.is_congested(), any_congested_bundle);
        for &l in &out.congested {
            // Every congested link starved someone.
            let starved = bundles.iter().zip(&out.bundle_status).any(|(b, s)| {
                matches!(s, fubar_model::BundleStatus::Congested(_)) && b.links.contains(&l)
            });
            prop_assert!(starved, "congested link {} starved nobody", topo.link_label(l));
        }
        // Sorted by descending oversubscription.
        for pair in out.congested.windows(2) {
            prop_assert!(
                out.oversubscription(pair[0]) >= out.oversubscription(pair[1]) - 1e-12
            );
        }
    }

    /// Scaling every capacity up never reduces any bundle's rate in a
    /// single-bottleneck-free comparison of totals: total carried load is
    /// monotone in uniform capacity scaling.
    #[test]
    fn total_load_monotone_in_capacity(w in workload(), scale in 1.1f64..4.0) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let (topo, bundles) = build(&w, cap);
        let out_small = FlowModel::with_defaults(&topo).evaluate(&bundles);

        let mut topo_big = topo.clone();
        topo_big.set_uniform_capacity(cap * scale);
        let out_big = FlowModel::with_defaults(&topo_big).evaluate(&bundles);

        let total_small: f64 = out_small.bundle_rates.iter().map(|r| r.bps()).sum();
        let total_big: f64 = out_big.bundle_rates.iter().map(|r| r.bps()).sum();
        prop_assert!(
            total_big >= total_small * (1.0 - 1e-9),
            "more capacity lowered total carried load: {total_small} -> {total_big}"
        );
        // And congestion can only shrink (as a count of starved bundles).
        prop_assert!(out_big.congested_bundle_count() <= out_small.congested_bundle_count());
    }

    /// Determinism: evaluating twice yields identical results.
    #[test]
    fn deterministic(w in workload()) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let (topo, bundles) = build(&w, cap);
        let m = FlowModel::with_defaults(&topo);
        let a = m.evaluate(&bundles);
        let b = m.evaluate(&bundles);
        prop_assert_eq!(a.bundle_rates, b.bundle_rates);
        prop_assert_eq!(a.congested, b.congested);
    }

    /// The parallel fill is bitwise identical to the serial one at
    /// every worker count — the `parallel ≡ serial` invariant on random
    /// topologies and bundle sets, not just curated fixtures.
    #[test]
    fn parallel_fill_is_bitwise_serial_at_any_worker_count(w in workload()) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let (topo, bundles) = build(&w, cap);
        let m = FlowModel::with_defaults(&topo);
        let serial = m.evaluate_traced(&bundles);
        let serial_bits: Vec<u64> =
            serial.outcome.bundle_rates.iter().map(|r| r.bps().to_bits()).collect();
        let max_workers = std::thread::available_parallelism().map_or(8, |n| n.get().max(2));
        for workers in [1usize, 2, 4, max_workers] {
            let mut pw = fubar_model::ParallelWorkspace::new(workers);
            let par = m.evaluate_traced_parallel(&bundles, &mut pw);
            let par_bits: Vec<u64> =
                par.outcome.bundle_rates.iter().map(|r| r.bps().to_bits()).collect();
            prop_assert_eq!(&par_bits, &serial_bits, "workers={}", workers);
            prop_assert_eq!(&par.outcome.congested, &serial.outcome.congested);
            prop_assert_eq!(&par.outcome.link_load, &serial.outcome.link_load);
            prop_assert_eq!(&par.outcome.bundle_status, &serial.outcome.bundle_status);
        }
    }

    /// The in-place patcher against the full recompute, on the shapes
    /// that shift indices: a random table (each aggregate owning a
    /// contiguous segment of 0–3 bundles) takes 20 chained k-segment
    /// splices (k ∈ 1..=4; a segment is emptied, inserted into an empty
    /// one, grown, shrunk, re-pathed at the same length, or re-counted
    /// on the same links), some with a capacity change riding along.
    /// After every step the patched table is the materialized one, the
    /// renumbered spans are the ones rebuilt from the segments, the
    /// patched evaluation equals `evaluate_traced` of the table bit for
    /// bit — freeze keys, crossing rows and the saturation mask
    /// included — and the patched utility report equals a rebuilt one,
    /// while a clone taken before the patch (sharing the fold tree)
    /// keeps its old values.
    #[test]
    fn in_place_patch_matches_full_recompute_through_chained_splices(
        w in workload(),
        seed in any::<u64>(),
    ) {
        let cap = Bandwidth::from_kbps(w.capacity_kbps);
        let mut topo = generators::waxman(w.nodes, 0.7, 0.4, cap, w.topo_seed);
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };

        // One aggregate per workload entry (padded so that segments lie
        // on both sides of most splices).
        let classes = [
            TrafficClass::RealTime,
            TrafficClass::BulkTransfer,
            TrafficClass::LargeFile { peak_mbps: 1.0 },
        ];
        let aggregates: Vec<Aggregate> = (0..w.entries.len().max(12))
            .map(|i| {
                let (s, d, flows, _) = w.entries[i % w.entries.len()];
                Aggregate::new(
                    AggregateId(i as u32),
                    NodeId(((s + i) % w.nodes) as u32),
                    NodeId(((d + 2 * i) % w.nodes) as u32),
                    classes[i % 3],
                    flows,
                )
            })
            .collect();
        let mut tm = TrafficMatrix::new(aggregates);
        let n = tm.len();

        // A random segment for one aggregate: `len` bundles on paths that
        // avoid a random link each (so same-length segments can differ
        // in links), or the old segment re-counted on the same links.
        let segment = |topo: &Topology, a: &Aggregate, len: usize, r: &mut dyn FnMut() -> u64| {
            let mut out: Vec<BundleSpec> = Vec::new();
            for _ in 0..len {
                let mut avoid = LinkSet::new();
                avoid.insert(LinkId((r() % topo.link_count() as u64) as u32));
                let path = topo
                    .graph()
                    .shortest_path(a.ingress, a.egress, &avoid)
                    .or_else(|| topo.graph().shortest_path(a.ingress, a.egress, &LinkSet::new()))
                    .expect("waxman graphs are connected");
                out.push(BundleSpec::new(a, &path, 1 + (r() % 9) as u32));
            }
            out
        };
        let mut segments: Vec<Vec<BundleSpec>> = Vec::new();
        for i in 0..n {
            let len = (next() % 4) as usize;
            let seg = segment(&topo, tm.aggregate(AggregateId(i as u32)), len, &mut next);
            segments.push(seg);
        }
        let flows_of = |seg: &[BundleSpec]| seg.iter().map(|b| b.flow_count).sum::<u32>();
        for (i, seg) in segments.iter().enumerate() {
            tm.set_flow_count(AggregateId(i as u32), flows_of(seg));
        }
        let spans_of = |segments: &[Vec<BundleSpec>]| {
            let mut at = 0u32;
            segments
                .iter()
                .map(|s| {
                    at += s.len() as u32;
                    (at - s.len() as u32, s.len() as u32)
                })
                .collect::<Vec<_>>()
        };

        let mut incumbent = Incumbent::measure(
            &FlowModel::with_defaults(&topo),
            &tm,
            segments.concat(),
            spans_of(&segments),
        );
        let mut scratch = PatchScratch::default();

        for step in 0..20 {
            // k distinct aggregates, ascending.
            let k = 1 + (next() % 4) as usize;
            let mut picked: Vec<usize> = (0..k).map(|_| (next() % n as u64) as usize).collect();
            picked.sort_unstable();
            picked.dedup();
            let mut changes: Vec<(AggregateId, Vec<BundleSpec>)> = Vec::new();
            for &i in &picked {
                let a = tm.aggregate(AggregateId(i as u32)).clone();
                let old_len = segments[i].len();
                let new = match next() % 6 {
                    0 => Vec::new(),                                            // emptied
                    1 => segment(&topo, &a, old_len + 1, &mut next),            // longer (or pure insert)
                    2 => segment(&topo, &a, old_len.saturating_sub(1), &mut next), // shorter
                    3 => segment(&topo, &a, old_len, &mut next),                // same length, new links
                    4 => segment(&topo, &a, 1 + (next() % 3) as usize, &mut next),
                    _ => {
                        // Same length, same links, different counts.
                        let mut seg = segments[i].clone();
                        for b in &mut seg {
                            b.flow_count = 1 + (next() % 9) as u32;
                        }
                        seg
                    }
                };
                tm.set_flow_count(AggregateId(i as u32), flows_of(&new));
                changes.push((AggregateId(i as u32), new.clone()));
                segments[i] = new;
            }
            // Every other step a capacity change rides along.
            let mut touched: Vec<LinkId> = Vec::new();
            if step % 2 == 1 {
                let l = LinkId((next() % topo.link_count() as u64) as u32);
                let factor = 0.4 + (next() % 120) as f64 / 100.0;
                topo.set_capacity(l, cap * factor);
                touched.push(l);
            }

            let before = incumbent.clone();
            let before_bits = before.report().network_utility.to_bits();
            let model = FlowModel::with_defaults(&topo);
            incumbent.replace(&model, &tm, changes, &touched, &mut scratch);

            let expected = segments.concat();
            let table = incumbent.bundles();
            prop_assert_eq!(table.len(), expected.len(), "step {}", step);
            for (a, b) in table.iter().zip(&expected) {
                prop_assert_eq!(a.aggregate, b.aggregate);
                prop_assert_eq!(a.flow_count, b.flow_count);
                prop_assert_eq!(&a.links, &b.links);
            }
            prop_assert_eq!(incumbent.spans(), &spans_of(&segments)[..], "step {}", step);
            let oracle = model.evaluate_traced(table);
            prop_assert_eq!(
                incumbent.eval().bitwise_mismatch(&oracle), None,
                "step {} (k = {})", step, picked.len()
            );
            let rebuilt = utility_report(&tm, table, &oracle.outcome);
            prop_assert_eq!(incumbent.report().bitwise_mismatch(&rebuilt), None, "step {}", step);
            prop_assert_eq!(before.report().network_utility.to_bits(), before_bits);
        }
    }

    /// The border load bound is an upper bound on the walked load. A
    /// random crossing row — 1 to 20,000 previous rates from 1 bps to 1
    /// Pbps over a random span of decades, sorted, reversed or shuffled
    /// — has its previous load folded in another order (ascending, as
    /// freezes tend to run). A random share of it is in the fill; a
    /// one-segment splice removes up to three entries and inserts up to
    /// three fill members. Half the time the fill's members keep their
    /// rates, so only rounding separates the bound's three folds from
    /// the walk; otherwise each gets a fresh one. `border_load_bound` of
    /// the fill's fold of its members' new rates (descending), the
    /// previous load, the fold of the members' previous rates and the
    /// row length plus the insertions must be at least the fold of the
    /// spliced row in row order, members at their new rates
    /// (`to_bits`-compared: all are non-negative). Dropping the
    /// widening fails it.
    #[test]
    fn border_load_bound_is_an_upper_bound(
        len in 1usize..20_000,
        seed in any::<u64>(),
        decades in 0.0f64..15.0,
        order in 0u32..3,
        share in 0.0f64..1.0,
        splice in (0.0f64..1.0, 0usize..7, 0usize..4),
    ) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let floor = (next() % 1000) as f64 / 1000.0 * (15.0 - decades);
        let rate = |r: u64| 10f64.powf(floor + decades * (r % (1 << 20)) as f64 / (1 << 20) as f64);
        let mut row: Vec<f64> = (0..len).map(|_| rate(next())).collect();
        match order {
            0 => row.sort_by(f64::total_cmp),
            1 => row.sort_by(|a, b| b.total_cmp(a)),
            _ => {}
        }
        let kept = next() % 2 == 0;
        // Per entry: its previous rate and, for a fill member, its new one.
        let entries: Vec<(f64, Option<f64>)> = row
            .iter()
            .map(|&r| {
                let member = (next() % 1_000_000) as f64 / 1_000_000.0 < share;
                (r, member.then(|| if kept { r } else { rate(next()) }))
            })
            .collect();
        let (at, removed, added) = splice;
        let start = (at * len as f64) as usize;
        let removed = removed.saturating_sub(3).min(len - start);
        let added: Vec<f64> = (0..added).map(|_| rate(next())).collect();

        let fold = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0, |s, d| s + d);
        let mut ascending = row.clone();
        ascending.sort_by(f64::total_cmp);
        let prev_load = fold(&mut ascending.into_iter());
        let spliced: Vec<(f64, Option<f64>)> = entries[..start]
            .iter()
            .copied()
            .chain(added.iter().map(|&a| (0.0, Some(a))))
            .chain(entries[start + removed..].iter().copied())
            .collect();
        let mut filled: Vec<f64> = spliced.iter().filter_map(|e| e.1).collect();
        filled.sort_by(|a, b| b.total_cmp(a));
        let filled = fold(&mut filled.into_iter());
        let carried = fold(&mut spliced.iter().filter(|e| e.1.is_some()).map(|e| e.0));
        let walked = fold(&mut spliced.iter().map(|&(prev, new)| new.unwrap_or(prev)));
        let bound = border_load_bound(filled, prev_load, carried, len + added.len());
        prop_assert!(
            bound.to_bits() >= walked.to_bits(),
            "bound {bound:e} below the walked load {walked:e} (len {len}, kept {kept})"
        );
    }
}

/// `score_network_utility_delta` re-evaluates only the moved aggregate
/// and the aggregates whose re-filled rates differ from the incumbent's;
/// its root must still be the `utility_report` of the materialized
/// spliced table, bit for bit. Random one-aggregate candidates on the
/// underprovisioned HE-961 instance — a whole move onto a detour (same
/// span length) or a split over both paths (`replacement_len !=
/// removed`, so every later span shifts) — and the three shapes the
/// changed-rate rule distinguishes must all occur: nothing but the
/// moved aggregate changed, a re-filled bundle of another aggregate
/// kept its rate (the leaf that is no longer recomputed), and a changed
/// rate behind a length-changing splice.
#[test]
fn utility_delta_matches_report_of_spliced_table_on_he_candidates() {
    let topo = generators::he_core(Bandwidth::from_mbps(75.0));
    let tm = fubar_traffic::workload::generate(&topo, &Default::default(), 1);
    let g = topo.graph();
    let shortest = |a: &Aggregate, avoid: &LinkSet| g.shortest_path(a.ingress, a.egress, avoid);
    let bundles: Vec<BundleSpec> = tm
        .iter()
        .map(|a| {
            let path = shortest(a, &LinkSet::new()).expect("HE core is connected");
            BundleSpec::new(a, &path, a.flow_count)
        })
        .collect();
    let spans: Vec<(u32, u32)> = (0..bundles.len() as u32).map(|i| (i, 1)).collect();
    let model = FlowModel::with_defaults(&topo);
    let incumbent = Incumbent::measure(&model, &tm, bundles, spans);
    assert!(incumbent.outcome().is_congested(), "instance must congest");

    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let (mut ws, mut rs) = (Workspace::new(), ReportScratch::default());
    let (mut only_moved, mut kept_rate, mut shifted_change) = (0, 0, 0);
    for _ in 0..120 {
        let a = tm.aggregate(AggregateId((next() % tm.len() as u64) as u32));
        let (start, _) = incumbent.spans()[a.id.index()];
        let old = &incumbent.bundles()[start as usize];
        if old.links.is_empty() {
            continue; // intra-POP: nowhere to move
        }
        let mut avoid = LinkSet::new();
        avoid.insert(old.links[(next() % old.links.len() as u64) as usize]);
        let Some(detour) = shortest(a, &avoid) else {
            continue;
        };
        let replacement = if a.flow_count >= 2 && next() % 2 == 0 {
            let moved = 1 + (next() % u64::from(a.flow_count - 1)) as u32;
            let mut stay = old.clone();
            stay.flow_count -= moved;
            vec![stay, BundleSpec::new(a, &detour, moved)]
        } else {
            vec![BundleSpec::new(a, &detour, a.flow_count)]
        };
        let delta = BundleDelta::new(incumbent.bundles(), start as usize, 1, &replacement);
        let DeltaScore { affected, rates } = model.score_delta(incumbent.eval(), &delta, &mut ws);
        let fast = score_network_utility_delta(
            &tm,
            &delta,
            affected,
            rates,
            incumbent.outcome(),
            incumbent.report(),
            a.id,
            incumbent.spans(),
            &mut rs,
        );

        let spliced: Vec<BundleSpec> = (0..delta.len()).map(|i| delta.get(i).clone()).collect();
        let outcome = model.evaluate(&spliced);
        let slow = utility_report(&tm, &spliced, &outcome).network_utility;
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "aggregate {}: delta {fast} vs spliced report {slow}",
            a.id
        );

        // Which shape was this?
        let same_rate = |i: usize| {
            delta.prev_index(i).is_some_and(|pi| {
                incumbent.outcome().bundle_rates[pi as usize]
                    .bps()
                    .to_bits()
                    == outcome.bundle_rates[i].bps().to_bits()
            })
        };
        let others_changed = (0..spliced.len())
            .filter(|&i| spliced[i].aggregate != a.id && !same_rate(i))
            .count();
        only_moved += usize::from(others_changed == 0);
        kept_rate += usize::from(
            affected
                .iter()
                .any(|&bi| spliced[bi as usize].aggregate != a.id && same_rate(bi as usize)),
        );
        shifted_change += usize::from(
            replacement.len() != 1
                && (start as usize + replacement.len()..spliced.len()).any(|i| !same_rate(i)),
        );
    }
    assert!(
        only_moved > 0,
        "no candidate left every other aggregate alone"
    );
    assert!(kept_rate > 0, "no re-filled bundle kept its rate");
    assert!(shifted_change > 0, "no rate changed behind a shifted span");
}

/// A candidate filled through a component compiled for its incumbent
/// ([`Incumbent::prepare_component`]) must score exactly like the same
/// candidate against the unprepared incumbent, and both like a full
/// evaluation of the materialized table: the same affected bundles, the
/// same rates, the same link demands, bit for bit. Seeded candidates on
/// the underprovisioned HE-961 instance after a few committed splits (so
/// spans of one and of two bundles exist): a whole move onto a detour
/// or a 1 → 2 split, half of them off the prepared link. Every shape
/// the patch distinguishes must occur among the candidates that took
/// it — a segment that grew, one that shrank, one that kept its
/// length, a replacement bundle on a link no member of the component
/// crosses — and so must a candidate the component does not cover.
#[test]
fn compiled_fill_matches_adhoc_fill() {
    let topo = generators::he_core(Bandwidth::from_mbps(75.0));
    let tm = fubar_traffic::workload::generate(&topo, &Default::default(), 1);
    let g = topo.graph();
    let shortest = |a: &Aggregate, avoid: &LinkSet| g.shortest_path(a.ingress, a.egress, avoid);
    let bundles: Vec<BundleSpec> = tm
        .iter()
        .map(|a| {
            let path = shortest(a, &LinkSet::new()).expect("HE core is connected");
            BundleSpec::new(a, &path, a.flow_count)
        })
        .collect();
    let spans: Vec<(u32, u32)> = (0..bundles.len() as u32).map(|i| (i, 1)).collect();
    let model = FlowModel::with_defaults(&topo);
    let mut plain = Incumbent::measure(&model, &tm, bundles, spans);
    let link = plain.outcome().congested[0];
    let avoid_link = LinkSet::from_iter([link]);

    // Split the first few aggregates crossing `link` over two paths.
    let splits: Vec<(AggregateId, Vec<BundleSpec>)> = plain
        .bundles()
        .iter()
        .filter(|b| b.links.contains(&link) && b.flow_count >= 2)
        .filter_map(|b| {
            let a = tm.aggregate(b.aggregate);
            let detour = shortest(a, &avoid_link)?;
            let mut stay = b.clone();
            stay.flow_count -= 1;
            Some((a.id, vec![stay, BundleSpec::new(a, &detour, 1)]))
        })
        .take(6)
        .collect();
    assert_eq!(splits.len(), 6);
    plain.replace(&model, &tm, splits, &[], &mut PatchScratch::default());
    assert!(plain.outcome().congested.contains(&link));
    let mut prepared = plain.clone();
    prepared.prepare_component(&model, link);

    // The links the component's members cross, found the slow way.
    let saturated = |l: &LinkId| plain.outcome().congested.contains(l);
    let mut member = vec![false; plain.bundles().len()];
    let mut reached = vec![link];
    while let Some(l) = reached.pop() {
        for (i, b) in plain.bundles().iter().enumerate() {
            if !member[i] && b.links.contains(&l) {
                member[i] = true;
                reached.extend(b.links.iter().filter(|l| saturated(l)));
            }
        }
    }
    let crossed: LinkSet = (plain.bundles().iter().zip(&member))
        .filter(|(_, &m)| m)
        .flat_map(|(b, _)| b.links.iter().copied())
        .collect();
    let crossers: Vec<AggregateId> = (plain.bundles().iter())
        .filter(|b| b.links.contains(&link))
        .map(|b| b.aggregate)
        .collect();

    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    let (mut fast_ws, mut slow_ws) = (Workspace::new(), Workspace::new());
    let (mut grew, mut shrank, mut kept, mut outside, mut uncovered) = (0, 0, 0, 0, 0);
    for round in 0..240 {
        let id = if round % 2 == 0 {
            crossers[(next() % crossers.len() as u64) as usize]
        } else {
            AggregateId((next() % tm.len() as u64) as u32)
        };
        let a = tm.aggregate(id);
        let (start, len) = plain.spans()[id.index()];
        let old = &plain.bundles()[start as usize..(start + len) as usize];
        let from = &old[(next() % old.len() as u64) as usize];
        if from.links.is_empty() {
            continue; // intra-POP: nowhere to move
        }
        let mut avoid = LinkSet::new();
        avoid.insert(from.links[(next() % from.links.len() as u64) as usize]);
        let Some(detour) = shortest(a, &avoid) else {
            continue;
        };
        let replacement = if len == 1 && a.flow_count >= 2 && next() % 2 == 0 {
            let moved = 1 + (next() % u64::from(a.flow_count - 1)) as u32;
            let mut stay = from.clone();
            stay.flow_count -= moved;
            vec![stay, BundleSpec::new(a, &detour, moved)]
        } else {
            vec![BundleSpec::new(a, &detour, a.flow_count)]
        };

        let fills_before = fast_ws.stats().compiled_fills;
        let (at, len) = (start as usize, len as usize);
        let delta = BundleDelta::new(prepared.bundles(), at, len, &replacement);
        let slow_delta = BundleDelta::new(plain.bundles(), at, len, &replacement);
        let DeltaScore { affected, rates } =
            model.score_delta(prepared.eval(), &delta, &mut fast_ws);
        let slow = model.score_delta(plain.eval(), &slow_delta, &mut slow_ws);
        assert_eq!(affected, slow.affected, "round {round}");
        assert_eq!(bits(rates), bits(slow.rates), "round {round}");
        let (affected, rates) = (affected.to_vec(), rates.to_vec());
        let changed_link_demand = model.changed_link_demand(prepared.eval(), &delta, &mut fast_ws);
        let slow_changed = model.changed_link_demand(plain.eval(), &slow_delta, &mut slow_ws);
        assert_eq!(changed_link_demand, slow_changed, "round {round}");

        let spliced: Vec<BundleSpec> = (0..delta.len()).map(|i| delta.get(i).clone()).collect();
        let full = model.evaluate_traced(&spliced).outcome;
        let mut refilled = affected.iter().zip(&rates).peekable();
        for (i, rate) in full.bundle_rates.iter().enumerate() {
            let expected = match refilled.next_if(|(&gi, _)| gi as usize == i) {
                Some((_, &rate)) => rate,
                None => {
                    let pi = delta.prev_index(i).expect("replacement bundles re-fill");
                    plain.outcome().bundle_rates[pi as usize].bps()
                }
            };
            assert_eq!(
                rate.bps().to_bits(),
                expected.to_bits(),
                "round {round}: bundle {i}"
            );
        }
        let mut changed = changed_link_demand.iter().peekable();
        for (li, demand) in full.link_demand.iter().enumerate() {
            let expected = match changed.next_if(|&&(l, _)| l as usize == li) {
                Some(&(_, demand)) => demand,
                None => plain.outcome().link_demand[li].bps(),
            };
            assert_eq!(
                demand.bps().to_bits(),
                expected.to_bits(),
                "round {round}: link {li}"
            );
        }

        // Which shape was this?
        if fast_ws.stats().compiled_fills == fills_before {
            uncovered += 1;
            continue;
        }
        grew += usize::from(replacement.len() > old.len());
        shrank += usize::from(replacement.len() < old.len());
        kept += usize::from(replacement.len() == old.len());
        let leaves = |b: &BundleSpec| b.links.iter().any(|l| !crossed.contains(*l));
        outside += usize::from(replacement.iter().any(leaves));
    }
    assert!(grew > 0, "no patched segment grew");
    assert!(shrank > 0, "no patched segment shrank");
    assert!(kept > 0, "no patched segment kept its length");
    assert!(
        outside > 0,
        "no replacement bundle left the component's links"
    );
    assert!(uncovered > 0, "the component covered every candidate");
}
