//! The allocation state the optimizer mutates: how many flows of each
//! aggregate ride each path of its path set.

use crate::pathset::PathSet;
use fubar_graph::{LinkId, LinkSet, Path, SpTree};
use fubar_model::BundleSpec;
use fubar_topology::Topology;
use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};

/// A complete flow-to-path assignment for every aggregate.
///
/// Invariant: for each aggregate, the flow counts across its path set sum
/// to exactly the aggregate's `flow_count` ([`Allocation::validate`]).
#[derive(Clone, Debug)]
pub struct Allocation {
    path_sets: Vec<PathSet>,
    /// `flows[agg][path_idx]` — parallel to `path_sets[agg]`.
    flows: Vec<Vec<u32>>,
}

/// A single committed or candidate move: `count` flows of `aggregate`
/// from path `from` to path `to` (indices into its path set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// The aggregate whose flows move.
    pub aggregate: AggregateId,
    /// Source path index.
    pub from: usize,
    /// Destination path index.
    pub to: usize,
    /// Number of flows to move.
    pub count: u32,
}

/// Where the boot state and [`Allocation::rebase`] take an aggregate's
/// default path from: the lowest-delay path avoiding `excluded`, else
/// the unconstrained one. A path depends on the aggregate only through
/// its endpoints, so each ingress gets one on-demand search per
/// exclusion set ([`SpTree`], started at the ingress's first aggregate
/// and advanced as far as its farthest egress), not a Dijkstra per
/// aggregate — and each path is bit for bit the per-pair one.
struct DefaultPaths<'a> {
    topology: &'a Topology,
    /// The two exclusion sets, `excluded` first, the empty one second.
    avoiding: [&'a LinkSet; 2],
    /// Per ingress node, the search under each of `avoiding`.
    searches: Vec<[Option<SpTree<'a>>; 2]>,
}

impl<'a> DefaultPaths<'a> {
    fn new(topology: &'a Topology, excluded: &'a LinkSet, nothing: &'a LinkSet) -> Self {
        DefaultPaths {
            topology,
            avoiding: [excluded, nothing],
            searches: (0..topology.node_count()).map(|_| [None, None]).collect(),
        }
    }

    /// # Panics
    ///
    /// Panics if `a`'s endpoints are disconnected on the full topology.
    fn path(&mut self, a: &Aggregate) -> Path {
        let graph = self.topology.graph();
        self.searches[a.ingress.index()]
            .iter_mut()
            .zip(self.avoiding)
            .find_map(|(search, avoiding)| {
                search
                    .get_or_insert_with(|| graph.shortest_path_tree(a.ingress, avoiding))
                    .path_to(a.egress)
            })
            .unwrap_or_else(|| {
                panic!(
                    "aggregate {} endpoints {}->{} are disconnected",
                    a.id,
                    self.topology.node_name(a.ingress),
                    self.topology.node_name(a.egress)
                )
            })
    }
}

impl Allocation {
    /// The paper's starting point: "move all flows to lowest-delay path
    /// in aggregate" (Listing 1, line 1).
    ///
    /// # Panics
    ///
    /// Panics if some aggregate's endpoints are disconnected in
    /// `topology`.
    pub fn all_on_shortest_paths(topology: &Topology, tm: &TrafficMatrix) -> Self {
        Self::all_on_shortest_paths_avoiding(topology, tm, &LinkSet::new())
    }

    /// Like [`Allocation::all_on_shortest_paths`] but avoiding
    /// `excluded` links (e.g. links the operator knows are down). An
    /// aggregate whose endpoints are disconnected without the excluded
    /// links falls back to the unconstrained shortest path — in a real
    /// network that traffic black-holes either way, and keeping it in
    /// the allocation preserves flow conservation.
    ///
    /// # Panics
    ///
    /// Panics if some aggregate's endpoints are disconnected even on the
    /// full topology.
    pub fn all_on_shortest_paths_avoiding(
        topology: &Topology,
        tm: &TrafficMatrix,
        excluded: &LinkSet,
    ) -> Self {
        let nothing = LinkSet::new();
        let mut shortest = DefaultPaths::new(topology, excluded, &nothing);
        let mut path_sets = Vec::with_capacity(tm.len());
        let mut flows = Vec::with_capacity(tm.len());
        for a in tm.iter() {
            path_sets.push(PathSet::with_default(shortest.path(a)));
            flows.push(vec![a.flow_count]);
        }
        Allocation { path_sets, flows }
    }

    /// Adapts this allocation to a (possibly changed) matrix, topology
    /// view, and exclusion set — the warm-start seed for incremental
    /// re-optimization.
    ///
    /// Per aggregate: paths that avoid `excluded` *and still connect
    /// the aggregate's endpoints* survive with their relative flow
    /// shares, and the aggregate's *new* flow count is spread across
    /// them by largest-remainder rounding; when nothing survives (all
    /// paths excluded, a brand-new aggregate, or an aggregate that
    /// previously had all its flows elsewhere) the flows land on the
    /// current constrained shortest path. Aggregates beyond this
    /// allocation's coverage (the matrix grew) get shortest paths too.
    /// The endpoint check matters when `tm` is not the matrix this
    /// allocation was built for: `TrafficMatrix::new` assigns dense ids
    /// in construction order, so a regenerated matrix can attach the
    /// same id to a different ingress/egress pair — inheriting the old
    /// id's paths would route that traffic between the wrong nodes. The
    /// result always satisfies [`Allocation::validate`] against `tm`.
    ///
    /// # Panics
    ///
    /// Panics if some aggregate's endpoints are disconnected even on the
    /// full topology.
    pub fn rebase(&self, topology: &Topology, tm: &TrafficMatrix, excluded: &LinkSet) -> Self {
        let nothing = LinkSet::new();
        let mut shortest = DefaultPaths::new(topology, excluded, &nothing);

        let mut path_sets = Vec::with_capacity(tm.len());
        let mut flows = Vec::with_capacity(tm.len());
        for a in tm.iter() {
            let idx = a.id.index();
            let survivors: Vec<(&Path, u32)> = if idx < self.path_sets.len() {
                self.path_sets[idx]
                    .iter()
                    .zip(&self.flows[idx])
                    .filter(|(p, _)| {
                        p.source() == a.ingress
                            && p.destination() == a.egress
                            && p.links().iter().all(|l| !excluded.contains(*l))
                    })
                    .map(|(p, &n)| (p, n))
                    .collect()
            } else {
                Vec::new()
            };
            let old_total: u64 = survivors.iter().map(|&(_, n)| u64::from(n)).sum();
            if old_total == 0 {
                path_sets.push(PathSet::with_default(shortest.path(a)));
                flows.push(vec![a.flow_count]);
                continue;
            }
            // Largest-remainder split of the new count over the old
            // shares, so unchanged aggregates rebase to exactly their
            // previous allocation.
            let mut set = PathSet::default();
            let mut counts = Vec::with_capacity(survivors.len());
            let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(survivors.len());
            let mut assigned: u32 = 0;
            for (i, (p, n)) in survivors.iter().enumerate() {
                // Rebuild against the *current* topology so the path's
                // cached cost reflects today's delays — an allocation
                // computed on a failure-era view (failed links costed
                // out at hour-scale delay) must not poison utilities
                // after the repair.
                let refreshed = Path::new(topology.graph(), p.source(), p.links().to_vec())
                    .expect("surviving path is valid in the current topology");
                set.insert(refreshed);
                let exact = f64::from(a.flow_count) * f64::from(*n) / old_total as f64;
                let floor = exact.floor() as u32;
                counts.push(floor);
                assigned += floor;
                remainders.push((i, exact - f64::from(floor)));
            }
            remainders.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            let mut left = a.flow_count - assigned;
            for (i, _) in remainders {
                if left == 0 {
                    break;
                }
                counts[i] += 1;
                left -= 1;
            }
            path_sets.push(set);
            flows.push(counts);
        }
        let rebased = Allocation { path_sets, flows };
        debug_assert!(rebased.validate(tm).is_ok());
        rebased
    }

    /// The path set of one aggregate.
    #[inline]
    pub fn path_set(&self, agg: AggregateId) -> &PathSet {
        &self.path_sets[agg.index()]
    }

    /// Flows of `agg` currently on path `path_idx`.
    #[inline]
    pub fn flows_on(&self, agg: AggregateId, path_idx: usize) -> u32 {
        self.flows[agg.index()][path_idx]
    }

    /// Ensures `path` is in `agg`'s path set and returns its index.
    pub fn add_path(&mut self, agg: AggregateId, path: Path) -> usize {
        let idx = self.path_sets[agg.index()].insert(path);
        if idx == self.flows[agg.index()].len() {
            self.flows[agg.index()].push(0);
        }
        idx
    }

    /// Applies a move.
    ///
    /// # Panics
    ///
    /// Panics when the source path lacks `count` flows or indices are out
    /// of range.
    pub fn apply(&mut self, m: Move) {
        assert_ne!(m.from, m.to, "move must change paths");
        let f = &mut self.flows[m.aggregate.index()];
        assert!(
            f[m.from] >= m.count,
            "moving {} flows but only {} present",
            m.count,
            f[m.from]
        );
        f[m.from] -= m.count;
        f[m.to] += m.count;
    }

    /// Reverses a previously applied move.
    pub fn revert(&mut self, m: Move) {
        self.apply(Move {
            aggregate: m.aggregate,
            from: m.to,
            to: m.from,
            count: m.count,
        });
    }

    /// The non-empty bundles of this allocation, in deterministic
    /// (aggregate, path index) order — the model's input.
    pub fn bundles(&self, tm: &TrafficMatrix) -> Vec<BundleSpec> {
        self.bundles_with_spans(tm).0
    }

    /// Like [`Allocation::bundles`], but also returns per-aggregate
    /// `(start, len)` spans into the returned list — the index map the
    /// optimizer's incremental scorer splices candidate deltas through.
    pub fn bundles_with_spans(&self, tm: &TrafficMatrix) -> (Vec<BundleSpec>, Vec<(u32, u32)>) {
        let mut out = Vec::new();
        let mut spans = Vec::with_capacity(tm.len());
        for a in tm.iter() {
            let start = out.len() as u32;
            let fs = &self.flows[a.id.index()];
            let ps = &self.path_sets[a.id.index()];
            for (idx, &n) in fs.iter().enumerate() {
                if n > 0 {
                    out.push(BundleSpec::new(a, ps.path(idx), n));
                }
            }
            spans.push((start, out.len() as u32 - start));
        }
        (out, spans)
    }

    /// The bundle segment `agg` would contribute after moving `count`
    /// flows from path `from` onto `to_path`, *without mutating* the
    /// allocation — the one-aggregate delta the incremental optimizer
    /// scores. `to_path` may be absent from the aggregate's path set (a
    /// freshly generated alternative); it is then treated as appended at
    /// the end, exactly what [`Allocation::add_path`] followed by
    /// [`Allocation::apply`] would produce. Bundle order matches
    /// [`Allocation::bundles`].
    ///
    /// # Panics
    ///
    /// Panics when `to_path` equals the source path, `count` is zero, or
    /// path `from` carries fewer than `count` flows.
    pub fn bundles_after_move(
        &self,
        tm: &TrafficMatrix,
        agg: AggregateId,
        from: usize,
        to_path: &Path,
        count: u32,
    ) -> Vec<BundleSpec> {
        let mut out = Vec::new();
        let len = self.bundles_after_move_into(tm, agg, from, to_path, count, &mut out);
        debug_assert_eq!(len, out.len());
        out
    }

    /// Like [`Allocation::bundles_after_move`], but writes the segment
    /// into `buf`, reusing its entries (and their link buffers) in
    /// place, and returns the segment length — `buf[..len]` is the
    /// result. Entries past `len` are stale leftovers kept for reuse.
    /// This is the optimizer's zero-allocation candidate path: after
    /// warm-up, predicting a move's bundle segment allocates nothing.
    pub fn bundles_after_move_into(
        &self,
        tm: &TrafficMatrix,
        agg: AggregateId,
        from: usize,
        to_path: &Path,
        count: u32,
        buf: &mut Vec<BundleSpec>,
    ) -> usize {
        let a = tm.aggregate(agg);
        let fs = &self.flows[agg.index()];
        let paths = self.path_sets[agg.index()].as_slice();
        let to = self.path_sets[agg.index()]
            .position(to_path)
            .unwrap_or(paths.len());
        assert_ne!(from, to, "move must change paths");
        assert!(count > 0, "move must carry at least one flow");
        assert!(
            fs[from] >= count,
            "moving {count} flows but only {} present",
            fs[from]
        );
        let mut len = 0usize;
        let emit = |buf: &mut Vec<BundleSpec>, len: &mut usize, path: &Path, n: u32| {
            if *len < buf.len() {
                buf[*len].assign(a, path, n);
            } else {
                buf.push(BundleSpec::new(a, path, n));
            }
            *len += 1;
        };
        for (idx, (&n, path)) in fs.iter().zip(paths).enumerate() {
            let n = if idx == from {
                n - count
            } else if idx == to {
                n + count
            } else {
                n
            };
            if n > 0 {
                emit(buf, &mut len, path, n);
            }
        }
        if to == paths.len() {
            emit(buf, &mut len, to_path, count);
        }
        len
    }

    /// The (aggregate, path index, flows) triples whose path crosses
    /// `link` — Listing 2's "all flow paths that go over link". A scan
    /// of the whole matrix: the optimizer gathers through its crossing
    /// index instead, and the tests hold that index to this reference.
    pub fn flow_paths_over(
        &self,
        tm: &TrafficMatrix,
        link: LinkId,
    ) -> Vec<(AggregateId, usize, u32)> {
        let mut out = Vec::new();
        for a in tm.iter() {
            let fs = &self.flows[a.id.index()];
            let ps = &self.path_sets[a.id.index()];
            for (idx, &n) in fs.iter().enumerate() {
                if n > 0 && ps.path(idx).uses_link(link) {
                    out.push((a.id, idx, n));
                }
            }
        }
        out
    }

    /// Adds to `used` the links of `agg`'s non-empty paths that are also
    /// in `congested` — the exclusion set for the paper's *local* path.
    /// Writing into the caller's set lets a scratch set be reused.
    pub fn congested_links_used_by(
        &self,
        agg: AggregateId,
        congested: &LinkSet,
        used: &mut LinkSet,
    ) {
        let fs = &self.flows[agg.index()];
        let ps = &self.path_sets[agg.index()];
        for (idx, &n) in fs.iter().enumerate() {
            if n == 0 {
                continue;
            }
            for &l in ps.path(idx).links() {
                if congested.contains(l) {
                    used.insert(l);
                }
            }
        }
    }

    /// Number of distinct paths carrying at least one flow, per
    /// aggregate, summed.
    pub fn active_path_count(&self) -> usize {
        self.flows
            .iter()
            .map(|f| f.iter().filter(|&&n| n > 0).count())
            .sum()
    }

    /// Largest path-set size across aggregates (the paper reports "ten
    /// to fifteen" after convergence).
    pub fn max_path_set_size(&self) -> usize {
        self.path_sets.iter().map(PathSet::len).max().unwrap_or(0)
    }

    /// Checks the flow-conservation invariant against `tm`.
    pub fn validate(&self, tm: &TrafficMatrix) -> Result<(), String> {
        if self.flows.len() != tm.len() {
            return Err(format!(
                "allocation covers {} aggregates, matrix has {}",
                self.flows.len(),
                tm.len()
            ));
        }
        for a in tm.iter() {
            let total: u32 = self.flows[a.id.index()].iter().sum();
            if total != a.flow_count {
                return Err(format!(
                    "aggregate {}: {} flows allocated, {} expected",
                    a.id, total, a.flow_count
                ));
            }
            if self.flows[a.id.index()].len() != self.path_sets[a.id.index()].len() {
                return Err(format!("aggregate {}: flows/paths length mismatch", a.id));
            }
        }
        Ok(())
    }

    /// Flow-weighted one-way path delays of every flow in the network,
    /// for the Fig 6 delay CDF: returns `(delay, flow_count)` pairs.
    pub fn flow_delays(&self, tm: &TrafficMatrix) -> Vec<(fubar_topology::Delay, u32)> {
        let mut out = Vec::new();
        for a in tm.iter() {
            let fs = &self.flows[a.id.index()];
            let ps = &self.path_sets[a.id.index()];
            for (idx, &n) in fs.iter().enumerate() {
                if n > 0 {
                    out.push((fubar_topology::Delay::from_secs(ps.path(idx).cost()), n));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Bandwidth, Delay};
    use fubar_traffic::Aggregate;
    use fubar_utility::TrafficClass;

    fn fixture() -> (Topology, TrafficMatrix) {
        let topo = generators::ring(4, Bandwidth::from_mbps(10.0), Delay::from_ms(1.0));
        let tm = TrafficMatrix::new(vec![
            Aggregate::new(
                AggregateId(0),
                NodeId(0),
                NodeId(2),
                TrafficClass::RealTime,
                10,
            ),
            Aggregate::new(
                AggregateId(0),
                NodeId(1),
                NodeId(3),
                TrafficClass::BulkTransfer,
                6,
            ),
        ]);
        (topo, tm)
    }

    #[test]
    fn initial_allocation_is_all_on_shortest() {
        let (topo, tm) = fixture();
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        alloc.validate(&tm).unwrap();
        assert_eq!(alloc.flows_on(AggregateId(0), 0), 10);
        assert_eq!(alloc.path_set(AggregateId(0)).len(), 1);
        let bundles = alloc.bundles(&tm);
        assert_eq!(bundles.len(), 2);
        assert_eq!(alloc.active_path_count(), 2);
    }

    #[test]
    fn apply_and_revert_round_trip() {
        let (topo, tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        // Add the other way around the ring for aggregate 0.
        let g = topo.graph();
        let used: LinkSet = alloc
            .path_set(AggregateId(0))
            .path(0)
            .links()
            .iter()
            .copied()
            .collect();
        let alt = g.shortest_path(NodeId(0), NodeId(2), &used).unwrap();
        let idx = alloc.add_path(AggregateId(0), alt);
        assert_eq!(idx, 1);
        let m = Move {
            aggregate: AggregateId(0),
            from: 0,
            to: 1,
            count: 4,
        };
        alloc.apply(m);
        alloc.validate(&tm).unwrap();
        assert_eq!(alloc.flows_on(AggregateId(0), 0), 6);
        assert_eq!(alloc.flows_on(AggregateId(0), 1), 4);
        assert_eq!(alloc.bundles(&tm).len(), 3);
        alloc.revert(m);
        assert_eq!(alloc.flows_on(AggregateId(0), 0), 10);
        assert_eq!(alloc.bundles(&tm).len(), 2);
    }

    #[test]
    fn add_path_is_idempotent() {
        let (topo, tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let p = alloc.path_set(AggregateId(0)).path(0).clone();
        let idx = alloc.add_path(AggregateId(0), p);
        assert_eq!(idx, 0, "existing path keeps its index");
        assert_eq!(alloc.path_set(AggregateId(0)).len(), 1);
        alloc.validate(&tm).unwrap();
    }

    #[test]
    fn flow_paths_over_finds_crossers() {
        let (topo, tm) = fixture();
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let p0 = alloc.path_set(AggregateId(0)).path(0).clone();
        let link = p0.links()[0];
        let crossers = alloc.flow_paths_over(&tm, link);
        assert!(crossers.iter().any(|&(a, _, _)| a == AggregateId(0)));
        for (agg, idx, n) in crossers {
            assert!(alloc.path_set(agg).path(idx).uses_link(link));
            assert_eq!(alloc.flows_on(agg, idx), n);
        }
    }

    #[test]
    fn congested_links_used_by_intersects() {
        let (topo, tm) = fixture();
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let p0 = alloc.path_set(AggregateId(0)).path(0).clone();
        let mut congested = LinkSet::new();
        congested.insert(p0.links()[0]);
        congested.insert(LinkId(9999)); // unrelated
        let mut used = LinkSet::new();
        alloc.congested_links_used_by(AggregateId(0), &congested, &mut used);
        assert_eq!(used.len(), 1);
        assert!(used.contains(p0.links()[0]));
    }

    #[test]
    #[should_panic(expected = "only")]
    fn overdraw_panics() {
        let (topo, tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let g = topo.graph();
        let used: LinkSet = alloc
            .path_set(AggregateId(0))
            .path(0)
            .links()
            .iter()
            .copied()
            .collect();
        let alt = g.shortest_path(NodeId(0), NodeId(2), &used).unwrap();
        alloc.add_path(AggregateId(0), alt);
        alloc.apply(Move {
            aggregate: AggregateId(0),
            from: 0,
            to: 1,
            count: 99,
        });
    }

    /// What boot and rebase did before they shared searches: a
    /// Dijkstra per aggregate, constrained first, unconstrained second.
    fn per_aggregate_default(topo: &Topology, a: &Aggregate, excluded: &LinkSet) -> Path {
        let g = topo.graph();
        g.shortest_path(a.ingress, a.egress, excluded)
            .or_else(|| g.shortest_path(a.ingress, a.egress, &LinkSet::new()))
            .expect("connected on the full topology")
    }

    /// HE-961 and a small planetary instance, each with an exclusion
    /// set that cuts one node's every out-link (its aggregates take the
    /// unconstrained fallback) plus a few links elsewhere.
    fn default_path_instances() -> Vec<(Topology, TrafficMatrix, LinkSet)> {
        [
            generators::he_core(Bandwidth::from_mbps(100.0)),
            generators::planetary(4, 4, Bandwidth::from_mbps(100.0)),
        ]
        .into_iter()
        .map(|topo| {
            let tm = fubar_traffic::workload::generate(&topo, &Default::default(), 5);
            let excluded: LinkSet = (topo.graph().out_links(NodeId(3)).iter().copied())
                .chain(topo.links().filter(|l| l.index() % 7 == 0))
                .collect();
            (topo, tm, excluded)
        })
        .collect()
    }

    fn assert_same_path(got: &Path, want: &Path, a: &Aggregate) {
        assert_eq!(got, want, "aggregate {}", a.id);
        assert_eq!(got.cost().to_bits(), want.cost().to_bits());
    }

    #[test]
    fn boot_matches_a_dijkstra_per_aggregate() {
        for (topo, tm, excluded) in default_path_instances() {
            let mut fell_back = 0;
            for excluded in [&excluded, &LinkSet::new()] {
                let boot = Allocation::all_on_shortest_paths_avoiding(&topo, &tm, excluded);
                boot.validate(&tm).unwrap();
                for a in tm.iter() {
                    let want = per_aggregate_default(&topo, a, excluded);
                    assert_same_path(boot.path_set(a.id).path(0), &want, a);
                    fell_back += usize::from(want.links().iter().any(|&l| excluded.contains(l)));
                }
            }
            assert!(fell_back > 0, "{}: nobody took the fallback", topo.name());
        }
    }

    #[test]
    fn rebase_matches_a_dijkstra_per_aggregate() {
        for (topo, tm, excluded) in default_path_instances() {
            let boot = Allocation::all_on_shortest_paths(&topo, &tm);
            let rebased = boot.rebase(&topo, &tm, &excluded);
            rebased.validate(&tm).unwrap();
            let mut evacuated = 0;
            for a in tm.iter() {
                let old = boot.path_set(a.id).path(0);
                let survives = old.links().iter().all(|&l| !excluded.contains(l));
                let want = match survives {
                    true => old.clone(),
                    false => per_aggregate_default(&topo, a, &excluded),
                };
                evacuated += usize::from(!survives);
                assert_eq!(rebased.path_set(a.id).len(), 1);
                assert_same_path(rebased.path_set(a.id).path(0), &want, a);
            }
            assert!(evacuated > 0, "{}: nothing to evacuate", topo.name());
        }
    }

    #[test]
    fn rebase_identity_when_nothing_changed() {
        let (topo, tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let used: LinkSet = alloc
            .path_set(AggregateId(0))
            .path(0)
            .links()
            .iter()
            .copied()
            .collect();
        let alt = topo
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &used)
            .unwrap();
        let idx = alloc.add_path(AggregateId(0), alt);
        alloc.apply(Move {
            aggregate: AggregateId(0),
            from: 0,
            to: idx,
            count: 4,
        });

        let rebased = alloc.rebase(&topo, &tm, &LinkSet::new());
        rebased.validate(&tm).unwrap();
        assert_eq!(rebased.flows_on(AggregateId(0), 0), 6);
        assert_eq!(rebased.flows_on(AggregateId(0), 1), 4);
    }

    #[test]
    fn rebase_scales_shares_to_new_flow_count() {
        let (topo, mut tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let used: LinkSet = alloc
            .path_set(AggregateId(0))
            .path(0)
            .links()
            .iter()
            .copied()
            .collect();
        let alt = topo
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &used)
            .unwrap();
        let idx = alloc.add_path(AggregateId(0), alt);
        alloc.apply(Move {
            aggregate: AggregateId(0),
            from: 0,
            to: idx,
            count: 5,
        }); // 5:5

        tm.set_flow_count(AggregateId(0), 20); // flash crowd: x2
        let rebased = alloc.rebase(&topo, &tm, &LinkSet::new());
        rebased.validate(&tm).unwrap();
        assert_eq!(rebased.flows_on(AggregateId(0), 0), 10);
        assert_eq!(rebased.flows_on(AggregateId(0), 1), 10);

        tm.set_flow_count(AggregateId(0), 0); // aggregate went idle
        let idle = alloc.rebase(&topo, &tm, &LinkSet::new());
        idle.validate(&tm).unwrap();
        let total: u32 = (0..idle.path_set(AggregateId(0)).len())
            .map(|i| idle.flows_on(AggregateId(0), i))
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn rebase_evacuates_excluded_paths() {
        let (topo, tm) = fixture();
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        // Exclude the first link of aggregate 0's only path: its flows
        // must land on a survivor that avoids the exclusion.
        let dead = alloc.path_set(AggregateId(0)).path(0).links()[0];
        let mut excluded = LinkSet::new();
        excluded.insert(dead);
        let rebased = alloc.rebase(&topo, &tm, &excluded);
        rebased.validate(&tm).unwrap();
        for (idx, p) in rebased.path_set(AggregateId(0)).iter().enumerate() {
            if rebased.flows_on(AggregateId(0), idx) > 0 {
                assert!(!p.uses_link(dead), "flows must avoid the excluded link");
            }
        }
    }

    #[test]
    fn rebase_onto_permuted_matrix_respects_endpoints() {
        // Build an allocation for one ordering of the aggregates, then
        // rebase onto a matrix holding the *same* pairs in a different
        // order. `TrafficMatrix::new` reassigns dense ids in
        // construction order, so aggregate 0 of the new matrix is a
        // different ingress/egress pair than aggregate 0 of the old one
        // — its flows must not inherit the old id's paths.
        let topo = generators::ring(4, Bandwidth::from_mbps(10.0), Delay::from_ms(1.0));
        let forward = |i| {
            Aggregate::new(
                AggregateId(0),
                NodeId(i),
                NodeId((i + 2) % 4),
                TrafficClass::RealTime,
                4 + i,
            )
        };
        let tm1 = TrafficMatrix::new(vec![forward(0), forward(1)]);
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm1);

        let tm2 = TrafficMatrix::new(vec![forward(1), forward(0)]); // permuted
        let rebased = alloc.rebase(&topo, &tm2, &LinkSet::new());
        rebased.validate(&tm2).unwrap();
        for a in tm2.iter() {
            for (idx, p) in rebased.path_set(a.id).iter().enumerate() {
                if rebased.flows_on(a.id, idx) > 0 {
                    assert_eq!(p.source(), a.ingress, "aggregate {} wrong source", a.id);
                    assert_eq!(p.destination(), a.egress, "aggregate {} wrong dest", a.id);
                }
            }
        }
    }

    #[test]
    fn rebase_refreshes_path_costs_to_the_current_topology() {
        // An allocation computed on a degraded view (failed link costed
        // out at hour-scale delay) must not carry the poisoned path
        // cost once rebased onto the healthy topology — utilities after
        // a repair depend on it.
        let (topo, tm) = fixture();
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let healthy_cost = alloc.path_set(AggregateId(0)).path(0).cost();

        let mut degraded = topo.clone();
        let on_path = alloc.path_set(AggregateId(0)).path(0).links()[0];
        degraded.set_delay(on_path, fubar_topology::Delay::from_secs(3600.0));
        let poisoned = Allocation::all_on_shortest_paths(&degraded, &tm).rebase(
            &degraded,
            &tm,
            &LinkSet::new(),
        );
        // (The degraded-view allocation may route around the slow link;
        // rebase the *original* allocation onto the degraded view to
        // pin the poisoned cost.)
        let stale = alloc.rebase(&degraded, &tm, &LinkSet::new());
        assert!(
            stale.path_set(AggregateId(0)).path(0).cost() >= 3600.0,
            "rebase onto the degraded view must adopt its delays"
        );
        let repaired = stale.rebase(&topo, &tm, &LinkSet::new());
        assert_eq!(
            repaired.path_set(AggregateId(0)).path(0).cost(),
            healthy_cost,
            "rebase must refresh path costs to the current topology"
        );
        let _ = poisoned;
    }

    #[test]
    fn bundles_with_spans_matches_bundles() {
        let (topo, tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let used: LinkSet = alloc
            .path_set(AggregateId(0))
            .path(0)
            .links()
            .iter()
            .copied()
            .collect();
        let alt = topo
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &used)
            .unwrap();
        let idx = alloc.add_path(AggregateId(0), alt);
        alloc.apply(Move {
            aggregate: AggregateId(0),
            from: 0,
            to: idx,
            count: 4,
        });
        let plain = alloc.bundles(&tm);
        let (spanned, spans) = alloc.bundles_with_spans(&tm);
        assert_eq!(plain.len(), spanned.len());
        assert_eq!(spans.len(), tm.len());
        for a in tm.iter() {
            let (start, len) = spans[a.id.index()];
            for i in start..start + len {
                assert_eq!(spanned[i as usize].aggregate, a.id);
            }
        }
        let total: u32 = spans.iter().map(|&(_, l)| l).sum();
        assert_eq!(total as usize, spanned.len());
    }

    #[test]
    fn bundles_after_move_matches_apply() {
        let (topo, tm) = fixture();
        let mut alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let used: LinkSet = alloc
            .path_set(AggregateId(0))
            .path(0)
            .links()
            .iter()
            .copied()
            .collect();
        let alt = topo
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &used)
            .unwrap();

        // Fresh alternative: the segment must match add_path + apply.
        let predicted = alloc.bundles_after_move(&tm, AggregateId(0), 0, &alt, 4);
        let to = alloc.add_path(AggregateId(0), alt.clone());
        let m = Move {
            aggregate: AggregateId(0),
            from: 0,
            to,
            count: 4,
        };
        alloc.apply(m);
        let actual: Vec<_> = alloc
            .bundles(&tm)
            .into_iter()
            .filter(|b| b.aggregate == AggregateId(0))
            .collect();
        assert_eq!(predicted.len(), actual.len());
        for (p, a) in predicted.iter().zip(&actual) {
            assert_eq!(p.links, a.links);
            assert_eq!(p.flow_count, a.flow_count);
        }

        // Existing destination (moving back): same contract.
        let back = alloc.bundles_after_move(
            &tm,
            AggregateId(0),
            to,
            alloc.path_set(AggregateId(0)).path(0),
            2,
        );
        alloc.revert(Move {
            aggregate: AggregateId(0),
            from: 0,
            to,
            count: 2,
        });
        let actual: Vec<_> = alloc
            .bundles(&tm)
            .into_iter()
            .filter(|b| b.aggregate == AggregateId(0))
            .collect();
        assert_eq!(back.len(), actual.len());
        for (p, a) in back.iter().zip(&actual) {
            assert_eq!(p.links, a.links);
            assert_eq!(p.flow_count, a.flow_count);
        }
    }

    #[test]
    fn flow_delays_cover_all_flows() {
        let (topo, tm) = fixture();
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let delays = alloc.flow_delays(&tm);
        let total: u32 = delays.iter().map(|&(_, n)| n).sum();
        assert_eq!(u64::from(total), tm.total_flows());
    }
}
