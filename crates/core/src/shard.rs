//! Region shards and the crossing index — what keeps the bookkeeping of
//! the greedy loop in [`crate::optimizer`] local. Past hypergrowth-4096
//! the loop stops being bounded by per-move scoring (which is
//! O(component)) and starts being bounded by enumerating candidates:
//! scanning every aggregate's every path per congested link.
//!
//! * [`RegionPartition`] splits the instance by region (the node-name
//!   prefix before `_`, e.g. `pop3_7` → region `pop3`). Regions map to
//!   shards round-robin; aggregates and links whose endpoints fall in
//!   one shard belong to it, everything crossing shard boundaries —
//!   inter-region trunks and cross-shard aggregates — is abstracted
//!   into the **trunk core**, one extra shard holding the global
//!   problem's backbone. Every step is credited to the shard owning
//!   its focus link, so per-shard commits, score time, fills and path
//!   searches are observable (`fubar-cli scenario run --stats`).
//! * A sparse **aggregate→link crossing index** (per link: the sorted
//!   `(aggregate, path)` pairs whose path crosses it) is the loop's
//!   only candidate gather: O(paths on the link) instead of
//!   O(instance), enumerating exactly what the
//!   `Allocation::flow_paths_over` scan would (property-tested in
//!   `tests/properties.rs`).
//! * `isolated_congested_shards` finds the shards whose congestion is
//!   a component of its own; each gets a **per-component pass** of the
//!   same loop before the whole-instance one.

use crate::allocation::Allocation;
use fubar_graph::{LinkId, Path};
use fubar_model::WorkspaceStats;
use fubar_topology::Topology;
use fubar_traffic::{AggregateId, TrafficMatrix};

/// The region label of a node name: the prefix before the first `_`,
/// or the whole name when there is none (every node its own region).
fn region_label(name: &str) -> &str {
    name.split_once('_').map_or(name, |(region, _)| region)
}

/// Number of distinct regions in a topology (first-seen order over node
/// ids).
pub fn region_count(topology: &Topology) -> usize {
    let mut seen: Vec<&str> = Vec::new();
    for n in topology.nodes() {
        let r = region_label(topology.node_name(n));
        if !seen.contains(&r) {
            seen.push(r);
        }
    }
    seen.len()
}

/// How many region shards the optimizer partitions a topology into: one
/// per detected region, capped at 16 (the trunk core is one more).
/// Topologies without region structure (no `_` in node names) degrade
/// gracefully: every node is its own region.
pub(crate) fn shard_count_for(topology: &Topology) -> usize {
    region_count(topology).clamp(1, 16)
}

/// A region-based partition of one `(topology, traffic matrix)`
/// instance into `shard_count` shards plus the trunk core.
///
/// Invariants (property-tested in `tests/properties.rs`):
///
/// * every aggregate belongs to **exactly one** shard (its endpoint
///   regions' shard when they agree, the core otherwise);
/// * every intra-shard link has both endpoints in that shard's
///   regions;
/// * the trunk set is disjoint from every shard's link set, and
///   shards + trunks cover every link.
pub struct RegionPartition {
    shard_count: usize,
    regions: Vec<String>,
    node_region: Vec<u32>,
    agg_shard: Vec<u32>,
    /// Per link: owning shard, or `shard_count` for trunks.
    link_shard: Vec<u32>,
    /// Aggregates per shard (index `shard_count` = core).
    shard_aggregates: Vec<usize>,
    /// Links per shard (index `shard_count` = trunks).
    shard_links: Vec<usize>,
}

impl RegionPartition {
    /// Partitions an instance into `shard_count` region shards plus the
    /// trunk core.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count == 0`.
    pub fn new(topology: &Topology, tm: &TrafficMatrix, shard_count: usize) -> Self {
        assert!(shard_count >= 1, "at least one shard");
        let mut regions: Vec<String> = Vec::new();
        let mut node_region = Vec::with_capacity(topology.node_count());
        for n in topology.nodes() {
            let label = region_label(topology.node_name(n));
            let idx = regions.iter().position(|r| r == label).unwrap_or_else(|| {
                regions.push(label.to_string());
                regions.len() - 1
            });
            node_region.push(idx as u32);
        }
        // Regions → shards round-robin in first-seen order.
        let region_shard = |region: u32| -> u32 { region % shard_count as u32 };

        let mut shard_aggregates = vec![0usize; shard_count + 1];
        let agg_shard: Vec<u32> = tm
            .iter()
            .map(|a| {
                let si = region_shard(node_region[a.ingress.index()]);
                let se = region_shard(node_region[a.egress.index()]);
                let shard = if si == se { si } else { shard_count as u32 };
                shard_aggregates[shard as usize] += 1;
                shard
            })
            .collect();

        let mut shard_links = vec![0usize; shard_count + 1];
        let link_shard: Vec<u32> = topology
            .links()
            .map(|l| {
                let link = topology.graph().link(l);
                let ss = region_shard(node_region[link.src.index()]);
                let sd = region_shard(node_region[link.dst.index()]);
                let shard = if ss == sd { ss } else { shard_count as u32 };
                shard_links[shard as usize] += 1;
                shard
            })
            .collect();

        RegionPartition {
            shard_count,
            regions,
            node_region,
            agg_shard,
            link_shard,
            shard_aggregates,
            shard_links,
        }
    }

    /// Number of region shards (the trunk core is one more).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The trunk-core shard index (`== shard_count()`).
    pub fn core_shard(&self) -> usize {
        self.shard_count
    }

    /// Distinct regions detected in the topology.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The region index of a node.
    pub fn region_of_node(&self, node: fubar_graph::NodeId) -> usize {
        self.node_region[node.index()] as usize
    }

    /// The shard owning an aggregate (the core for cross-shard pairs).
    pub fn shard_of_aggregate(&self, agg: AggregateId) -> usize {
        self.agg_shard[agg.index()] as usize
    }

    /// The shard owning a link (the core for inter-shard trunks).
    pub fn shard_of_link(&self, link: LinkId) -> usize {
        self.link_shard[link.index()] as usize
    }

    /// Whether a link is an inter-shard trunk (owned by the core).
    pub fn is_trunk(&self, link: LinkId) -> bool {
        self.link_shard[link.index()] as usize == self.core_shard()
    }

    /// Aggregates owned by `shard` (index `core_shard()` = cross-shard).
    pub fn aggregates_in(&self, shard: usize) -> usize {
        self.shard_aggregates[shard]
    }

    /// Links owned by `shard` (index `core_shard()` = trunks).
    pub fn links_in(&self, shard: usize) -> usize {
        self.shard_links[shard]
    }
}

/// Per-shard execution statistics of one sharded run. Wall-clock fields
/// ride outside the byte-exact replay surface.
#[derive(Clone, Debug, Default)]
pub struct ShardRunStats {
    /// Shard index; the last entry of `OptimizeResult::shards` is the
    /// trunk core.
    pub shard: usize,
    /// Aggregates the partition assigned to this shard.
    pub aggregates: usize,
    /// Links the partition assigned to this shard.
    pub links: usize,
    /// Commits whose focus link this shard owned.
    pub commits: usize,
    /// Seconds spent gathering and scoring this shard's candidates.
    pub score_s: f64,
    /// Aggregates whose alternative paths a step of this shard had to
    /// generate, in part or in whole: at least one of their searches
    /// was run again, or dropped. Like the fill counts, a pure function
    /// of the instance at any thread count.
    pub paths_generated: usize,
    /// Aggregates whose alternatives a step found kept and standing —
    /// no link any of their searches read had flipped in or out of its
    /// avoid set — and took as they were (always 0 under the
    /// full-recompute oracle, which keeps none).
    pub paths_reused: usize,
    /// Shortest-path searches the steps of this shard ran for
    /// alternatives (a K-shortest generation counts as one). Exact at
    /// any thread count.
    pub searches: usize,
    /// Candidate scores a step of this shard took from a score kept
    /// from an earlier incumbent — re-derived from its leaves instead
    /// of re-filled, because no commit since re-filled anything its
    /// fill read. Exact at any thread count; always 0 under the
    /// full-recompute oracle, which keeps none.
    pub scores_kept: usize,
    /// Fills and compiled fills the steps focused on this shard's links
    /// ran. The peaks are left at zero: the scoring scratches serve
    /// every shard, so their peaks are the run's
    /// (`OptimizeResult::scratch`).
    pub scratch: WorkspaceStats,
}

impl ShardRunStats {
    /// Folds another run's statistics for the same shard (sums work,
    /// maxes peaks) — the scenario driver accumulates these across
    /// re-optimizations.
    pub fn merge(&mut self, other: &ShardRunStats) {
        self.aggregates = self.aggregates.max(other.aggregates);
        self.links = self.links.max(other.links);
        self.commits += other.commits;
        self.score_s += other.score_s;
        self.paths_generated += other.paths_generated;
        self.paths_reused += other.paths_reused;
        self.searches += other.searches;
        self.scores_kept += other.scores_kept;
        self.scratch.merge(&other.scratch);
    }
}

/// Folds a run's per-shard statistics into an accumulator, resizing if
/// the shard layout grew.
pub fn merge_shard_stats(acc: &mut Vec<ShardRunStats>, run: &[ShardRunStats]) {
    if acc.len() < run.len() {
        acc.resize_with(run.len(), ShardRunStats::default);
    }
    for (a, r) in acc.iter_mut().zip(run) {
        a.shard = r.shard;
        a.merge(r);
    }
}

/// The sparse aggregate→link crossing index: for every link, the
/// `(aggregate, path index)` pairs — sorted ascending — whose path
/// crosses it. Filtered by live flow count at query time, iterating a
/// link's entries reproduces `Allocation::flow_paths_over` exactly
/// (same pairs, same order) at O(paths on the link) instead of
/// O(instance). Paths are only ever *added* to path sets, so the index
/// grows monotonically: one insert per newly-committed alternative.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CrossingIndex {
    pub(crate) per_link: Vec<Vec<(u32, u32)>>,
}

impl CrossingIndex {
    pub(crate) fn build(topology: &Topology, tm: &TrafficMatrix, alloc: &Allocation) -> Self {
        let mut per_link = vec![Vec::new(); topology.link_count()];
        // Aggregates ascending, path indices ascending: each link's
        // entry list is born sorted.
        for a in tm.iter() {
            let ps = alloc.path_set(a.id);
            for idx in 0..ps.len() {
                for &l in ps.path(idx).links() {
                    per_link[l.index()].push((a.id.0, idx as u32));
                }
            }
        }
        CrossingIndex { per_link }
    }

    /// `link`'s entries, one run per aggregate (an aggregate's entries
    /// are adjacent, since the list is sorted).
    pub(crate) fn runs(&self, link: LinkId) -> impl Iterator<Item = &[(u32, u32)]> {
        self.per_link[link.index()].chunk_by(|a, b| a.0 == b.0)
    }

    /// Registers a newly added path (aggregate `agg`, path index `idx`)
    /// on every link it crosses, keeping each list sorted.
    pub(crate) fn insert(&mut self, agg: AggregateId, idx: u32, path: &Path) {
        for &l in path.links() {
            let list = &mut self.per_link[l.index()];
            let pos = list.partition_point(|&e| e < (agg.0, idx));
            if list.get(pos) != Some(&(agg.0, idx)) {
                list.insert(pos, (agg.0, idx));
            }
        }
    }
}

/// The region shards a per-component pass may own: **isolated** — no
/// allocated (flows > 0) path crosses a shard boundary involving them —
/// and holding at least one of the `congested` links, since a pass is
/// only worth launching where there is shard-local congestion to fix.
/// Any allocated path on a link owned by a shard other than the
/// aggregate's owner couples both shards to the rest of the instance;
/// cross-shard aggregates (owner = core) likewise de-isolate every
/// shard whose links they ride. Ascending shard order.
pub(crate) fn isolated_congested_shards(
    partition: &RegionPartition,
    index: &CrossingIndex,
    alloc: &Allocation,
    congested: &[LinkId],
) -> Vec<usize> {
    let shard_count = partition.shard_count();
    let mut wanted = vec![false; shard_count];
    for &l in congested {
        if let Some(w) = wanted.get_mut(partition.shard_of_link(l)) {
            *w = true;
        }
    }
    if !wanted.contains(&true) {
        // Nothing shard-local to fix (the common warm re-optimization):
        // skip the O(index) isolation scan.
        return Vec::new();
    }
    for (l, entries) in index.per_link.iter().enumerate() {
        let link_shard = partition.link_shard[l] as usize;
        for &(agg, idx) in entries {
            let owner = partition.agg_shard[agg as usize] as usize;
            if owner != link_shard && alloc.flows_on(AggregateId(agg), idx as usize) > 0 {
                for s in [owner, link_shard] {
                    if let Some(w) = wanted.get_mut(s) {
                        *w = false;
                    }
                }
            }
        }
    }
    (0..shard_count).filter(|&s| wanted[s]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{OptimizeResult, Optimizer, OptimizerConfig};
    use fubar_topology::{generators, Bandwidth};
    use fubar_traffic::{workload, WorkloadConfig};

    #[test]
    fn region_labels_come_from_name_prefixes() {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(10.0));
        assert_eq!(region_count(&topo), 4);
        let tm = workload::generate(&topo, &WorkloadConfig::default(), 1);
        let p = RegionPartition::new(&topo, &tm, 2);
        assert_eq!(p.region_count(), 4);
        assert_eq!(p.shard_count(), 2);
        assert_eq!(p.core_shard(), 2);
        // pop0 and pop2 land on shard 0; pop1 and pop3 on shard 1.
        assert_eq!(p.region_of_node(topo.node("pop0_0").unwrap()), 0);
        assert_eq!(p.region_of_node(topo.node("pop2_0").unwrap()), 2);
    }

    #[test]
    fn topologies_without_underscores_degrade_to_per_node_regions() {
        let topo = generators::abilene(Bandwidth::from_mbps(10.0));
        assert_eq!(region_count(&topo), topo.node_count());
    }

    #[test]
    fn partition_counts_cover_the_instance() {
        let topo = generators::planetary(6, 4, Bandwidth::from_mbps(10.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                include_intra_pop: true,
                ..Default::default()
            },
            3,
        );
        let p = RegionPartition::new(&topo, &tm, 3);
        let aggs: usize = (0..=p.core_shard()).map(|s| p.aggregates_in(s)).sum();
        let links: usize = (0..=p.core_shard()).map(|s| p.links_in(s)).sum();
        assert_eq!(aggs, tm.len());
        assert_eq!(links, topo.link_count());
        // The hierarchical generator guarantees both trunk and local
        // links exist.
        assert!(p.links_in(p.core_shard()) > 0, "no trunks found");
        assert!(p.links_in(0) > 0, "no shard-local links found");
    }

    /// A structurally congested hypergrowth instance whose traffic
    /// never leaves its region: every region is an isolated congestion
    /// component, the shape per-component passes exist for.
    fn isolated_regions_instance() -> (Topology, TrafficMatrix) {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(2.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                intra_region_only: true,
                ..Default::default()
            },
            7,
        );
        (topo, tm)
    }

    /// The shards `isolated_congested_shards` picks on the boot
    /// allocation — the per-component passes a cold run launches.
    fn pass_shards(topo: &Topology, tm: &TrafficMatrix) -> Vec<usize> {
        let partition = RegionPartition::new(topo, tm, shard_count_for(topo));
        let alloc = Allocation::all_on_shortest_paths(topo, tm);
        let congested = fubar_model::FlowModel::with_defaults(topo)
            .evaluate(&alloc.bundles(tm))
            .congested;
        let index = CrossingIndex::build(topo, tm, &alloc);
        isolated_congested_shards(&partition, &index, &alloc, &congested)
    }

    fn run_at(topo: &Topology, tm: &TrafficMatrix, threads: usize) -> OptimizeResult {
        let cfg = OptimizerConfig {
            threads,
            ..Default::default()
        };
        Optimizer::new(topo, tm, cfg).run()
    }

    /// Every region of the isolated instance gets a pass, each pass's
    /// commits are credited to its own shard, and none to the trunk
    /// core.
    #[test]
    fn parallel_passes_fire_on_isolated_regions() {
        let (topo, tm) = isolated_regions_instance();
        assert_eq!(
            pass_shards(&topo, &tm),
            vec![0, 1, 2, 3],
            "every region is an isolated, congested component"
        );
        let result = run_at(&topo, &tm, 2);
        assert!(result.commits > 0, "instance must be optimizable");
        let shard_commits: usize = result.shards.iter().map(|s| s.commits).sum();
        assert_eq!(shard_commits, result.commits, "commits attribute to shards");
        assert_eq!(
            result.shards[result.shards.len() - 1].commits,
            0,
            "intra-region traffic must not commit on the trunk core"
        );
        result.allocation.validate(&tm).unwrap();
        assert!(result.trace.is_monotone());
        assert_eq!(result.commits, result.moves.len());
    }

    /// The passes run one after the other on the run's state, and only
    /// each step fans out over `threads` workers: the run, and what it
    /// credits to each shard (commits, fills, compiled fills, paths
    /// generated and reused), is the same at 1, 2 and 4 threads. The
    /// shards' fills add up to the run's, and a shard that committed
    /// was credited fills of its own.
    #[test]
    fn parallel_passes_are_invariant_under_pass_thread_count() {
        let (topo, tm) = isolated_regions_instance();
        let per_shard = |r: &OptimizeResult| -> Vec<[usize; 5]> {
            let sum = |f: fn(&ShardRunStats) -> usize| r.shards.iter().map(f).sum::<usize>();
            assert_eq!(sum(|s| s.scratch.fills), r.scratch.fills);
            assert_eq!(sum(|s| s.scratch.compiled_fills), r.scratch.compiled_fills);
            (r.shards.iter())
                .map(|s| {
                    assert!(s.commits == 0 || s.scratch.fills > 0, "shard {}", s.shard);
                    [
                        s.commits,
                        s.scratch.fills,
                        s.scratch.compiled_fills,
                        s.paths_generated,
                        s.paths_reused,
                    ]
                })
                .collect()
        };
        let base = run_at(&topo, &tm, 1);
        let base_shards = per_shard(&base);
        assert!(base.scratch.fills > 0, "the passes must score something");
        for threads in [2, 4] {
            let run = run_at(&topo, &tm, threads);
            assert_eq!(run.moves, base.moves, "threads={threads}");
            assert_eq!(per_shard(&run), base_shards, "threads={threads}");
            assert_eq!(run.commits, base.commits);
            assert_eq!(
                run.report.network_utility.to_bits(),
                base.report.network_utility.to_bits()
            );
            assert_eq!(run.outcome.congested, base.outcome.congested);
            assert_eq!(run.trace.points().len(), base.trace.points().len());
            for (a, b) in run.trace.points().iter().zip(base.trace.points()) {
                assert_eq!(a.commits, b.commits);
                assert_eq!(a.network_utility.to_bits(), b.network_utility.to_bits());
            }
        }
    }

    /// All-pairs traffic rides the trunks, so no shard is isolated, no
    /// pass runs, and the run is the whole-instance loop alone.
    #[test]
    fn parallel_passes_degrade_to_sharded_without_isolation() {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(2.0));
        let tm = workload::generate(&topo, &WorkloadConfig::default(), 7);
        assert!(pass_shards(&topo, &tm).is_empty());
        let result = run_at(&topo, &tm, 4);
        assert!(result.commits > 0, "instance must be optimizable");
        assert!(
            result.shards[result.shards.len() - 1].commits > 0,
            "trunk congestion commits on the core shard"
        );
    }

    #[test]
    fn crossing_index_matches_flow_paths_over() {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_kbps(400.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                flow_count: (2, 5),
                ..Default::default()
            },
            7,
        );
        let alloc = Allocation::all_on_shortest_paths(&topo, &tm);
        let index = CrossingIndex::build(&topo, &tm, &alloc);
        for l in topo.links() {
            let via_scan: Vec<(AggregateId, usize, u32)> = alloc.flow_paths_over(&tm, l);
            let via_index: Vec<(AggregateId, usize, u32)> = index.per_link[l.index()]
                .iter()
                .filter_map(|&(a, idx)| {
                    let id = AggregateId(a);
                    let n = alloc.flows_on(id, idx as usize);
                    (n > 0).then_some((id, idx as usize, n))
                })
                .collect();
            assert_eq!(via_scan, via_index, "link {l:?}");
        }
    }
}
