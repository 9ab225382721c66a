//! Topology generators.
//!
//! The headline generator is [`he_core`], a synthesized stand-in for the
//! Hurricane Electric core topology the paper evaluates on (31 POPs, 56
//! inter-POP links — paper §3). The exact 2014 adjacency is not publicly
//! recoverable, so we reconstruct a backbone with the same node count,
//! link count, continental structure (US + Europe + Asia-Pacific rings
//! with transatlantic/transpacific trunks) and geo-derived propagation
//! delays. See DESIGN.md §1 for the substitution rationale.
//!
//! The remaining generators produce the small regular topologies used by
//! tests, examples and benchmarks: [`line()`], [`ring`], [`grid`],
//! [`dumbbell`], the [`abilene`] research backbone, and seeded random
//! [`waxman`] graphs.

use crate::geo::GeoPoint;
use crate::topology::{Topology, TopologyBuilder};
use crate::units::{Bandwidth, Delay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 31 POPs of the synthesized Hurricane Electric core: name, latitude,
/// longitude.
pub const HE_POPS: [(&str, f64, f64); 31] = [
    ("Seattle", 47.61, -122.33),
    ("Portland", 45.52, -122.68),
    ("Fremont", 37.55, -121.99),
    ("SanJose", 37.34, -121.89),
    ("LosAngeles", 34.05, -118.24),
    ("Phoenix", 33.45, -112.07),
    ("LasVegas", 36.17, -115.14),
    ("Denver", 39.74, -104.99),
    ("Dallas", 32.78, -96.80),
    ("Houston", 29.76, -95.37),
    ("KansasCity", 39.10, -94.58),
    ("Chicago", 41.88, -87.63),
    ("Minneapolis", 44.98, -93.27),
    ("Toronto", 43.65, -79.38),
    ("NewYork", 40.71, -74.01),
    ("Ashburn", 39.04, -77.49),
    ("Atlanta", 33.75, -84.39),
    ("Miami", 25.76, -80.19),
    ("London", 51.51, -0.13),
    ("Paris", 48.86, 2.35),
    ("Amsterdam", 52.37, 4.90),
    ("Frankfurt", 50.11, 8.68),
    ("Zurich", 47.37, 8.54),
    ("Milan", 45.46, 9.19),
    ("Prague", 50.08, 14.44),
    ("Vienna", 48.21, 16.37),
    ("Warsaw", 52.23, 21.01),
    ("Stockholm", 59.33, 18.07),
    ("Tokyo", 35.68, 139.69),
    ("HongKong", 22.32, 114.17),
    ("Singapore", 1.35, 103.82),
];

/// The 56 duplex adjacencies of the synthesized HE core.
pub const HE_LINKS: [(&str, &str); 56] = [
    // US West Coast chain.
    ("Seattle", "Portland"),
    ("Portland", "Fremont"),
    ("Fremont", "SanJose"),
    ("SanJose", "LosAngeles"),
    ("LosAngeles", "Phoenix"),
    ("LosAngeles", "LasVegas"),
    ("LasVegas", "Phoenix"),
    ("Fremont", "LosAngeles"),
    // US interior.
    ("Seattle", "Denver"),
    ("Fremont", "Denver"),
    ("Denver", "KansasCity"),
    ("Denver", "Dallas"),
    ("Phoenix", "Dallas"),
    ("Dallas", "Houston"),
    ("Dallas", "KansasCity"),
    ("KansasCity", "Chicago"),
    ("Minneapolis", "KansasCity"),
    ("Chicago", "Minneapolis"),
    ("Minneapolis", "Seattle"),
    ("LosAngeles", "Dallas"),
    ("Denver", "Chicago"),
    ("Dallas", "Ashburn"),
    // US East.
    ("Chicago", "Toronto"),
    ("Toronto", "NewYork"),
    ("Chicago", "NewYork"),
    ("Chicago", "Ashburn"),
    ("NewYork", "Ashburn"),
    ("Ashburn", "Atlanta"),
    ("Atlanta", "Dallas"),
    ("Atlanta", "Miami"),
    ("Houston", "Miami"),
    // Transatlantic.
    ("NewYork", "London"),
    ("NewYork", "Amsterdam"),
    ("Ashburn", "London"),
    ("Ashburn", "Paris"),
    // Europe.
    ("London", "Paris"),
    ("London", "Amsterdam"),
    ("London", "Frankfurt"),
    ("Amsterdam", "Frankfurt"),
    ("Amsterdam", "Stockholm"),
    ("Paris", "Frankfurt"),
    ("Paris", "Zurich"),
    ("Frankfurt", "Zurich"),
    ("Frankfurt", "Prague"),
    ("Frankfurt", "Vienna"),
    ("Frankfurt", "Warsaw"),
    ("Zurich", "Milan"),
    ("Prague", "Vienna"),
    ("Vienna", "Warsaw"),
    ("Warsaw", "Stockholm"),
    // Transpacific & Asia.
    ("Seattle", "Tokyo"),
    ("LosAngeles", "Tokyo"),
    ("Fremont", "Tokyo"),
    ("Tokyo", "HongKong"),
    ("HongKong", "Singapore"),
    ("Singapore", "Tokyo"),
];

/// Synthesized Hurricane Electric core topology: 31 POPs, 56 duplex links,
/// geo-derived propagation delays, uniform `capacity` on every directed
/// link (the paper uses 100 Mb/s for the provisioned case and 75 Mb/s for
/// the underprovisioned one).
pub fn he_core(capacity: Bandwidth) -> Topology {
    let mut b = TopologyBuilder::new("he-core-31");
    for (name, lat, lon) in HE_POPS {
        b.add_node_at(name, GeoPoint::new(lat, lon))
            .expect("HE POP names are unique");
    }
    for (a, z) in HE_LINKS {
        b.add_duplex_link_geo(a, z, capacity)
            .expect("HE adjacency references known POPs");
    }
    b.build()
}

/// The "hypergrowth" scale tier: a synthesized backbone one growth
/// generation past the paper's 31-POP Hurricane Electric core. `regions`
/// metro regions sit on a great circle; each holds a ring of
/// `pops_per_region` POPs with a cross-chord, adjacent regions are
/// joined by two trunks (through their first and middle POPs), and
/// antipodal regions by an express link. Positions are synthetic but
/// geographic, so delays derive from fiber distance exactly like
/// [`he_core`]. The default tier (8 × 8 = 64 POPs, 92 duplex links)
/// yields a 4,096-aggregate full matrix with intra-POP pairs — the
/// beyond-HE instance the `hypergrowth` catalog scenario runs on, where
/// per-move optimizer cost must stay component-bound rather than
/// instance-bound.
///
/// # Panics
///
/// Panics when `regions < 3` or `pops_per_region < 3` (the rings
/// degenerate).
pub fn hypergrowth(regions: usize, pops_per_region: usize, capacity: Bandwidth) -> Topology {
    assert!(regions >= 3, "hypergrowth needs at least three regions");
    assert!(
        pops_per_region >= 3,
        "hypergrowth needs at least three POPs per region"
    );
    let name = |r: usize, p: usize| format!("pop{r}_{p}");
    let mut b = TopologyBuilder::new(format!("hypergrowth-{}", regions * pops_per_region));
    for r in 0..regions {
        // Region centers on a great circle, latitudes within the
        // temperate band so geo math stays well-conditioned.
        let theta = 2.0 * std::f64::consts::PI * r as f64 / regions as f64;
        let (clat, clon) = (35.0 * theta.sin(), 170.0 * theta.cos());
        for p in 0..pops_per_region {
            // Metro ring ~2° across around the region center.
            let phi = 2.0 * std::f64::consts::PI * p as f64 / pops_per_region as f64;
            let (lat, lon) = (clat + 2.0 * phi.sin(), clon + 2.0 * phi.cos());
            b.add_node_at(name(r, p), GeoPoint::new(lat, lon))
                .expect("hypergrowth POP names are unique");
        }
    }
    for r in 0..regions {
        // Intra-region ring + one cross-chord (skipped for 3-POP
        // regions, where the "chord" would duplicate a ring edge).
        for p in 0..pops_per_region {
            b.add_duplex_link_geo(&name(r, p), &name(r, (p + 1) % pops_per_region), capacity)
                .expect("ring endpoints exist");
        }
        if pops_per_region >= 4 {
            b.add_duplex_link_geo(&name(r, 0), &name(r, pops_per_region / 2), capacity)
                .expect("chord endpoints exist");
        }
        // Two trunks to the next region.
        let next = (r + 1) % regions;
        b.add_duplex_link_geo(&name(r, 0), &name(next, 0), capacity)
            .expect("trunk endpoints exist");
        b.add_duplex_link_geo(
            &name(r, pops_per_region / 2),
            &name(next, pops_per_region / 2),
            capacity,
        )
        .expect("trunk endpoints exist");
    }
    // Express links between antipodal regions — only when the
    // antipodal offset lands on a non-adjacent region (offset >= 2,
    // i.e. regions >= 4); with 3 regions the "antipode" is the next
    // region over and the trunk loop already covers it.
    if regions / 2 >= 2 {
        for r in 0..regions / 2 {
            b.add_duplex_link_geo(&name(r, 0), &name(r + regions / 2, 0), capacity)
                .expect("express endpoints exist");
        }
    }
    b.build()
}

/// The "planetary" scale tier: the rung past [`hypergrowth`], shaped
/// for hierarchical (sharded) optimization. Like `hypergrowth`, `regions`
/// metro regions sit on a great circle, each a ring of `pops_per_region`
/// POPs with a cross-chord; regions are joined by two next-region
/// trunks, a skip-2 link, and an antipodal express. Unlike
/// `hypergrowth`, the capacity plan is **hierarchical**: intra-region
/// links carry `capacity` while every inter-region link (trunk, skip-2,
/// express) carries `4 × capacity` — the core is provisioned as a trunk
/// layer over local enclaves, so region boundaries are where shard
/// partitioning cuts. Node names are `pop{r}_{p}`; the region prefix
/// before `_` is what `fubar-core`'s region partitioner keys on. The
/// default tier (16 × 16 = 256 POPs, 328 duplex links) yields a
/// 65,536-aggregate full matrix with intra-POP pairs — the
/// `ShardedOptimizer` target where the flat oracle is no longer
/// feasible per-epoch.
///
/// # Panics
///
/// Panics when `regions < 3` or `pops_per_region < 3` (the rings
/// degenerate).
pub fn planetary(regions: usize, pops_per_region: usize, capacity: Bandwidth) -> Topology {
    assert!(regions >= 3, "planetary needs at least three regions");
    assert!(
        pops_per_region >= 3,
        "planetary needs at least three POPs per region"
    );
    let name = |r: usize, p: usize| format!("pop{r}_{p}");
    let trunk = Bandwidth::from_bps(capacity.bps() * 4.0);
    let mut b = TopologyBuilder::new(format!("planetary-{}", regions * pops_per_region));
    for r in 0..regions {
        // Region centers on a great circle, latitudes within the
        // temperate band so geo math stays well-conditioned.
        let theta = 2.0 * std::f64::consts::PI * r as f64 / regions as f64;
        let (clat, clon) = (35.0 * theta.sin(), 170.0 * theta.cos());
        for p in 0..pops_per_region {
            // Metro ring ~2° across around the region center.
            let phi = 2.0 * std::f64::consts::PI * p as f64 / pops_per_region as f64;
            let (lat, lon) = (clat + 2.0 * phi.sin(), clon + 2.0 * phi.cos());
            b.add_node_at(name(r, p), GeoPoint::new(lat, lon))
                .expect("planetary POP names are unique");
        }
    }
    for r in 0..regions {
        // Intra-region ring + one cross-chord (skipped for 3-POP
        // regions, where the "chord" would duplicate a ring edge).
        for p in 0..pops_per_region {
            b.add_duplex_link_geo(&name(r, p), &name(r, (p + 1) % pops_per_region), capacity)
                .expect("ring endpoints exist");
        }
        if pops_per_region >= 4 {
            b.add_duplex_link_geo(&name(r, 0), &name(r, pops_per_region / 2), capacity)
                .expect("chord endpoints exist");
        }
        // Two trunks to the next region.
        let next = (r + 1) % regions;
        b.add_duplex_link_geo(&name(r, 0), &name(next, 0), trunk)
            .expect("trunk endpoints exist");
        b.add_duplex_link_geo(
            &name(r, pops_per_region / 2),
            &name(next, pops_per_region / 2),
            trunk,
        )
        .expect("trunk endpoints exist");
        // Skip-2 links (through the second POP, spreading trunk degree
        // off POP 0) — only when the offset-2 region is neither the
        // adjacent one (regions >= 5) nor the antipode it would
        // duplicate at regions == 4.
        if regions >= 5 {
            b.add_duplex_link_geo(&name(r, 1), &name((r + 2) % regions, 1), trunk)
                .expect("skip endpoints exist");
        }
    }
    // Express links between antipodal regions — only when the antipodal
    // offset exceeds the skip-2 offset, otherwise the express would
    // duplicate a skip-2 (regions 4..6) or trunk (regions 3) link.
    if regions / 2 >= 3 {
        for r in 0..regions / 2 {
            b.add_duplex_link_geo(&name(r, 0), &name(r + regions / 2, 0), trunk)
                .expect("express endpoints exist");
        }
    }
    b.build()
}

/// The historical Abilene (Internet2) research backbone: 11 POPs, 14
/// duplex links, geo-derived delays. A well-known mid-size benchmark
/// topology.
pub fn abilene(capacity: Bandwidth) -> Topology {
    const POPS: [(&str, f64, f64); 11] = [
        ("Seattle", 47.61, -122.33),
        ("Sunnyvale", 37.37, -122.04),
        ("LosAngeles", 34.05, -118.24),
        ("Denver", 39.74, -104.99),
        ("KansasCity", 39.10, -94.58),
        ("Houston", 29.76, -95.37),
        ("Chicago", 41.88, -87.63),
        ("Indianapolis", 39.77, -86.16),
        ("Atlanta", 33.75, -84.39),
        ("WashingtonDC", 38.91, -77.04),
        ("NewYork", 40.71, -74.01),
    ];
    const LINKS: [(&str, &str); 14] = [
        ("Seattle", "Sunnyvale"),
        ("Seattle", "Denver"),
        ("Sunnyvale", "LosAngeles"),
        ("Sunnyvale", "Denver"),
        ("LosAngeles", "Houston"),
        ("Denver", "KansasCity"),
        ("KansasCity", "Houston"),
        ("KansasCity", "Indianapolis"),
        ("Houston", "Atlanta"),
        ("Chicago", "Indianapolis"),
        ("Chicago", "NewYork"),
        ("Indianapolis", "Atlanta"),
        ("Atlanta", "WashingtonDC"),
        ("WashingtonDC", "NewYork"),
    ];
    let mut b = TopologyBuilder::new("abilene");
    for (name, lat, lon) in POPS {
        b.add_node_at(name, GeoPoint::new(lat, lon)).unwrap();
    }
    for (a, z) in LINKS {
        b.add_duplex_link_geo(a, z, capacity).unwrap();
    }
    b.build()
}

fn numbered(prefix: &str, i: usize) -> String {
    format!("{prefix}{i}")
}

/// A line of `n` nodes: `n0 - n1 - ... - n(n-1)`.
///
/// # Panics
///
/// Panics when `n < 2`.
pub fn line(n: usize, capacity: Bandwidth, hop_delay: Delay) -> Topology {
    assert!(n >= 2, "a line needs at least two nodes");
    let mut b = TopologyBuilder::new(format!("line-{n}"));
    for i in 0..n {
        b.add_node(numbered("n", i)).unwrap();
    }
    for i in 0..n - 1 {
        b.add_duplex_link(
            &numbered("n", i),
            &numbered("n", i + 1),
            capacity,
            hop_delay,
        )
        .unwrap();
    }
    b.build()
}

/// A ring of `n` nodes.
///
/// # Panics
///
/// Panics when `n < 3`.
pub fn ring(n: usize, capacity: Bandwidth, hop_delay: Delay) -> Topology {
    assert!(n >= 3, "a ring needs at least three nodes");
    let mut b = TopologyBuilder::new(format!("ring-{n}"));
    for i in 0..n {
        b.add_node(numbered("n", i)).unwrap();
    }
    for i in 0..n {
        b.add_duplex_link(
            &numbered("n", i),
            &numbered("n", (i + 1) % n),
            capacity,
            hop_delay,
        )
        .unwrap();
    }
    b.build()
}

/// A `w × h` grid with nearest-neighbour links.
///
/// # Panics
///
/// Panics when either dimension is zero or the grid has fewer than 2 nodes.
pub fn grid(w: usize, h: usize, capacity: Bandwidth, hop_delay: Delay) -> Topology {
    assert!(w >= 1 && h >= 1 && w * h >= 2, "grid too small");
    let name = |x: usize, y: usize| format!("g{x}_{y}");
    let mut b = TopologyBuilder::new(format!("grid-{w}x{h}"));
    for y in 0..h {
        for x in 0..w {
            b.add_node(name(x, y)).unwrap();
        }
    }
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_duplex_link(&name(x, y), &name(x + 1, y), capacity, hop_delay)
                    .unwrap();
            }
            if y + 1 < h {
                b.add_duplex_link(&name(x, y), &name(x, y + 1), capacity, hop_delay)
                    .unwrap();
            }
        }
    }
    b.build()
}

/// The classic dumbbell: `pairs` sources on the left, `pairs` sinks on the
/// right, one shared bottleneck in the middle. Edge links get `capacity`;
/// the bottleneck gets `bottleneck`. The canonical congestion-sharing test
/// fixture.
pub fn dumbbell(
    pairs: usize,
    capacity: Bandwidth,
    bottleneck: Bandwidth,
    hop_delay: Delay,
) -> Topology {
    assert!(pairs >= 1, "a dumbbell needs at least one pair");
    let mut b = TopologyBuilder::new(format!("dumbbell-{pairs}"));
    b.add_node("l-agg").unwrap();
    b.add_node("r-agg").unwrap();
    b.add_duplex_link("l-agg", "r-agg", bottleneck, hop_delay)
        .unwrap();
    for i in 0..pairs {
        b.add_node(numbered("src", i)).unwrap();
        b.add_node(numbered("dst", i)).unwrap();
        b.add_duplex_link(&numbered("src", i), "l-agg", capacity, hop_delay)
            .unwrap();
        b.add_duplex_link("r-agg", &numbered("dst", i), capacity, hop_delay)
            .unwrap();
    }
    b.build()
}

/// A seeded Waxman random geometric graph on the unit square (1000 km a
/// side): nodes placed uniformly, each pair linked with probability
/// `alpha * exp(-d / (beta * L))`. A spanning chain over the random node
/// order is added first so the result is always connected. Delays follow
/// link length at fiber speed.
pub fn waxman(n: usize, alpha: f64, beta: f64, capacity: Bandwidth, seed: u64) -> Topology {
    assert!(n >= 2, "waxman needs at least two nodes");
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
    assert!(beta > 0.0, "beta must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let side_km = 1000.0;
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>() * side_km, rng.gen::<f64>() * side_km))
        .collect();
    let dist = |a: (f64, f64), b: (f64, f64)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
    let delay_of = |km: f64| Delay::from_secs(km.max(1.0) / crate::geo::C_FIBER_KM_S);

    let mut b = TopologyBuilder::new(format!("waxman-{n}-s{seed}"));
    for i in 0..n {
        b.add_node(numbered("w", i)).unwrap();
    }
    let mut connected = vec![vec![false; n]; n];
    // Spanning chain guarantees connectivity.
    for i in 0..n - 1 {
        let d = dist(positions[i], positions[i + 1]);
        b.add_duplex_link(
            &numbered("w", i),
            &numbered("w", i + 1),
            capacity,
            delay_of(d),
        )
        .unwrap();
        connected[i][i + 1] = true;
    }
    let diag = side_km * std::f64::consts::SQRT_2;
    for i in 0..n {
        for j in i + 1..n {
            if connected[i][j] {
                continue;
            }
            let d = dist(positions[i], positions[j]);
            let p = alpha * (-d / (beta * diag)).exp();
            if rng.gen::<f64>() < p {
                b.add_duplex_link(&numbered("w", i), &numbered("w", j), capacity, delay_of(d))
                    .unwrap();
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Bandwidth = Bandwidth::ZERO; // placeholder, see cap()
    fn cap() -> Bandwidth {
        Bandwidth::from_mbps(100.0)
    }
    fn ms(v: f64) -> Delay {
        Delay::from_ms(v)
    }

    #[test]
    fn he_core_matches_paper_scale() {
        let _ = CAP;
        let t = he_core(cap());
        assert_eq!(t.node_count(), 31, "paper: 31 POP nodes");
        assert_eq!(t.duplex_count(), 56, "paper: 56 inter-POP links");
        assert_eq!(t.link_count(), 112);
        assert!(t.is_connected());
    }

    #[test]
    fn he_core_delays_are_plausible() {
        let t = he_core(cap());
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for l in t.links() {
            let d = t.delay(l).ms();
            min = min.min(d);
            max = max.max(d);
        }
        // Fremont-SanJose is tens of km; transpacific is tens of ms.
        assert!(
            min < 1.0,
            "shortest HE link should be sub-millisecond, got {min}ms"
        );
        assert!(
            (30.0..80.0).contains(&max),
            "longest HE link should be a transpacific trunk, got {max}ms"
        );
    }

    #[test]
    fn he_core_adjacency_has_no_duplicates() {
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for (a, z) in HE_LINKS {
            let key = if a < z { (a, z) } else { (z, a) };
            assert!(seen.insert(key), "duplicate HE link {a}-{z}");
        }
    }

    #[test]
    fn hypergrowth_shape_and_delays() {
        let t = hypergrowth(8, 8, cap());
        assert_eq!(t.node_count(), 64, "8 regions x 8 POPs");
        // 8 rings x 8 + 8 chords + 16 trunks + 4 express = 92 duplex.
        assert_eq!(t.duplex_count(), 92);
        assert!(t.is_connected());
        let mut max_ms: f64 = 0.0;
        for l in t.links() {
            max_ms = max_ms.max(t.delay(l).ms());
        }
        assert!(
            (10.0..200.0).contains(&max_ms),
            "longest hypergrowth link should be a long-haul trunk, got {max_ms}ms"
        );
        // Deterministic: same call, same graph.
        let t2 = hypergrowth(8, 8, cap());
        assert_eq!(t.link_count(), t2.link_count());
        for l in t.links() {
            assert_eq!(t.delay(l), t2.delay(l));
        }
    }

    #[test]
    #[should_panic(expected = "at least three regions")]
    fn tiny_hypergrowth_rejected() {
        hypergrowth(2, 8, cap());
    }

    #[test]
    fn three_region_hypergrowth_skips_degenerate_express_links() {
        // With 3 regions the antipodal offset is 1 (covered by the
        // trunk loop) and a 3-POP ring's chord would duplicate a ring
        // edge — both degenerate extras must be skipped, leaving every
        // adjacency unique.
        let t = hypergrowth(3, 3, cap());
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for l in t.links() {
            let link = t.graph().link(l);
            assert!(
                seen.insert((link.src, link.dst)),
                "duplicate directed link {:?}->{:?}",
                link.src,
                link.dst
            );
        }
        assert!(t.is_connected());
    }

    #[test]
    fn planetary_shape_and_hierarchical_capacities() {
        let t = planetary(16, 16, cap());
        assert_eq!(t.node_count(), 256, "16 regions x 16 POPs");
        // 16 rings x 16 + 16 chords + 32 trunks + 16 skip-2 + 8 express
        // = 328 duplex.
        assert_eq!(t.duplex_count(), 328);
        assert!(t.is_connected());
        // Hierarchical capacity plan: inter-region links carry 4x.
        let intra = t
            .graph()
            .find_link(t.node("pop0_0").unwrap(), t.node("pop0_1").unwrap())
            .unwrap();
        let inter = t
            .graph()
            .find_link(t.node("pop0_0").unwrap(), t.node("pop1_0").unwrap())
            .unwrap();
        assert_eq!(t.capacity(intra), cap());
        assert_eq!(t.capacity(inter).bps(), cap().bps() * 4.0);
        // Deterministic: same call, same graph.
        let t2 = planetary(16, 16, cap());
        assert_eq!(t.link_count(), t2.link_count());
        for l in t.links() {
            assert_eq!(t.delay(l), t2.delay(l));
            assert_eq!(t.capacity(l), t2.capacity(l));
        }
    }

    #[test]
    fn small_planetary_tiers_have_unique_adjacencies() {
        // The degenerate-extras gating (no chord at 3 POPs, no skip-2
        // under 5 regions, no express under 6) must leave every
        // adjacency unique at every small size.
        use std::collections::BTreeSet;
        for (regions, pops) in [(3, 3), (4, 4), (5, 3), (6, 4), (7, 5)] {
            let t = planetary(regions, pops, cap());
            let mut seen = BTreeSet::new();
            for l in t.links() {
                let link = t.graph().link(l);
                assert!(
                    seen.insert((link.src, link.dst)),
                    "planetary({regions},{pops}): duplicate directed link {:?}->{:?}",
                    link.src,
                    link.dst
                );
            }
            assert!(t.is_connected(), "planetary({regions},{pops}) disconnected");
        }
    }

    #[test]
    #[should_panic(expected = "at least three regions")]
    fn tiny_planetary_rejected() {
        planetary(2, 16, cap());
    }

    #[test]
    fn abilene_shape() {
        let t = abilene(cap());
        assert_eq!(t.node_count(), 11);
        assert_eq!(t.duplex_count(), 14);
        assert!(t.is_connected());
    }

    #[test]
    fn line_ring_star_shapes() {
        let l = line(5, cap(), ms(1.0));
        assert_eq!(l.node_count(), 5);
        assert_eq!(l.duplex_count(), 4);
        assert!(l.is_connected());

        let r = ring(6, cap(), ms(1.0));
        assert_eq!(r.duplex_count(), 6);
        assert!(r.is_connected());
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, cap(), ms(1.0));
        assert_eq!(g.node_count(), 12);
        // 3x4 grid: horizontal 2*4=8, vertical 3*3=9 -> 17.
        assert_eq!(g.duplex_count(), 17);
        assert!(g.is_connected());
    }

    #[test]
    fn dumbbell_shape_and_bottleneck() {
        let d = dumbbell(3, cap(), Bandwidth::from_mbps(10.0), ms(1.0));
        assert_eq!(d.node_count(), 8);
        assert_eq!(d.duplex_count(), 7);
        assert!(d.is_connected());
        let mid = d
            .graph()
            .find_link(d.node("l-agg").unwrap(), d.node("r-agg").unwrap())
            .unwrap();
        assert_eq!(d.capacity(mid), Bandwidth::from_mbps(10.0));
    }

    #[test]
    fn waxman_is_connected_and_seed_deterministic() {
        let a = waxman(20, 0.6, 0.3, cap(), 7);
        let b = waxman(20, 0.6, 0.3, cap(), 7);
        assert!(a.is_connected());
        assert_eq!(a.link_count(), b.link_count());
        for l in a.links() {
            assert_eq!(a.delay(l), b.delay(l));
        }
        let c = waxman(20, 0.6, 0.3, cap(), 8);
        // Different seed should (overwhelmingly) give a different graph.
        assert!(a.link_count() != c.link_count() || a.links().any(|l| a.delay(l) != c.delay(l)));
    }

    #[test]
    fn waxman_alpha_zero_is_just_the_chain() {
        let t = waxman(10, 0.0, 0.3, cap(), 1);
        assert_eq!(t.duplex_count(), 9);
        assert!(t.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_ring_rejected() {
        ring(2, cap(), ms(1.0));
    }
}
