use crate::component::{Component, NONE};
use crate::outcome::ModelOutcome;
use crate::spec::{BundleSpec, BundleStatus};
use fubar_graph::LinkId;
use fubar_topology::Bandwidth;

/// Where in the global freeze sequence a bundle froze — enough to
/// replay the order in which `frozen_load` was accumulated on any link.
///
/// The engine processes same-time events in a fixed order: satisfaction
/// before saturation, then ascending bundle index (satisfactions) or
/// ascending link id with victims in ascending bundle index
/// (saturations). The key mirrors that order lexicographically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreezeKey {
    /// Water level at which the bundle froze.
    pub(super) time: f64,
    /// 0 = satisfied its demand, 1 = frozen by a saturating link.
    pub(super) kind: u8,
    /// kind 0: the bundle's global index; kind 1: the saturating link.
    pub(super) primary: u32,
    /// kind 0: unused; kind 1: the bundle's global index.
    pub(super) secondary: u32,
}

impl FreezeKey {
    pub(crate) fn satisfied(time: f64, bundle: u32) -> Self {
        FreezeKey {
            time,
            kind: 0,
            primary: bundle,
            secondary: 0,
        }
    }

    pub(crate) fn congested(time: f64, link: u32, bundle: u32) -> Self {
        FreezeKey {
            time,
            kind: 1,
            primary: link,
            secondary: bundle,
        }
    }

    /// The same freeze event with the bundle renumbered — used when a
    /// previous evaluation's bundles shift position in a new input list.
    pub(super) fn with_bundle(self, bundle: u32) -> Self {
        if self.kind == 0 {
            FreezeKey {
                primary: bundle,
                ..self
            }
        } else {
            FreezeKey {
                secondary: bundle,
                ..self
            }
        }
    }

    /// The key's rank in the engine's event-processing order — water
    /// level (in `f64::total_cmp` order), then kind, primary, secondary
    /// — packed so that one integer comparison sorts by it.
    pub(super) fn rank(&self) -> u128 {
        debug_assert!(self.kind <= 1 && self.primary < 1 << 31);
        let bits = self.time.to_bits() as i64;
        // `total_cmp`'s transform, shifted from signed to unsigned order.
        let time = (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63);
        let event =
            u64::from(self.kind) << 63 | u64::from(self.primary) << 32 | u64::from(self.secondary);
        u128::from(time) << 64 | u128::from(event)
    }
}

/// A model outcome plus the traces [`crate::Incumbent::replace`] and
/// [`FlowModel::score_delta`] need to patch it incrementally.
///
/// [`FlowModel::score_delta`]: super::FlowModel::score_delta
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The equilibrium, exactly as [`FlowModel::evaluate`] returns it.
    ///
    /// [`FlowModel::evaluate`]: super::FlowModel::evaluate
    pub outcome: ModelOutcome,
    /// Per-bundle freeze records (same order as the input bundles).
    pub(super) freeze_keys: Vec<FreezeKey>,
    /// Per-bundle demands in bps — cached so delta scoring splices
    /// instead of recomputing O(bundles) demands per candidate.
    pub(super) demands: Vec<f64>,
    /// Crossing lists: `crossers[l]` holds the bundles crossing link
    /// `l`, ascending — cached so delta scoring merges per-link
    /// crossers lazily instead of rebuilding the structure per
    /// candidate, and one row per link so an in-place patch rewrites
    /// only the rows a change touches.
    pub(super) crossers: Vec<Vec<u32>>,
    /// Capacity per link in bps, exactly as the fill consumed it
    /// — cached so delta scoring borrows capacities from the incumbent
    /// instead of re-deriving (and re-allocating) them from the
    /// topology per candidate.
    pub(super) caps: Vec<f64>,
    /// Per-link "actually saturated in this equilibrium" mask (the
    /// congested list, unpacked) — the closure test of the incremental
    /// core reads it per link instead of re-building a mask per
    /// candidate.
    pub(super) saturated: Vec<bool>,
    /// Bottleneck components of this equilibrium compiled for candidate
    /// scoring ([`FlowModel::prepare_component`]). They describe the
    /// arrays above and live exactly as long as those stand: every
    /// in-place patch forgets them.
    ///
    /// [`FlowModel::prepare_component`]: super::FlowModel::prepare_component
    pub(super) compiled: Compiled,
}

/// The components compiled from one [`Evaluation`] since it last
/// changed. Forgetting them keeps their buffers, so a run compiles into
/// the same memory commit after commit.
#[derive(Clone, Debug, Default)]
pub(super) struct Compiled {
    /// Per previously-saturated link: the live component whose closure
    /// holds it, or [`NONE`].
    pub(super) of_link: Vec<u32>,
    /// The first `live` are valid.
    pub(super) comps: Vec<Component>,
    pub(super) live: usize,
    /// Closure work list.
    pub(super) queue: Vec<u32>,
}

impl Compiled {
    pub(super) fn forget(&mut self) {
        for comp in &self.comps[..self.live] {
            for &li in &comp.slot_link {
                self.of_link[li as usize] = NONE;
            }
        }
        self.live = 0;
    }

    /// The component a one-segment candidate can be filled through: the
    /// one whose closure holds every previously-saturated link among
    /// `changed_links` — at least one, or there is no closure to
    /// share.
    pub(super) fn covering(&self, changed_links: &[u32], saturated: &[bool]) -> Option<&Component> {
        if self.live == 0 {
            return None;
        }
        let mut changed = changed_links
            .iter()
            .filter(|&&li| saturated[li as usize])
            .map(|&li| self.of_link[li as usize]);
        let id = changed.next().filter(|&id| id != NONE)?;
        changed
            .all(|other| other == id)
            .then(|| &self.comps[id as usize])
    }
}

impl Evaluation {
    /// Whether the live compiled component holding `link` holds every
    /// saturated link too.
    pub(crate) fn component_holds_every_saturated(&self, link: LinkId) -> bool {
        let of = |l: LinkId| {
            self.compiled
                .of_link
                .get(l.index())
                .copied()
                .unwrap_or(NONE)
        };
        let id = of(link);
        id != NONE && self.outcome.congested.iter().all(|&l| of(l) == id)
    }

    /// Builds an evaluation, deriving the crossing lists from the
    /// bundles and the per-link saturation mask from the outcome's
    /// congested list.
    pub(super) fn assemble(
        outcome: ModelOutcome,
        freeze_keys: Vec<FreezeKey>,
        demands: Vec<f64>,
        bundles: &[BundleSpec],
        caps: Vec<f64>,
    ) -> Evaluation {
        let mut saturated = vec![false; caps.len()];
        for l in &outcome.congested {
            saturated[l.index()] = true;
        }
        Evaluation {
            outcome,
            freeze_keys,
            demands,
            crossers: build_crossers(bundles, caps.len()),
            caps,
            saturated,
            compiled: Compiled::default(),
        }
    }

    /// The first *bitwise* difference against `other`, if any, traces
    /// included — the oracle check behind the in-place patcher
    /// ([`crate::Incumbent::replace`] ≡ [`FlowModel::evaluate_traced`]).
    /// Hidden: a test helper, not a `PartialEq`.
    #[doc(hidden)]
    pub fn bitwise_mismatch(&self, other: &Self) -> Option<String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let key = |k: &FreezeKey| (k.time.to_bits(), k.kind, k.primary, k.secondary);
        if let Some(field) = self.outcome.bitwise_mismatch(&other.outcome) {
            return Some(field);
        }
        if !self
            .freeze_keys
            .iter()
            .map(key)
            .eq(other.freeze_keys.iter().map(key))
        {
            return Some("freeze keys".to_string());
        }
        if bits(&self.demands) != bits(&other.demands) {
            return Some("bundle demands".to_string());
        }
        if self.crossers != other.crossers {
            return Some("crossing lists".to_string());
        }
        if bits(&self.caps) != bits(&other.caps) {
            return Some("capacities".to_string());
        }
        (self.saturated != other.saturated).then(|| "saturation mask".to_string())
    }
}

/// Builds per-link crossing lists (`rows[l]`: the bundles crossing
/// link `l`, ascending).
fn build_crossers(bundles: &[BundleSpec], n_links: usize) -> Vec<Vec<u32>> {
    let mut counts = vec![0u32; n_links];
    for b in bundles {
        for l in &b.links {
            counts[l.index()] += 1;
        }
    }
    let mut rows: Vec<Vec<u32>> = counts
        .iter()
        .map(|&c| Vec::with_capacity(c as usize))
        .collect();
    for (bi, b) in bundles.iter().enumerate() {
        for l in &b.links {
            rows[l.index()].push(bi as u32);
        }
    }
    rows
}

/// A full fill's raw tables (bps) as a [`ModelOutcome`]; carried load is
/// the frozen load capped at capacity.
pub(super) fn outcome_of(
    rates: &[f64],
    status: &[BundleStatus],
    link_frozen: &[f64],
    link_demand: &[f64],
    caps: &[f64],
    congested: Vec<LinkId>,
) -> ModelOutcome {
    let bw = |v: &[f64]| v.iter().copied().map(Bandwidth::from_bps).collect();
    ModelOutcome::new(
        bw(rates),
        status.to_vec(),
        link_frozen
            .iter()
            .zip(caps)
            .map(|(&f, &c)| Bandwidth::from_bps(f.min(c)))
            .collect(),
        bw(link_demand),
        bw(caps),
        congested,
    )
}
