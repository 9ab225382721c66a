//! Fill-ready bottleneck components, and the one event loop that fills
//! them.
//!
//! Every fill this crate runs — a full evaluation, a worker's share of
//! a parallel one, the affected subset of a delta — first *compiles*
//! its bundles into a [`Component`]: members in ascending list order,
//! and everything the event loop of [`crate::engine`]'s module docs
//! touches in component-local indices (per-member link lists over
//! compact link *slots*, per-slot crossing rows, per-slot initial
//! sums), with its members' satisfaction events presorted. A subset met
//! once compiles into reusable scratch and is filled as it stands. The
//! closure around a previously-saturated link of an incumbent is
//! compiled once, and each candidate scored against that incumbent
//! fills it through a [`Patch`]: which members the candidate removed,
//! the bundles that replace them, and new sums and rows for the few
//! links either crosses. `run` is the only event loop; what a patch
//! changes is where it reads a bundle, a row and the next bundle event
//! from.

use crate::engine::{is_binding, FreezeKey};
use crate::spec::{BundleSpec, BundleStatus};
use fubar_graph::LinkId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// "No slot", "no component", "no override row".
pub(crate) const NONE: u32 = u32::MAX;

/// Earliest event first; bundle-satisfaction events beat
/// link-saturation events at equal times (a flow that exactly meets its
/// demand as the pipe fills is satisfied, not congested), then the
/// lower list index or link id. The order is total: two events of one
/// kind never share `idx`.
#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    /// 0 = bundle satisfied, 1 = link saturated.
    kind: u8,
    /// What ties break on: the bundle's index in the filled list, or
    /// the link's id.
    idx: u32,
    /// Where the loop finds it: the bundle's local index, or the
    /// link's slot.
    at: u32,
    /// For link events: the link version this event was computed against.
    version: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min.
        other
            .time
            .total_cmp(&self.time)
            .then(other.kind.cmp(&self.kind))
            .then(other.idx.cmp(&self.idx))
    }
}

/// One link's water-filling state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkState {
    capacity: f64,
    pub(crate) frozen_load: f64,
    active_weight: f64,
    version: u32,
    pub(crate) saturated: bool,
    /// Sum of unconstrained demands of crossing bundles.
    pub(crate) demand: f64,
}

impl LinkState {
    /// A link nobody crosses yet.
    fn idle(capacity: f64) -> Self {
        LinkState {
            capacity,
            frozen_load: 0.0,
            active_weight: 0.0,
            version: 0,
            saturated: false,
            demand: 0.0,
        }
    }

    /// Adds a crosser that has not started growing.
    fn admit(&mut self, weight: f64, demand: f64) {
        self.active_weight += weight;
        self.demand += demand;
    }

    /// Time at which this link saturates if nothing else changes.
    fn saturation_time(&self) -> Option<f64> {
        if self.saturated || self.active_weight <= 0.0 {
            return None;
        }
        Some(((self.capacity - self.frozen_load) / self.active_weight).max(0.0))
    }
}

/// A set of bundles in fill-ready form. `members` is the input; the
/// rest is derived from it by [`Component::compile`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Component {
    /// List index of each member, ascending; position = local index.
    pub(crate) members: Vec<u32>,
    /// Per member: growth weight and demand (bps).
    weight: Vec<f64>,
    demand: Vec<f64>,
    /// Member `b` crosses `slots[link_start[b]..link_start[b + 1]]`.
    link_start: Vec<u32>,
    slots: Vec<u32>,
    /// Slot → link id, in first-touch order over the members.
    pub(crate) slot_link: Vec<u32>,
    /// Link id → slot, [`NONE`] for links no member crosses.
    pub(crate) slot_of: Vec<u32>,
    /// Per slot: the link before anyone grows — weight and demand
    /// summed over its crossing members in member order, which is a
    /// full run's order.
    init: Vec<LinkState>,
    /// Per slot: the load its crossing members carried on it before —
    /// their rates in the evaluation the list was derived from, summed
    /// in member order; zero with no evaluation behind the list.
    prior: Vec<f64>,
    /// Slot `s` is crossed by members `rows[row_start[s]..row_start[s +
    /// 1]]` (local indices, ascending).
    row_start: Vec<u32>,
    rows: Vec<u32>,
    row_pos: Vec<u32>,
    /// `(satisfaction time, local index)` in the event order — filled
    /// by [`Component::presort`], which every fill runs; only a test
    /// leaves it empty, sending the members' events through the heap.
    stream: Vec<(f64, u32)>,
}

impl Component {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    fn slots_of(&self, b: usize) -> &[u32] {
        &self.slots[self.link_start[b] as usize..self.link_start[b + 1] as usize]
    }

    /// The members crossing the link in `slot`.
    pub(crate) fn row(&self, slot: usize) -> &[u32] {
        &self.rows[self.row_start[slot] as usize..self.row_start[slot + 1] as usize]
    }

    /// Whether the members' demands are the ones `demands` lists for
    /// them — false for a component compiled from another list.
    pub(crate) fn describes(&self, demands: &[f64]) -> bool {
        let listed = self.members.iter().map(|&g| demands.get(g as usize));
        listed.eq(self.demand.iter().map(Some))
    }

    /// Derives everything from `self.members`; `bundle` reads a member
    /// off the list they index (a slice, or a splice view nobody
    /// materialized), and `prior` its rate in the evaluation that list
    /// was derived from. Buffers are reused: past warm-up nothing is
    /// allocated.
    pub(crate) fn compile<'b>(
        &mut self,
        bundle: impl Fn(u32) -> &'b BundleSpec,
        prior: impl Fn(u32) -> f64,
        caps: &[f64],
    ) {
        for &li in &self.slot_link {
            self.slot_of[li as usize] = NONE;
        }
        if self.slot_of.len() < caps.len() {
            self.slot_of.resize(caps.len(), NONE);
        }
        self.weight.clear();
        self.demand.clear();
        self.link_start.clear();
        self.link_start.push(0);
        self.slots.clear();
        self.slot_link.clear();
        self.init.clear();
        self.prior.clear();
        self.stream.clear();
        for &gi in &self.members {
            let b = bundle(gi);
            let (weight, demand, rate) = (b.weight(), b.demand().bps(), prior(gi));
            debug_assert!(weight > 0.0 && demand > 0.0);
            self.weight.push(weight);
            self.demand.push(demand);
            for l in &b.links {
                let li = l.index();
                debug_assert!(
                    li < caps.len(),
                    "bundle {gi} references a link outside the topology"
                );
                if self.slot_of[li] == NONE {
                    self.slot_of[li] = self.slot_link.len() as u32;
                    self.slot_link.push(li as u32);
                    self.init.push(LinkState::idle(caps[li]));
                    self.prior.push(0.0);
                }
                let slot = self.slot_of[li];
                self.init[slot as usize].admit(weight, demand);
                self.prior[slot as usize] += rate;
                self.slots.push(slot);
            }
            self.link_start.push(self.slots.len() as u32);
        }

        let n_slots = self.slot_link.len();
        self.row_start.clear();
        self.row_start.resize(n_slots + 1, 0);
        for &s in &self.slots {
            self.row_start[s as usize + 1] += 1;
        }
        for s in 0..n_slots {
            self.row_start[s + 1] += self.row_start[s];
        }
        self.rows.clear();
        self.rows.resize(self.slots.len(), 0);
        self.row_pos.clear();
        self.row_pos.extend_from_slice(&self.row_start[..n_slots]);
        for b in 0..self.members.len() {
            for k in self.link_start[b]..self.link_start[b + 1] {
                let pos = &mut self.row_pos[self.slots[k as usize] as usize];
                self.rows[*pos as usize] = b as u32;
                *pos += 1;
            }
        }
    }

    /// Sorts the members' satisfaction events once, in [`Event`] order.
    /// Members are ascending, so ordering ties on the local index is
    /// ordering them on the list index — and stays so under a
    /// [`Patch`], which shifts the members behind its span by one
    /// constant.
    pub(crate) fn presort(&mut self) {
        let times = self.demand.iter().zip(&self.weight).map(|(d, w)| d / w);
        self.stream.clear();
        self.stream.extend(times.zip(0u32..));
        self.stream
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
}

/// What one candidate changes about a compiled [`Component`]: a span
/// of the list it was compiled from gives way to replacement bundles.
/// The members inside the span start frozen, the replacement bundles
/// get the local indices past the members', and every link either
/// crosses gets its row, initial sums and prior load again — the row
/// below the span, the replacement bundles, the row above it, which is
/// the spliced list's order. `Patch::EMPTY` changes nothing.
#[derive(Debug)]
pub(crate) struct Patch {
    /// Local indices of the members inside the span.
    gone: (usize, usize),
    /// The span's list indices — the replacement bundles' start where
    /// it does — and what it adds to the list index of every member
    /// behind it.
    span: (u32, u32),
    shift: i64,
    /// The replacement bundles, laid out as [`Component`] lays out its
    /// members. Links no member crosses get slots past the component's.
    weight: Vec<f64>,
    demand: Vec<f64>,
    link_start: Vec<u32>,
    slots: Vec<u32>,
    new_links: Vec<u32>,
    /// The links a removed member or a replacement bundle crosses, and
    /// per slot its entry here, or [`NONE`].
    touched: Vec<Touched>,
    touched_of: Vec<u32>,
    rows: Vec<u32>,
}

/// A link under a [`Patch`]: who crosses it (a range of the patch's
/// `rows`: local indices, ascending by list index), its state before
/// anyone grows, and its crossing members' prior load (see
/// [`Component`]; the replacement bundles carried nothing).
#[derive(Clone, Copy, Debug)]
struct Touched {
    slot: u32,
    row: (u32, u32),
    state: LinkState,
    prior: f64,
}

impl Default for Patch {
    fn default() -> Self {
        Patch::EMPTY
    }
}

impl Patch {
    pub(crate) const EMPTY: Patch = Patch {
        gone: (0, 0),
        span: (0, 0),
        shift: 0,
        weight: Vec::new(),
        demand: Vec::new(),
        link_start: Vec::new(),
        slots: Vec::new(),
        new_links: Vec::new(),
        touched: Vec::new(),
        touched_of: Vec::new(),
        rows: Vec::new(),
    };

    /// Describes the splice of `replacement` over list indices `start..
    /// start + removed` of the list `comp` was compiled from; `prior`
    /// reads a member's rate as [`Component::compile`]'s does.
    pub(crate) fn build(
        &mut self,
        comp: &Component,
        start: u32,
        removed: u32,
        replacement: &[BundleSpec],
        prior: impl Fn(u32) -> f64,
        caps: &[f64],
    ) {
        let (m, n_slots) = (comp.len(), comp.slot_link.len());
        self.span = (start, start + removed);
        self.gone = (
            comp.members.partition_point(|&g| g < self.span.0),
            comp.members.partition_point(|&g| g < self.span.1),
        );
        self.shift = replacement.len() as i64 - i64::from(removed);

        self.weight.clear();
        self.demand.clear();
        self.link_start.clear();
        self.link_start.push(0);
        self.slots.clear();
        self.new_links.clear();
        for b in replacement {
            self.weight.push(b.weight());
            self.demand.push(b.demand().bps());
            for l in &b.links {
                let known = comp.slot_of[l.index()];
                let slot = if known != NONE {
                    known as usize
                } else {
                    let new = self.new_links.iter().position(|&li| li == l.0);
                    n_slots
                        + new.unwrap_or_else(|| {
                            self.new_links.push(l.0);
                            self.new_links.len() - 1
                        })
                };
                self.slots.push(slot as u32);
            }
            self.link_start.push(self.slots.len() as u32);
        }

        // Every link a removed member or a replacement bundle crosses,
        // once: its row and its sums in the spliced list's order.
        let Patch {
            gone,
            weight,
            demand,
            link_start,
            slots,
            new_links,
            touched,
            rows,
            touched_of,
            ..
        } = self;
        touched.clear();
        rows.clear();
        touched_of.clear();
        touched_of.resize(n_slots + new_links.len(), NONE);
        let gone_slots = (gone.0..gone.1).flat_map(|b| comp.slots_of(b));
        for &slot in gone_slots.chain(slots.iter()) {
            let slot = slot as usize;
            if touched_of[slot] != NONE {
                continue;
            }
            touched_of[slot] = touched.len() as u32;
            let (row, capacity) = match slot.checked_sub(n_slots) {
                None => (comp.row(slot), comp.init[slot].capacity),
                Some(new) => (&[][..], caps[new_links[new] as usize]),
            };
            let below = row.partition_point(|&b| (b as usize) < gone.0);
            let above = row.partition_point(|&b| (b as usize) < gone.1);
            let row_start = rows.len();
            rows.extend_from_slice(&row[..below]);
            for r in 0..replacement.len() {
                let crossed = &slots[link_start[r] as usize..link_start[r + 1] as usize];
                let times = crossed.iter().filter(|&&s| s as usize == slot).count();
                rows.extend(std::iter::repeat_n((m + r) as u32, times));
            }
            rows.extend_from_slice(&row[above..]);
            let (mut state, mut carried) = (LinkState::idle(capacity), 0.0);
            for &b in &rows[row_start..] {
                match (b as usize).checked_sub(m) {
                    None => {
                        state.admit(comp.weight[b as usize], comp.demand[b as usize]);
                        carried += prior(comp.members[b as usize]);
                    }
                    Some(r) => state.admit(weight[r], demand[r]),
                }
            }
            touched.push(Touched {
                slot: slot as u32,
                row: (row_start as u32, rows.len() as u32),
                state,
                prior: carried,
            });
        }
    }

    /// How many bundles a fill of `comp` under this patch fills.
    pub(crate) fn filled_len(&self, comp: &Component) -> usize {
        comp.len() - (self.gone.1 - self.gone.0) + self.weight.len()
    }

    /// The list index of every bundle such a fill fills, ascending,
    /// each with its local index.
    pub(crate) fn filled<'a>(
        &'a self,
        comp: &'a Component,
    ) -> impl Iterator<Item = (u32, usize)> + 'a {
        let view = View { comp, patch: self };
        let (m, new) = (comp.len(), self.weight.len());
        (0..self.gone.0)
            .chain(m..m + new)
            .chain(self.gone.1..m)
            .map(move |b| (view.index(b), b))
    }
}

/// A component read through a patch.
#[derive(Clone, Copy)]
struct View<'a> {
    comp: &'a Component,
    patch: &'a Patch,
}

impl View<'_> {
    /// Weight and demand of local bundle `b`.
    fn growth(&self, b: usize) -> (f64, f64) {
        match b.checked_sub(self.comp.len()) {
            None => (self.comp.weight[b], self.comp.demand[b]),
            Some(r) => (self.patch.weight[r], self.patch.demand[r]),
        }
    }

    /// Index of local bundle `b` in the list being filled.
    fn index(&self, b: usize) -> u32 {
        match b.checked_sub(self.comp.len()) {
            None => {
                let g = self.comp.members[b];
                if g >= self.patch.span.1 {
                    (i64::from(g) + self.patch.shift) as u32
                } else {
                    g
                }
            }
            Some(r) => self.patch.span.0 + r as u32,
        }
    }

    fn slots_of(&self, b: usize) -> &[u32] {
        match b.checked_sub(self.comp.len()) {
            None => self.comp.slots_of(b),
            Some(r) => {
                let p = self.patch;
                &p.slots[p.link_start[r] as usize..p.link_start[r + 1] as usize]
            }
        }
    }

    /// The local bundles crossing the link in `slot`, ascending by list
    /// index.
    fn row(&self, slot: usize) -> &[u32] {
        match self.patch.touched_of.get(slot) {
            Some(&k) if k != NONE => {
                let (start, end) = self.patch.touched[k as usize].row;
                &self.patch.rows[start as usize..end as usize]
            }
            _ => self.comp.row(slot),
        }
    }

    /// Local bundle `b` meeting its demand at water level `time`.
    fn satisfaction(&self, b: usize, time: f64) -> Event {
        Event {
            time,
            kind: 0,
            idx: self.index(b),
            at: b as u32,
            version: 0,
        }
    }
}

/// What a fill works on and leaves behind: per-slot link states and
/// per-local-bundle results, plus the loop's own scratch. Reused from
/// fill to fill, so steady-state fills allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct FillState {
    /// Link id of every slot of the last fill, and parallel to it the
    /// link's state when the fill ended.
    pub(crate) touched_links: Vec<u32>,
    pub(crate) links: Vec<LinkState>,
    /// Per slot of the last fill: its crossing members' prior load (see
    /// [`Component`]).
    pub(crate) prior: Vec<f64>,
    /// Per local bundle of the last fill.
    pub(crate) rates: Vec<f64>,
    pub(crate) status: Vec<BundleStatus>,
    pub(crate) keys: Vec<FreezeKey>,
    active: Vec<bool>,
    heap: BinaryHeap<Event>,
    /// Links that saturated while starving a bundle, in saturation
    /// order.
    pub(crate) saturated: Vec<LinkId>,
    /// High-water marks and counters (see
    /// [`crate::engine::WorkspaceStats`]).
    pub(crate) peak_component: usize,
    pub(crate) peak_links: usize,
    pub(crate) peak_heap: usize,
    pub(crate) fills: usize,
    pub(crate) compiled_fills: usize,
    #[cfg(test)]
    pub(crate) probe: FillProbe,
}

/// Switches that restore a fill's earlier rules, and what the current
/// ones skipped — for the tests that hold the two alike.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct FillProbe {
    /// Arm every link with active weight, binding or not.
    pub(crate) arm_all: bool,
    /// Leave an unprepared fill's component unsorted, so that its
    /// members' events go through the heap.
    pub(crate) heap_bundles: bool,
    /// Links with active weight that a fill left unarmed.
    pub(crate) unarmed: usize,
}

impl FillState {
    /// Freezes local bundle `b` at water level `t`, updating every link
    /// it crosses (their events re-arm lazily on pop).
    fn freeze(&mut self, view: View<'_>, b: usize, t: f64, status: BundleStatus) {
        let (weight, demand) = view.growth(b);
        let rate = match status {
            BundleStatus::Satisfied => demand,
            BundleStatus::Congested(_) => (weight * t).min(demand),
        };
        let gi = view.index(b);
        self.rates[b] = rate;
        self.status[b] = status;
        self.keys[b] = match status {
            BundleStatus::Satisfied => FreezeKey::satisfied(t, gi),
            BundleStatus::Congested(l) => FreezeKey::congested(t, l.0, gi),
        };
        self.active[b] = false;
        for &slot in view.slots_of(b) {
            let ls = &mut self.links[slot as usize];
            ls.frozen_load += rate;
            ls.active_weight -= weight;
            if ls.active_weight < 1e-9 {
                ls.active_weight = 0.0;
            }
            // Lazily re-armed: the link's stale heap entry is a lower
            // bound on its true saturation time (each freeze lowers the
            // load slope, so saturation only moves later), and the pop
            // loop re-computes and re-pushes it when it surfaces. This
            // keeps heap traffic at O(links + stale pops) instead of
            // one push per (freeze × crossed link).
            ls.version += 1;
        }
    }

    /// Progressive filling of `comp` under `patch`. Event tie-breaking
    /// uses list indices and link ids throughout, so filling a subset
    /// whose members share no saturating link with the rest reproduces
    /// exactly what a full run computes for those bundles.
    pub(crate) fn run(&mut self, comp: &Component, patch: &Patch) {
        let view = View { comp, patch };
        let m = comp.len();
        let n = m + patch.weight.len();
        self.fills += 1;

        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.status.clear();
        self.status.resize(n, BundleStatus::Satisfied);
        self.keys.clear();
        self.keys.resize(n, FreezeKey::satisfied(0.0, 0));
        self.active.clear();
        self.active.resize(n, true);
        self.active[patch.gone.0..patch.gone.1].fill(false);
        let mut remaining = patch.filled_len(comp);

        self.touched_links.clear();
        self.touched_links.extend_from_slice(&comp.slot_link);
        self.touched_links.extend_from_slice(&patch.new_links);
        // The patch's own links are all among its touched ones.
        self.links.clear();
        self.links.extend_from_slice(&comp.init);
        self.links
            .resize(self.touched_links.len(), LinkState::idle(0.0));
        self.prior.clear();
        self.prior.extend_from_slice(&comp.prior);
        self.prior.resize(self.touched_links.len(), 0.0);
        let mut idle = 0;
        for t in &patch.touched {
            self.links[t.slot as usize] = t.state;
            self.prior[t.slot as usize] = t.prior;
            idle += usize::from(t.row.0 == t.row.1);
        }

        // Bundle events: the component's presorted stream, and the heap
        // for the patch's bundles (for all of them if the stream is
        // empty).
        self.saturated.clear();
        self.heap.clear();
        let heaped = if comp.stream.is_empty() { 0 } else { m };
        for b in heaped..n {
            if self.active[b] {
                let (weight, demand) = view.growth(b);
                self.heap.push(view.satisfaction(b, demand / weight));
            }
        }
        // Link events: only a link binding over the fill's own crossers
        // can saturate (its load never passes their summed demand), so
        // no other link is armed, and none is ever re-armed.
        for (slot, ls) in self.links.iter().enumerate() {
            let Some(time) = ls.saturation_time() else {
                continue;
            };
            #[cfg(test)]
            let armed = self.probe.arm_all || is_binding(ls.demand, ls.capacity);
            #[cfg(not(test))]
            let armed = is_binding(ls.demand, ls.capacity);
            if !armed {
                #[cfg(test)]
                {
                    self.probe.unarmed += 1;
                }
                continue;
            }
            self.heap.push(Event {
                time,
                kind: 1,
                idx: self.touched_links[slot],
                at: slot as u32,
                version: ls.version,
            });
        }
        self.peak_component = self.peak_component.max(remaining);
        self.peak_links = self.peak_links.max(self.links.len() - idle);
        self.peak_heap = self.peak_heap.max(self.heap.len());

        let mut stream = comp.stream.iter();
        let mut head: Option<Event> = None;
        while remaining > 0 {
            // The earlier of the stream's first unfrozen member and the
            // heap's top; `Event` orders the earlier one greater, and
            // the two never tie.
            if head.is_none() {
                let mut unfrozen = stream.by_ref().filter(|&&(_, b)| self.active[b as usize]);
                head = unfrozen
                    .next()
                    .map(|&(time, b)| view.satisfaction(b as usize, time));
            }
            let from_heap = match (&head, self.heap.peek()) {
                (Some(head), Some(top)) => top > head,
                (head, _) => head.is_none(),
            };
            let next = if from_heap {
                self.heap.pop()
            } else {
                head.take()
            };
            let Some(ev) = next else { break };
            let at = ev.at as usize;
            if ev.kind == 0 {
                if !self.active[at] {
                    continue; // frozen by an earlier link saturation
                }
                self.freeze(view, at, ev.time, BundleStatus::Satisfied);
                remaining -= 1;
                continue;
            }
            let ls = self.links[at];
            if ls.saturated || ls.active_weight <= 0.0 {
                continue; // dead: no active crossers left to freeze
            }
            if ls.version != ev.version {
                // Stale lower bound surfaced: re-arm at the current
                // saturation time (clamped to the frontier so
                // processing stays monotone in time).
                if let Some(time) = ls.saturation_time() {
                    self.heap.push(Event {
                        time: time.max(ev.time),
                        version: ls.version,
                        ..ev
                    });
                }
                continue;
            }
            self.links[at].saturated = true;
            let link = LinkId(ev.idx);
            self.saturated.push(link);
            let before = remaining;
            for &b in view.row(at) {
                if self.active[b as usize] {
                    self.freeze(view, b as usize, ev.time, BundleStatus::Congested(link));
                    remaining -= 1;
                }
            }
            debug_assert!(
                remaining < before,
                "a saturating link must have active crossers"
            );
        }
        debug_assert_eq!(remaining, 0, "every bundle must terminate");
    }
}
