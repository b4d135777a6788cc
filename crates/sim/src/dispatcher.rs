//! Online dispatch policies for phase 2.
//!
//! A [`Dispatcher`] is invoked by the engine every time a machine becomes
//! idle and answers "which pending task should this machine start?". It
//! sees only scheduler-visible information (estimates, placement, what
//! has completed so far) — never the actual time of an unfinished task,
//! which is how the engine enforces the semi-clairvoyant model.

use rds_core::{
    Error, Instance, MachineId, MachineSet, NetworkTopology, Placement, PlacementIndex, Result,
    TaskId, Time,
};

/// Started flag, stored in bit 31 of [`HotTask::hi`].
const STARTED: u32 = 1 << 31;
/// Span-end sentinel meaning "eligibility needs [`Placement::allows`]".
const NON_SPAN: u32 = STARTED - 1;

/// Packed per-task record for the dispatch hot loop: the pending flag,
/// the eligibility span, and the actual processing time share one
/// 16-byte record. At n=10^6 the dispatcher's pending check, the
/// engine's feasibility check, and the duration lookup would each be an
/// independent cache miss on separate arrays; packed together, the
/// scan's pending read warms the very line the engine reads next.
///
/// The span covers the `One`/`Span`/`All` placement shapes (the paper's
/// strategies); arbitrary mask placements store a sentinel and fall
/// back to [`Placement::allows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotTask {
    /// Actual processing time.
    actual: f64,
    /// Eligibility span start (meaningless under the sentinel).
    lo: u32,
    /// Bits 0..31: span end (exclusive) or [`NON_SPAN`]; bit 31: the
    /// started flag.
    hi: u32,
}

impl HotTask {
    /// Record for a pending task with the given actual time and
    /// placement set (`m` resolves the `All` span).
    pub fn new(actual: Time, set: &MachineSet, m: usize) -> Self {
        let (lo, hi) = match *set {
            MachineSet::One(id) => (id.index() as u32, id.index() as u32 + 1),
            MachineSet::Span { start, end } => (start, end),
            MachineSet::All => (0, m as u32),
            MachineSet::Mask(_) => (0, NON_SPAN),
        };
        debug_assert!(hi <= NON_SPAN, "machine count must fit in 31 bits");
        HotTask {
            actual: actual.get(),
            lo,
            hi,
        }
    }

    /// Record for a slotted run whose dispatcher embeds task ids
    /// ([`Dispatcher::embeds_task_ids`]): the span field carries the
    /// task id instead, so a dispatch resolves probe, duration, and
    /// identity from one cache line. Span eligibility is deliberately
    /// absent — the embedding dispatcher vouches for it.
    pub fn slotted(actual: Time, task: u32) -> Self {
        HotTask {
            actual: actual.get(),
            lo: task,
            hi: NON_SPAN,
        }
    }

    /// The embedded task id of a [`Self::slotted`] record.
    #[inline]
    pub(crate) fn slot_task(&self) -> u32 {
        self.lo
    }

    /// Record carrying only the pending flag (no span, zero time).
    pub fn pending_only(pending: bool) -> Self {
        HotTask {
            actual: 0.0,
            lo: 0,
            hi: if pending {
                NON_SPAN
            } else {
                NON_SPAN | STARTED
            },
        }
    }

    /// `true` while the task has not been started.
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.hi & STARTED == 0
    }

    /// Marks the task started.
    #[inline]
    pub(crate) fn mark_started(&mut self) {
        self.hi |= STARTED;
    }

    /// Marks a started task pending again (a requeue after its last
    /// attempt was lost).
    #[inline]
    pub(crate) fn mark_pending(&mut self) {
        self.hi &= !STARTED;
    }

    /// The task's actual processing time.
    #[inline]
    pub(crate) fn actual(&self) -> Time {
        Time::of(self.actual)
    }

    /// Span eligibility; `None` when the record holds the sentinel and
    /// the caller must consult the placement.
    #[inline]
    pub(crate) fn span_allows(&self, machine: u32) -> Option<bool> {
        let end = self.hi & !STARTED;
        if end == NON_SPAN {
            None
        } else {
            Some(self.lo <= machine && machine < end)
        }
    }
}

/// Appends one hot record per task to `column`: in `layout`, a
/// dispatcher's [`Dispatcher::hot_order`], when it covers every task
/// (the dispatcher's probe frontier then sweeps the column), in task-id
/// order otherwise. Returns `(by_slot, trusted)`: whether the column
/// follows the layout, and whether its records carry task ids in place
/// of spans because the dispatcher `embeds` them
/// ([`Dispatcher::embeds_task_ids`]) and so vouches for eligibility.
pub(crate) fn fill_hot_column(
    column: &mut Vec<HotTask>,
    layout: Option<&[TaskId]>,
    embeds: bool,
    actuals: &[Time],
    sets: &[MachineSet],
    m: usize,
) -> (bool, bool) {
    let n = actuals.len();
    match layout.filter(|order| order.len() == n) {
        Some(order) if embeds => {
            column.extend(
                order
                    .iter()
                    .map(|t| HotTask::slotted(actuals[t.index()], t.index() as u32)),
            );
            (true, true)
        }
        Some(order) => {
            column.extend(order.iter().map(|t| {
                let j = t.index();
                HotTask::new(actuals[j], &sets[j], m)
            }));
            (true, false)
        }
        None => {
            column.extend((0..n).map(|j| HotTask::new(actuals[j], &sets[j], m)));
            (false, false)
        }
    }
}

/// Read-only scheduler-visible state handed to the dispatcher.
pub struct SimView<'a> {
    /// The instance (estimates, sizes).
    pub instance: &'a Instance,
    /// The phase-1 placement restricting eligibility.
    pub placement: &'a Placement,
    /// One hot record per task. Layout depends on [`Self::by_slot`]:
    /// task-id order (`tasks[j]` is task `j`) when `false`, the
    /// dispatcher's [`Dispatcher::hot_order`] when `true`.
    pub tasks: &'a [HotTask],
    /// `true` when the engine laid `tasks` out in the dispatcher's own
    /// [`Dispatcher::hot_order`] — records then live at their *order
    /// position*, not their task id. Dispatch walks order positions
    /// monotonically, so in that layout the probe frontier is a
    /// sequential sweep instead of one random DRAM-latency read per
    /// task at n = 10^6. Dispatchers that declare a layout must index
    /// `tasks` by position whenever this is set.
    pub by_slot: bool,
}

impl SimView<'_> {
    /// `true` while task `t` has not been started.
    #[inline]
    pub fn is_pending(&self, t: TaskId) -> bool {
        self.tasks[t.index()].is_pending()
    }

    /// `true` if task `t` is still pending and may run on `machine`.
    #[inline]
    pub fn eligible(&self, t: TaskId, machine: MachineId) -> bool {
        let h = &self.tasks[t.index()];
        h.is_pending()
            && h.span_allows(machine.index() as u32)
                .unwrap_or_else(|| self.placement.allows(t, machine))
    }
}

/// An online dispatch policy.
pub trait Dispatcher {
    /// Picks the task `machine` should start at time `now`, or `None` to
    /// leave it idle (a machine left idle is never offered work again,
    /// since all tasks are released at time zero and eligibility is
    /// static).
    fn next_task(&mut self, machine: MachineId, now: Time, view: &SimView<'_>) -> Option<TaskId>;

    /// Observation hook: `task` completed on `machine` at `now`, having
    /// taken `actual` time (this is the moment the actual time becomes
    /// known to the scheduler).
    fn on_complete(&mut self, task: TaskId, machine: MachineId, actual: Time, now: Time) {
        let _ = (task, machine, actual, now);
    }

    /// Observation hook: a previously started `task` was lost (its
    /// machine failed) and is pending again. Dispatchers that skip
    /// started tasks must make it eligible once more.
    fn on_requeue(&mut self, task: TaskId) {
        let _ = task;
    }

    /// The dispatcher's preferred hot-column layout: slot `s` should
    /// hold the record of task `hot_order()[s]`. Returning `Some`
    /// promises the slice is a permutation of every task id and commits
    /// the dispatcher to (a) indexing `view.tasks` by order position
    /// whenever `view.by_slot` is set, and (b) reporting that position
    /// from [`Self::last_slot`] after each successful dispatch. `None`
    /// (the default) keeps the task-id layout.
    fn hot_order(&self) -> Option<&[TaskId]> {
        None
    }

    /// Slot — in the [`Self::hot_order`] layout — of the task returned
    /// by the immediately preceding [`Self::next_task`] call, or
    /// `u32::MAX` for identity-layout dispatchers. The engine uses it
    /// to reach the task's hot record without a task-id→slot lookup.
    fn last_slot(&self) -> u32 {
        u32::MAX
    }

    /// `true` when the dispatcher reads task ids out of the hot records
    /// themselves (slotted runs only). The engine then fills the column
    /// with [`HotTask::slotted`] records — id in place of the span — and
    /// trusts the dispatcher for placement eligibility, skipping the
    /// per-dispatch span check; `RDS_VALIDATE` still verifies the full
    /// schedule against the placement after the run. This keeps each
    /// dispatch on a single hot-column cache line at n = 10^6, where a
    /// second indexed column would cost a DRAM-latency miss per event.
    fn embeds_task_ids(&self) -> bool {
        false
    }

    /// Best-effort cache warm-up for an upcoming dispatch on `machine`.
    /// The engine calls this for every event in its look-ahead window
    /// before dispatching any of them: the hook's loads are mutually
    /// independent, so their DRAM misses overlap instead of serializing
    /// one dependent miss per event — the difference between ~114 ns and
    /// ~15 ns per frontier touch at n = 10^6. Must not change any
    /// observable dispatcher state.
    fn warm(&self, machine: MachineId, view: &SimView<'_>) {
        let _ = (machine, view);
    }

    /// Rewinds the dispatcher to the state it had when built, so one
    /// instance can serve another run over the same (instance,
    /// placement) pair: every decision of the next run must equal what
    /// a freshly built dispatcher would decide. Returns `false` when the
    /// dispatcher cannot rewind (the default); the caller must then
    /// build a new one.
    fn rewind(&mut self) -> bool {
        false
    }
}

/// Dispatches tasks following a fixed priority order: the idle machine
/// receives the first pending task in `order` that its placement allows.
///
/// - order = task-id order → Graham's online List Scheduling;
/// - order = estimate-descending → online LPT (`LPT-No Restriction`'s
///   phase 2, and the within-group policy of `LS-Group` if so configured).
///
/// Two internal execution paths produce identical dispatch decisions
/// (the `indexed_dispatch_matches_scan` property test proves it):
///
/// - **scan** (the default): one global fast-forward cursor plus a
///   linear scan, amortized O(1) under the everywhere placement but O(n)
///   per idle event under restricted placements;
/// - **indexed** ([`OrderedDispatcher::indexed`] /
///   [`OrderedDispatcher::auto`]): the priority order pre-restricted per
///   machine from a [`PlacementIndex`], with one fast-forward cursor per
///   machine — amortized O(1) for k-replica and grouped placements too,
///   the paper's main workloads.
#[derive(Debug, Clone)]
pub struct OrderedDispatcher {
    order: Vec<TaskId>,
    /// Index of the first possibly-pending entry (fast-forward cursor
    /// valid for the everywhere-placement case; general placements scan).
    cursor: usize,
    /// `pos_in_order[j]` = position of task `j` in `order`
    /// (`ABSENT` when the order does not contain `j`), so a requeue
    /// rewinds the cursor in O(1) instead of rescanning from zero.
    pos_in_order: Vec<u32>,
    /// Per-machine restriction of `order`, when built.
    index: Option<IndexedOrder>,
    /// `true` when `order` is a full permutation of the task ids, so it
    /// can serve as the engine's hot-column layout.
    layout_ok: bool,
    /// CSR-order hot layout (`csr_layout[c]` = task of CSR entry `c`),
    /// available when the deduplicated rows *partition* the task set —
    /// every span workload. In that layout each row probes its own
    /// contiguous hot-column segment strictly left to right, so the
    /// active working set is one cache line per row instead of a
    /// multi-megabyte random band. Preferred over the order layout.
    csr_layout: Option<Vec<TaskId>>,
    /// Order position of the last dispatched task (`u32::MAX` outside
    /// a slotted run) — the [`Dispatcher::last_slot`] answer.
    last: u32,
}

/// Sentinel for "task not present in this priority order".
const ABSENT: u32 = u32::MAX;

/// The priority order restricted per machine (CSR layout over order
/// positions), plus one fast-forward cursor per machine.
#[derive(Debug, Clone)]
struct IndexedOrder {
    /// Machine → row id. Machines whose candidate lists are identical
    /// (e.g. every machine of one span group) share a row — and with it
    /// one cursor, so a task started by one sibling never costs the
    /// others a re-probe of its (cold, random) pending record. Under the
    /// paper's span placements this halves the hot-path pending reads
    /// and the `tasks` column footprint at n = 10^6.
    row: Vec<u32>,
    /// `offsets[r]..offsets[r+1]` bounds row `r`'s slice of `ranks`;
    /// length `rows + 1`.
    offsets: Vec<u32>,
    /// Positions into `order`, ascending within each row — the row's
    /// eligible tasks in priority order. Kept for the requeue
    /// rewind's binary search; the dispatch scan reads `tasks`.
    ranks: Vec<u32>,
    /// `tasks[c]` = `order[ranks[c]].index()`: the task at each rank
    /// position, precomputed so the hot scan reads one sequential
    /// column instead of bouncing through `order` — at n=10^6 that
    /// indirection is a cache miss per scan step.
    tasks: Vec<u32>,
    /// Absolute per-row cursors into `ranks`; entries left of a cursor
    /// are known-started (unless a requeue rewound it). Sharing a
    /// cursor is sound because "started" is monotone within a run: the
    /// first pending entry at or after the shared cursor is the same
    /// task every sibling's private scan would have found.
    cursors: Vec<u32>,
    /// Per-machine `(cursor, end)` frontier over the machine's row
    /// segment, used by the CSR-layout dispatch path: the whole probe
    /// state is one 8-byte read away from the machine id, with no
    /// row/offsets hops on the dependent chain. Private cursors re-skip
    /// a started entry at most once per sibling — still amortized O(1)
    /// per dispatch since rows hold at most a handful of machines.
    mframe: Vec<(u32, u32)>,
}

impl IndexedOrder {
    fn build(order: &[TaskId], pos_in_order: &[u32], index: &PlacementIndex) -> Self {
        let m = index.m();
        let mut row = Vec::with_capacity(m);
        let mut offsets = vec![0u32];
        let mut ranks: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut seen: std::collections::HashMap<Vec<u32>, u32> = std::collections::HashMap::new();
        for i in 0..m {
            scratch.clear();
            scratch.extend(
                index
                    .tasks_on(MachineId::new(i))
                    .map(|t| pos_in_order.get(t.index()).copied().unwrap_or(ABSENT))
                    .filter(|&r| r != ABSENT),
            );
            // The CSR row is ascending by task id; re-sort by priority
            // rank so each row replays `order` restricted to the machine.
            scratch.sort_unstable();
            let next = offsets.len() as u32 - 1;
            let r = *seen.entry(scratch.clone()).or_insert_with(|| {
                ranks.extend_from_slice(&scratch);
                offsets.push(ranks.len() as u32);
                next
            });
            row.push(r);
        }
        let tasks = ranks
            .iter()
            .map(|&r| order[r as usize].index() as u32)
            .collect();
        let rows = offsets.len() - 1;
        let cursors = offsets[..rows].to_vec();
        let mframe = row
            .iter()
            .map(|&r| (offsets[r as usize], offsets[r as usize + 1]))
            .collect();
        IndexedOrder {
            row,
            offsets,
            ranks,
            tasks,
            cursors,
            mframe,
        }
    }
}

impl OrderedDispatcher {
    /// Dispatcher following the given priority order (scan path).
    pub fn new(order: Vec<TaskId>) -> Self {
        let max_task = order.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        let mut pos_in_order = vec![ABSENT; max_task];
        for (pos, t) in order.iter().enumerate() {
            pos_in_order[t.index()] = pos as u32;
        }
        // A full permutation of 0..n (no gap, no duplicate — a duplicate
        // forces a gap at equal lengths) can double as the hot layout.
        let layout_ok = pos_in_order.len() == order.len() && !pos_in_order.contains(&ABSENT);
        OrderedDispatcher {
            order,
            cursor: 0,
            pos_in_order,
            index: None,
            layout_ok,
            csr_layout: None,
            last: u32::MAX,
        }
    }

    /// Task-id (FIFO) order — Graham's List Scheduling.
    pub fn fifo(instance: &Instance) -> Self {
        Self::new(instance.task_ids().collect())
    }

    /// Non-increasing estimate order — online LPT.
    pub fn lpt_by_estimate(instance: &Instance) -> Self {
        Self::new(instance.ids_by_estimate_desc())
    }

    /// Dispatcher on the indexed path: `order` restricted per machine
    /// from the placement's eligibility index. Must be driven against
    /// the same placement the index was built from — the engine's
    /// feasibility check rejects anything else.
    pub fn indexed(order: Vec<TaskId>, index: &PlacementIndex) -> Self {
        let mut d = Self::new(order);
        let idx = IndexedOrder::build(&d.order, &d.pos_in_order, index);
        // The CSR layout is valid when the deduplicated rows cover each
        // task exactly once (then `tasks` is a permutation of the ids).
        if d.layout_ok && idx.tasks.len() == d.order.len() {
            let mut seen = vec![false; d.order.len()];
            let partition = idx.tasks.iter().all(|&t| {
                let s = &mut seen[t as usize];
                !std::mem::replace(s, true)
            });
            if partition {
                d.csr_layout = Some(idx.tasks.iter().map(|&t| TaskId::new(t as usize)).collect());
            }
        }
        d.index = Some(idx);
        d
    }

    /// Picks the execution path for `placement`: indexed when the
    /// placement is restricted enough that per-machine lists pay for
    /// themselves ([`PlacementIndex::worth_indexing`]), the plain scan
    /// otherwise (dense placements are already amortized O(1)).
    pub fn auto(order: Vec<TaskId>, placement: &Placement) -> Self {
        if PlacementIndex::worth_indexing(placement) {
            Self::indexed(order, &PlacementIndex::build(placement))
        } else {
            Self::new(order)
        }
    }

    /// `true` when dispatching through per-machine indexed lists.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Rewinds every cursor so the dispatcher can serve a fresh run,
    /// without reallocating any internal storage — the reuse hook for
    /// Monte-Carlo campaigns that re-run one (instance, placement) pair
    /// across many realizations.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.last = u32::MAX;
        if let Some(idx) = &mut self.index {
            let rows = idx.cursors.len();
            idx.cursors.copy_from_slice(&idx.offsets[..rows]);
            for (i, f) in idx.mframe.iter_mut().enumerate() {
                f.0 = idx.offsets[idx.row[i] as usize];
            }
        }
    }
}

impl Dispatcher for OrderedDispatcher {
    fn next_task(&mut self, machine: MachineId, _now: Time, view: &SimView<'_>) -> Option<TaskId> {
        self.last = u32::MAX;
        // In a slotted run the hot column is in *our* declared layout —
        // CSR entry order when available, order-position otherwise; in
        // an unslotted run records live at their task ids.
        let by_slot = view.by_slot;
        let csr_slots = self.csr_layout.is_some();
        if let Some(idx) = &mut self.index {
            if by_slot && csr_slots {
                // CSR fast path: the machine's whole probe state is its
                // `(cursor, end)` pair, and the probe index IS the slot,
                // so each dispatch is one metadata read plus a strictly
                // left-to-right sweep of the machine's own hot-column
                // segment — the access pattern that keeps n = 10^6 runs
                // cache-resident.
                let (mut c, hi) = idx.mframe[machine.index()];
                while c < hi {
                    let rec = &view.tasks[c as usize];
                    if rec.is_pending() {
                        idx.mframe[machine.index()].0 = c;
                        self.last = c;
                        return Some(TaskId::new(rec.slot_task() as usize));
                    }
                    c += 1;
                }
                idx.mframe[machine.index()].0 = c;
                return None;
            }
            // Indexed path: every entry in the machine's row is eligible
            // by construction, so pending is the only filter, and the
            // shared per-row cursor makes the advance amortized O(1)
            // across all machines sharing the row. Under the CSR layout
            // the probe IS the cursor position: each row sweeps its own
            // contiguous hot-column segment left to right, the access
            // pattern that keeps n = 10^6 runs cache-resident.
            let r = idx.row[machine.index()] as usize;
            let hi = idx.offsets[r + 1];
            let mut c = idx.cursors[r];
            while c < hi {
                let slot = if !by_slot {
                    idx.tasks[c as usize]
                } else if csr_slots {
                    c
                } else {
                    idx.ranks[c as usize]
                };
                if view.tasks[slot as usize].is_pending() {
                    idx.cursors[r] = c;
                    if by_slot {
                        self.last = slot;
                    }
                    return Some(TaskId::new(idx.tasks[c as usize] as usize));
                }
                c += 1;
            }
            idx.cursors[r] = c;
            return None;
        }
        // Scan path: advance the global cursor past started tasks to keep
        // the common case (everywhere placement) O(1) amortized. A task's
        // slot in our layout is simply its order position.
        while self.cursor < self.order.len() {
            let slot = if by_slot {
                self.cursor
            } else {
                self.order[self.cursor].index()
            };
            if view.tasks[slot].is_pending() {
                break;
            }
            self.cursor += 1;
        }
        for k in self.cursor..self.order.len() {
            let t = self.order[k];
            let h = &view.tasks[if by_slot { k } else { t.index() }];
            let ok = h.is_pending()
                && h.span_allows(machine.index() as u32)
                    .unwrap_or_else(|| view.placement.allows(t, machine));
            if ok {
                if by_slot {
                    self.last = k as u32;
                }
                return Some(t);
            }
        }
        None
    }

    fn hot_order(&self) -> Option<&[TaskId]> {
        if let Some(csr) = &self.csr_layout {
            return Some(csr.as_slice());
        }
        self.layout_ok.then_some(self.order.as_slice())
    }

    fn embeds_task_ids(&self) -> bool {
        self.csr_layout.is_some()
    }

    fn warm(&self, machine: MachineId, view: &SimView<'_>) {
        // Touch the machine's current frontier record so the real probe
        // hits a warm line. `black_box` forces the 16-byte load without
        // letting the optimizer see the value is unused.
        if self.csr_layout.is_none() {
            return;
        }
        let Some(idx) = &self.index else { return };
        let (c, hi) = idx.mframe[machine.index()];
        if c < hi {
            std::hint::black_box(view.tasks[c as usize]);
        }
    }

    fn last_slot(&self) -> u32 {
        self.last
    }

    fn rewind(&mut self) -> bool {
        self.reset();
        true
    }

    fn on_requeue(&mut self, task: TaskId) {
        // A started task became pending again: any cursor that passed its
        // order position must rewind — but only to that position, not to
        // zero, so a long fault campaign doesn't pay a full rescan per
        // machine failure.
        let Some(&pos) = self.pos_in_order.get(task.index()) else {
            return;
        };
        if pos == ABSENT {
            return;
        }
        self.cursor = self.cursor.min(pos as usize);
        if let Some(idx) = &mut self.index {
            for r in 0..idx.cursors.len() {
                let lo = idx.offsets[r] as usize;
                let hi = idx.offsets[r + 1] as usize;
                // The row holds `pos` iff its machines host the task;
                // rows are rank-sorted, so a binary search finds it.
                if let Ok(k) = idx.ranks[lo..hi].binary_search(&pos) {
                    idx.cursors[r] = idx.cursors[r].min((lo + k) as u32);
                }
            }
            // The CSR path advances the per-machine frontiers, not the
            // row cursors: rewind the frontier of every machine whose row
            // holds the task to the task's entry, by the same search.
            for (i, f) in idx.mframe.iter_mut().enumerate() {
                let r = idx.row[i] as usize;
                let lo = idx.offsets[r] as usize;
                let hi = idx.offsets[r + 1] as usize;
                if let Ok(k) = idx.ranks[lo..hi].binary_search(&pos) {
                    f.0 = f.0.min((lo + k) as u32);
                }
            }
        }
    }
}

/// Locality-aware dispatch: the idle machine receives, among the
/// pending tasks its placement allows, the one with the *cheapest
/// transfer* from its data home ([`Placement::primary`]) — ties broken
/// by the priority order. A busier-but-local replica therefore beats a
/// remote one, the data-locality objective of Zhao et al.
///
/// The transfer the dispatcher minimizes is exactly what
/// [`crate::Engine::run_hetero`] charges when the task starts, so the
/// policy and the cost model agree by construction.
///
/// Collapse guarantee: under an all-zero topology every candidate costs
/// `0.0`, the scan returns the *first* pending eligible task in order —
/// precisely [`OrderedDispatcher`]'s scan decision — so the zero-latency
/// run is schedule-identical to the baseline dispatcher (the
/// `hetero_props` differential proptests pin this down).
#[derive(Debug, Clone)]
pub struct LocalityDispatcher {
    order: Vec<TaskId>,
    /// Fast-forward cursor past known-started order positions.
    cursor: usize,
    topology: NetworkTopology,
    /// `homes[j]` = primary machine of task `j`.
    homes: Vec<u32>,
}

impl LocalityDispatcher {
    /// Dispatcher over `order` charging transfers per `topology`, with
    /// each task's home taken from `placement`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when the topology's machine count
    /// differs from the placement's.
    pub fn new(
        order: Vec<TaskId>,
        placement: &Placement,
        topology: NetworkTopology,
    ) -> Result<Self> {
        if topology.m() != placement.m() {
            return Err(Error::InvalidParameter {
                what: "network topology covers a different machine count than the placement",
            });
        }
        let homes = (0..placement.n())
            .map(|j| placement.primary(TaskId::new(j)).index() as u32)
            .collect();
        Ok(LocalityDispatcher {
            order,
            cursor: 0,
            topology,
            homes,
        })
    }

    /// Task-id (FIFO) priority with locality tie-breaking.
    ///
    /// # Errors
    /// Same contract as [`Self::new`].
    pub fn fifo(
        instance: &Instance,
        placement: &Placement,
        topology: NetworkTopology,
    ) -> Result<Self> {
        Self::new(instance.task_ids().collect(), placement, topology)
    }

    /// Non-increasing estimate (LPT) priority with locality
    /// tie-breaking.
    ///
    /// # Errors
    /// Same contract as [`Self::new`].
    pub fn lpt_by_estimate(
        instance: &Instance,
        placement: &Placement,
        topology: NetworkTopology,
    ) -> Result<Self> {
        Self::new(instance.ids_by_estimate_desc(), placement, topology)
    }

    /// The transfer latency this dispatcher charges for starting `task`
    /// on `machine` (zero on the task's home machine).
    #[inline]
    pub fn transfer(&self, task: TaskId, machine: MachineId) -> f64 {
        let home = MachineId::new(self.homes[task.index()] as usize);
        self.topology.latency(home, machine)
    }
}

impl Dispatcher for LocalityDispatcher {
    fn next_task(&mut self, machine: MachineId, _now: Time, view: &SimView<'_>) -> Option<TaskId> {
        // No hot_order is declared, so records always live at task ids.
        debug_assert!(!view.by_slot, "LocalityDispatcher never declares a layout");
        while self.cursor < self.order.len()
            && !view.tasks[self.order[self.cursor].index()].is_pending()
        {
            self.cursor += 1;
        }
        let mut best: Option<(f64, TaskId)> = None;
        for k in self.cursor..self.order.len() {
            let t = self.order[k];
            let h = &view.tasks[t.index()];
            let ok = h.is_pending()
                && h.span_allows(machine.index() as u32)
                    .unwrap_or_else(|| view.placement.allows(t, machine));
            if !ok {
                continue;
            }
            let cost = self.transfer(t, machine);
            if cost == 0.0 {
                // A local candidate cannot be beaten, and scanning in
                // priority order makes this the best-ranked local one.
                return Some(t);
            }
            // Strict `<` keeps the earliest-ranked task among equal
            // costs, matching the (cost, rank) lexicographic minimum.
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, t));
            }
        }
        best.map(|(_, t)| t)
    }

    fn on_requeue(&mut self, _task: TaskId) {
        // Faults are rare on this path; a full rescan is simplest and
        // always sound.
        self.cursor = 0;
    }
}

/// Dispatches a fixed task→machine assignment (no runtime choice):
/// each machine runs its preassigned tasks in the given per-machine order.
/// This is `LPT-No Choice`'s phase 2, and `SABO_Δ`'s.
#[derive(Debug, Clone)]
pub struct PinnedDispatcher {
    queues: Vec<Vec<TaskId>>, // per machine, in reverse execution order
    /// Per machine, how many entries of its queue are still live
    /// (entries at `live[i]..` were consumed). Dispatch shrinks it
    /// instead of popping, so [`Dispatcher::rewind`] can restore it.
    live: Vec<usize>,
}

impl PinnedDispatcher {
    /// Builds per-machine queues from a per-task machine vector, running
    /// each machine's tasks in task-id order. A counting pass sizes each
    /// queue exactly, so no queue ever reallocates while filling.
    pub fn new(machine_of: &[MachineId], m: usize) -> Self {
        let mut counts = vec![0usize; m];
        for id in machine_of {
            counts[id.index()] += 1;
        }
        let mut queues: Vec<Vec<TaskId>> = counts.into_iter().map(Vec::with_capacity).collect();
        // Filling in reverse task-id order means popping from the back
        // yields task-id order, with no post-hoc reverse pass.
        for (j, id) in machine_of.iter().enumerate().rev() {
            queues[id.index()].push(TaskId::new(j));
        }
        Self::from_queues(queues)
    }

    fn from_queues(queues: Vec<Vec<TaskId>>) -> Self {
        let live = queues.iter().map(Vec::len).collect();
        PinnedDispatcher { queues, live }
    }
}

impl Dispatcher for PinnedDispatcher {
    fn next_task(&mut self, machine: MachineId, _now: Time, view: &SimView<'_>) -> Option<TaskId> {
        let i = machine.index();
        let q = &self.queues[i];
        let live = &mut self.live[i];
        while *live > 0 {
            let t = q[*live - 1];
            if view.is_pending(t) {
                return Some(t);
            }
            *live -= 1;
        }
        None
    }

    fn rewind(&mut self) -> bool {
        for (live, q) in self.live.iter_mut().zip(&self.queues) {
            *live = q.len();
        }
        true
    }

    // Note: a pinned task requeued after its machine failed is stranded
    // by construction (its queue entry was consumed and no other machine
    // holds it); the failure engine reports it. No cursor to reset.
}

/// Two-stage dispatcher for `ABO_Δ`: first drain a pinned set (the
/// memory-intensive tasks), then serve the replicated time-intensive
/// tasks from a priority order.
#[derive(Debug, Clone)]
pub struct StagedDispatcher {
    pinned: PinnedDispatcher,
    ordered: OrderedDispatcher,
}

impl StagedDispatcher {
    /// `pinned_of[j] = Some(machine)` for stage-1 tasks; stage-2 tasks
    /// (the `None`s) are served in `order` afterwards.
    pub fn new(pinned_of: &[Option<MachineId>], m: usize, order: Vec<TaskId>) -> Self {
        let mut counts = vec![0usize; m];
        for id in pinned_of.iter().flatten() {
            counts[id.index()] += 1;
        }
        let mut queues: Vec<Vec<TaskId>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (j, id) in pinned_of.iter().enumerate().rev() {
            if let Some(id) = id {
                queues[id.index()].push(TaskId::new(j));
            }
        }
        StagedDispatcher {
            pinned: PinnedDispatcher::from_queues(queues),
            ordered: OrderedDispatcher::new(order),
        }
    }
}

impl Dispatcher for StagedDispatcher {
    fn next_task(&mut self, machine: MachineId, now: Time, view: &SimView<'_>) -> Option<TaskId> {
        self.pinned
            .next_task(machine, now, view)
            .or_else(|| self.ordered.next_task(machine, now, view))
    }

    fn on_requeue(&mut self, task: TaskId) {
        self.ordered.on_requeue(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{Instance, Placement};

    fn setup(n: usize, m: usize) -> (Instance, Placement) {
        let inst = Instance::from_estimates(&vec![1.0; n], m).unwrap();
        let p = Placement::everywhere(&inst);
        (inst, p)
    }

    #[test]
    fn ordered_respects_pending_and_order() {
        let (inst, p) = setup(3, 2);
        let mut pending = vec![HotTask::pending_only(true); 3];
        let mut d = OrderedDispatcher::fifo(&inst);
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(0))
        );
        pending[0].mark_started();
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(1), Time::ZERO, &view),
            Some(TaskId::new(1))
        );
    }

    #[test]
    fn ordered_skips_ineligible_machines() {
        let inst = Instance::from_estimates(&[1.0, 1.0], 2).unwrap();
        let p = Placement::pinned(&inst, &[MachineId::new(1), MachineId::new(0)]).unwrap();
        let pending = vec![HotTask::pending_only(true); 2];
        let mut d = OrderedDispatcher::fifo(&inst);
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        // Machine 0 cannot take task 0 (pinned to machine 1); gets task 1.
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(1))
        );
    }

    #[test]
    fn pinned_serves_only_own_queue() {
        let (inst, p) = setup(4, 2);
        let machine_of = [
            MachineId::new(0),
            MachineId::new(1),
            MachineId::new(0),
            MachineId::new(1),
        ];
        let mut d = PinnedDispatcher::new(&machine_of, 2);
        let pending = vec![HotTask::pending_only(true); 4];
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(0))
        );
        assert_eq!(
            d.next_task(MachineId::new(1), Time::ZERO, &view),
            Some(TaskId::new(1))
        );
    }

    #[test]
    fn requeue_rewinds_cursor_to_task_position_only() {
        // Start tasks 0..4 so the fast-forward cursor sits at 3 (it
        // advances lazily, at the start of the *next* call), then requeue
        // task 2: the cursor must rewind to exactly 2, so the next
        // dispatch returns task 2 without rescanning 0 and 1.
        let (inst, p) = setup(5, 1);
        let mut d = OrderedDispatcher::fifo(&inst);
        let mut pending = vec![HotTask::pending_only(true); 5];
        for j in 0..4 {
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            assert_eq!(
                d.next_task(MachineId::new(0), Time::ZERO, &view),
                Some(TaskId::new(j))
            );
            pending[j].mark_started();
        }
        assert_eq!(d.cursor, 3);
        pending[2] = HotTask::pending_only(true); // the machine running task 2 failed
        d.on_requeue(TaskId::new(2));
        assert_eq!(d.cursor, 2, "rewind to the task's position, not zero");
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(2))
        );
        // Requeue of an earlier task still rewinds further back…
        d.on_requeue(TaskId::new(0));
        assert_eq!(d.cursor, 0);
        // …and a later position never moves the cursor forward.
        d.on_requeue(TaskId::new(4));
        assert_eq!(d.cursor, 0);
    }

    #[test]
    fn requeue_of_task_outside_order_is_a_noop() {
        let mut d = OrderedDispatcher::new(vec![TaskId::new(1), TaskId::new(0)]);
        d.cursor = 1;
        d.on_requeue(TaskId::new(7)); // never in the order
        assert_eq!(d.cursor, 1);
    }

    #[test]
    fn indexed_dispatch_matches_scan_decisions() {
        // Tasks 0,2 on machines {0,1}; tasks 1,3 on machines {2,3};
        // replay identical dispatch sequences through both paths.
        let inst = Instance::from_estimates(&[1.0; 4], 4).unwrap();
        let sets = vec![
            rds_core::MachineSet::Span { start: 0, end: 2 },
            rds_core::MachineSet::Span { start: 2, end: 4 },
            rds_core::MachineSet::Span { start: 0, end: 2 },
            rds_core::MachineSet::Span { start: 2, end: 4 },
        ];
        let p = Placement::new(&inst, sets).unwrap();
        let order: Vec<TaskId> = inst.task_ids().collect();
        let mut scan = OrderedDispatcher::new(order.clone());
        let mut indexed = OrderedDispatcher::auto(order, &p);
        assert!(indexed.is_indexed());
        let mut pending = vec![HotTask::pending_only(true); 4];
        for machine in [0usize, 2, 1, 3, 0] {
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            let a = scan.next_task(MachineId::new(machine), Time::ZERO, &view);
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            let b = indexed.next_task(MachineId::new(machine), Time::ZERO, &view);
            assert_eq!(a, b, "machine {machine}");
            if let Some(t) = a {
                pending[t.index()].mark_started();
            }
        }
    }

    #[test]
    fn indexed_requeue_rewinds_only_hosting_machines() {
        let inst = Instance::from_estimates(&[1.0; 4], 2).unwrap();
        // Tasks 0,1 on machine 0; tasks 2,3 on machine 1.
        let pins = [
            MachineId::new(0),
            MachineId::new(0),
            MachineId::new(1),
            MachineId::new(1),
        ];
        let p = Placement::pinned(&inst, &pins).unwrap();
        let order: Vec<TaskId> = inst.task_ids().collect();
        let mut d = OrderedDispatcher::auto(order, &p);
        assert!(d.is_indexed());
        let mut pending = vec![HotTask::pending_only(true); 4];
        // Drain machine 0 fully and machine 1 once.
        for (machine, expect) in [(0, 0), (0, 1), (1, 2)] {
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            let got = d
                .next_task(MachineId::new(machine), Time::ZERO, &view)
                .unwrap();
            assert_eq!(got.index(), expect);
            pending[expect].mark_started();
        }
        // Requeue task 1 (hosted only on machine 0): machine 0 sees it
        // again, machine 1's cursor is untouched and yields task 3.
        pending[1] = HotTask::pending_only(true);
        d.on_requeue(TaskId::new(1));
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(1))
        );
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(1), Time::ZERO, &view),
            Some(TaskId::new(3))
        );
    }

    #[test]
    fn reset_restores_a_fresh_dispatcher_without_rebuilding() {
        let inst = Instance::from_estimates(&[1.0; 3], 2).unwrap();
        let pins = [MachineId::new(0), MachineId::new(1), MachineId::new(0)];
        let p = Placement::pinned(&inst, &pins).unwrap();
        for mut d in [
            OrderedDispatcher::fifo(&inst),
            OrderedDispatcher::auto(inst.task_ids().collect(), &p),
        ] {
            let mut pending = vec![HotTask::pending_only(true); 3];
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            let first = d.next_task(MachineId::new(0), Time::ZERO, &view);
            assert_eq!(first, Some(TaskId::new(0)));
            pending[0].mark_started();
            pending[2].mark_started();
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            assert_eq!(d.next_task(MachineId::new(0), Time::ZERO, &view), None);
            // A reset must serve the next trial exactly like a rebuild.
            d.reset();
            let pending = vec![HotTask::pending_only(true); 3];
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            assert_eq!(
                d.next_task(MachineId::new(0), Time::ZERO, &view),
                Some(TaskId::new(0))
            );
        }
    }

    #[test]
    fn rewind_replays_consumed_pinned_queues() {
        let (inst, p) = setup(3, 2);
        let pins = [MachineId::new(0), MachineId::new(1), MachineId::new(0)];
        let mut d = PinnedDispatcher::new(&pins, 2);
        let mut pending = vec![HotTask::pending_only(true); 3];
        for t in [0, 2] {
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            assert_eq!(
                d.next_task(MachineId::new(0), Time::ZERO, &view),
                Some(TaskId::new(t))
            );
            pending[t].mark_started();
        }
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(d.next_task(MachineId::new(0), Time::ZERO, &view), None);
        assert!(d.rewind());
        let pending = vec![HotTask::pending_only(true); 3];
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(0))
        );
    }

    #[test]
    fn locality_prefers_local_task_over_rank() {
        let inst = Instance::from_estimates(&[4.0, 3.0], 2).unwrap();
        let sets = vec![
            rds_core::MachineSet::All,                       // home m0
            rds_core::MachineSet::Span { start: 1, end: 2 }, // home m1
        ];
        let p = Placement::new(&inst, sets).unwrap();
        let topo = NetworkTopology::uniform(2, 10.0).unwrap();
        let mut d = LocalityDispatcher::fifo(&inst, &p, topo).unwrap();
        let pending = vec![
            HotTask::new(Time::of(4.0), &p.sets()[0], 2),
            HotTask::new(Time::of(3.0), &p.sets()[1], 2),
        ];
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        // Machine 1: task 0 is remote (home m0, cost 10), task 1 is
        // local — the local one wins despite its lower rank.
        assert_eq!(
            d.next_task(MachineId::new(1), Time::ZERO, &view),
            Some(TaskId::new(1))
        );
        assert_eq!(d.transfer(TaskId::new(0), MachineId::new(1)), 10.0);
        assert_eq!(d.transfer(TaskId::new(1), MachineId::new(1)), 0.0);
        // Machine 0: task 0 is local and first in rank.
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(0))
        );
    }

    #[test]
    fn locality_picks_cheapest_remote_when_nothing_is_local() {
        use rds_core::{MachineMask, MachineSet};
        let inst = Instance::from_estimates(&[2.0, 2.0], 3).unwrap();
        let mk = |ids: &[usize]| {
            MachineSet::from_mask(
                3,
                MachineMask::from_iter_with_capacity(3, ids.iter().map(|&i| MachineId::new(i))),
            )
        };
        // Task 0 homed on m0, task 1 homed on m1; both reach m2.
        let p = Placement::new(&inst, vec![mk(&[0, 2]), mk(&[1, 2])]).unwrap();
        // m1 → m2 costs 1, m0 → m2 costs 5.
        let topo = NetworkTopology::new(
            3,
            vec![
                0.0, 5.0, 5.0, //
                5.0, 0.0, 1.0, //
                5.0, 1.0, 0.0,
            ],
        )
        .unwrap();
        let mut d = LocalityDispatcher::fifo(&inst, &p, topo).unwrap();
        let pending = vec![
            HotTask::new(Time::of(2.0), &p.sets()[0], 3),
            HotTask::new(Time::of(2.0), &p.sets()[1], 3),
        ];
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        // Machine 2 sees two remote candidates: task 1's transfer (1.0)
        // undercuts task 0's (5.0), overriding rank.
        assert_eq!(
            d.next_task(MachineId::new(2), Time::ZERO, &view),
            Some(TaskId::new(1))
        );
    }

    #[test]
    fn locality_with_zero_topology_matches_ordered_scan() {
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::pinned(
            &inst,
            &[
                MachineId::new(1),
                MachineId::new(0),
                MachineId::new(1),
                MachineId::new(0),
            ],
        )
        .unwrap();
        let topo = NetworkTopology::zero(2).unwrap();
        let mut loc = LocalityDispatcher::fifo(&inst, &p, topo).unwrap();
        let mut ord = OrderedDispatcher::fifo(&inst);
        let mut pending = vec![HotTask::pending_only(true); 4];
        for machine in [0usize, 1, 1, 0, 0, 1] {
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            let a = loc.next_task(MachineId::new(machine), Time::ZERO, &view);
            let view = SimView {
                instance: &inst,
                placement: &p,
                tasks: &pending,
                by_slot: false,
            };
            let b = ord.next_task(MachineId::new(machine), Time::ZERO, &view);
            assert_eq!(a, b, "machine {machine}");
            if let Some(t) = a {
                pending[t.index()].mark_started();
            }
        }
    }

    #[test]
    fn locality_rejects_mismatched_topology() {
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let topo = NetworkTopology::zero(3).unwrap();
        assert!(matches!(
            LocalityDispatcher::fifo(&inst, &p, topo).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
    }

    #[test]
    fn staged_drains_pinned_before_ordered() {
        let (inst, p) = setup(3, 1);
        let pinned_of = [Some(MachineId::new(0)), None, None];
        let mut d = StagedDispatcher::new(&pinned_of, 1, vec![TaskId::new(2), TaskId::new(1)]);
        let mut pending = vec![HotTask::pending_only(true); 3];
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(0))
        );
        pending[0].mark_started();
        let view = SimView {
            instance: &inst,
            placement: &p,
            tasks: &pending,
            by_slot: false,
        };
        // Then the ordered stage, in the given (2 before 1) order.
        assert_eq!(
            d.next_task(MachineId::new(0), Time::ZERO, &view),
            Some(TaskId::new(2))
        );
    }
}
