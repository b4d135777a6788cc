//! The resilience engine: scripted faults, recovery, speculative
//! re-execution, and graceful degradation.
//!
//! This generalizes the single-shot crash model of [`crate::failures`]
//! into a full fault taxonomy:
//!
//! - **Crash** — the machine is gone permanently; its in-flight attempt
//!   is lost and the task requeues on another data-holding machine.
//! - **Outage** — the machine is down for a window, then *rejoins* empty-
//!   handed and may be re-dispatched (crash-and-restart à la Zavou &
//!   Fernández Anta: all in-progress work at the crash point is lost).
//! - **Slowdown** — a degraded-speed phase: the machine keeps running but
//!   processes work at `speed < 1` for a while. Completion events are
//!   re-projected from the remaining work.
//! - **Straggler** — an estimate violation: one task's actual time is
//!   multiplied past the `α` envelope (`p_j > α·p̃_j`), deliberately
//!   breaking the model assumption the dispatcher relies on.
//!
//! On top of the fault script sit two mechanisms replication enables:
//!
//! - **Speculative re-execution** ([`Speculation`]): when an attempt has
//!   been running longer than `β·α·p̃_j` wall-clock, a backup attempt is
//!   requested on another data-holding machine. The first finisher wins;
//!   the losers are cancelled and their progress is counted as wasted
//!   work. Backups only consume *spare* capacity: an idle machine serves
//!   pending fresh tasks first and backups only when its dispatcher has
//!   nothing else for it.
//! - **Graceful degradation**: a stranded task (every holder dead) no
//!   longer aborts the run. The engine drains every event and reports an
//!   [`Outcome`] — `Completed`, or `Partial` with the unfinished set —
//!   plus [`ResilienceMetrics`].
//!
//! # Event-ordering tie-breaks
//!
//! At equal timestamps events process in kind order *fault (0) →
//! recovery (1) → idle/completion (2) → speculation check (3)*:
//!
//! - A failure at exactly a task's completion instant **kills the
//!   attempt** (conservative: the machine is gone first). This is the
//!   `KIND_FAULT < KIND_IDLE` tie-break, pinned by
//!   `failure_at_exact_completion_instant_kills_the_attempt`.
//! - A machine rejoining at time `t` participates in dispatch at `t`.
//! - A completion at exactly the speculation threshold does *not* launch
//!   a useless backup (completion processes first).

use crate::arena::SimArena;
use crate::dispatcher::{fill_hot_column, Dispatcher, HotTask, SimView};
use crate::trace::{Trace, TraceEvent};
use rds_core::{
    Error, Instance, MachineId, Placement, Realization, Result, Schedule, Slot, TaskId, Time,
    Uncertainty,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Permanent machine failure at `at`.
    Crash {
        /// The machine that fails.
        machine: MachineId,
        /// When it fails.
        at: Time,
    },
    /// Transient outage: down at `at`, rejoining (empty-handed, at full
    /// speed) `down_for` later.
    Outage {
        /// The machine that goes down.
        machine: MachineId,
        /// When the outage starts.
        at: Time,
        /// Length of the outage window.
        down_for: Time,
    },
    /// Degraded-speed phase: from `at` for `lasting`, the machine
    /// processes work at `speed` (fraction of nominal; `0 < speed`).
    /// Afterwards it returns to nominal speed.
    Slowdown {
        /// The degraded machine.
        machine: MachineId,
        /// When degradation starts.
        at: Time,
        /// Length of the degraded phase.
        lasting: Time,
        /// Processing-speed fraction during the phase.
        speed: f64,
    },
    /// Estimate violation: the task's actual processing time is
    /// multiplied by `factor` at execution, typically pushing it beyond
    /// the `α` envelope the realization was validated against. This is a
    /// deliberate model violation — the knob for "the estimate was just
    /// wrong".
    Straggler {
        /// The violated task.
        task: TaskId,
        /// Multiplier on the task's actual time (`> 0`).
        factor: f64,
    },
}

/// A validated collection of scripted faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// Wraps a list of fault events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultScript { events }
    }

    /// The empty (fault-free) script.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Bridges the legacy crash-only API.
    pub fn from_failures(failures: &[crate::failures::Failure]) -> Self {
        FaultScript {
            events: failures
                .iter()
                .map(|f| FaultEvent::Crash {
                    machine: f.machine,
                    at: f.at,
                })
                .collect(),
        }
    }

    /// The scripted events, in script order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when no fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the script can legitimately stretch slot durations
    /// beyond the realized times (slowdowns run work at reduced speed,
    /// stragglers multiply actual times), so duration-honesty checks do
    /// not apply to the resulting schedule.
    pub fn stretches_time(&self) -> bool {
        self.events.iter().any(|ev| {
            matches!(
                ev,
                FaultEvent::Slowdown { .. } | FaultEvent::Straggler { .. }
            )
        })
    }

    /// Checks machine/task indices and parameter domains against an
    /// instance.
    ///
    /// # Errors
    /// [`Error::MachineOutOfRange`] / [`Error::TaskOutOfRange`] for bad
    /// indices, [`Error::InvalidParameter`] for non-positive speeds or
    /// factors.
    pub fn validate(&self, instance: &Instance) -> Result<()> {
        let (n, m) = (instance.n(), instance.m());
        for ev in &self.events {
            match *ev {
                FaultEvent::Crash { machine, .. } | FaultEvent::Outage { machine, .. } => {
                    if machine.index() >= m {
                        return Err(Error::MachineOutOfRange {
                            machine: machine.index(),
                            m,
                        });
                    }
                }
                FaultEvent::Slowdown { machine, speed, .. } => {
                    if machine.index() >= m {
                        return Err(Error::MachineOutOfRange {
                            machine: machine.index(),
                            m,
                        });
                    }
                    if !(speed > 0.0 && speed.is_finite()) {
                        return Err(Error::InvalidParameter {
                            what: "slowdown speed must be positive and finite",
                        });
                    }
                }
                FaultEvent::Straggler { task, factor } => {
                    if task.index() >= n {
                        return Err(Error::TaskOutOfRange {
                            task: task.index(),
                            n,
                        });
                    }
                    if !(factor > 0.0 && factor.is_finite()) {
                        return Err(Error::InvalidParameter {
                            what: "straggler factor must be positive and finite",
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Speculative re-execution policy: request a backup attempt once a
/// task's attempt has run `β·α·p̃_j` of wall-clock time without
/// completing.
///
/// Under the model's guarantee an attempt finishes within `α·p̃_j`, so
/// with `β ≥ 1` a backup is triggered only by genuine anomalies
/// (slowdowns, stragglers); a fault-free envelope-respecting run is
/// provably unchanged by speculation. At most one backup is launched per
/// task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speculation {
    /// Patience multiplier `β` applied on top of the envelope bound.
    pub beta: f64,
    /// The uncertainty level `α` of the envelope.
    pub alpha: f64,
}

impl Speculation {
    /// Policy with patience `beta` over the `uncertainty` envelope.
    ///
    /// # Panics
    /// Panics when `beta` is not positive and finite.
    pub fn new(beta: f64, uncertainty: Uncertainty) -> Self {
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        Speculation {
            beta,
            alpha: uncertainty.alpha(),
        }
    }

    /// Wall-clock patience for a task with the given estimate.
    pub fn threshold(&self, estimate: Time) -> Time {
        estimate * (self.beta * self.alpha)
    }
}

/// Terminal state of a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every task completed.
    Completed,
    /// Some tasks could not complete (stranded or refused); the run
    /// finished gracefully with partial results.
    Partial {
        /// The unfinished tasks, in id order.
        unfinished: Vec<TaskId>,
    },
}

impl Outcome {
    /// `true` when every task completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed)
    }

    /// Number of unfinished tasks (0 when completed).
    pub fn unfinished_count(&self) -> usize {
        match self {
            Outcome::Completed => 0,
            Outcome::Partial { unfinished } => unfinished.len(),
        }
    }
}

/// Quantitative summary of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceMetrics {
    /// Total task count.
    pub n: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Attempts killed by machine failures whose task returned to the
    /// pending set (the legacy `restarts` notion).
    pub restarts: usize,
    /// Machines that rejoined after a transient outage.
    pub rejoins: usize,
    /// Degraded-speed phases applied.
    pub degraded_phases: usize,
    /// Speculative backup attempts launched.
    pub speculative_started: usize,
    /// Tasks won by a speculative backup.
    pub speculative_wins: usize,
    /// Attempts cancelled because a sibling finished first.
    pub cancelled: usize,
    /// Work units spent on attempts that did not complete (killed or
    /// cancelled) — the price of faults plus the price of speculation.
    pub wasted_work: Time,
    /// Recovery-cost weight accumulated over machine-down events
    /// (crashes and outage starts), charged from the engine's
    /// per-machine weights ([`ResilienceEngine::with_recovery_costs`]).
    /// With the default unit weights this counts down events.
    pub recovery_cost: f64,
    /// Completion time of the last finished task (zero when nothing
    /// finished).
    pub makespan: Time,
    /// Makespan of the fault-free reference run, when the caller
    /// provided one (see [`ResilienceReport::set_baseline`]).
    pub fault_free_makespan: Option<Time>,
}

impl ResilienceMetrics {
    /// Fraction of tasks that completed (`1.0` for an empty instance).
    pub fn survival_rate(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.completed as f64 / self.n as f64
        }
    }

    /// Makespan degradation versus the fault-free baseline
    /// (`makespan / fault_free_makespan`), when a baseline is known.
    pub fn degradation(&self) -> Option<f64> {
        self.fault_free_makespan
            .map(|base| self.makespan.ratio(base).unwrap_or(1.0))
    }
}

/// Everything a resilient run produced.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Completed / partial.
    pub outcome: Outcome,
    /// Completed work only (lost and cancelled attempts are not slots).
    /// Under slowdowns/stragglers a slot's duration may exceed the
    /// realization's actual time, so this schedule is not expected to
    /// pass `Schedule::validate`.
    pub schedule: Schedule,
    /// Chronological trace including fault, recovery, speculation, and
    /// cancellation events.
    pub trace: Trace,
    /// Quantitative summary.
    pub metrics: ResilienceMetrics,
}

impl ResilienceReport {
    /// Records the fault-free reference makespan (enables
    /// [`ResilienceMetrics::degradation`]).
    pub fn set_baseline(&mut self, fault_free_makespan: Time) {
        self.metrics.fault_free_makespan = Some(fault_free_makespan);
    }
}

/// Event kinds, ordered so that at equal times: faults kill first,
/// recoveries rejoin next, completions/dispatches process third, and
/// speculation checks observe the post-completion state last.
const KIND_FAULT: u8 = 0;
const KIND_RECOVERY: u8 = 1;
const KIND_IDLE: u8 = 2;
const KIND_SPEC: u8 = 3;

/// Recovery-event payloads (`data` field).
const RECOVER_REJOIN: u64 = 0;
const RECOVER_SPEED: u64 = 1;

/// A running attempt of a task on a machine.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: u64,
    task: TaskId,
    /// Position of the task's record in the pending column.
    slot: u32,
    start: Time,
    /// The task's realized time, reported at completion.
    actual: Time,
    /// Work units this attempt must process (actual × straggler factor).
    total: Time,
    /// Work units processed so far.
    done: Time,
    /// Wall-clock instant `done` was last advanced to.
    last: Time,
    speculative: bool,
}

impl Attempt {
    /// Advances processed work to wall-clock `now` at `speed`.
    fn advance(&mut self, now: Time, speed: f64) {
        self.done += (now - self.last) * speed;
        self.last = now;
    }

    /// Completion instant projected from the remaining work at `speed`.
    fn projected_end(&self, speed: f64) -> Time {
        self.last + self.total.saturating_sub(self.done) / speed
    }
}

#[derive(Debug)]
struct MachineState {
    alive: bool,
    /// Permanently crashed (suppresses a pending rejoin).
    crashed: bool,
    speed: f64,
    /// Parked: idle with no eligible work; woken on requeues/backups.
    parked: bool,
    attempt: Option<Attempt>,
    /// Invalidates queued completion events after any state change.
    epoch: u64,
}

/// Two bytes per task, so the column stays cache-resident at large n.
/// `attempts` counts live attempts: a primary plus at most one backup.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    Pending,
    Running { attempts: u8 },
    Done,
}

/// The resilience engine: one (instance, placement, realization, fault
/// script) execution context.
#[derive(Debug)]
pub struct ResilienceEngine<'a> {
    instance: &'a Instance,
    placement: &'a Placement,
    realization: &'a Realization,
    script: &'a FaultScript,
    speculation: Option<Speculation>,
    recovery_costs: Option<Vec<f64>>,
}

impl<'a> ResilienceEngine<'a> {
    /// Creates an engine.
    ///
    /// # Errors
    /// [`Error::TaskCountMismatch`] when the pieces disagree on the task
    /// count; the script's validation errors for out-of-range faults.
    pub fn new(
        instance: &'a Instance,
        placement: &'a Placement,
        realization: &'a Realization,
        script: &'a FaultScript,
    ) -> Result<Self> {
        // Name the component that actually disagreed: `min()` of the two
        // counts could report the *matching* one on a one-sided mismatch.
        if placement.n() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "placement",
                expected: instance.n(),
                got: placement.n(),
            });
        }
        if realization.n() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "realization",
                expected: instance.n(),
                got: realization.n(),
            });
        }
        script.validate(instance)?;
        Ok(ResilienceEngine {
            instance,
            placement,
            realization,
            script,
            speculation: None,
            recovery_costs: None,
        })
    }

    /// Enables speculative re-execution.
    pub fn with_speculation(mut self, speculation: Speculation) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Sets per-machine recovery-cost weights, charged to
    /// [`ResilienceMetrics::recovery_cost`] each time the machine goes
    /// down. The weight convention matches
    /// [`rds_core::ReliabilityModel::with_recovery_costs`], so a model's
    /// weights can be passed straight through.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on length mismatch or a non-finite
    /// or negative weight.
    pub fn with_recovery_costs(mut self, costs: Vec<f64>) -> Result<Self> {
        if costs.len() != self.instance.m() {
            return Err(Error::InvalidParameter {
                what: "recovery costs must cover every machine",
            });
        }
        if costs.iter().any(|&c| !c.is_finite() || c < 0.0) {
            return Err(Error::InvalidParameter {
                what: "recovery cost must be finite and >= 0",
            });
        }
        self.recovery_costs = Some(costs);
        Ok(self)
    }

    /// Runs the execution to quiescence under `dispatcher`.
    ///
    /// Never errors on stranded tasks — they surface as a partial
    /// [`Outcome`].
    ///
    /// # Errors
    /// Only dispatcher-misbehaviour errors (out-of-range, ineligible, or
    /// already-started picks).
    pub fn run(&self, dispatcher: &mut dyn Dispatcher) -> Result<ResilienceReport> {
        let mut scratch = FaultScratch::default();
        Run::new(self, dispatcher, &mut scratch, false).execute()
    }

    /// Reference path for the differential tests: identical to
    /// [`Self::run`] except that the pending column is rebuilt from the
    /// task states before every dispatch and every completion scans all
    /// machines for sibling attempts — the pre-incremental loop, O(n)
    /// per dispatch. Not for production use.
    ///
    /// # Errors
    /// Same as [`Self::run`].
    #[cfg(any(test, feature = "oracle"))]
    #[doc(hidden)]
    pub fn run_snapshot_oracle(&self, dispatcher: &mut dyn Dispatcher) -> Result<ResilienceReport> {
        let mut scratch = FaultScratch::default();
        Run::new(self, dispatcher, &mut scratch, true).execute()
    }

    /// Runs the execution to quiescence under `dispatcher`, reusing the
    /// arena's fault scratch across trials.
    ///
    /// Same semantics as [`Self::run`] — the report still owns its
    /// schedule and trace — but the event heap, per-task / per-machine
    /// state vectors, and the dispatcher's pending column are borrowed
    /// from `arena` and returned to it when the run finishes, so a
    /// steady-state campaign (same instance shape trial after trial)
    /// rebuilds none of them.
    ///
    /// # Errors
    /// Same as [`Self::run`].
    pub fn run_in(
        &self,
        arena: &mut SimArena,
        dispatcher: &mut dyn Dispatcher,
    ) -> Result<ResilienceReport> {
        Run::new(self, dispatcher, &mut arena.fault_scratch, false).execute()
    }
}

/// Reusable buffers for the resilience engine, owned by [`SimArena`].
///
/// A faulty trial needs an event heap seeded with `m` idle events plus
/// one entry per scripted fault, per-task and per-machine state vectors,
/// straggler multipliers, and the pending column the dispatcher reads.
/// [`ResilienceEngine::run`] builds all of that from scratch;
/// [`ResilienceEngine::run_in`] takes the buffers out of this scratch at
/// run start and puts them back (storage intact) at run end, so repeated
/// same-shape trials allocate only the report's own schedule and trace.
#[derive(Debug, Default)]
pub struct FaultScratch {
    queue: BinaryHeap<Reverse<(Time, u8, usize, u64)>>,
    machines: Vec<MachineState>,
    tasks: Vec<TaskState>,
    straggle: Vec<f64>,
    spec_queue: VecDeque<(TaskId, u32)>,
    spec_launched: Vec<bool>,
    recovery_costs: Vec<f64>,
    pending: Vec<HotTask>,
}

/// Per-run mutable state, split out of the engine for borrow hygiene.
struct Run<'a, 'b> {
    engine: &'a ResilienceEngine<'a>,
    dispatcher: &'b mut dyn Dispatcher,
    machines: Vec<MachineState>,
    tasks: Vec<TaskState>,
    /// Straggler multiplier per task (product of scripted factors).
    straggle: Vec<f64>,
    /// Tasks with a requested-but-unplaced speculative backup, with the
    /// slot of their hot record.
    spec_queue: VecDeque<(TaskId, u32)>,
    spec_launched: Vec<bool>,
    /// (time, kind, index, data): index is a fault index for
    /// `KIND_FAULT`, else a machine index; data is an epoch for
    /// `KIND_IDLE`, an attempt id for `KIND_SPEC`, a recovery tag for
    /// `KIND_RECOVERY`.
    queue: BinaryHeap<Reverse<(Time, u8, usize, u64)>>,
    slots: Vec<Vec<Slot>>,
    trace: Trace,
    metrics: ResilienceMetrics,
    remaining: usize,
    next_attempt_id: u64,
    /// Per-machine down-event weights (unit when the engine set none).
    recovery_costs: Vec<f64>,
    /// The pending column handed to the dispatcher: one hot record per
    /// task (pending flag, eligibility span or task id, realized time),
    /// so a start reads the record the dispatcher's probe just warmed
    /// instead of the placement and realization. Laid out in the
    /// dispatcher's [`Dispatcher::hot_order`] when it declares one (its
    /// probe then sweeps the column left to right), in task-id order
    /// otherwise. Filled once at run start (every task pending); the
    /// flag is then written only at the two transitions that change it:
    /// a non-speculative start (pending → started,
    /// [`Self::start_attempt`]) and the loss of a task's last live
    /// attempt (started → pending, [`Self::take_down`]). Completion
    /// keeps the started flag.
    pending: Vec<HotTask>,
    /// `true` when `pending` is in the dispatcher's layout.
    by_slot: bool,
    /// `true` when the records carry task ids instead of spans
    /// ([`Dispatcher::embeds_task_ids`]): the dispatcher vouches for
    /// eligibility, and the validator still checks the schedule.
    trusted: bool,
    /// Where the reusable buffers go back when the run finishes.
    scratch: Option<&'b mut FaultScratch>,
    /// Instrumentation flag and metric handles resolved once at run
    /// start (`false` / `None` while instrumentation is disabled, so the
    /// hot path pays one branch).
    obs: bool,
    obs_events: Option<std::sync::Arc<rds_obs::Counter>>,
    obs_dispatch: Option<std::sync::Arc<rds_obs::Counter>>,
    /// Rebuild `pending` (in task-id order) before every dispatch and
    /// scan every machine on completion
    /// ([`ResilienceEngine::run_snapshot_oracle`]).
    snapshot_oracle: bool,
}

impl<'a, 'b> Run<'a, 'b> {
    fn new(
        engine: &'a ResilienceEngine<'a>,
        dispatcher: &'b mut dyn Dispatcher,
        scratch: &'b mut FaultScratch,
        snapshot_oracle: bool,
    ) -> Self {
        let n = engine.instance.n();
        let m = engine.instance.m();
        let mut straggle = std::mem::take(&mut scratch.straggle);
        straggle.clear();
        straggle.resize(n, 1.0);
        let mut queue = std::mem::take(&mut scratch.queue);
        queue.clear();
        for i in 0..m {
            queue.push(Reverse((Time::ZERO, KIND_IDLE, i, 0)));
        }
        for (idx, ev) in engine.script.events().iter().enumerate() {
            match *ev {
                FaultEvent::Crash { at, .. }
                | FaultEvent::Outage { at, .. }
                | FaultEvent::Slowdown { at, .. } => {
                    queue.push(Reverse((at, KIND_FAULT, idx, 0)));
                }
                FaultEvent::Straggler { task, factor } => {
                    straggle[task.index()] *= factor;
                }
            }
        }
        let mut machines = std::mem::take(&mut scratch.machines);
        machines.clear();
        machines.extend((0..m).map(|_| MachineState {
            alive: true,
            crashed: false,
            speed: 1.0,
            parked: false,
            attempt: None,
            epoch: 0,
        }));
        let mut tasks = std::mem::take(&mut scratch.tasks);
        tasks.clear();
        tasks.resize(n, TaskState::Pending);
        let mut spec_queue = std::mem::take(&mut scratch.spec_queue);
        spec_queue.clear();
        let mut spec_launched = std::mem::take(&mut scratch.spec_launched);
        spec_launched.clear();
        spec_launched.resize(n, false);
        let mut recovery_costs = std::mem::take(&mut scratch.recovery_costs);
        recovery_costs.clear();
        match &engine.recovery_costs {
            Some(costs) => recovery_costs.extend_from_slice(costs),
            None => recovery_costs.resize(m, 1.0),
        }
        let mut pending = std::mem::take(&mut scratch.pending);
        pending.clear();
        let (by_slot, trusted) = fill_hot_column(
            &mut pending,
            dispatcher.hot_order().filter(|_| !snapshot_oracle),
            dispatcher.embeds_task_ids(),
            engine.realization.times(),
            engine.placement.sets(),
            m,
        );
        let obs = rds_obs::enabled();
        Run {
            engine,
            dispatcher,
            machines,
            tasks,
            straggle,
            spec_queue,
            spec_launched,
            queue,
            // The report moves these out, so they stay per-run.
            slots: vec![Vec::new(); m],
            trace: Trace::new(),
            metrics: ResilienceMetrics {
                n,
                completed: 0,
                restarts: 0,
                rejoins: 0,
                degraded_phases: 0,
                speculative_started: 0,
                speculative_wins: 0,
                cancelled: 0,
                wasted_work: Time::ZERO,
                recovery_cost: 0.0,
                makespan: Time::ZERO,
                fault_free_makespan: None,
            },
            remaining: n,
            next_attempt_id: 0,
            recovery_costs,
            pending,
            by_slot,
            trusted,
            scratch: Some(scratch),
            obs,
            obs_events: obs.then(|| rds_obs::global().counter("engine.events")),
            obs_dispatch: obs.then(|| rds_obs::global().counter("engine.dispatch")),
            snapshot_oracle,
        }
    }

    /// Returns the reusable buffers to the scratch they came from.
    /// Called once the run is over (the heap is empty and no dispatch
    /// will happen again); storage — not contents — is what survives.
    fn reclaim(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            scratch.queue = std::mem::take(&mut self.queue);
            scratch.machines = std::mem::take(&mut self.machines);
            scratch.tasks = std::mem::take(&mut self.tasks);
            scratch.straggle = std::mem::take(&mut self.straggle);
            scratch.spec_queue = std::mem::take(&mut self.spec_queue);
            scratch.spec_launched = std::mem::take(&mut self.spec_launched);
            scratch.recovery_costs = std::mem::take(&mut self.recovery_costs);
            scratch.pending = std::mem::take(&mut self.pending);
        }
    }

    fn execute(mut self) -> Result<ResilienceReport> {
        let _run_span = rds_obs::span("resilience.run");
        while let Some(Reverse((time, kind, index, data))) = self.queue.pop() {
            if let Some(events) = &self.obs_events {
                events.inc();
            }
            match kind {
                KIND_FAULT => self.on_fault(time, index),
                KIND_RECOVERY => self.on_recovery(time, index, data),
                KIND_IDLE => self.on_idle(time, index, data)?,
                _ => self.on_spec_check(time, index, data),
            }
        }
        let unfinished: Vec<TaskId> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, TaskState::Done))
            .map(|(j, _)| TaskId::new(j))
            .collect();
        let outcome = if unfinished.is_empty() {
            Outcome::Completed
        } else {
            Outcome::Partial { unfinished }
        };
        let schedule = Schedule::from_slots(std::mem::take(&mut self.slots));
        self.reclaim();
        if crate::validate::enabled() {
            // Even faulty runs must satisfy the structural invariants;
            // completeness only when the run claims it, duration honesty
            // only when the script cannot stretch time. Crashed attempts
            // are not slots, so overlap/placement checks always hold.
            let checks = crate::validate::Checks {
                completeness: matches!(outcome, Outcome::Completed),
                durations: !self.engine.script.stretches_time(),
                ..crate::validate::Checks::structural()
            };
            crate::validate::check_schedule(
                self.engine.instance,
                self.engine.placement,
                self.engine.realization,
                &schedule,
                &checks,
            )?;
        }
        Ok(ResilienceReport {
            outcome,
            schedule,
            trace: self.trace,
            metrics: self.metrics,
        })
    }

    /// Applies scripted fault `index` at `time`.
    fn on_fault(&mut self, time: Time, index: usize) {
        match self.engine.script.events()[index] {
            FaultEvent::Crash { machine, .. } => {
                let mi = machine.index();
                self.machines[mi].crashed = true;
                if self.machines[mi].alive {
                    self.take_down(time, mi);
                }
            }
            FaultEvent::Outage {
                machine, down_for, ..
            } => {
                let mi = machine.index();
                if self.machines[mi].alive {
                    self.take_down(time, mi);
                    self.queue.push(Reverse((
                        time + down_for,
                        KIND_RECOVERY,
                        mi,
                        RECOVER_REJOIN,
                    )));
                }
            }
            FaultEvent::Slowdown {
                machine,
                lasting,
                speed,
                ..
            } => {
                let mi = machine.index();
                if self.machines[mi].alive {
                    self.metrics.degraded_phases += 1;
                    self.set_speed(time, mi, speed);
                    self.trace.push(TraceEvent::Degraded {
                        time,
                        machine,
                        speed,
                    });
                    self.queue
                        .push(Reverse((time + lasting, KIND_RECOVERY, mi, RECOVER_SPEED)));
                }
            }
            FaultEvent::Straggler { .. } => unreachable!("stragglers are not timed events"),
        }
    }

    /// Takes machine `mi` down, killing its in-flight attempt. A failure
    /// arriving at exactly an attempt's completion instant kills the
    /// attempt (fault events order before completion events).
    fn take_down(&mut self, time: Time, mi: usize) {
        let st = &mut self.machines[mi];
        st.alive = false;
        st.parked = false;
        st.epoch += 1;
        let speed = st.speed;
        self.metrics.recovery_cost += self.recovery_costs[mi];
        self.trace.push(TraceEvent::Failure {
            time,
            machine: MachineId::new(mi),
        });
        if let Some(mut att) = st.attempt.take() {
            att.advance(time, speed);
            self.metrics.wasted_work += att.done.min(att.total);
            let j = att.task.index();
            match self.tasks[j] {
                TaskState::Running { attempts } if attempts > 1 => {
                    self.tasks[j] = TaskState::Running {
                        attempts: attempts - 1,
                    };
                }
                TaskState::Running { .. } => {
                    self.tasks[j] = TaskState::Pending;
                    self.pending[att.slot as usize].mark_pending();
                    self.metrics.restarts += 1;
                    self.dispatcher.on_requeue(att.task);
                    self.wake_parked(time);
                }
                _ => unreachable!("attempt for a non-running task"),
            }
        }
    }

    /// Handles a rejoin or a speed restoration for machine `index`.
    fn on_recovery(&mut self, time: Time, index: usize, tag: u64) {
        if tag == RECOVER_REJOIN {
            let st = &mut self.machines[index];
            if st.crashed {
                return; // a permanent crash arrived during the outage
            }
            st.alive = true;
            st.speed = 1.0;
            st.parked = false;
            st.epoch += 1;
            self.metrics.rejoins += 1;
            self.trace.push(TraceEvent::Recovery {
                time,
                machine: MachineId::new(index),
            });
            let epoch = self.machines[index].epoch;
            self.queue.push(Reverse((time, KIND_IDLE, index, epoch)));
        } else {
            // End of a degraded phase: restore nominal speed. (An outage
            // in between also restores speed; this is then a no-op.)
            if self.machines[index].alive && self.machines[index].speed != 1.0 {
                self.set_speed(time, index, 1.0);
                self.trace.push(TraceEvent::Degraded {
                    time,
                    machine: MachineId::new(index),
                    speed: 1.0,
                });
            }
        }
    }

    /// Changes machine `mi`'s speed, re-projecting its in-flight
    /// completion from the remaining work.
    fn set_speed(&mut self, time: Time, mi: usize, speed: f64) {
        let st = &mut self.machines[mi];
        let old = st.speed;
        if let Some(att) = st.attempt.as_mut() {
            att.advance(time, old);
            st.speed = speed;
            st.epoch += 1;
            let end = att.projected_end(speed);
            let epoch = st.epoch;
            self.queue.push(Reverse((end, KIND_IDLE, mi, epoch)));
        } else {
            st.speed = speed;
        }
    }

    /// Handles an idle/completion event for machine `index`.
    fn on_idle(&mut self, time: Time, index: usize, epoch: u64) -> Result<()> {
        if epoch != self.machines[index].epoch || !self.machines[index].alive {
            return Ok(()); // stale (attempt/speed changed) or dead
        }
        if let Some(att) = self.machines[index].attempt {
            // A matching-epoch event while an attempt runs is that
            // attempt's (re-)projected completion instant.
            self.complete(time, index, att);
        }
        self.dispatch(time, index)
    }

    /// Completes `att` on machine `index` at `time`.
    fn complete(&mut self, time: Time, index: usize, att: Attempt) {
        let machine = MachineId::new(index);
        let j = att.task.index();
        let st = &mut self.machines[index];
        st.attempt = None;
        st.epoch += 1;
        self.slots[index].push(Slot {
            task: att.task,
            start: att.start,
            end: time,
        });
        self.trace.push(TraceEvent::Complete {
            time,
            task: att.task,
            machine,
            actual: att.actual,
        });
        self.dispatcher
            .on_complete(att.task, machine, att.actual, time);
        self.metrics.completed += 1;
        self.metrics.makespan = self.metrics.makespan.max(time);
        self.remaining -= 1;
        if att.speculative {
            self.metrics.speculative_wins += 1;
        }
        let TaskState::Running { attempts } = self.tasks[j] else {
            unreachable!("completing a non-running task")
        };
        self.tasks[j] = TaskState::Done;
        // First finisher wins: cancel sibling attempts of the same task.
        // `attempts` counts the live ones, so a lone attempt (the common
        // case) skips the O(m) machine scan.
        let mut siblings = if self.snapshot_oracle {
            self.machines.len()
        } else {
            usize::from(attempts) - 1
        };
        for w in 0..self.machines.len() {
            if siblings == 0 {
                break;
            }
            let cancel = self.machines[w]
                .attempt
                .map(|a| a.task == att.task)
                .unwrap_or(false);
            if !cancel {
                continue;
            }
            siblings -= 1;
            let speed = self.machines[w].speed;
            let mut lost = self.machines[w].attempt.take().expect("checked above");
            lost.advance(time, speed);
            self.machines[w].epoch += 1;
            self.metrics.cancelled += 1;
            self.metrics.wasted_work += lost.done.min(lost.total);
            self.trace.push(TraceEvent::Cancelled {
                time,
                task: lost.task,
                machine: MachineId::new(w),
            });
            // The machine is free now; let it dispatch at this instant.
            let epoch = self.machines[w].epoch;
            self.queue.push(Reverse((time, KIND_IDLE, w, epoch)));
        }
    }

    /// Offers work to idle machine `index`: the dispatcher's pick first,
    /// a queued speculative backup second, else park.
    fn dispatch(&mut self, time: Time, index: usize) -> Result<()> {
        if self.remaining == 0 {
            return Ok(());
        }
        let machine = MachineId::new(index);
        let n = self.engine.instance.n();
        #[cfg(any(test, feature = "oracle"))]
        if self.snapshot_oracle {
            for (h, s) in self.pending.iter_mut().zip(&self.tasks) {
                if matches!(s, TaskState::Pending) {
                    h.mark_pending();
                } else {
                    h.mark_started();
                }
            }
        }
        debug_assert!(
            self.column_in_sync(),
            "pending column out of sync with the task states"
        );
        if let Some(dispatch) = &self.obs_dispatch {
            dispatch.inc();
        }
        let choice = {
            let _dispatch_span = rds_obs::span_if(self.obs, "engine.dispatch");
            let view = SimView {
                instance: self.engine.instance,
                placement: self.engine.placement,
                tasks: &self.pending,
                by_slot: self.by_slot,
            };
            self.dispatcher.next_task(machine, time, &view)
        };
        match choice {
            Some(task) => {
                if task.index() >= n {
                    return Err(Error::TaskOutOfRange {
                        task: task.index(),
                        n,
                    });
                }
                // In the dispatcher's layout the record sits at the slot
                // it just reported; its layout contract vouches for it.
                let slot = if self.by_slot {
                    let s = self.dispatcher.last_slot();
                    if s as usize >= n {
                        return Err(Error::InvalidParameter {
                            what: "slotted dispatcher did not report the task's slot",
                        });
                    }
                    s
                } else {
                    task.index() as u32
                };
                let rec = &self.pending[slot as usize];
                if !rec.is_pending() {
                    return Err(Error::InvalidParameter {
                        what: "dispatcher returned an already-started task",
                    });
                }
                let allowed = self.trusted
                    || rec
                        .span_allows(index as u32)
                        .unwrap_or_else(|| self.engine.placement.allows(task, machine));
                if !allowed {
                    return Err(Error::InfeasibleAssignment {
                        task: task.index(),
                        machine: index,
                    });
                }
                self.start_attempt(time, index, task, slot, false);
            }
            None => {
                if let Some((task, slot)) = self.pop_backup_for(machine) {
                    self.start_attempt(time, index, task, slot, true);
                } else if !self.machines[index].parked {
                    self.machines[index].parked = true;
                    self.trace.push(TraceEvent::Starved { time, machine });
                }
            }
        }
        Ok(())
    }

    /// `true` when every record's pending flag agrees with its task's
    /// state (the invariant the incremental column maintains).
    fn column_in_sync(&self) -> bool {
        let order = if self.by_slot {
            self.dispatcher.hot_order()
        } else {
            None
        };
        self.pending.iter().enumerate().all(|(slot, h)| {
            let j = order.map_or(slot, |o| o[slot].index());
            h.is_pending() == matches!(self.tasks[j], TaskState::Pending)
        })
    }

    /// Pops the first queued backup this machine can host, dropping
    /// entries that became stale (task completed or requeued) meanwhile.
    fn pop_backup_for(&mut self, machine: MachineId) -> Option<(TaskId, u32)> {
        let tasks = &self.tasks;
        self.spec_queue
            .retain(|&(t, _)| matches!(tasks[t.index()], TaskState::Running { .. }));
        let pos = self
            .spec_queue
            .iter()
            .position(|&(t, _)| self.engine.placement.allows(t, machine))?;
        self.spec_queue.remove(pos)
    }

    /// Starts an attempt of `task`, whose record sits at `slot`, on
    /// machine `index`.
    fn start_attempt(
        &mut self,
        time: Time,
        index: usize,
        task: TaskId,
        slot: u32,
        speculative: bool,
    ) {
        let machine = MachineId::new(index);
        let j = task.index();
        let rec = &mut self.pending[slot as usize];
        self.tasks[j] = match (self.tasks[j], speculative) {
            (TaskState::Pending, false) => {
                rec.mark_started();
                TaskState::Running { attempts: 1 }
            }
            (TaskState::Running { attempts }, true) => TaskState::Running {
                attempts: attempts + 1,
            },
            _ => unreachable!("invalid start"),
        };
        let actual = rec.actual();
        let total = actual * self.straggle[j];
        let id = self.next_attempt_id;
        self.next_attempt_id += 1;
        let att = Attempt {
            id,
            task,
            slot,
            start: time,
            actual,
            total,
            done: Time::ZERO,
            last: time,
            speculative,
        };
        let st = &mut self.machines[index];
        st.parked = false;
        st.epoch += 1;
        let end = att.projected_end(st.speed);
        let epoch = st.epoch;
        st.attempt = Some(att);
        self.queue.push(Reverse((end, KIND_IDLE, index, epoch)));
        if speculative {
            self.metrics.speculative_started += 1;
            self.trace.push(TraceEvent::SpeculativeStart {
                time,
                task,
                machine,
            });
        } else {
            self.trace.push(TraceEvent::Start {
                time,
                task,
                machine,
            });
            if let Some(spec) = self.engine.speculation {
                let check = time + spec.threshold(self.engine.instance.estimate(task));
                self.queue.push(Reverse((check, KIND_SPEC, index, id)));
            }
        }
    }

    /// Handles a speculation check: if the watched attempt is still
    /// running, request one backup on another data-holding machine.
    fn on_spec_check(&mut self, time: Time, index: usize, attempt_id: u64) {
        let att = match self.machines[index].attempt {
            Some(a) if a.id == attempt_id => a,
            _ => return, // attempt finished or was killed — stale check
        };
        let j = att.task.index();
        if self.spec_launched[j] {
            return;
        }
        self.spec_launched[j] = true;
        // Prefer an immediately-idle host; otherwise queue the request
        // and wake parked machines so one can claim it.
        let host = (0..self.machines.len()).find(|&w| {
            w != index
                && self.machines[w].alive
                && self.machines[w].attempt.is_none()
                && self.engine.placement.allows(att.task, MachineId::new(w))
        });
        match host {
            Some(w) => self.start_attempt(time, w, att.task, att.slot, true),
            None => {
                self.spec_queue.push_back((att.task, att.slot));
                self.wake_parked(time);
            }
        }
    }

    /// Wakes every parked living machine at `time` (new work appeared).
    fn wake_parked(&mut self, time: Time) {
        for w in 0..self.machines.len() {
            if self.machines[w].alive && self.machines[w].parked {
                self.machines[w].parked = false;
                let epoch = self.machines[w].epoch;
                self.queue.push(Reverse((time, KIND_IDLE, w, epoch)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{OrderedDispatcher, PinnedDispatcher};
    use rds_core::Uncertainty;

    fn run_fifo(
        inst: &Instance,
        p: &Placement,
        r: &Realization,
        script: &FaultScript,
        spec: Option<Speculation>,
    ) -> ResilienceReport {
        let mut engine = ResilienceEngine::new(inst, p, r, script).unwrap();
        if let Some(s) = spec {
            engine = engine.with_speculation(s);
        }
        engine.run(&mut OrderedDispatcher::fifo(inst)).unwrap()
    }

    #[test]
    fn one_sided_mismatch_names_the_culprit_component() {
        let inst = Instance::from_estimates(&[1.0, 2.0], 2).unwrap();
        let shorter = Instance::from_estimates(&[1.0], 2).unwrap();
        let script = FaultScript::new(vec![]);

        // Placement disagrees, realization matches.
        let p = Placement::everywhere(&shorter);
        let r = Realization::exact(&inst);
        assert_eq!(
            ResilienceEngine::new(&inst, &p, &r, &script).unwrap_err(),
            Error::TaskCountMismatch {
                what: "placement",
                expected: 2,
                got: 1,
            }
        );

        // Realization disagrees, placement matches.
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&shorter);
        assert_eq!(
            ResilienceEngine::new(&inst, &p, &r, &script).unwrap_err(),
            Error::TaskCountMismatch {
                what: "realization",
                expected: 2,
                got: 1,
            }
        );
    }

    #[test]
    fn outage_machine_rejoins_and_takes_work() {
        let inst = Instance::from_estimates(&[4.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Outage {
            machine: MachineId::new(0),
            at: Time::of(0.5),
            down_for: Time::of(1.5),
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        // t0 lost on m0 at 0.5 (0.5 work wasted), restarted on m1 at 1.0
        // (after t1), done at 5.0; m0 rejoins at 2.0 and clears t2, t3.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.restarts, 1);
        assert_eq!(rep.metrics.rejoins, 1);
        assert_eq!(rep.metrics.makespan, Time::of(5.0));
        assert_eq!(rep.metrics.wasted_work, Time::of(0.5));
        assert!(!rep.schedule.slots(MachineId::new(0)).is_empty());
    }

    #[test]
    fn slowdown_stretches_the_affected_attempt() {
        let inst = Instance::from_estimates(&[2.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::of(1.0),
            lasting: Time::of(10.0),
            speed: 0.5,
        }]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        // 1 unit at full speed, the remaining 1 unit at half speed: 3.0.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.degraded_phases, 1);
        assert_eq!(rep.metrics.makespan, Time::of(3.0));
        assert!(rep
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Degraded { speed, .. } if *speed == 0.5)));
    }

    #[test]
    fn speculation_rescues_a_crawling_machine() {
        let inst = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::ZERO,
            lasting: Time::of(100.0),
            speed: 0.1,
        }]);
        let spec = Speculation::new(1.0, Uncertainty::CERTAIN);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // Primary on m0 would finish at 20; the backup launched on m1 at
        // the β·α·p̃ = 2.0 mark finishes at 4.0 and wins.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.speculative_started, 1);
        assert_eq!(rep.metrics.speculative_wins, 1);
        assert_eq!(rep.metrics.cancelled, 1);
        assert_eq!(rep.metrics.makespan, Time::of(4.0));
        // The cancelled primary crawled 4.0 × 0.1 = 0.4 units for nothing.
        assert!((rep.metrics.wasted_work.get() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn straggler_runs_long_but_primary_still_wins() {
        let inst = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Straggler {
            task: TaskId::new(0),
            factor: 3.0,
        }]);
        let spec = Speculation::new(1.0, Uncertainty::CERTAIN);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // The straggling task takes 6.0 wherever it runs; the backup
        // (launched at 2.0) loses to the primary (6.0 < 8.0).
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.speculative_started, 1);
        assert_eq!(rep.metrics.speculative_wins, 0);
        assert_eq!(rep.metrics.cancelled, 1);
        assert_eq!(rep.metrics.makespan, Time::of(6.0));
        assert_eq!(rep.metrics.wasted_work, Time::of(4.0));
    }

    #[test]
    fn zero_faults_with_speculation_matches_plain_engine_exactly() {
        let inst = Instance::from_estimates(&[3.0, 3.0, 2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let unc = Uncertainty::of(2.0);
        let r = Realization::from_factors(&inst, unc, &[2.0, 0.5, 1.0, 1.0]).unwrap();
        let plain = crate::engine::Engine::new(&inst, &p, &r)
            .unwrap()
            .run(&mut OrderedDispatcher::fifo(&inst))
            .unwrap();
        let script = FaultScript::empty();
        let spec = Speculation::new(1.0, unc);
        let rep = run_fifo(&inst, &p, &r, &script, Some(spec));
        // Within the envelope no speculation check can fire before its
        // completion, so the runs are bit-identical.
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.makespan, plain.makespan);
        assert_eq!(rep.metrics.speculative_started, 0);
        assert_eq!(rep.metrics.wasted_work, Time::ZERO);
    }

    #[test]
    fn stranded_task_yields_partial_outcome_not_error() {
        let inst = Instance::from_estimates(&[4.0, 1.0], 2).unwrap();
        let p = Placement::pinned(&inst, &[MachineId::new(0), MachineId::new(1)]).unwrap();
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(0),
            at: Time::of(2.0),
        }]);
        let mut d = PinnedDispatcher::new(&[MachineId::new(0), MachineId::new(1)], 2);
        let mut rep = ResilienceEngine::new(&inst, &p, &r, &script)
            .unwrap()
            .run(&mut d)
            .unwrap();
        assert_eq!(
            rep.outcome,
            Outcome::Partial {
                unfinished: vec![TaskId::new(0)]
            }
        );
        assert_eq!(rep.metrics.completed, 1);
        assert_eq!(rep.metrics.restarts, 1);
        assert!((rep.metrics.survival_rate() - 0.5).abs() < 1e-12);
        assert_eq!(rep.metrics.makespan, Time::of(1.0));
        rep.set_baseline(Time::of(4.0));
        assert_eq!(rep.metrics.degradation(), Some(0.25));
    }

    #[test]
    fn crash_during_outage_suppresses_the_rejoin() {
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![
            FaultEvent::Outage {
                machine: MachineId::new(0),
                at: Time::ZERO,
                down_for: Time::of(2.0),
            },
            FaultEvent::Crash {
                machine: MachineId::new(0),
                at: Time::of(1.0),
            },
        ]);
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert!(rep.outcome.is_completed());
        assert_eq!(rep.metrics.rejoins, 0);
        assert!(rep.schedule.slots(MachineId::new(0)).is_empty());
        assert_eq!(rep.metrics.makespan, Time::of(4.0));
    }

    #[test]
    fn recovery_cost_charges_weighted_down_events() {
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::new(vec![
            FaultEvent::Outage {
                machine: MachineId::new(0),
                at: Time::of(0.5),
                down_for: Time::of(1.0),
            },
            FaultEvent::Crash {
                machine: MachineId::new(1),
                at: Time::of(1.5),
            },
        ]);
        // Default unit weights: two down events.
        let rep = run_fifo(&inst, &p, &r, &script, None);
        assert_eq!(rep.metrics.recovery_cost, 2.0);
        // Weighted: machine 1's loss is 5x as expensive to re-stage.
        let rep = ResilienceEngine::new(&inst, &p, &r, &script)
            .unwrap()
            .with_recovery_costs(vec![0.5, 5.0])
            .unwrap()
            .run(&mut OrderedDispatcher::fifo(&inst))
            .unwrap();
        assert_eq!(rep.metrics.recovery_cost, 5.5);
        // Fault-free runs charge nothing.
        let rep = run_fifo(&inst, &p, &r, &FaultScript::empty(), None);
        assert_eq!(rep.metrics.recovery_cost, 0.0);
    }

    #[test]
    fn recovery_cost_weights_are_validated() {
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let script = FaultScript::empty();
        let e = ResilienceEngine::new(&inst, &p, &r, &script).unwrap();
        assert!(e.with_recovery_costs(vec![1.0]).is_err());
        let e = ResilienceEngine::new(&inst, &p, &r, &script).unwrap();
        assert!(e.with_recovery_costs(vec![1.0, -2.0]).is_err());
    }

    #[test]
    fn script_validation_rejects_bad_parameters() {
        let inst = Instance::from_estimates(&[1.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let bad_machine = FaultScript::new(vec![FaultEvent::Crash {
            machine: MachineId::new(9),
            at: Time::ZERO,
        }]);
        assert!(ResilienceEngine::new(&inst, &p, &r, &bad_machine).is_err());
        let bad_speed = FaultScript::new(vec![FaultEvent::Slowdown {
            machine: MachineId::new(0),
            at: Time::ZERO,
            lasting: Time::ONE,
            speed: 0.0,
        }]);
        assert!(ResilienceEngine::new(&inst, &p, &r, &bad_speed).is_err());
        let bad_task = FaultScript::new(vec![FaultEvent::Straggler {
            task: TaskId::new(5),
            factor: 2.0,
        }]);
        assert!(ResilienceEngine::new(&inst, &p, &r, &bad_task).is_err());
    }
}
