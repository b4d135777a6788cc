//! The standard resilience-evaluation suite and campaign runner.
//!
//! One place defines *which* placement strategies a fault campaign
//! compares and *how* each is dispatched online, so the `rds resilience`
//! CLI command and the `fault_tolerance` benchmark measure exactly the
//! same thing:
//!
//! - LPT-No Choice, dispatched from pinned per-machine queues (the
//!   no-replication baseline — stranded by any loaded-machine failure);
//! - Chained declustering with `k = 2` and `k = 3`;
//! - LS-Group with roughly three machines per group;
//! - LPT-No Restriction (full replication), the fault-tolerance ideal.
//!
//! [`run_campaign`] executes every policy against a shared set of
//! trials (realization + fault script pairs), establishes each trial's
//! fault-free baseline through the same engine path, and aggregates
//! [`rds_sim::ResilienceMetrics`] into one row per policy.

use crate::ChainedReplication;
use rds_algs::{LptNoChoice, LptNoRestriction, LsGroup, Strategy};
use rds_core::{Error, Instance, MachineId, Placement, Realization, Result, Uncertainty};
use rds_sim::faults::{FaultScript, ResilienceEngine, Speculation};
use rds_sim::{Dispatcher, OrderedDispatcher, PinnedDispatcher};

/// One strategy under test: its placement plus how to dispatch it.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Display name (the strategy's own name).
    pub name: String,
    /// The phase-1 placement.
    pub placement: Placement,
    /// For single-replica strategies, the planned task→machine pinning
    /// the dispatcher replays; replicated strategies dispatch online.
    pinned: Option<Vec<MachineId>>,
}

impl ResiliencePolicy {
    /// A fresh dispatcher for one run (dispatchers are stateful).
    pub fn dispatcher(&self, instance: &Instance) -> Box<dyn Dispatcher> {
        match &self.pinned {
            Some(machines) => Box::new(PinnedDispatcher::new(machines, instance.m())),
            None => Box::new(OrderedDispatcher::auto(
                instance.ids_by_estimate_desc(),
                &self.placement,
            )),
        }
    }
}

/// Builds the standard five-policy suite for an instance.
///
/// A strategy that does not apply to the instance's machine count (a
/// chain of `k` replicas needs `k ≤ m`, so `Chained(k=2)` drops at
/// `m = 1` and `Chained(k=3)` at `m ≤ 2`) is left out rather than
/// aborting the campaign; from `m = 3` on the suite is always complete.
///
/// # Errors
/// Propagates placement/planning errors from the strategies.
pub fn standard_suite(instance: &Instance, unc: Uncertainty) -> Result<Vec<ResiliencePolicy>> {
    // `k` is the number of groups: aim for ~3 machines per group so an
    // in-group failure leaves surviving holders.
    let groups = (instance.m() / 3).max(1);
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(LptNoChoice),
        Box::new(ChainedReplication::new(2)?),
        Box::new(ChainedReplication::new(3)?),
        Box::new(LsGroup::new_relaxed(groups)),
        Box::new(LptNoRestriction),
    ];
    let mut suite = Vec::with_capacity(strategies.len());
    for s in strategies {
        let placement = match s.place(instance, unc) {
            Err(Error::BadGroupCount { .. }) => continue,
            placed => placed?,
        };
        let pinned = if placement.max_replicas() == 1 {
            let a = s.execute(instance, &placement, &Realization::exact(instance))?;
            Some(a.machines().to_vec())
        } else {
            None
        };
        suite.push(ResiliencePolicy {
            name: s.name(),
            placement,
            pinned,
        });
    }
    Ok(suite)
}

/// Aggregated campaign results for one policy.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Policy name.
    pub name: String,
    /// Maximum replicas per task under this placement.
    pub replicas: usize,
    /// Number of trials executed.
    pub runs: usize,
    /// Trials in which every task completed.
    pub completed_runs: usize,
    /// Mean per-trial task survival rate.
    pub mean_survival: f64,
    /// Mean restarts per trial.
    pub mean_restarts: f64,
    /// Mean machine rejoins per trial.
    pub mean_rejoins: f64,
    /// Mean speculative backups launched per trial.
    pub mean_spec_started: f64,
    /// Mean speculative wins per trial.
    pub mean_spec_wins: f64,
    /// Mean wasted work (killed + cancelled attempts) per trial.
    pub mean_wasted: f64,
    /// Mean makespan degradation versus the trial's fault-free baseline,
    /// over fully-completed trials (`NaN` when none completed).
    pub mean_degradation: f64,
    /// Worst observed degradation over fully-completed trials.
    pub worst_degradation: f64,
}

/// Per-trial measurements of one policy under one (realization, fault
/// script) pair — the unit the campaign journal stores and aggregates
/// are recomputed from.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialMeasurement {
    /// `true` when every task completed.
    pub completed: bool,
    /// Fraction of tasks completed.
    pub survival: f64,
    /// Attempts killed by faults and restarted.
    pub restarts: f64,
    /// Machines that rejoined after outages.
    pub rejoins: f64,
    /// Speculative backups launched.
    pub spec_started: f64,
    /// Speculative backups that won.
    pub spec_wins: f64,
    /// Attempts cancelled (speculation losers).
    pub cancelled: f64,
    /// Wall-clock work thrown away.
    pub wasted: f64,
    /// Achieved makespan of completed work.
    pub makespan: f64,
    /// Fault-free baseline makespan of the same trial.
    pub baseline: f64,
}

impl TrialMeasurement {
    /// Makespan degradation versus the fault-free baseline, mirroring
    /// [`rds_sim::ResilienceMetrics::degradation`]'s zero-baseline
    /// convention.
    pub fn degradation(&self) -> f64 {
        if self.baseline == 0.0 {
            1.0
        } else {
            self.makespan / self.baseline
        }
    }
}

/// Runs one (policy, trial) pair: the fault-free baseline through the
/// identical engine path, then the faulty run.
///
/// Both legs share one dispatcher, rewound between them
/// ([`Dispatcher::rewind`]); only a dispatcher that cannot rewind is
/// built twice. Building one costs an LPT sort plus, for restricted
/// placements, a placement index.
///
/// This is the single execution path both [`run_campaign`] and the
/// resumable campaign runtime go through, so journaled replays aggregate
/// bit-identically to live runs.
///
/// # Errors
/// Propagates engine errors (dispatcher misbehaviour, invalid scripts,
/// invariant violations when validation is on).
pub fn run_trial(
    instance: &Instance,
    policy: &ResiliencePolicy,
    realization: &Realization,
    script: &FaultScript,
    speculation: Option<Speculation>,
) -> Result<TrialMeasurement> {
    let _span = rds_obs::span("resilience.trial");
    let empty = FaultScript::empty();
    let mut d = policy.dispatcher(instance);
    let baseline = ResilienceEngine::new(instance, &policy.placement, realization, &empty)?
        .run(d.as_mut())?
        .metrics
        .makespan;
    let mut engine = ResilienceEngine::new(instance, &policy.placement, realization, script)?;
    if let Some(spec) = speculation {
        engine = engine.with_speculation(spec);
    }
    if !d.rewind() {
        d = policy.dispatcher(instance);
    }
    let mut report = engine.run(d.as_mut())?;
    report.set_baseline(baseline);
    let m = report.metrics;
    Ok(TrialMeasurement {
        completed: report.outcome.is_completed(),
        survival: m.survival_rate(),
        restarts: m.restarts as f64,
        rejoins: m.rejoins as f64,
        spec_started: m.speculative_started as f64,
        spec_wins: m.speculative_wins as f64,
        cancelled: m.cancelled as f64,
        wasted: m.wasted_work.get(),
        makespan: m.makespan.get(),
        baseline: baseline.get(),
    })
}

/// Aggregates per-trial measurements (in trial order) into one row.
///
/// The summation order is the trial order, so aggregating a mix of
/// journaled and freshly-run trials reproduces an uninterrupted run
/// bit-for-bit.
pub fn aggregate_row(
    name: &str,
    replicas: usize,
    measurements: &[TrialMeasurement],
) -> CampaignRow {
    let mut row = CampaignRow {
        name: name.to_string(),
        replicas,
        runs: measurements.len(),
        completed_runs: 0,
        mean_survival: 0.0,
        mean_restarts: 0.0,
        mean_rejoins: 0.0,
        mean_spec_started: 0.0,
        mean_spec_wins: 0.0,
        mean_wasted: 0.0,
        mean_degradation: 0.0,
        worst_degradation: 0.0,
    };
    let mut degradations = Vec::new();
    for m in measurements {
        row.mean_survival += m.survival;
        row.mean_restarts += m.restarts;
        row.mean_rejoins += m.rejoins;
        row.mean_spec_started += m.spec_started;
        row.mean_spec_wins += m.spec_wins;
        row.mean_wasted += m.wasted;
        if m.completed {
            row.completed_runs += 1;
            degradations.push(m.degradation());
        }
    }
    let runs = row.runs.max(1) as f64;
    row.mean_survival /= runs;
    row.mean_restarts /= runs;
    row.mean_rejoins /= runs;
    row.mean_spec_started /= runs;
    row.mean_spec_wins /= runs;
    row.mean_wasted /= runs;
    row.mean_degradation = if degradations.is_empty() {
        f64::NAN
    } else {
        degradations.iter().sum::<f64>() / degradations.len() as f64
    };
    row.worst_degradation = degradations.iter().copied().fold(f64::NAN, f64::max);
    row
}

/// Runs every policy against every trial and aggregates per policy.
///
/// Each trial supplies a realization and a fault script; the fault-free
/// baseline is re-established per (policy, trial) through the identical
/// engine path, so a zero-fault campaign reports degradation exactly 1.
///
/// This is the fail-fast path: the first engine error aborts the whole
/// campaign. The crash-safe runtime in [`crate::campaign`] wraps the same
/// [`run_trial`] with journaling, watchdogs, and quarantine.
///
/// # Errors
/// Propagates engine errors (dispatcher misbehaviour, invalid scripts).
pub fn run_campaign(
    instance: &Instance,
    suite: &[ResiliencePolicy],
    trials: &[(Realization, FaultScript)],
    speculation: Option<Speculation>,
) -> Result<Vec<CampaignRow>> {
    let mut rows = Vec::with_capacity(suite.len());
    for policy in suite {
        let measurements = trials
            .iter()
            .map(|(real, script)| run_trial(instance, policy, real, script, speculation))
            .collect::<Result<Vec<_>>>()?;
        rows.push(aggregate_row(
            &policy.name,
            policy.placement.max_replicas(),
            &measurements,
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{TaskId, Time};
    use rds_sim::faults::FaultEvent;

    fn setup() -> (Instance, Uncertainty) {
        let est: Vec<f64> = (0..24).map(|i| 1.0 + (i % 7) as f64).collect();
        (
            Instance::from_estimates(&est, 6).unwrap(),
            Uncertainty::of(1.5),
        )
    }

    #[test]
    fn suite_has_five_policies_with_expected_replication() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].placement.max_replicas(), 1);
        assert_eq!(suite[1].placement.max_replicas(), 2);
        assert_eq!(suite[2].placement.max_replicas(), 3);
        assert_eq!(suite[4].placement.max_replicas(), inst.m());
    }

    #[test]
    fn suite_drops_chains_longer_than_m_and_is_complete_from_m_3() {
        let est = [3.0, 1.0, 2.0, 5.0, 4.0, 1.5];
        let names = |m: usize| -> Vec<String> {
            let inst = Instance::from_estimates(&est, m).unwrap();
            standard_suite(&inst, Uncertainty::of(1.5))
                .unwrap()
                .into_iter()
                .map(|p| p.name)
                .collect()
        };
        assert_eq!(
            names(1),
            ["LPT-No Choice", "LS-Group(k=1)", "LPT-No Restriction"]
        );
        assert_eq!(
            names(2),
            [
                "LPT-No Choice",
                "Chained(k=2)",
                "LS-Group(k=1)",
                "LPT-No Restriction"
            ]
        );
        for m in [3, 4, 7] {
            assert_eq!(names(m).len(), 5, "m = {m}");
        }
    }

    #[test]
    fn rewound_dispatcher_cell_equals_fresh_dispatchers() {
        // Chains wrap around the ring (mask placements), the LS-Group
        // spans and the pinned baseline each take a different
        // dispatcher; every one must replay identically once rewound.
        let est: Vec<f64> = (0..40).map(|i| 1.0 + ((i * 7) % 11) as f64).collect();
        let inst = Instance::from_estimates(&est, 7).unwrap();
        let unc = Uncertainty::of(1.5);
        let factors: Vec<f64> = (0..inst.n())
            .map(|j| if j % 3 == 0 { 1.5 } else { 1.0 / 1.5 })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let script = FaultScript::new(vec![
            FaultEvent::Outage {
                machine: MachineId::new(2),
                at: Time::of(3.0),
                down_for: Time::of(6.0),
            },
            FaultEvent::Crash {
                machine: MachineId::new(5),
                at: Time::of(8.0),
            },
            FaultEvent::Slowdown {
                machine: MachineId::new(0),
                at: Time::of(1.0),
                lasting: Time::of(500.0),
                speed: 0.05,
            },
            FaultEvent::Straggler {
                task: TaskId::new(4),
                factor: 4.0,
            },
        ]);
        let spec = Speculation::new(1.0, unc);
        let suite = standard_suite(&inst, unc).unwrap();
        assert_eq!(suite.len(), 5);
        let (mut restarts, mut backups) = (0, 0);
        for policy in &suite {
            let engine = |script| {
                ResilienceEngine::new(&inst, &policy.placement, &real, script)
                    .unwrap()
                    .with_speculation(spec)
            };
            let empty = FaultScript::empty();
            let fresh_base = engine(&empty)
                .run(policy.dispatcher(&inst).as_mut())
                .unwrap();
            let fresh = engine(&script)
                .run(policy.dispatcher(&inst).as_mut())
                .unwrap();
            let mut d = policy.dispatcher(&inst);
            let base = engine(&empty).run(d.as_mut()).unwrap();
            assert!(d.rewind(), "{} cannot rewind", policy.name);
            let rewound = engine(&script).run(d.as_mut()).unwrap();
            for (a, b) in [(&fresh_base, &base), (&fresh, &rewound)] {
                assert_eq!(a.outcome, b.outcome, "{}", policy.name);
                assert_eq!(a.schedule, b.schedule, "{}", policy.name);
                assert_eq!(a.trace, b.trace, "{}", policy.name);
                assert_eq!(a.metrics, b.metrics, "{}", policy.name);
            }
            assert_ne!(fresh.trace, fresh_base.trace, "{}", policy.name);
            restarts += fresh.metrics.restarts;
            backups += fresh.metrics.speculative_started;
            let cell = run_trial(&inst, policy, &real, &script, Some(spec)).unwrap();
            assert_eq!(
                cell.makespan,
                fresh.metrics.makespan.get(),
                "{}",
                policy.name
            );
            assert_eq!(cell.baseline, fresh_base.metrics.makespan.get());
            assert_eq!(cell.wasted, fresh.metrics.wasted_work.get());
            assert_eq!(cell.completed, fresh.outcome.is_completed());
        }
        assert!(
            restarts > 0 && backups > 0,
            "{restarts} restarts, {backups} backups"
        );
    }

    #[test]
    fn zero_fault_campaign_has_degradation_exactly_one() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        let trials = vec![(Realization::exact(&inst), FaultScript::empty())];
        let rows = run_campaign(&inst, &suite, &trials, None).unwrap();
        for row in &rows {
            assert_eq!(row.completed_runs, row.runs, "{}", row.name);
            assert_eq!(row.mean_survival, 1.0);
            assert_eq!(row.mean_degradation, 1.0, "{}", row.name);
            assert_eq!(row.worst_degradation, 1.0, "{}", row.name);
        }
    }

    #[test]
    fn crash_campaign_separates_pinned_from_replicated() {
        let (inst, unc) = setup();
        let suite = standard_suite(&inst, unc).unwrap();
        // Crash the two most loaded machines early: pinning strands
        // their tasks, full replication shrugs it off.
        let script = FaultScript::new(vec![
            FaultEvent::Crash {
                machine: MachineId::new(0),
                at: Time::of(0.5),
            },
            FaultEvent::Crash {
                machine: MachineId::new(1),
                at: Time::of(1.0),
            },
        ]);
        let trials = vec![(Realization::exact(&inst), script)];
        let rows = run_campaign(&inst, &suite, &trials, None).unwrap();
        let pinned = &rows[0];
        let full = &rows[4];
        assert!(pinned.completed_runs < pinned.runs);
        assert!(pinned.mean_survival < 1.0);
        assert_eq!(full.completed_runs, full.runs);
        assert_eq!(full.mean_survival, 1.0);
        assert!(full.mean_degradation >= 1.0);
    }
}
