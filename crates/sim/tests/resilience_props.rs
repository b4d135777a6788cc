//! Property tests on the resilience engine.
//!
//! Differential: the incremental pending column must reproduce the
//! per-dispatch snapshot reference path
//! ([`ResilienceEngine::run_snapshot_oracle`]) exactly — traces,
//! schedules, outcomes and metrics — under arbitrary placements, fault
//! scripts, dispatchers and speculation settings.
//!
//! Replication is the fault-tolerance mechanism. The invariant mirrors
//! the Hadoop motivation: if every task's data lives on at least two
//! distinct machines and fewer than two machines ever fail (crash or
//! outage), no task can strand — the run always completes, with a
//! finite makespan no better than the fault-free one.

use proptest::prelude::*;
use rds_core::{
    Instance, MachineId, MachineMask, MachineSet, Placement, PlacementIndex, Realization, TaskId,
    Time, Uncertainty,
};
use rds_sim::faults::{FaultEvent, FaultScript, ResilienceEngine, Speculation};
use rds_sim::{Dispatcher, OrderedDispatcher, PinnedDispatcher};

/// SplitMix64: a tiny deterministic stream for deriving test inputs
/// from one proptest seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A placement mixing every set shape: single machines, spans, the
/// whole cluster and arbitrary (usually non-contiguous) masks.
fn mixed_placement(inst: &Instance, mix: &mut Mix) -> Placement {
    let m = inst.m();
    let sets = (0..inst.n())
        .map(|_| match mix.below(4) {
            0 => MachineSet::One(MachineId::new(mix.below(m))),
            1 => {
                let start = mix.below(m);
                let end = start + 1 + mix.below(m - start);
                MachineSet::Span {
                    start: start as u32,
                    end: end as u32,
                }
            }
            2 => MachineSet::All,
            _ => {
                let mut mask = MachineMask::empty(m);
                mask.insert(MachineId::new(mix.below(m)));
                for i in 0..m {
                    if mix.below(2) == 1 {
                        mask.insert(MachineId::new(i));
                    }
                }
                MachineSet::from_mask(m, mask)
            }
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

/// Up to `max` scripted faults of every kind, timed inside `horizon`.
fn mixed_script(inst: &Instance, horizon: f64, max: usize, mix: &mut Mix) -> FaultScript {
    let (n, m) = (inst.n(), inst.m());
    let events = (0..mix.below(max + 1))
        .map(|_| {
            let machine = MachineId::new(mix.below(m));
            let at = Time::of(horizon * mix.unit());
            match mix.below(4) {
                0 => FaultEvent::Crash { machine, at },
                1 => FaultEvent::Outage {
                    machine,
                    at,
                    down_for: Time::of(0.1 + horizon * 0.5 * mix.unit()),
                },
                2 => FaultEvent::Slowdown {
                    machine,
                    at,
                    lasting: Time::of(0.1 + horizon * mix.unit()),
                    speed: 0.05 + 0.9 * mix.unit(),
                },
                _ => FaultEvent::Straggler {
                    task: TaskId::new(mix.below(n)),
                    factor: 0.5 + 4.0 * mix.unit(),
                },
            }
        })
        .collect();
    FaultScript::new(events)
}

/// Groups of `g` consecutive machines (the last one possibly shorter),
/// task `j` on group `j mod groups`: spans that partition the tasks, so
/// an indexed dispatcher lays the column out in its CSR rows.
fn grouped_placement(inst: &Instance, g: usize) -> Placement {
    let m = inst.m();
    let groups = m.div_ceil(g);
    let sets = (0..inst.n())
        .map(|j| {
            let start = (j % groups) * g;
            MachineSet::Span {
                start: start as u32,
                end: (start + g).min(m) as u32,
            }
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

/// One of the dispatchers the campaigns use, built fresh: the LPT scan,
/// the LPT order on per-machine indexed lists, or pinned queues on each
/// task's first eligible machine.
fn dispatcher(kind: usize, inst: &Instance, placement: &Placement) -> Box<dyn Dispatcher> {
    match kind {
        0 => Box::new(OrderedDispatcher::lpt_by_estimate(inst)),
        1 | 3 => Box::new(OrderedDispatcher::indexed(
            inst.ids_by_estimate_desc(),
            &PlacementIndex::build(placement),
        )),
        2 => {
            let pins: Vec<MachineId> = inst
                .task_ids()
                .map(|t| {
                    (0..inst.m())
                        .map(MachineId::new)
                        .find(|&i| placement.allows(t, i))
                        .unwrap()
                })
                .collect();
            Box::new(PinnedDispatcher::new(&pins, inst.m()))
        }
        _ => unreachable!("dispatcher kind {kind}"),
    }
}

/// A placement giving task `j` replicas on at least two distinct
/// machines, plus pseudo-random extras drawn from `seed`.
fn two_replica_placement(inst: &Instance, m: usize, seed: u64) -> Placement {
    let sets: Vec<MachineSet> = (0..inst.n())
        .map(|j| {
            let mut mask = MachineMask::empty(m);
            mask.insert(MachineId::new(j % m));
            mask.insert(MachineId::new((j + 1 + (seed as usize % (m - 1))) % m));
            for i in 0..m {
                if (seed >> ((j * 5 + i) % 59)) & 1 == 1 {
                    mask.insert(MachineId::new(i));
                }
            }
            MachineSet::from_mask(m, mask)
        })
        .collect();
    Placement::new(inst, sets).unwrap()
}

/// A fault script whose crash/outage events all target one machine.
/// Slowdowns on other machines are allowed: a degraded machine has not
/// failed — its data stays reachable.
fn single_machine_failures(m: usize, horizon: f64, seed: u64) -> FaultScript {
    let victim = MachineId::new((seed % m as u64) as usize);
    let at = Time::of(horizon * ((seed >> 8) % 1000) as f64 / 1000.0);
    let mut events = Vec::new();
    match (seed >> 20) % 3 {
        0 => events.push(FaultEvent::Crash {
            machine: victim,
            at,
        }),
        1 => events.push(FaultEvent::Outage {
            machine: victim,
            at,
            down_for: Time::of(0.1 + horizon * ((seed >> 28) % 500) as f64 / 1000.0),
        }),
        _ => {
            // Crash preceded by an outage on the same machine: still
            // only one machine ever fails.
            events.push(FaultEvent::Outage {
                machine: victim,
                at,
                down_for: Time::of(horizon),
            });
            events.push(FaultEvent::Crash {
                machine: victim,
                at: at + Time::of(horizon * 0.5),
            });
        }
    }
    if (seed >> 40) & 1 == 1 {
        let other = MachineId::new(((seed % m as u64) as usize + 1) % m);
        events.push(FaultEvent::Slowdown {
            machine: other,
            at: Time::of(horizon * 0.25),
            lasting: Time::of(horizon * 0.5),
            speed: 0.5,
        });
    }
    FaultScript::new(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_replicas_survive_any_single_machine_failure(
        est in prop::collection::vec(0.5f64..10.0, 2..20),
        m in 2usize..6,
        seed in any::<u64>(),
        alpha in 1.0f64..2.0,
        speculate in any::<bool>(),
    ) {
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        let placement = two_replica_placement(&inst, m, seed);
        let factors: Vec<f64> = (0..inst.n())
            .map(|j| if (seed >> (j % 61)) & 1 == 1 { alpha } else { 1.0 / alpha })
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let horizon = real.total().get();
        let script = single_machine_failures(m, horizon, seed);
        script.validate(&inst).unwrap();

        let run = |script: &FaultScript| {
            let mut engine =
                ResilienceEngine::new(&inst, &placement, &real, script).unwrap();
            if speculate {
                engine = engine.with_speculation(Speculation::new(1.5, unc));
            }
            engine.run(&mut OrderedDispatcher::lpt_by_estimate(&inst)).unwrap()
        };
        let baseline = run(&FaultScript::empty());
        let faulty = run(&script);

        // Never stranded: with two live replicas per task and at most
        // one failed machine, every task completes.
        prop_assert!(
            faulty.outcome.is_completed(),
            "stranded: {:?} under {:?}",
            faulty.outcome,
            script
        );
        prop_assert_eq!(faulty.metrics.completed, inst.n());
        prop_assert!((faulty.metrics.survival_rate() - 1.0).abs() < 1e-12);

        // Finite makespan, no better than the fault-free run.
        prop_assert!(faulty.metrics.makespan.get().is_finite());
        prop_assert!(
            faulty.metrics.makespan + Time::of(1e-9) >= baseline.metrics.makespan,
            "faulty {} < fault-free {} under {:?}",
            faulty.metrics.makespan,
            baseline.metrics.makespan,
            script
        );

        // Sanity on the baseline itself: zero faults complete everything
        // with no restarts.
        prop_assert!(baseline.outcome.is_completed());
        prop_assert_eq!(baseline.metrics.restarts, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_pending_column_matches_the_snapshot_oracle(
        est in prop::collection::vec(0.5f64..10.0, 1..40),
        m in 1usize..8,
        seed in any::<u64>(),
        alpha in 1.0f64..2.0,
        speculate in any::<bool>(),
        kind in 0usize..4,
    ) {
        let mut mix = Mix(seed);
        let inst = Instance::from_estimates(&est, m).unwrap();
        let unc = Uncertainty::of(alpha);
        // Kind 3 pairs the indexed dispatcher with partitioning spans,
        // its id-embedding CSR layout.
        let placement = if kind == 3 {
            grouped_placement(&inst, 1 + mix.below(3))
        } else {
            mixed_placement(&inst, &mut mix)
        };
        let factors: Vec<f64> = (0..inst.n())
            .map(|_| 1.0 / alpha + (alpha - 1.0 / alpha) * mix.unit())
            .collect();
        let real = Realization::from_factors(&inst, unc, &factors).unwrap();
        let horizon = real.total().get() / m as f64 * 2.0;
        let script = mixed_script(&inst, horizon, 8, &mut mix);
        let mut engine = ResilienceEngine::new(&inst, &placement, &real, &script).unwrap();
        if speculate {
            engine = engine.with_speculation(Speculation::new(0.5 + mix.unit(), unc));
        }

        let fast = engine.run(dispatcher(kind, &inst, &placement).as_mut()).unwrap();
        let oracle = engine
            .run_snapshot_oracle(dispatcher(kind, &inst, &placement).as_mut())
            .unwrap();
        prop_assert_eq!(&fast.trace, &oracle.trace, "{:?}", script);
        prop_assert_eq!(&fast.schedule, &oracle.schedule);
        prop_assert_eq!(&fast.outcome, &oracle.outcome);
        prop_assert_eq!(fast.metrics, oracle.metrics);
    }
}
