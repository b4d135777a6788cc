//! `fault-campaign`: the `rds resilience` path. One unit is one
//! (policy, trial) cell of the crash-safe campaign runtime: the watchdog
//! runs the cell inline (no budget), then its record is appended to the
//! fsync'd campaign journal. A run holds several campaigns, each on its
//! own instance, because cell cost depends on the instance drawn: with one
//! campaign per seed, `unit_ms_p90` moved by a quarter between two seeds.

use crate::harness::{
    add, clock, ms_since, usage, Digest, Layers, Params, Samples, Size, Workload,
};
use rds_core::{Instance, Uncertainty};
use rds_par::{supervise, CampaignMeta, Journal, Supervised, TrialRecord, TrialStatus};
use rds_policies::{
    aggregate_row, run_trial, standard_suite, ResiliencePolicy, Trial, TrialMeasurement,
};
use rds_sim::faults::{FaultScript, ResilienceEngine, Speculation};
use rds_workloads::{rng, EstimateDistribution, FaultModel, RealizationModel};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Command-line parameters of `rds resilience` this workload runs.
struct Inputs {
    m: usize,
    n: usize,
    mtbf: f64,
    alpha: f64,
    beta: f64,
    stragglers: f64,
    reps: usize,
}

pub struct Campaign {
    seed: u64,
    inputs: Inputs,
    instance: Arc<Instance>,
    suite: Vec<Arc<ResiliencePolicy>>,
    trials: Vec<Arc<Trial>>,
    speculation: Speculation,
    meta: CampaignMeta,
    journal_path: PathBuf,
    /// The journal set-up created, used by the first round.
    journal: Option<Journal>,
    /// The last round's measurement per cell, in (policy, trial) order.
    last: Vec<TrialMeasurement>,
    cli_journal: PathBuf,
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The journal record the campaign runtime writes for a finished cell.
pub(crate) fn record(
    policy: &str,
    trial: usize,
    seed: u64,
    attempts: u32,
    m: &TrialMeasurement,
) -> TrialRecord {
    TrialRecord {
        policy: policy.to_string(),
        trial: trial as u64,
        seed,
        attempts,
        status: if m.completed {
            TrialStatus::Completed
        } else {
            TrialStatus::Partial
        },
        survival: m.survival,
        restarts: m.restarts,
        rejoins: m.rejoins,
        spec_started: m.spec_started,
        spec_wins: m.spec_wins,
        cancelled: m.cancelled,
        wasted: m.wasted,
        makespan: m.makespan,
        baseline: Some(m.baseline),
        error: None,
    }
}

/// The measurement a journal record stands for (the runtime's resume
/// mapping).
pub(crate) fn from_record(r: &TrialRecord) -> TrialMeasurement {
    TrialMeasurement {
        completed: r.status == TrialStatus::Completed,
        survival: r.survival,
        restarts: r.restarts,
        rejoins: r.rejoins,
        spec_started: r.spec_started,
        spec_wins: r.spec_wins,
        cancelled: r.cancelled,
        wasted: r.wasted,
        makespan: r.makespan,
        baseline: r.baseline.unwrap_or(0.0),
    }
}

pub(crate) fn measurement_digest(m: &TrialMeasurement) -> u64 {
    let mut d = Digest::new();
    d.u64(u64::from(m.completed));
    for v in [
        m.survival,
        m.restarts,
        m.rejoins,
        m.spec_started,
        m.spec_wins,
        m.cancelled,
        m.wasted,
        m.makespan,
        m.baseline,
    ] {
        d.f64(v);
    }
    d.finish()
}

/// Digest of the aggregate rows of `cells` (policy-major), bit for bit.
pub(crate) fn rows_digest(suite: &[Arc<ResiliencePolicy>], cells: &[TrialMeasurement]) -> u64 {
    let per = cells.len() / suite.len().max(1);
    let mut d = Digest::new();
    for (p, policy) in suite.iter().enumerate() {
        let row = aggregate_row(
            &policy.name,
            policy.placement.max_replicas(),
            &cells[p * per..(p + 1) * per],
        );
        d.str(&row.name)
            .u64(row.replicas as u64)
            .u64(row.runs as u64)
            .u64(row.completed_runs as u64);
        for v in [
            row.mean_survival,
            row.mean_restarts,
            row.mean_rejoins,
            row.mean_spec_started,
            row.mean_spec_wins,
            row.mean_wasted,
            row.mean_degradation,
            row.worst_degradation,
        ] {
            d.f64(v);
        }
    }
    d.finish()
}

/// Compares journaled records of a shipped command run with the
/// benchmark's cells, bit for bit.
pub(crate) fn compare_records(
    what: &str,
    suite: &[Arc<ResiliencePolicy>],
    per_policy: usize,
    cells: &[TrialMeasurement],
    records: &[TrialRecord],
    problems: &mut Vec<String>,
) {
    if records.len() != cells.len() {
        problems.push(format!(
            "{what}: {} journal records, expected {}",
            records.len(),
            cells.len()
        ));
        return;
    }
    for r in records {
        let Some(p) = suite.iter().position(|s| s.name == r.policy) else {
            problems.push(format!("{what}: unknown policy {:?}", r.policy));
            continue;
        };
        let k = p * per_policy + r.trial as usize;
        if cells.get(k).map(measurement_digest) != Some(measurement_digest(&from_record(r))) {
            problems.push(format!(
                "{what}: cell ({}, trial {}) differs from the benchmark's",
                r.policy, r.trial
            ));
        }
    }
}

impl Campaign {
    fn setup(p: &Params, layers: &mut Layers) -> Result<Campaign, String> {
        let inputs = match p.size {
            Size::Full => Inputs {
                m: 32,
                n: 2000,
                mtbf: 50.0,
                alpha: 1.5,
                beta: 1.5,
                stragglers: 0.05,
                reps: 5,
            },
            Size::Tiny => Inputs {
                m: 6,
                n: 48,
                mtbf: 20.0,
                alpha: 1.5,
                beta: 1.5,
                stragglers: 0.05,
                reps: 2,
            },
        };
        let Inputs {
            m,
            n,
            mtbf,
            alpha,
            beta,
            stragglers,
            reps,
        } = inputs;
        let seed = p.seed;
        // The same generation sequence as `rds resilience`, so the shipped
        // command reproduces these inputs from the seed alone.
        let t = Instant::now();
        let unc = Uncertainty::new(alpha).map_err(err)?;
        let mut r = rng::rng(seed);
        let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
        let instance = Instance::from_estimates(&est, m).map_err(err)?;
        let horizon = instance.total_estimate().get() / m as f64 * alpha * 2.0;
        let model = FaultModel::mtbf(mtbf, horizon)
            .and_then(|f| f.with_stragglers(stragglers, 3.0))
            .map_err(err)?;
        add(layers, "workloads.gen_ms", ms_since(t));
        let t = Instant::now();
        let suite = standard_suite(&instance, unc).map_err(err)?;
        add(layers, "algs.place_ms", ms_since(t));
        let t = Instant::now();
        let trials = (0..reps)
            .map(|i| {
                let trial_seed = rng::child_seed(seed, i as u64);
                let mut tr = rng::rng(trial_seed);
                let realization =
                    RealizationModel::UniformFactor.realize(&instance, unc, &mut tr)?;
                let script = model.generate(m, n, &mut tr);
                Ok(Arc::new(Trial {
                    seed: trial_seed,
                    realization,
                    script,
                }))
            })
            .collect::<rds_core::Result<Vec<_>>>()
            .map_err(err)?;
        add(layers, "workloads.gen_ms", ms_since(t));
        let meta = CampaignMeta {
            campaign: "resilience".into(),
            digest: instance.digest(),
            seed,
            params: format!(
                "n={n} m={m} mtbf={mtbf} alpha={alpha} beta={beta} stragglers={stragglers} reps={reps}"
            ),
        };
        let journal_path = p.tmp.join(format!("campaign-{seed}.journal"));
        let journal = Journal::create(&journal_path, &meta).map_err(err)?;
        Ok(Campaign {
            seed,
            speculation: Speculation::new(beta, unc),
            last: Vec::new(),
            instance: Arc::new(instance),
            suite: suite.into_iter().map(Arc::new).collect(),
            trials,
            meta,
            journal_path,
            journal: Some(journal),
            cli_journal: p.tmp.join(format!("cli-resilience-{seed}.journal")),
            inputs,
        })
    }

    /// One cell split into the calls `run_trial` makes, each under its own
    /// timer.
    fn traced_cell(
        &self,
        policy: &ResiliencePolicy,
        trial: &Trial,
        layers: &mut Layers,
    ) -> rds_core::Result<TrialMeasurement> {
        let instance = &*self.instance;
        // The baseline leg's report is dropped before the faulty leg, as in
        // `run_trial`.
        let t = Instant::now();
        let (baseline, base_events) = {
            let mut d = policy.dispatcher(instance);
            let empty = FaultScript::empty();
            let base =
                ResilienceEngine::new(instance, &policy.placement, &trial.realization, &empty)?
                    .run(d.as_mut())?;
            (base.metrics.makespan, base.trace.len())
        };
        add(layers, "sim.faults.baseline_ms", ms_since(t));
        let t = Instant::now();
        let engine = ResilienceEngine::new(
            instance,
            &policy.placement,
            &trial.realization,
            &trial.script,
        )?
        .with_speculation(self.speculation);
        let mut d = policy.dispatcher(instance);
        let mut report = engine.run(d.as_mut())?;
        add(layers, "sim.faults.run_ms", ms_since(t));
        add(
            layers,
            "sim.faults.events",
            (base_events + report.trace.len()) as f64,
        );
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
}

/// Appends `rec` under a timer, recording the append's wall and off-CPU
/// time.
pub(crate) fn traced_append(
    journal: &mut Journal,
    rec: &TrialRecord,
    layers: &mut Layers,
) -> rds_core::Result<()> {
    let u = usage();
    let t = Instant::now();
    journal.append(rec)?;
    let wall = ms_since(t);
    let cpu = (usage().cpu_s() - u.cpu_s()) * 1e3;
    add(layers, "par.journal.appends", 1.0);
    add(layers, "par.journal.append_ms", wall);
    add(layers, "par.journal.wait_ms", (wall - cpu).max(0.0));
    Ok(())
}

impl Workload for Campaign {
    fn samples(&self) -> usize {
        self.suite.len() * self.trials.len()
    }

    fn unit_definition(&self) -> String {
        let i = &self.inputs;
        format!(
            "one (policy, trial) cell of `rds resilience --m {} --n {} --mtbf {} --alpha {} --beta {} \
             --stragglers {} --reps {} --seed {}` ({} policies x {} trials): watchdog-supervised \
             run_trial (fault-free baseline leg + faulty leg with speculation) plus its fsync'd \
             journal append",
            i.m, i.n, i.mtbf, i.alpha, i.beta, i.stragglers, i.reps, self.seed,
            self.suite.len(),
            self.trials.len()
        )
    }

    fn round(
        &mut self,
        mut trace: Option<&mut Layers>,
        samples: &mut Samples<'_>,
        outs: &mut [u64],
    ) -> Result<(), String> {
        let mut journal = match self.journal.take() {
            Some(j) => j,
            None => Journal::create(&self.journal_path, &self.meta).map_err(err)?,
        };
        let watchdog = rds_par::WatchdogPolicy::default();
        let mut cells = Vec::with_capacity(self.samples());
        for policy in &self.suite {
            for (index, trial) in self.trials.iter().enumerate() {
                let t = clock();
                let (measurement, attempts) = match trace.as_deref_mut() {
                    None => {
                        let (instance, body_policy, body_trial) = (
                            Arc::clone(&self.instance),
                            Arc::clone(policy),
                            Arc::clone(trial),
                        );
                        let speculation = Some(self.speculation);
                        match supervise(&watchdog, trial.seed, move |_| {
                            run_trial(
                                &instance,
                                &body_policy,
                                &body_trial.realization,
                                &body_trial.script,
                                speculation,
                            )
                        }) {
                            Supervised::Done { value, attempts } => (value, attempts),
                            Supervised::Quarantined { error, .. } => {
                                return Err(format!(
                                    "cell ({}, trial {index}) quarantined: {error}",
                                    policy.name
                                ))
                            }
                        }
                    }
                    Some(layers) => (self.traced_cell(policy, trial, layers).map_err(err)?, 1),
                };
                let rec = record(&policy.name, index, trial.seed, attempts, &measurement);
                match trace.as_deref_mut() {
                    None => journal.append(&rec),
                    Some(layers) => traced_append(&mut journal, &rec, layers),
                }
                .map_err(err)?;
                samples.record(cells.len(), t);
                outs[cells.len()] = measurement_digest(&measurement);
                cells.push(measurement);
            }
        }
        if let Some(layers) = trace {
            let bytes = std::fs::metadata(&self.journal_path).map_err(err)?.len();
            add(layers, "par.journal.bytes", bytes as f64);
        }
        self.last = cells;
        Ok(())
    }

    fn verify(&mut self, problems: &mut Vec<String>, shipped: &mut Layers) -> Result<u64, String> {
        // The shipped command on the same seed, journaled: its records must
        // equal the benchmark's cells bit for bit.
        let i = &self.inputs;
        let argv: Vec<String> = vec![
            "resilience".into(),
            "--m".into(),
            i.m.to_string(),
            "--n".into(),
            i.n.to_string(),
            "--mtbf".into(),
            i.mtbf.to_string(),
            "--alpha".into(),
            i.alpha.to_string(),
            "--beta".into(),
            i.beta.to_string(),
            "--stragglers".into(),
            i.stragglers.to_string(),
            "--reps".into(),
            i.reps.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--journal".into(),
            self.cli_journal.display().to_string(),
        ];
        let mut sink = Vec::new();
        let t = clock();
        rds_cli::run(&argv, &mut sink).map_err(|e| format!("rds resilience failed: {e}"))?;
        add(shipped, "policies.cli_ms", (clock() - t) * 1e3);
        let (meta, records) = Journal::read(&self.cli_journal).map_err(err)?;
        if meta != self.meta {
            problems.push("rds resilience journaled a different campaign identity".into());
        }
        compare_records(
            "rds resilience",
            &self.suite,
            self.trials.len(),
            &self.last,
            &records,
            problems,
        );
        Ok(rows_digest(&self.suite, &self.last))
    }

    fn reference_key(&self) -> String {
        format!("fault-campaign/{}", self.seed)
    }
}

/// The campaigns of one `fault-campaign` run: campaign `j` of `--seed s`
/// runs `rds resilience` with seed `CAMPAIGNS * s + j`, so no two seeds
/// share an instance. Samples are the campaigns' cells, campaign by
/// campaign.
pub struct Campaigns {
    seed: u64,
    parts: Vec<Campaign>,
}

/// Campaigns per run at full size (tiny: 2).
const CAMPAIGNS: u64 = 4;

impl Campaigns {
    pub fn setup(p: &Params, layers: &mut Layers) -> Result<Campaigns, String> {
        let count = if p.size == Size::Full { CAMPAIGNS } else { 2 };
        let parts = (0..count)
            .map(|j| {
                let part = Params {
                    seed: p.seed.wrapping_mul(CAMPAIGNS).wrapping_add(j),
                    ..p.clone()
                };
                Campaign::setup(&part, layers)
            })
            .collect::<Result<_, _>>()?;
        Ok(Campaigns {
            seed: p.seed,
            parts,
        })
    }
}

impl Workload for Campaigns {
    fn samples(&self) -> usize {
        self.parts.iter().map(Campaign::samples).sum()
    }

    fn unit_definition(&self) -> String {
        let seeds: Vec<String> = self.parts.iter().map(|c| c.seed.to_string()).collect();
        format!(
            "{} campaigns, seeds {}; each unit is {}",
            self.parts.len(),
            seeds.join(", "),
            self.parts[0].unit_definition()
        )
    }

    fn round(
        &mut self,
        mut trace: Option<&mut Layers>,
        samples: &mut Samples<'_>,
        mut outs: &mut [u64],
    ) -> Result<(), String> {
        for part in &mut self.parts {
            let (o, rest) = outs.split_at_mut(part.samples());
            part.round(trace.as_deref_mut(), samples, o)?;
            samples.base += part.samples();
            outs = rest;
        }
        samples.base = 0;
        Ok(())
    }

    fn verify(&mut self, problems: &mut Vec<String>, shipped: &mut Layers) -> Result<u64, String> {
        let mut d = Digest::new();
        for part in &mut self.parts {
            d.u64(part.verify(problems, shipped)?);
        }
        Ok(d.finish())
    }

    fn reference_key(&self) -> String {
        format!("fault-campaign/{}", self.seed)
    }
}
