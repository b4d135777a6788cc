//! `locality-sweep`: the `rds sweep --speeds .. --topology ..` path. One
//! unit is one (policy, rep) trial: the locality-aware dispatcher over a
//! two-class speed profile and a clustered topology, run by the
//! heterogeneous engine under the inline watchdog, plus its fsync'd journal
//! append. The first policy's unit of each rep also draws the rep's
//! realization, speeds and topology and its speed-aware lower bound, as
//! the command's rep loop does.

use crate::campaign::{
    compare_records, err, measurement_digest, record, rows_digest, traced_append,
};
use crate::harness::{add, clock, ms_since, Layers, Params, Samples, Size, Workload};
use rds_core::{Instance, MachineSpeeds, NetworkTopology, Realization, Uncertainty};
use rds_par::{supervise, CampaignMeta, Journal, Supervised};
use rds_policies::{standard_suite, ResiliencePolicy, TrialMeasurement};
use rds_sim::{Dispatcher, Engine, LocalityDispatcher};
use rds_workloads::{
    rng, EstimateDistribution, RealizationModel, SpeedDistribution, TopologyModel,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const SPEEDS: &str = "two-class:0.5,2,0.3";
const SPEED_DIST: SpeedDistribution = SpeedDistribution::TwoClass {
    slow: 0.5,
    fast: 2.0,
    p_fast: 0.3,
};
const TOPOLOGY: &str = "clustered:4,0.1,1.0";
const TOPOLOGY_MODEL: TopologyModel = TopologyModel::Clustered {
    zones: 4,
    local: 0.1,
    remote: 1.0,
};
const ALPHA: f64 = 1.5;

pub struct Sweep {
    seed: u64,
    m: usize,
    n: usize,
    reps: usize,
    unc: Uncertainty,
    instance: Instance,
    suite: Vec<Arc<ResiliencePolicy>>,
    meta: CampaignMeta,
    journal_path: PathBuf,
    journal: Option<Journal>,
    last: Vec<TrialMeasurement>,
    cli_journal: PathBuf,
}

/// One rep's draws, made in the command's order from the rep's seed.
struct Rep {
    seed: u64,
    realization: Realization,
    speeds: MachineSpeeds,
    topology: NetworkTopology,
}

impl Sweep {
    pub fn setup(p: &Params, layers: &mut Layers) -> Result<Sweep, String> {
        let (m, n, reps) = match p.size {
            Size::Full => (32, 2000, 20),
            Size::Tiny => (6, 48, 4),
        };
        let t = Instant::now();
        let unc = Uncertainty::new(ALPHA).map_err(err)?;
        let mut r = rng::rng(p.seed);
        let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(n, &mut r);
        let instance = Instance::from_estimates(&est, m).map_err(err)?;
        add(layers, "workloads.gen_ms", ms_since(t));
        let t = Instant::now();
        let suite = standard_suite(&instance, unc).map_err(err)?;
        add(layers, "algs.place_ms", ms_since(t));
        let meta = CampaignMeta {
            campaign: "sweep".into(),
            digest: instance.digest(),
            seed: p.seed,
            params: format!(
                "n={n} m={m} alpha={ALPHA} reps={reps} model=uniform speeds={SPEEDS} topology={TOPOLOGY}"
            ),
        };
        let journal_path = p.tmp.join("sweep.journal");
        let journal = Journal::create(&journal_path, &meta).map_err(err)?;
        Ok(Sweep {
            seed: p.seed,
            m,
            n,
            reps,
            unc,
            instance,
            suite: suite.into_iter().map(Arc::new).collect(),
            meta,
            journal_path,
            journal: Some(journal),
            last: Vec::new(),
            cli_journal: p.tmp.join("cli-sweep.journal"),
        })
    }

    fn draw(&self, rep: usize) -> rds_core::Result<Rep> {
        let seed = rng::child_seed(self.seed, rep as u64);
        let mut tr = rng::rng(seed);
        let realization =
            RealizationModel::UniformFactor.realize(&self.instance, self.unc, &mut tr)?;
        let speeds = SPEED_DIST.realize(self.m, &mut tr)?;
        let topology = TOPOLOGY_MODEL.build(self.m, &mut tr)?;
        Ok(Rep {
            seed,
            realization,
            speeds,
            topology,
        })
    }

    /// The trial body of `rds sweep` for a heterogeneous rep.
    fn trial(&self, policy: &Arc<ResiliencePolicy>, rep: &Rep) -> Result<f64, String> {
        let body_inst = self.instance.clone();
        let body_policy = Arc::clone(policy);
        let body_real = rep.realization.clone();
        let body_speeds = rep.speeds.clone();
        let body_topo = rep.topology.clone();
        match supervise(&rds_par::WatchdogPolicy::default(), rep.seed, move |_| {
            let engine = Engine::new(&body_inst, &body_policy.placement, &body_real)?;
            let mut d: Box<dyn Dispatcher> = Box::new(LocalityDispatcher::new(
                body_inst.ids_by_estimate_desc(),
                &body_policy.placement,
                body_topo.clone(),
            )?);
            let res = engine.run_hetero(d.as_mut(), Some(&body_speeds), Some(&body_topo))?;
            Ok(res.makespan.get())
        }) {
            Supervised::Done { value, .. } => Ok(value),
            Supervised::Quarantined { error, .. } => Err(format!("trial quarantined: {error}")),
        }
    }

    /// The same trial with the dispatcher build and the engine run timed
    /// apart.
    fn traced_trial(
        &self,
        policy: &ResiliencePolicy,
        rep: &Rep,
        layers: &mut Layers,
    ) -> rds_core::Result<f64> {
        let t = Instant::now();
        let mut d = LocalityDispatcher::new(
            self.instance.ids_by_estimate_desc(),
            &policy.placement,
            rep.topology.clone(),
        )?;
        add(layers, "sim.locality.build_ms", ms_since(t));
        let t = Instant::now();
        let engine = Engine::new(&self.instance, &policy.placement, &rep.realization)?;
        let res = engine.run_hetero(
            &mut d as &mut dyn Dispatcher,
            Some(&rep.speeds),
            Some(&rep.topology),
        )?;
        add(layers, "sim.hetero.run_ms", ms_since(t));
        add(layers, "sim.hetero.events", res.trace.len() as f64);
        Ok(res.makespan.get())
    }
}

impl Workload for Sweep {
    fn samples(&self) -> usize {
        self.suite.len() * self.reps
    }

    fn unit_definition(&self) -> String {
        format!(
            "one (policy, rep) trial of `rds sweep --m {} --n {} --alpha {ALPHA} --reps {} --speeds {SPEEDS} \
             --topology {TOPOLOGY} --seed {}` ({} policies x {} reps): LocalityDispatcher build plus \
             Engine::run_hetero under the inline watchdog, plus its fsync'd journal append; the first \
             policy's unit of a rep also draws the rep and computes speed_lower_bound",
            self.m,
            self.n,
            self.reps,
            self.seed,
            self.suite.len(),
            self.reps
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
        let mut cells = vec![None; self.samples()];
        for rep_idx in 0..self.reps {
            let mut t = clock();
            let tg = Instant::now();
            let rep = self.draw(rep_idx).map_err(err)?;
            if let Some(layers) = trace.as_deref_mut() {
                add(layers, "workloads.gen_ms", ms_since(tg));
            }
            let tb = Instant::now();
            let opt_lo = rds_algs::speed_lower_bound(rep.realization.times(), &rep.speeds).get();
            if let Some(layers) = trace.as_deref_mut() {
                add(layers, "algs.speed_bound_ms", ms_since(tb));
            }
            for (p, policy) in self.suite.iter().enumerate() {
                if p > 0 {
                    t = clock();
                }
                let makespan = match trace.as_deref_mut() {
                    None => self.trial(policy, &rep)?,
                    Some(layers) => self.traced_trial(policy, &rep, layers).map_err(err)?,
                };
                let measurement = TrialMeasurement {
                    completed: true,
                    survival: 1.0,
                    restarts: 0.0,
                    rejoins: 0.0,
                    spec_started: 0.0,
                    spec_wins: 0.0,
                    cancelled: 0.0,
                    wasted: 0.0,
                    makespan,
                    baseline: opt_lo,
                };
                let rec = record(&policy.name, rep_idx, rep.seed, 1, &measurement);
                match trace.as_deref_mut() {
                    None => journal.append(&rec),
                    Some(layers) => traced_append(&mut journal, &rec, layers),
                }
                .map_err(err)?;
                // Policy-major order, as the aggregation reads them.
                let k = p * self.reps + rep_idx;
                samples.record(k, t);
                outs[k] = measurement_digest(&measurement);
                cells[k] = Some(measurement);
            }
        }
        if let Some(layers) = trace {
            let bytes = std::fs::metadata(&self.journal_path).map_err(err)?.len();
            add(layers, "par.journal.bytes", bytes as f64);
        }
        self.last = cells
            .into_iter()
            .map(|c| c.expect("every cell ran"))
            .collect();
        Ok(())
    }

    fn verify(&mut self, problems: &mut Vec<String>, shipped: &mut Layers) -> Result<u64, String> {
        let argv: Vec<String> = vec![
            "sweep".into(),
            "--m".into(),
            self.m.to_string(),
            "--n".into(),
            self.n.to_string(),
            "--alpha".into(),
            ALPHA.to_string(),
            "--reps".into(),
            self.reps.to_string(),
            "--speeds".into(),
            SPEEDS.into(),
            "--topology".into(),
            TOPOLOGY.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--journal".into(),
            self.cli_journal.display().to_string(),
        ];
        let mut sink = Vec::new();
        let t = clock();
        rds_cli::run(&argv, &mut sink).map_err(|e| format!("rds sweep failed: {e}"))?;
        add(shipped, "policies.cli_ms", (clock() - t) * 1e3);
        let (meta, records) = Journal::read(&self.cli_journal).map_err(err)?;
        if meta != self.meta {
            problems.push("rds sweep journaled a different campaign identity".into());
        }
        compare_records(
            "rds sweep",
            &self.suite,
            self.reps,
            &self.last,
            &records,
            problems,
        );
        Ok(rows_digest(&self.suite, &self.last))
    }

    fn reference_key(&self) -> String {
        format!("locality-sweep/{}", self.seed)
    }
}
