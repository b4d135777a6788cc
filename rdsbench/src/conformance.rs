//! `conformance`: the `rds conformance` oracle over the seed-42 case
//! stream with no mutant. One unit is one case index through all four
//! arms: the core makespan battery (`check_case`, exact bracket plus
//! engine), survival, ILP and hetero.
//!
//! The case stream is the fixed seed-42 stream, so the verdict and the
//! check counts have one committed reference; `--seed` is accepted and
//! ignored.

use crate::campaign::err;
use crate::harness::{add, clock, ms_since, Digest, Layers, Params, Samples, Size, Workload};
use rds_conformance::{
    check_case, generate_case, generate_hetero_case, generate_ilp_case, generate_survival_case,
    run_hetero_case, run_ilp_case, run_survival_case, CaseSpec, ConformanceConfig, HeteroSpec,
    IlpSpec, Mutation, StrategyId, SurvivalSpec,
};
use rds_exact::OptimalSolver;
use std::time::Instant;

const CASE_SEED: u64 = 42;
/// Leading cases the shipped `rds_conformance::run` re-checks each run.
const SHIPPED_PREFIX: u64 = 8;
const ARMS: [&str; 4] = ["core", "survival", "ilp", "hetero"];
const ARM_MS: [&str; 4] = [
    "conformance.arm.core_ms",
    "conformance.arm.survival_ms",
    "conformance.arm.ilp_ms",
    "conformance.arm.hetero_ms",
];
const ARM_CHECKS: [&str; 4] = [
    "conformance.arm.core.checks",
    "conformance.arm.survival.checks",
    "conformance.arm.ilp.checks",
    "conformance.arm.hetero.checks",
];

struct Case {
    core: CaseSpec,
    survival: SurvivalSpec,
    ilp: IlpSpec,
    hetero: HeteroSpec,
}

/// Checks run and violations found, per arm.
type ArmCounts = [(u64, u64); 4];

pub struct Conformance {
    max_n: usize,
    max_m: usize,
    solver: OptimalSolver,
    cases: Vec<Case>,
    /// The last round's counts per case index.
    last: Vec<ArmCounts>,
}

impl Conformance {
    pub fn setup(p: &Params, layers: &mut Layers) -> Result<Conformance, String> {
        let (count, max_n, max_m) = match p.size {
            Size::Full => (100, 20, 10),
            Size::Tiny => (12, 10, 5),
        };
        let t = Instant::now();
        let cases = (0..count)
            .map(|i| Case {
                core: generate_case(CASE_SEED, i, max_n, max_m),
                survival: generate_survival_case(CASE_SEED, i, max_n, max_m),
                ilp: generate_ilp_case(CASE_SEED, i, max_n, max_m),
                hetero: generate_hetero_case(CASE_SEED, i, max_n, max_m),
            })
            .collect();
        add(layers, "conformance.gen_ms", ms_since(t));
        Ok(Conformance {
            max_n,
            max_m,
            solver: OptimalSolver::default(),
            last: vec![[(0, 0); 4]; count as usize],
            cases,
        })
    }

    fn run_case(&self, case: &Case, mut trace: Option<&mut Layers>) -> Result<ArmCounts, String> {
        let mut counts = [(0, 0); 4];
        for (arm, ms) in ARM_MS.iter().enumerate() {
            let t = Instant::now();
            counts[arm] = match arm {
                0 => {
                    let r = check_case(
                        &case.core,
                        &StrategyId::suite(case.core.m),
                        Mutation::None,
                        &self.solver,
                    )
                    .map_err(|e| format!("case rejected by the oracle: {e}"))?;
                    (r.checks_run, r.violations.len() as u64)
                }
                1 => {
                    let r = run_survival_case(&case.survival, Mutation::None);
                    (r.checks_run, r.violations.len() as u64)
                }
                2 => {
                    let r = run_ilp_case(&case.ilp, Mutation::None);
                    (r.checks_run, r.violations.len() as u64)
                }
                _ => {
                    let r = run_hetero_case(&case.hetero, Mutation::None);
                    (r.checks_run, r.violations.len() as u64)
                }
            };
            if let Some(layers) = trace.as_deref_mut() {
                add(layers, ms, ms_since(t));
                add(layers, ARM_CHECKS[arm], counts[arm].0 as f64);
            }
        }
        Ok(counts)
    }
}

fn counts_digest(c: &ArmCounts) -> u64 {
    let mut d = Digest::new();
    for &(checks, violations) in c {
        d.u64(checks).u64(violations);
    }
    d.finish()
}

impl Workload for Conformance {
    fn samples(&self) -> usize {
        self.cases.len()
    }

    fn unit_definition(&self) -> String {
        format!(
            "one case index of `rds conformance --seed {CASE_SEED} --cases {} --max-n {} --max-m {}` \
             (no mutant) through all four arms: check_case (exact bracket + engine), run_survival_case, \
             run_ilp_case and run_hetero_case; --seed is ignored",
            self.cases.len(),
            self.max_n,
            self.max_m,
        )
    }

    fn round(
        &mut self,
        mut trace: Option<&mut Layers>,
        samples: &mut Samples<'_>,
        outs: &mut [u64],
    ) -> Result<(), String> {
        for i in 0..self.cases.len() {
            let t = clock();
            let counts = self.run_case(&self.cases[i], trace.as_deref_mut())?;
            samples.record(i, t);
            outs[i] = counts_digest(&counts);
            self.last[i] = counts;
        }
        Ok(())
    }

    fn verify(&mut self, problems: &mut Vec<String>, _: &mut Layers) -> Result<u64, String> {
        let mut d = Digest::new();
        for (arm, name) in ARMS.iter().enumerate() {
            let checks: u64 = self.last.iter().map(|c| c[arm].0).sum();
            let violations: u64 = self.last.iter().map(|c| c[arm].1).sum();
            if violations > 0 {
                problems.push(format!("conformance arm {name}: {violations} violation(s)"));
            }
            d.str(name).u64(checks).u64(violations);
        }
        // The shipped campaign runner over the leading cases must count the
        // same checks as the benchmark's per-arm calls.
        let prefix = SHIPPED_PREFIX.min(self.cases.len() as u64);
        let report = rds_conformance::run(&ConformanceConfig {
            seed: CASE_SEED,
            cases: prefix,
            max_n: self.max_n,
            max_m: self.max_m,
            ..ConformanceConfig::default()
        })
        .map_err(err)?;
        let ours: u64 = self.last[..prefix as usize]
            .iter()
            .flat_map(|c| c.iter().map(|a| a.0))
            .sum();
        if report.checks_run != ours || report.violations != 0 {
            problems.push(format!(
                "rds_conformance::run over {prefix} cases ran {} checks with {} violations; the benchmark ran {ours}",
                report.checks_run, report.violations
            ));
        }
        Ok(d.finish())
    }

    fn reference_key(&self) -> String {
        format!(
            "conformance/{}x{}x{}",
            self.cases.len(),
            self.max_n,
            self.max_m
        )
    }
}
