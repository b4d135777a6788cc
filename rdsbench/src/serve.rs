//! `serve-recover`: the `rds serve --journal` path, crashed and resumed.
//! Each round runs the daemon over a bursty arrival stream near
//! saturation until half the arrivals were offered, halts it (the
//! in-process SIGKILL stand-in: the unsynced journal tail is lost), then
//! resumes from the journal with replay-dedup and runs to completion.
//!
//! One unit is one offered arrival; replayed arrivals of the resumed leg
//! count again, because the daemon offers them again. Samples are fixed
//! slices of consecutive arrivals; the resume scan falls into the first
//! slice of the resumed leg and the final drain into its last slice.

use crate::campaign::err;
use crate::harness::{
    add, clock, ms_since, usage, Digest, Layers, Params, Samples, Size, Workload,
};
use rds_serve::{
    Control, Daemon, Health, ServeConfig, ServeJournal, ServeLog, ServeReport, TerminalKind,
};
use rds_workloads::{ArrivalGen, ArrivalProcess};
use std::path::PathBuf;
use std::time::Instant;

pub struct Serve {
    cfg: ServeConfig,
    /// Arrival instants of the stream the daemon generates from its seed.
    times: Vec<f64>,
    halt_at: usize,
    slice: usize,
    journal_path: PathBuf,
    /// The daemon set-up built, used by the first round.
    daemon: Option<Daemon>,
    last: Option<(ServeReport, ServeLog)>,
    halted: Option<ServeReport>,
    reference_path: PathBuf,
}

fn health_digest(h: &Health) -> u64 {
    let mut d = Digest::new();
    d.u64(h.events)
        .u64(h.admitted)
        .u64(h.completed)
        .u64(h.depth as u64)
        .f64(h.now);
    d.finish()
}

fn counts(r: &ServeReport) -> [u64; 8] {
    [
        r.admitted,
        r.completed,
        r.shed,
        r.failed,
        r.rejected_full,
        r.rejected_deadline,
        r.rejected_draining,
        r.retries,
    ]
}

/// Digest of the terminal set (sorted by seq), the drain record and the
/// final counts.
fn outcome_digest(report: &ServeReport, log: &ServeLog) -> u64 {
    let mut records: Vec<_> = log.records.iter().collect();
    records.sort_by_key(|r| r.seq);
    let mut d = Digest::new();
    for r in records {
        let kind = match r.kind {
            TerminalKind::Done => 0,
            TerminalKind::Shed => 1,
            TerminalKind::Failed => 2,
        };
        d.u64(r.seq)
            .u64(kind)
            .f64(r.arrival)
            .f64(r.at)
            .u64(u64::from(r.attempts));
        d.u64(r.machine.map_or(u64::MAX, |m| m as u64));
    }
    if let Some(dr) = &log.drain {
        d.f64(dr.at)
            .u64(dr.admitted)
            .u64(dr.completed)
            .u64(dr.shed)
            .u64(dr.failed);
    }
    for c in counts(report) {
        d.u64(c);
    }
    d.finish()
}

/// Slice bookkeeping of one daemon leg.
struct Slicer<'a, 'y> {
    times: &'a [f64],
    slice: usize,
    /// Arrivals offered so far in this leg.
    offered: usize,
    /// The leg ends (halt or stream end) once this many were offered.
    leg_end: usize,
    mark: f64,
    samples: &'a mut Samples<'y>,
    outs: &'a mut [u64],
    k: usize,
    /// When the leg had offered `replayed` arrivals (resume-scan split).
    replayed: Option<(usize, Option<Instant>)>,
}

impl Slicer<'_, '_> {
    /// Called before each daemon event: closes every slice whose last
    /// arrival has been offered, except the leg's final slice, which
    /// [`Slicer::close`] ends after the daemon returns.
    fn poll(&mut self, h: &Health) -> Control {
        while self.offered < self.times.len() && self.times[self.offered] <= h.now {
            self.offered += 1;
            if let Some((at, seen @ None)) = &mut self.replayed {
                if self.offered == *at {
                    *seen = Some(Instant::now());
                }
            }
            if self.offered.is_multiple_of(self.slice) && self.offered < self.leg_end {
                let next = self.samples.record(self.k, self.mark);
                self.outs[self.k] = health_digest(h);
                self.mark = next;
                self.k += 1;
            }
        }
        if self.offered >= self.leg_end && self.leg_end < self.times.len() {
            Control::Halt
        } else {
            Control::Continue
        }
    }

    fn close(&mut self, report: &ServeReport) {
        self.samples.record(self.k, self.mark);
        let mut d = Digest::new();
        for c in counts(report) {
            d.u64(c);
        }
        self.outs[self.k] = d.u64(report.events).finish();
        self.k += 1;
    }
}

impl Serve {
    pub fn setup(p: &Params, layers: &mut Layers) -> Result<Serve, String> {
        let (machines, count, slice, cap) = match p.size {
            Size::Full => (16, 40_000, 200, 128),
            Size::Tiny => (4, 2_000, 20, 32),
        };
        // Capacity is about 0.92 tasks per machine and time unit (mean
        // estimate 1, mean realization factor about 1.08); the base rate
        // sits near it, the bursts well above it, so the daemon degrades
        // replication, sheds and rejects during every burst.
        let capacity = machines as f64 * 0.92;
        let mut cfg = ServeConfig::poisson(machines, 2, capacity * 0.9, count);
        cfg.process = ArrivalProcess::Bursty {
            base_rate: capacity * 0.9,
            burst_rate: capacity * 2.0,
            period: 40.0,
            burst_fraction: 0.25,
        };
        // Watermarks scale with the cap as `rds serve --queue-cap` scales them.
        cfg.queue_cap = cap;
        cfg.degrade_hi = cap / 2;
        cfg.degrade_lo = cap * 3 / 8;
        cfg.shed_hi = cap * 3 / 4;
        cfg.shed_lo = cap * 5 / 8;
        cfg.deadline_factor = 6.0;
        cfg.seed = p.seed;
        let t = Instant::now();
        let mut gen = ArrivalGen::new(
            cfg.process.clone(),
            cfg.estimates.clone(),
            cfg.count,
            cfg.seed,
        )
        .map_err(err)?;
        let times: Vec<f64> = std::iter::from_fn(|| gen.next_arrival().map(|a| a.at)).collect();
        add(layers, "workloads.gen_ms", ms_since(t));
        let journal_path = p.tmp.join("serve.journal");
        let daemon = Daemon::with_journal(cfg.clone(), &journal_path, false).map_err(err)?;
        Ok(Serve {
            halt_at: times.len() / 2 / slice * slice,
            times,
            slice,
            journal_path,
            daemon: Some(daemon),
            last: None,
            halted: None,
            reference_path: p.tmp.join("serve-reference.journal"),
            cfg,
        })
    }
}

impl Workload for Serve {
    fn samples(&self) -> usize {
        (self.halt_at + self.times.len()).div_ceil(self.slice)
    }

    fn units_per_sample(&self) -> usize {
        self.slice
    }

    fn unit_definition(&self) -> String {
        let c = &self.cfg;
        format!(
            "one offered arrival of `rds serve --journal` with m={} k={} (degraded {}) cap={} watermarks \
             {}..{}/{}..{} deadline-factor={} arrivals={:?} tasks={} seed={}; halted after {} arrivals and \
             resumed with replay-dedup, so a round offers {} arrivals; samples are slices of {} consecutive \
             arrivals",
            c.machines,
            c.replication,
            c.degraded_replication,
            c.queue_cap,
            c.degrade_lo,
            c.degrade_hi,
            c.shed_lo,
            c.shed_hi,
            c.deadline_factor,
            c.process,
            c.count,
            c.seed,
            self.halt_at,
            self.halt_at + self.times.len(),
            self.slice
        )
    }

    fn round(
        &mut self,
        trace: Option<&mut Layers>,
        samples: &mut Samples<'_>,
        outs: &mut [u64],
    ) -> Result<(), String> {
        let mut daemon = match self.daemon.take() {
            Some(d) => d,
            None => {
                Daemon::with_journal(self.cfg.clone(), &self.journal_path, false).map_err(err)?
            }
        };
        let u0 = usage();
        let t0 = Instant::now();
        let mut s = Slicer {
            times: &self.times,
            slice: self.slice,
            offered: 0,
            leg_end: self.halt_at,
            mark: clock(),
            samples,
            outs,
            k: 0,
            replayed: None,
        };
        let halted = daemon.run(&mut |h| s.poll(h)).map_err(err)?;
        s.close(&halted);
        drop(daemon);
        let t1 = Instant::now();
        // Resume: the scan and replay land in the resumed leg's first slice.
        s.offered = 0;
        s.leg_end = self.times.len();
        s.mark = clock();
        s.replayed = Some((self.halt_at, None));
        let mut daemon =
            Daemon::with_journal(self.cfg.clone(), &self.journal_path, true).map_err(err)?;
        let report = daemon.run(&mut |h| s.poll(h)).map_err(err)?;
        s.close(&report);
        let t2 = Instant::now();
        if let Some(layers) = trace {
            let wall = (t2 - t0).as_secs_f64() * 1e3;
            let replayed = s.replayed.and_then(|(_, at)| at).unwrap_or(t2);
            add(layers, "serve.run_ms", (t1 - t0).as_secs_f64() * 1e3);
            add(
                layers,
                "serve.resume_ms",
                (replayed - t1).as_secs_f64() * 1e3,
            );
            add(
                layers,
                "serve.drain_ms",
                (t2 - replayed).as_secs_f64() * 1e3,
            );
            add(
                layers,
                "serve.events",
                (halted.events + report.events) as f64,
            );
            add(
                layers,
                "serve.wait_ms",
                (wall - (usage().cpu_s() - u0.cpu_s()) * 1e3).max(0.0),
            );
            let bytes = std::fs::metadata(&self.journal_path).map_err(err)?.len();
            add(layers, "serve.journal.bytes", bytes as f64);
            add(layers, "serve.admitted", report.admitted as f64);
            add(layers, "serve.completed", report.completed as f64);
            add(layers, "serve.shed", report.shed as f64);
            let rejected =
                report.rejected_full + report.rejected_deadline + report.rejected_draining;
            add(layers, "serve.rejected", rejected as f64);
        }
        let log = ServeJournal::read(&self.journal_path).map_err(err)?;
        self.halted = Some(halted);
        self.last = Some((report, log));
        Ok(())
    }

    fn verify(&mut self, problems: &mut Vec<String>, _: &mut Layers) -> Result<u64, String> {
        // The uninterrupted run the crash and resume must reproduce.
        let mut daemon =
            Daemon::with_journal(self.cfg.clone(), &self.reference_path, false).map_err(err)?;
        let reference = daemon.run(&mut |_| Control::Continue).map_err(err)?;
        let reference_log = ServeJournal::read(&self.reference_path).map_err(err)?;
        let (Some((report, log)), Some(halted)) = (&self.last, &self.halted) else {
            return Err("no round ran".into());
        };
        if !halted.halted {
            problems.push("the first leg did not halt mid-stream".into());
        }
        if log.duplicates != 0 || log.records.len() as u64 != report.admitted {
            problems.push(format!(
                "resumed journal is not exactly-once: {} records, {} duplicates, {} admitted",
                log.records.len(),
                log.duplicates,
                report.admitted
            ));
        }
        let expected = outcome_digest(&reference, &reference_log);
        if outcome_digest(report, log) != expected {
            problems.push(
                "halt + resume differs from the uninterrupted run (terminal set or counts)".into(),
            );
        }
        let rejected = reference.rejected_full + reference.rejected_deadline;
        if reference.shed == 0 || reference.degraded_entries == 0 || rejected == 0 {
            problems.push(format!(
                "the stream no longer reaches overload: shed {}, degraded entries {}, rejected {rejected}",
                reference.shed, reference.degraded_entries
            ));
        }
        Ok(expected)
    }

    fn reference_key(&self) -> String {
        format!("serve-recover/{}", self.cfg.seed)
    }
}
