//! The replicated-placement benchmark: four workloads through the shipped
//! library paths. A run measures in a few child processes of this binary
//! (started with the internal `--child <k>` option), one after another,
//! each on one thread, and pools what they report.
//!
//! ```text
//! rdsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it stamp the result (host, code, seed, unit definition, diagnostics)
//! and print every metric by name and unit. See `README.md` beside this
//! package for the workloads and estimators.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("rdsbench reads 64-bit Linux process accounting (getrusage, clock_gettime, /proc)");

mod campaign;
mod conformance;
mod harness;
mod serve;
mod sweep;
mod yardstick;

use harness::{
    host_stamp, layer_medians, measure, median, quantile, steal_ms, Layers, Measured, Params, Size,
    Workload,
};
use std::time::{Duration, Instant};
use yardstick::Yardstick;

const USAGE: &str =
    "usage: rdsbench --workload <fault-campaign|locality-sweep|conformance|serve-recover> --seed <n> \
     --seconds <s> --trace <0|1> [--size full|tiny]";

/// Measuring processes per run, one after another, each for an equal share
/// of `--seconds` and pinned to the allowed CPUs in turn. A process's speed
/// stays within a few percent for a minute, but two processes of the same
/// command differed by up to a quarter, and the two virtual CPUs of the
/// reference host ran the same work up to 25% apart; pooling processes
/// spread over every CPU averages both out.
const PROCESSES: usize = 4;
/// Set-ups before a process's first round; more precede every later
/// round. `setup_s` is the median of them all.
const FIRST_SETUPS: usize = 9;
/// Rounds every process runs, even past its time budget.
const MIN_ROUNDS: usize = 2;

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.gen_ms", "ms"),
    ("algs.place_ms", "ms"),
    ("algs.speed_bound_ms", "ms"),
    ("sim.faults.baseline_ms", "ms"),
    ("sim.faults.run_ms", "ms"),
    ("sim.faults.events", "count"),
    ("sim.faults.ns_per_event", "ns"),
    ("sim.locality.build_ms", "ms"),
    ("sim.hetero.run_ms", "ms"),
    ("sim.hetero.events", "count"),
    ("sim.hetero.ns_per_event", "ns"),
    ("par.journal.appends", "count"),
    ("par.journal.append_ms", "ms"),
    ("par.journal.wait_ms", "ms"),
    ("par.journal.bytes", "bytes"),
    ("policies.campaign.self_ms", "ms"),
    ("policies.cli_ms", "ms"),
    ("conformance.gen_ms", "ms"),
    ("conformance.arm.core_ms", "ms"),
    ("conformance.arm.survival_ms", "ms"),
    ("conformance.arm.ilp_ms", "ms"),
    ("conformance.arm.hetero_ms", "ms"),
    ("conformance.arm.core.checks", "count"),
    ("conformance.arm.survival.checks", "count"),
    ("conformance.arm.ilp.checks", "count"),
    ("conformance.arm.hetero.checks", "count"),
    ("serve.run_ms", "ms"),
    ("serve.resume_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.events", "count"),
    ("serve.ns_per_event", "ns"),
    ("serve.wait_ms", "ms"),
    ("serve.journal.bytes", "bytes"),
    ("serve.admitted", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Committed digests of each workload's aggregate output: `<key> <hex>`.
const REFERENCE: &str = include_str!("../reference.txt");

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Set in the measuring child processes the command starts.
    child: Option<usize>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--child" => child = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
        child,
    })
}

fn setup(name: &str, p: &Params, layers: &mut Layers) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fault-campaign" => Box::new(campaign::Campaigns::setup(p, layers)?),
        "locality-sweep" => Box::new(sweep::Sweep::setup(p, layers)?),
        "conformance" => Box::new(conformance::Conformance::setup(p, layers)?),
        "serve-recover" => Box::new(serve::Serve::setup(p, layers)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Err(e) => {
            eprintln!("rdsbench: {e}\n{USAGE}");
            2
        }
        Ok(opts) => match opts.child {
            Some(k) => match child(&opts, k) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("rdsbench: {e}");
                    1
                }
            },
            None => match bench(&opts) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("rdsbench: {e}");
                    1
                }
            },
        },
    };
    std::process::exit(code);
}

/// What one measuring child reports, one item per line of its output.
#[derive(Default)]
struct Report {
    unit: String,
    samples: usize,
    per: usize,
    /// Untraced per-sample reference-speed seconds, one entry per round.
    rounds: Vec<Vec<f64>>,
    /// The same as measured on the CPU clock.
    raw: Vec<Vec<f64>>,
    /// First untraced round's sample output digests.
    outs: Vec<u64>,
    setups: Vec<f64>,
    raw_setups: Vec<f64>,
    /// Median yardstick factor of the process.
    speed: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Aggregate output digest (child 0 only, which runs the output checks).
    digest: Option<u64>,
    key: String,
    peak_rss_kib: f64,
    /// The CPU the process was pinned to.
    cpu: Option<usize>,
    layers: Layers,
}

fn hex(v: &[u64]) -> String {
    v.iter()
        .map(|d| format!("{d:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:e}"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl Report {
    fn print(&self) {
        println!("unit {}", self.unit);
        println!("samples {} {}", self.samples, self.per);
        for r in &self.rounds {
            println!("round {}", floats(r));
        }
        for r in &self.raw {
            println!("raw {}", floats(r));
        }
        println!("outs {}", hex(&self.outs));
        println!("setups {}", floats(&self.setups));
        println!("rawsetups {}", floats(&self.raw_setups));
        println!("speed {:e}", self.speed);
        println!("count {} {}", self.attempted, self.failed);
        for p in &self.problems {
            println!("problem {}", p.replace('\n', " "));
        }
        if let Some(d) = self.digest {
            println!("digest {d:016x}");
        }
        println!("key {}", self.key);
        println!("rss {}", self.peak_rss_kib);
        if let Some(c) = self.cpu {
            println!("cpu {c}");
        }
        for (k, v) in &self.layers {
            println!("layer {k} {v:e}");
        }
    }

    fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let float = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
        let int = |s: &str| s.parse::<u64>().map_err(|_| format!("bad count {s:?}"));
        let digest = |s: &str| u64::from_str_radix(s, 16).map_err(|_| format!("bad digest {s:?}"));
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut words = rest.split_whitespace();
            match tag {
                "unit" => r.unit = rest.to_string(),
                "samples" => {
                    r.samples = int(words.next().unwrap_or(""))? as usize;
                    r.per = int(words.next().unwrap_or(""))? as usize;
                }
                "round" => r.rounds.push(words.map(float).collect::<Result<_, _>>()?),
                "raw" => r.raw.push(words.map(float).collect::<Result<_, _>>()?),
                "outs" => r.outs = words.map(digest).collect::<Result<_, _>>()?,
                "setups" => r.setups = words.map(float).collect::<Result<_, _>>()?,
                "rawsetups" => r.raw_setups = words.map(float).collect::<Result<_, _>>()?,
                "speed" => r.speed = float(rest)?,
                "count" => {
                    r.attempted = int(words.next().unwrap_or(""))?;
                    r.failed = int(words.next().unwrap_or(""))?;
                }
                "problem" => r.problems.push(rest.to_string()),
                "digest" => r.digest = Some(digest(rest)?),
                "key" => r.key = rest.to_string(),
                "rss" => r.peak_rss_kib = float(rest)?,
                "cpu" => r.cpu = Some(int(rest)? as usize),
                "layer" => {
                    let name = words.next().unwrap_or("");
                    let &(name, _) = PER_LAYER
                        .iter()
                        .find(|(n, _)| *n == name)
                        .ok_or_else(|| format!("unknown layer {name:?}"))?;
                    r.layers.insert(name, float(words.next().unwrap_or(""))?);
                }
                _ => return Err(format!("unexpected line {line:?}")),
            }
        }
        if r.rounds.is_empty()
            || r.raw.len() != r.rounds.len()
            || r.rounds.iter().chain(&r.raw).any(|x| x.len() != r.samples)
        {
            return Err("a child reported no rounds or a wrong sample count".into());
        }
        Ok(r)
    }
}

/// One measuring process: set-ups and rounds for `o.seconds`, the
/// round-to-round and traced checks, and (child 0) the output checks
/// against the shipped command path. Prints a [`Report`].
fn child(o: &Opts, k: usize) -> Result<(), String> {
    if rds_obs::enabled() {
        return Err("rds-obs instrumentation must stay disabled while measuring".into());
    }
    let cpu = harness::pin_to_cpu(k);
    let tmp = harness::TmpDir::create()?;
    let params = Params {
        seed: o.seed,
        size: o.size,
        tmp: tmp.path().to_path_buf(),
    };
    let modes: &[bool] = if o.trace { &[false, true] } else { &[false] };
    let mut build = |layers: &mut Layers| setup(&o.workload, &params, layers);
    let mut yard = Yardstick::new();
    let run = measure(
        &mut build,
        &mut yard,
        FIRST_SETUPS,
        Duration::from_secs_f64(o.seconds),
        MIN_ROUNDS,
        modes,
    )
    .map_err(|e| format!("measurement failed: {e}"))?;
    let (mut w, setups, mut measured) = (run.workload, run.setups, run.measured);
    let traced = if o.trace { measured.pop() } else { None };
    let plain = measured.pop().expect("one untraced measurement");
    let mut r = Report {
        unit: w.unit_definition(),
        samples: w.samples(),
        per: w.units_per_sample(),
        peak_rss_kib: harness::peak_rss_kib(),
        key: w.reference_key(),
        cpu,
        ..Report::default()
    };

    // Every round reproduces the first, and traced rounds reproduce
    // untraced ones.
    let units = (r.samples * r.per) as u64;
    for (what, m) in [("untraced", Some(&plain)), ("traced", traced.as_ref())] {
        let Some(m) = m else { continue };
        r.attempted += m.rounds() as u64 * units;
        r.failed += m.mismatches * r.per as u64;
        if m.mismatches > 0 {
            r.problems.push(format!(
                "{what}: {} sample(s) differ between rounds",
                m.mismatches
            ));
        }
    }
    if let Some(t) = &traced {
        let differ = t
            .outs
            .iter()
            .zip(&plain.outs)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if differ > 0 {
            r.failed += differ * r.per as u64;
            r.problems.push(format!(
                "{differ} traced sample(s) differ from the untraced run"
            ));
        }
    }
    let mut shipped = Layers::new();
    if k == 0 {
        let before = r.problems.len();
        r.digest = Some(w.verify(&mut r.problems, &mut shipped)?);
        if r.problems.len() > before {
            // A breached output check fails one round's worth of units.
            r.failed += units;
            r.attempted += units;
        }
    }
    if let Some(t) = &traced {
        r.layers = per_layer(&setups.layers, &plain, t, &o.workload);
        r.layers.extend(shipped);
    }
    r.rounds = plain.secs;
    r.raw = plain.raw;
    r.outs = plain.outs;
    r.setups = setups.secs;
    r.raw_setups = setups.raw;
    r.speed = median(&yard.factors);
    r.print();
    Ok(())
}

/// Runs one workload in [`PROCESSES`] measuring child processes, one after
/// another, and prints the pooled result; `Ok(false)` when a check failed.
fn bench(o: &Opts) -> Result<bool, String> {
    let u0 = harness::children_usage();
    let steal0 = steal_ms();
    let t0 = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut reports = Vec::with_capacity(PROCESSES);
    for k in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &o.workload])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &(o.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .args(["--size", if o.size == Size::Tiny { "tiny" } else { "full" }])
            .args(["--child", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("measuring process {k} failed ({})", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
        reports.push(Report::parse(&text).map_err(|e| format!("process {k}: {e}"))?);
    }
    let wall = t0.elapsed().as_secs_f64();
    let u1 = harness::children_usage();
    let steal = steal_ms() - steal0;

    // Pool the processes; every one must have produced the same outputs.
    let first = &reports[0];
    let (samples, per) = (first.samples as u64, first.per as u64);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut rounds = Vec::new();
    let mut raw = Vec::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    for (k, r) in reports.iter().enumerate() {
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.problems.iter().map(|p| format!("process {k}: {p}")));
        let differ = r
            .outs
            .iter()
            .zip(&first.outs)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if differ > 0 || r.samples != first.samples {
            failed += differ.max(1) * per;
            problems.push(format!(
                "process {k}: {differ} sample(s) differ from process 0's"
            ));
        }
        rounds.extend(r.rounds.iter().cloned());
        raw.extend(r.raw.iter().cloned());
        setups.extend(&r.setups);
        raw_setups.extend(&r.raw_setups);
    }
    let digest = first.digest.expect("process 0 runs the output checks");
    let key = match o.size {
        Size::Full => first.key.clone(),
        Size::Tiny => format!("tiny/{}", first.key),
    };
    let reference = REFERENCE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.trim().to_string());
    let digest_hex = format!("{digest:016x}");
    let reference_status = match &reference {
        None => "no committed reference for this seed; differential checks only".to_string(),
        Some(r) if *r == digest_hex => "matches the committed reference".to_string(),
        Some(r) => {
            problems.push(format!(
                "output digest {digest_hex} differs from the committed reference {r}"
            ));
            failed += samples * per;
            attempted += samples * per;
            "MISMATCH".to_string()
        }
    };

    // End-to-end estimators over each sample's median across the pooled
    // rounds.
    let medians = harness::sample_medians(&rounds);
    let unit_ms: Vec<f64> = medians.iter().map(|s| s / per as f64 * 1e3).collect();
    let units_per_s = (medians.len() as u64 * per) as f64 / medians.iter().sum::<f64>();
    let raw_medians = harness::sample_medians(&raw);
    let raw_units_per_s = (raw_medians.len() as u64 * per) as f64 / raw_medians.iter().sum::<f64>();
    let p50 = quantile(&unit_ms, 0.5);
    let p90 = quantile(&unit_ms, 0.9);
    let beyond_p90 = unit_ms.iter().filter(|&&v| v > p90).count();
    let peak_rss_kib = reports.iter().map(|r| r.peak_rss_kib).fold(0.0, f64::max);
    let end_to_end = [
        median(&setups),
        units_per_s,
        p50,
        p90,
        peak_rss_kib / 1024.0,
    ];
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    let mut stamp: Vec<(&str, String)> = vec![
        ("workload", json_str(&o.workload)),
        ("seed", o.seed.to_string()),
        ("seconds", json_num(o.seconds)),
        ("trace", o.trace.to_string()),
        (
            "size",
            json_str(if o.size == Size::Tiny { "tiny" } else { "full" }),
        ),
        ("unit", json_str(&first.unit)),
        ("samples", samples.to_string()),
        ("units_per_sample", per.to_string()),
        ("processes", PROCESSES.to_string()),
        (
            "cpus",
            format!(
                "[{}]",
                reports
                    .iter()
                    .map(|r| r.cpu.map_or("null".into(), |c| c.to_string()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("rounds", rounds.len().to_string()),
        ("samples_beyond_p90", beyond_p90.to_string()),
        ("setups", setups.len().to_string()),
        ("output_digest", json_str(&digest_hex)),
        ("reference_key", json_str(&key)),
        ("reference", json_str(&reference_status)),
        (
            "problems",
            format!(
                "[{}]",
                problems
                    .iter()
                    .map(|p| json_str(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    stamp.extend(host_stamp().into_iter().map(|(k, v)| (k, json_str(&v))));
    let diagnostics = json_object(&[
        ("wall_s", json_num(wall)),
        ("user_s", json_num(u1.user_s - u0.user_s)),
        ("sys_s", json_num(u1.sys_s - u0.sys_s)),
        (
            "involuntary_switches",
            (u1.involuntary_switches - u0.involuntary_switches).to_string(),
        ),
        (
            "voluntary_switches",
            (u1.voluntary_switches - u0.voluntary_switches).to_string(),
        ),
        ("host_steal_ms", json_num(steal)),
        (
            "yardstick_factors",
            format!(
                "[{}]",
                reports
                    .iter()
                    .map(|r| json_num(r.speed))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("cpu_clock_units_per_s", json_num(raw_units_per_s)),
        ("cpu_clock_setup_s", json_num(median(&raw_setups))),
    ]);
    stamp.push(("diagnostics", diagnostics));
    println!("{}", json_object(&[("stamp", json_object(&stamp))]));

    let metrics: Vec<(&str, &str, f64)> = if o.trace {
        // Layer values: the median over the processes that report them
        // (only process 0 runs the shipped command).
        PER_LAYER
            .iter()
            .map(|&(n, u)| {
                let vals: Vec<f64> = reports
                    .iter()
                    .filter_map(|r| r.layers.get(n).copied())
                    .collect();
                (n, u, if vals.is_empty() { 0.0 } else { median(&vals) })
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!(
        "{:<34} {failed_frac:>18.6} ratio ({failed} of {attempted} units failed)",
        "failed_frac"
    );
    for p in &problems {
        println!("FAILED CHECK: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let body: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(n, u, v)| {
            (
                n,
                json_object(&[("value", json_num(v)), ("unit", json_str(u))]),
            )
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", json_object(&body)),
        ])
    );
    Ok(correct)
}

/// Per-layer values: set-up layers (median over set-ups) plus traced round
/// layers (median over rounds), and the derived rates.
fn per_layer(
    setup_layers: &[Layers],
    plain: &Measured,
    traced: &Measured,
    workload: &str,
) -> Layers {
    let mut out = layer_medians(setup_layers);
    let rounds = layer_medians(&traced.layers);
    for (&k, &v) in &rounds {
        harness::add(&mut out, k, v);
    }
    let get = |k: &str| rounds.get(k).copied().unwrap_or(0.0);
    let rate = |ms: f64, events: f64| if events > 0.0 { ms * 1e6 / events } else { 0.0 };
    out.insert(
        "sim.faults.ns_per_event",
        rate(
            get("sim.faults.baseline_ms") + get("sim.faults.run_ms"),
            get("sim.faults.events"),
        ),
    );
    out.insert(
        "sim.hetero.ns_per_event",
        rate(get("sim.hetero.run_ms"), get("sim.hetero.events")),
    );
    out.insert(
        "serve.ns_per_event",
        rate(
            get("serve.run_ms") + get("serve.resume_ms") + get("serve.drain_ms"),
            get("serve.events"),
        ),
    );
    let plain_ms = median(&plain.round_wall) * 1e3;
    if matches!(workload, "fault-campaign" | "locality-sweep") {
        // What the campaign runtime itself costs: the untraced round minus
        // the layers the traced round timed inside it.
        let layer_ms: f64 = rounds
            .iter()
            .filter(|(k, _)| k.ends_with("_ms") && !k.ends_with("wait_ms"))
            .map(|(_, v)| v)
            .sum();
        out.insert("policies.campaign.self_ms", plain_ms - layer_ms);
    }
    out.insert(
        "obs.trace_overhead_frac",
        median(&traced.round_wall) * 1e3 / plain_ms - 1.0,
    );
    out
}
