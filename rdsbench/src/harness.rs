//! Measurement machinery shared by the four workloads: repeated rounds of
//! identical units, robust per-unit estimators, process accounting and the
//! host stamp.

use crate::yardstick::Yardstick;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Input size of a run. `Tiny` exists for the benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What every workload is built from.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub size: Size,
    /// Fresh directory for journals; removed when the run ends.
    pub tmp: PathBuf,
}

/// Named per-layer quantities of one round (or one set-up).
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to the layer quantity `name`.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// On-CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`): the
/// clock samples are timed with. Unlike wall time it excludes time the
/// hypervisor steals from the virtual CPU, which on a shared host reached
/// a third of a run; blocked time is reported beside it by the per-layer
/// `wait_ms` metrics.
pub fn clock() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the calling thread's CPU clock exists");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One workload: a fixed list of units, repeated identically each round.
pub trait Workload {
    /// Timed samples per round.
    fn samples(&self) -> usize;
    /// Units of work in one sample (1, except for serve's arrival slices).
    fn units_per_sample(&self) -> usize {
        1
    }
    /// What one unit is, for the stamp.
    fn unit_definition(&self) -> String;
    /// Runs one round, timing each sample through `samples` and writing a
    /// digest of its output into `outs`. With `trace`, the round runs the
    /// same public calls one by one under the benchmark's own timers and
    /// adds their times and counts to `trace`.
    fn round(
        &mut self,
        trace: Option<&mut Layers>,
        samples: &mut Samples<'_>,
        outs: &mut [u64],
    ) -> Result<(), String>;
    /// Checks the last round's outputs against the shipped command path
    /// and returns the digest of the workload's aggregate output. Layer
    /// quantities of that shipped call go into `shipped`.
    fn verify(&mut self, problems: &mut Vec<String>, shipped: &mut Layers) -> Result<u64, String>;
    /// Reference-table key for the aggregate digest.
    fn reference_key(&self) -> String;
}

/// FNV-1a over a canonical byte stream; floats enter by their bits, so
/// equal digests mean bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile (the "type 7" estimator).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Times a round's samples: each sample's on-CPU seconds, then (in an
/// untraced round) one yardstick slice, so every sample has a reading of
/// host speed beside it.
pub struct Samples<'y> {
    /// None in traced rounds, whose layer timers must not see the slices.
    yard: Option<&'y mut Yardstick>,
    /// Added to the index given to [`Samples::record`], for a workload made
    /// of parts.
    pub base: usize,
    /// `(sample, on-CPU seconds, yardstick factor)` in the order the samples
    /// ran.
    taken: Vec<(usize, f64, f64)>,
}

impl Samples<'_> {
    /// Records sample `i` as started at the [`clock`] reading `since`, runs
    /// a yardstick slice, and returns the clock reading after it, where a
    /// sample that follows at once starts.
    pub fn record(&mut self, i: usize, since: f64) -> f64 {
        let secs = clock() - since;
        let factor = self.yard.as_mut().map_or(1.0, |y| y.slice());
        self.taken.push((self.base + i, secs, factor));
        clock()
    }
}

/// Yardstick factors on each side of a sample (in the order samples ran)
/// whose median is that sample's host-speed factor.
const WINDOW: usize = 3;

/// Per sample: on-CPU seconds and the same divided by the median yardstick
/// factor of the slices run around it.
fn normalize(taken: &[(usize, f64, f64)], n: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut raw = vec![f64::NAN; n];
    let mut norm = vec![f64::NAN; n];
    for (at, &(i, secs, _)) in taken.iter().enumerate() {
        let near = &taken[at.saturating_sub(WINDOW)..(at + WINDOW + 1).min(taken.len())];
        let f = median(&near.iter().map(|t| t.2).collect::<Vec<_>>());
        *raw.get_mut(i).ok_or("a sample index beyond the round")? = secs;
        norm[i] = secs / f;
    }
    if raw.iter().any(|v| v.is_nan()) {
        return Err("a round left a sample untimed".into());
    }
    Ok((raw, norm))
}

/// Everything the measured rounds produced.
#[derive(Default)]
pub struct Measured {
    /// Per round, per sample reference-speed seconds.
    pub secs: Vec<Vec<f64>>,
    /// Per round, per sample on-CPU seconds as measured.
    pub raw: Vec<Vec<f64>>,
    /// Per round, wall seconds of the round less its yardstick slices.
    pub round_wall: Vec<f64>,
    /// Per round layer quantities (traced rounds only).
    pub layers: Vec<Layers>,
    /// Sample outputs of the first round.
    pub outs: Vec<u64>,
    /// Samples whose output differed from the first round's.
    pub mismatches: u64,
}

impl Measured {
    pub fn rounds(&self) -> usize {
        self.secs.len()
    }
}

/// Each sample's median time over `rounds`. The host's speed drifts, and
/// bursts slow a few samples of one round; the median over rounds ignores
/// the bursts. A minimum would follow a run's few luckiest moments and
/// drop as more rounds fit in a run: in ten runs it spread two to three
/// times as wide.
pub fn sample_medians(rounds: &[Vec<f64>]) -> Vec<f64> {
    let n = rounds.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Median of each layer quantity over `layers` (0 where one lacks it).
pub fn layer_medians(layers: &[Layers]) -> Layers {
    let mut keys: Vec<&'static str> = layers.iter().flat_map(|l| l.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = layers
                .iter()
                .map(|l| l.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, median(&vals))
        })
        .collect()
}

/// Set-up times and layer quantities, one entry per set-up.
#[derive(Default)]
pub struct Setups {
    /// Reference-speed seconds: on-CPU seconds over the mean yardstick
    /// factor of the slices just before and just after the set-up.
    pub secs: Vec<f64>,
    /// On-CPU seconds as measured.
    pub raw: Vec<f64>,
    pub layers: Vec<Layers>,
}

/// A finished measurement, with the last workload for its output checks.
pub struct Run {
    pub workload: Box<dyn Workload>,
    pub setups: Setups,
    /// One per entry of `traced` given to [`measure`].
    pub measured: Vec<Measured>,
}

/// Builds a workload; the set-up a run times.
pub type SetupFn<'a> = dyn FnMut(&mut Layers) -> Result<Box<dyn Workload>, String> + 'a;

/// Set-ups before every round run until this much time has passed (and at
/// least once), so millisecond-scale set-ups get many samples per gap.
const SETUP_GAP: Duration = Duration::from_millis(10);

/// Runs `first_setups` set-ups, then rounds until `budget` has passed and
/// at least `min_rounds` ran, each round on a fresh set-up. Set-ups thus
/// spread over the whole run instead of one moment of it. Each round runs
/// once per entry of `traced`, alternating, so untraced and traced rounds
/// see the same host conditions. Every set-up, and every sample of an
/// untraced round, is followed by a slice of `yard`.
pub fn measure(
    setup: &mut SetupFn<'_>,
    yard: &mut Yardstick,
    first_setups: usize,
    budget: Duration,
    min_rounds: usize,
    traced: &[bool],
) -> Result<Run, String> {
    let mut setups = Setups::default();
    // Builds workloads until `count` were built and `SETUP_GAP` passed,
    // keeping the last.
    let mut fresh = |setups: &mut Setups, yard: &mut Yardstick, count: usize| {
        let gap = Instant::now();
        let mut built = 0;
        let mut before = yard.slice();
        loop {
            let mut layers = Layers::new();
            let t = clock();
            let w = setup(&mut layers)?;
            let secs = clock() - t;
            let after = yard.slice();
            setups.raw.push(secs);
            setups.secs.push(secs / ((before + after) / 2.0));
            setups.layers.push(layers);
            before = after;
            built += 1;
            if built >= count && gap.elapsed() >= SETUP_GAP {
                return Ok::<_, String>(w);
            }
        }
    };
    let mut w = fresh(&mut setups, yard, first_setups)?;
    let n = w.samples();
    let mut all: Vec<Measured> = traced.iter().map(|_| Measured::default()).collect();
    let start = Instant::now();
    while all[0].rounds() < min_rounds || start.elapsed() < budget {
        for (m, &tr) in all.iter_mut().zip(traced) {
            if m.rounds() > 0 || tr {
                drop(w);
                w = fresh(&mut setups, yard, 1)?;
            }
            let mut outs = vec![0u64; n];
            let mut layers = Layers::new();
            let mut samples = Samples {
                yard: (!tr).then_some(&mut *yard),
                base: 0,
                taken: Vec::with_capacity(n),
            };
            let t = Instant::now();
            let cpu0 = clock();
            w.round(tr.then_some(&mut layers), &mut samples, &mut outs)?;
            let wall = t.elapsed().as_secs_f64();
            let cpu = clock() - cpu0;
            let (raw, secs) = normalize(&samples.taken, n)?;
            // The slices' share of the round's CPU time, taken off its wall.
            let work: f64 = raw.iter().sum();
            m.round_wall.push(wall * (work / cpu).min(1.0));
            if m.outs.is_empty() {
                m.outs = outs;
            } else {
                m.mismatches += m.outs.iter().zip(&outs).filter(|(a, b)| a != b).count() as u64;
            }
            m.secs.push(secs);
            m.raw.push(raw);
            m.layers.push(layers);
        }
    }
    Ok(Run {
        workload: w,
        setups,
        measured: all,
    })
}

/// Process accounting from `getrusage`.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Accounting of this process.
pub fn usage() -> Usage {
    rusage(0)
}

/// Accounting of this process's ended and awaited children.
pub fn children_usage() -> Usage {
    rusage(-1)
}

/// `getrusage(who)`.
fn rusage(who: i32) -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    struct RawUsage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    }
    let mut raw = RawUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `raw` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux, and getrusage writes only into it.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage cannot fail with a valid pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&raw.utime),
        sys_s: secs(&raw.stime),
        voluntary_switches: raw.longs[12] as u64,
        involuntary_switches: raw.longs[13] as u64,
    }
}

/// Pins the calling process to the `k`-th CPU (cyclically) of those it
/// may run on, and returns that CPU; `None` when only one is allowed.
pub fn pin_to_cpu(k: usize) -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable `cpu_set_t` of `size` bytes, and
    // the call writes only into it.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: Vec<usize> = (0..size * 8)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if allowed.len() < 2 {
        return None;
    }
    let cpu = allowed[k % allowed.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t` of `size` bytes, read only.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set of this process image in KiB: `VmHWM` from
/// `/proc/self/status`. Unlike `ru_maxrss`, which survives `execve`, it
/// does not inherit the parent's (for example cargo's) peak.
pub fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .expect("Linux reports VmHWM in /proc/self/status")
}

/// Host-wide steal time in milliseconds, from the `cpu` line of
/// `/proc/stat` (0 where that file does not exist).
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux ABI.
    ticks * 10.0
}

/// A fresh directory inside the working directory, removed on drop.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create() -> Result<TmpDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(format!(".rdsbench-tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The host and code a result was measured on.
pub fn host_stamp() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("cpu_model", cpu),
        ("kernel", kernel),
        ("git_commit", git_commit()),
    ]
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
