//! A fixed yardstick of host speed. The reference host runs the same work
//! at speeds up to twice apart from one minute to the next (other tenants
//! share its cores and caches), and a plain on-CPU clock sees all of it. A
//! slice of the yardstick runs after every timed sample; each slice times a
//! small fixed kernel of the kind the workloads are made of (sorting, hash
//! and tree maps, a heap of events with small allocations, branchy float
//! loops) and reports its time over the kernel's reference time. Times
//! divided by the factors read around them are in reference-speed seconds.
//!
//! The yardstick is the benchmark's own code: a change to the workspace
//! leaves it alone, so a program that gets slower still reads slower.

use crate::harness::clock;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;

/// Inputs of every kernel, drawn once per process from a fixed seed.
struct Inputs {
    keys: Vec<u64>,
    values: Vec<f64>,
}

type Kernel = fn(&Inputs) -> u64;

/// The kernels, each with its on-CPU seconds on the reference host (about
/// the fastest tenth of a thousand slices on a 2-vCPU Xeon Sapphire Rapids
/// guest), so a factor near 1 means an uncontended host.
const KERNELS: [(Kernel, f64); 6] = [
    (sort_keys, 7.0e-5),
    (sort_values, 1.2e-4),
    (hash_map, 1.0e-4),
    (tree_map, 7.5e-5),
    (event_heap, 9.5e-5),
    (float_scan, 7.0e-5),
];

const LEN: usize = 4096;

fn sort_keys(i: &Inputs) -> u64 {
    let mut v = black_box(&i.keys[..]).to_vec();
    v.sort_unstable();
    v[LEN / 2]
}

fn sort_values(i: &Inputs) -> u64 {
    let mut v = black_box(&i.values[..]).to_vec();
    v.sort_by(f64::total_cmp);
    v[LEN / 2].to_bits()
}

fn hash_map(i: &Inputs) -> u64 {
    let keys = black_box(&i.keys[..]);
    let mut m = HashMap::new();
    for (n, &k) in keys[..LEN / 4].iter().enumerate() {
        m.insert(k % (LEN as u64 / 2), n as u64);
    }
    keys[..LEN / 2]
        .iter()
        .filter_map(|k| m.get(&(k % (LEN as u64 / 2))))
        .sum()
}

fn tree_map(i: &Inputs) -> u64 {
    let keys = black_box(&i.keys[..]);
    let mut m = BTreeMap::new();
    for (n, &k) in keys[..LEN / 8].iter().enumerate() {
        m.insert(k, n as u64);
    }
    keys[LEN / 8..LEN / 4]
        .iter()
        .filter_map(|&k| m.range(k..).next().map(|(_, v)| *v))
        .sum()
}

fn event_heap(i: &Inputs) -> u64 {
    let keys = black_box(&i.keys[..]);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = keys[..256]
        .iter()
        .enumerate()
        .map(|(n, &k)| Reverse((k % 1000, n)))
        .collect();
    let mut acc = 0u64;
    for &k in &keys[..LEN / 4] {
        let Reverse((at, id)) = heap.pop().expect("the heap never empties");
        let work: Vec<u64> = (0..k % 24).map(|j| j * at).collect();
        acc = acc.wrapping_add(work.iter().sum::<u64>() ^ id as u64);
        heap.push(Reverse((at + k % 997, id)));
    }
    acc
}

fn float_scan(i: &Inputs) -> u64 {
    let values = black_box(&i.values[..]);
    let (mut acc, mut best) = (0.0f64, f64::MAX);
    for rep in 1..=2 {
        for (n, &x) in values.iter().enumerate() {
            let y = x * (rep as f64 + 0.5) + (n as f64).sqrt();
            if y < best {
                best = y;
            } else if y > 1e3 {
                acc += y.ln();
            } else {
                acc += y;
            }
        }
    }
    (acc + best).to_bits()
}

/// The yardstick of one process.
pub struct Yardstick {
    inputs: Inputs,
    next: usize,
    /// Every slice's factor, in order.
    pub factors: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let keys: Vec<u64> = (0..LEN).map(|_| draw()).collect();
        let values = (0..LEN)
            .map(|_| (draw() % 1_000_000) as f64 / 7.0)
            .collect();
        let mut y = Yardstick {
            inputs: Inputs { keys, values },
            next: 0,
            factors: Vec::new(),
        };
        // Warm the kernels' code and allocations before the first reading.
        for _ in 0..2 * KERNELS.len() {
            y.slice();
        }
        y.factors.clear();
        y
    }

    /// Runs the next kernel twice and returns the second run's on-CPU time
    /// over the kernel's reference time: above 1 while the host runs slow.
    /// The first run brings the kernel's data back into the caches, so the
    /// reading does not depend on how much of it the sample before evicted.
    pub fn slice(&mut self) -> f64 {
        let (kernel, reference) = KERNELS[self.next % KERNELS.len()];
        self.next += 1;
        black_box(kernel(&self.inputs));
        let t = clock();
        black_box(kernel(&self.inputs));
        let factor = (clock() - t) / reference;
        self.factors.push(factor);
        factor
    }
}
