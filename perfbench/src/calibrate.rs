//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared, and their speed swings by
//! about a factor of two over minutes: the PageRank terrain of the 1M rung
//! took a median of 210 ms over ten seeds in one phase and 418 ms in
//! another, on the same code, and every kind of request slowed by
//! x1.8-2.2. A median over a run cannot average that out, so the
//! end-to-end times are scaled to one reference speed instead.
//!
//! The scale comes from a fixed kernel of the benchmark's own (it shares
//! no code with the program under test, so a change to the program never
//! moves it). The client runs it while the server is idle, at fixed points
//! of the request script: once before every cycle and once before every
//! set-up. Fixed points matter: the kernel evicts the server's data from
//! the core's caches, so the request timed right after it may run slower,
//! and that must be the same request in every run, not one the clock
//! picks. Every time of a run is multiplied by one factor,
//! `REFERENCE_MS / kernel_ms`, with `kernel_ms` the median of all the
//! kernel's times in the run. A figure scaled that way estimates the time
//! on a host where the kernel takes [`REFERENCE_MS`].
//!
//! One factor per run, not one per request: a single 12 ms kernel run is
//! noisier than the requests it would scale, and a run's median over tens
//! of kernel runs is not.
//!
//! The kernel mixes the kinds of work the pipeline does: random
//! read-modify-writes over a table larger than a core's private caches
//! (graph traversal), number formatting into a growing string (SVG export)
//! and a sort (tree construction). Of the kernels tried, formatting and
//! sorting followed the program's speed most closely.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// The kernel's time on the reference host: the median of its runs on a
/// 2-vCPU x86-64 VM (Intel Xeon, 300 MiB L3) in that host's fast phase.
pub const REFERENCE_MS: f64 = 12.4;

/// `u64` slots of the random-access table: 16 MiB.
const TABLE_SLOTS: usize = 1 << 21;
const RANDOM_STEPS: u64 = 400_000;
const FORMATTED_PAIRS: u64 = 40_000;
const SORTED_KEYS: u32 = 200_000;

/// The kernel's state and its timings.
pub struct Calibrator {
    table: Vec<u64>,
    /// Every kernel time measured, in ms.
    pub kernel_ms: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with its table allocated and touched, and the kernel
    /// run a few times so that its first timed run is warm.
    pub fn new() -> Calibrator {
        let mut cal =
            Calibrator { table: (0..TABLE_SLOTS as u64).collect(), kernel_ms: Vec::new() };
        for _ in 0..3 {
            black_box(kernel(&mut cal.table));
        }
        cal
    }

    /// Run the kernel once and record its time.
    pub fn run(&mut self) {
        let started = Instant::now();
        black_box(kernel(&mut self.table));
        self.kernel_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    /// The factor that scales a time of this run to the reference speed:
    /// [`REFERENCE_MS`] over the median of the kernel's times.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / median(&self.kernel_ms).expect("the kernel ran before every set-up")
    }
}

/// The fixed work whose time measures the host's speed.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..RANDOM_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
    }
    let mut text = String::with_capacity(40 * FORMATTED_PAIRS as usize);
    for i in 0..FORMATTED_PAIRS {
        let a = (acc.wrapping_add(i) % 100_003) as f64 / 7.0;
        write!(text, "L{a:.2},{:.2} ", i as f64 * 0.37).expect("writing to a String cannot fail");
    }
    let mut keys: Vec<u32> =
        (0..SORTED_KEYS).map(|i| i.wrapping_mul(2_654_435_761) ^ acc as u32).collect();
    keys.sort_unstable();
    acc ^ text.len() as u64 ^ u64::from(keys[keys.len() / 2])
}
