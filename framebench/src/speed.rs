//! Host-speed correction for the end-to-end times.
//!
//! On a shared virtual machine the speed of the CPU the benchmark gets can
//! change by a factor of two within a minute, for reasons outside the
//! program. Every run therefore also times a fixed reference kernel (plain
//! `std` code that hashes, sorts, counts and formats keys; no repository
//! code) between its timed operations, and scales its times by how much
//! slower or faster the kernel ran than [`KERNEL_REF_MS`]. A change to the
//! program moves the scaled times as it moves the raw ones; a change in host
//! speed moves the kernel too, and so cancels out in large part (memory-heavy
//! frames slow down more than the kernel does, so not in full). The raw
//! figures are recorded on the facts line beside the scaled ones.

use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::report::median;

/// The kernel's typical median time, between timed operations, on the
/// 2-vCPU Intel Xeon (2.1 GHz) virtual machine the benchmark was built on.
/// Scaled times read as milliseconds on that machine at that speed. This
/// fixes the unit; it must not change once runs are compared.
pub const KERNEL_REF_MS: f64 = 1.25;

/// How often the kernel runs between timed operations.
const PERIOD: Duration = Duration::from_millis(100);

/// Kernel runs around each timed set-up.
const SETUP_SAMPLES: usize = 9;

/// Entries of the kernel's table: 4 MB, more than a core's private caches.
const TABLE: usize = 1 << 19;

/// Keys the kernel hashes, sorts and counts per run.
const KEYS: usize = 1 << 14;

/// The reference kernel and its buffers. The buffers are allocated once, so
/// the kernel never calls the allocator and its time does not depend on the
/// heap the program leaves behind.
pub struct Kernel {
    table: Vec<u64>,
    keys: Vec<u64>,
    text: Vec<u8>,
    round: u64,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            table: vec![0; TABLE],
            keys: vec![0; KEYS],
            text: Vec::with_capacity(KEYS * 24),
            round: 0,
        }
    }

    /// About 1.2 ms: hash and sort 16 Ki keys, count them in a 4 MB table in
    /// random order, and format them as text.
    fn run(&mut self) -> u64 {
        self.round += 1;
        for (i, k) in self.keys.iter_mut().enumerate() {
            *k = mix(self.round.wrapping_mul(KEYS as u64) + i as u64);
        }
        self.keys.sort_unstable();
        let mut sum = 0u64;
        for &k in &self.keys {
            let slot = &mut self.table[(k % TABLE as u64) as usize];
            *slot = slot.wrapping_add(k);
            sum = sum.wrapping_add(*slot);
        }
        self.text.clear();
        for &k in &self.keys {
            write!(self.text, "{} ", k % 1_000_003).expect("writing to a Vec");
        }
        sum.wrapping_add(self.text.len() as u64)
    }

    /// One kernel run's time in ms.
    fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// SplitMix64's output function.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The kernel's times during one timed window, and the rule that scales the
/// window's operations by them.
pub struct HostClock {
    kernel: Kernel,
    next: Instant,
    /// Kernel times in ms.
    samples: Vec<f64>,
}

impl HostClock {
    pub fn start() -> Self {
        let mut clock = HostClock {
            kernel: Kernel::new(),
            next: Instant::now(),
            samples: Vec::new(),
        };
        clock.tick();
        clock
    }

    /// Run the kernel if it is due. Call between timed operations only.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.samples.push(self.kernel.time());
            self.next = now + PERIOD;
        }
    }

    /// Kernel median over the whole window.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// Scale each operation time by [`KERNEL_REF_MS`] over the kernel's
    /// median in the window.
    pub fn scale(&self, ms: &[f64]) -> Vec<f64> {
        let factor = KERNEL_REF_MS / self.kernel_ms();
        ms.iter().map(|t| t * factor).collect()
    }
}

/// Time `f`. Returns its result, its time in seconds scaled by the
/// kernel's median over runs just before and just after it, and its raw
/// time in seconds.
pub fn scaled_secs<T>(kernel: &mut Kernel, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let mut times: Vec<f64> = (0..SETUP_SAMPLES).map(|_| kernel.time()).collect();
    let t = Instant::now();
    let value = f();
    let raw = t.elapsed().as_secs_f64();
    times.extend((0..SETUP_SAMPLES).map(|_| kernel.time()));
    (value, raw * KERNEL_REF_MS / median(&times), raw)
}

/// Pin the process to one CPU, the highest it may run on, before any other
/// thread exists (threads inherit the mask). On a virtual machine the host
/// may place each virtual CPU on a core of different speed or load; with
/// every thread on one CPU, the kernel and the program always share it.
/// Returns the CPU, or `None` where the mask cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live buffer of `size` bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
