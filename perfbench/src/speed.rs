//! Host-speed normalisation.
//!
//! On the small shared host this benchmark was built on (2 vCPUs under
//! KVM), everything the process runs slows down together, by up to 2×,
//! for stretches of a fraction of a second to more than ten seconds: a
//! Saber encapsulation and the reference kernel below went from 314 to
//! 618 µs and from 56 to 109 µs, while the ratio of the two stayed
//! within ±4 % in every quarter-second. Whole runs can fall in one
//! state, so no quantile over a run's figures repeats between runs.
//!
//! So every timing is also taken against a fixed reference kernel that
//! this package owns (the program cannot change it), run between the
//! segments of a workload on as many threads as the workload keeps
//! busy. A segment's figures are scaled by its *speed*, the kernel calls
//! those threads complete next to it over the calls they would complete
//! at `NOMINAL_NS` each: times × speed, rates ÷ speed (the simulator
//! follows the host's speed less closely; see `sim::SPEED_EXPONENT`). The reported
//! figures are what the program takes on a host where every such thread
//! has an uncontended core of that host to itself; the raw figures are
//! printed beside them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference kernel's time on an uncontended core of the host the
/// benchmark was built on (Intel Xeon under KVM), nanoseconds.
pub const NOMINAL_NS: f64 = 56_000.0;

/// How long one speed reading runs the kernel on each thread.
const READING: Duration = Duration::from_millis(8);

/// Negacyclic product of two 256-coefficient polynomials mod 2^16 by
/// schoolbook: integer multiply-adds over small arrays, the same kind of
/// work as the program's ring engines.
fn kernel(a: &[u16; 256], b: &[u16; 256]) -> [u16; 256] {
    let mut c = [0u16; 256];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            let p = x.wrapping_mul(y);
            if i + j < 256 {
                c[i + j] = c[i + j].wrapping_add(p);
            } else {
                c[i + j - 256] = c[i + j - 256].wrapping_sub(p);
            }
        }
    }
    c
}

/// Kernel calls completed on this thread until `stop`, one at least: a
/// thread the host schedules only after `stop` still completes a call,
/// and its wait shows as a low reading rather than a zero one.
fn calls(stop: Instant) -> u64 {
    let mut a = [0u16; 256];
    let mut b = [0u16; 256];
    for i in 0..256 {
        a[i] = (i * 7919 % 8192) as u16;
        b[i] = (i * 31 % 9) as u16;
    }
    let mut n = 0;
    loop {
        a[0] = a[0].wrapping_add(1);
        black_box(kernel(black_box(&a), black_box(&b)));
        n += 1;
        if Instant::now() >= stop {
            return n;
        }
    }
}

/// glibc's `cpu_set_t`: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on; empty when that cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size` bytes through the pointer,
    // and `size` is the size of `set`; it keeps no reference.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Keeps the calling thread on `cpu` (best effort: on failure the
/// thread runs where the kernel places it).
fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes through the pointer, and
    // `size` is the size of `set`; pid 0 is the calling thread only.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// The host's speed now: the kernel calls completed in one reading over
/// what the same threads would complete at `NOMINAL_NS` a call.
///
/// One thread reads on the calling thread, where a single-threaded
/// workload runs. More threads read capacity, not one thread's pace:
/// each is pinned to its own CPU, since a new thread placed on a busy
/// CPU would not move within one reading; a service spreads its work
/// over its workers, so when one CPU slows it loses its share of that
/// CPU, not the whole of it.
pub fn reading(threads: usize) -> f64 {
    let start = Instant::now();
    let stop = start + READING;
    let done: u64 = if threads == 1 {
        calls(stop)
    } else {
        let cpus = allowed_cpus();
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..threads)
                .map(|k| {
                    let cpu = cpus.get(k % cpus.len().max(1)).copied();
                    s.spawn(move || {
                        if let Some(cpu) = cpu {
                            pin_to(cpu);
                        }
                        calls(stop)
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|t| t.join().expect("speed reading thread"))
                .sum()
        })
    };
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    done as f64 * NOMINAL_NS / (threads as f64 * elapsed_ns)
}

/// Prints the speeds the run's segments were scaled by.
pub fn report(speeds: &[f64]) {
    let shown: Vec<String> = speeds.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "host speed per segment (reference kernel {:.0} µs nominal over its time next to the segment): {}",
        NOMINAL_NS / 1e3,
        shown.join(" ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_the_negacyclic_product() {
        // x^255 · x = x^256 = −1.
        let (mut a, mut b) = ([0u16; 256], [0u16; 256]);
        a[255] = 3;
        b[1] = 5;
        let c = kernel(&a, &b);
        assert_eq!(c[0], 15u16.wrapping_neg());
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn a_reading_is_positive_and_finite() {
        let s = reading(2);
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
