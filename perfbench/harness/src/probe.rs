//! `probe`: a fixed amount of CPU and memory work, timed, to read how fast
//! the host runs right now.
//!
//! On a shared machine the same command runs up to twice as long for
//! minutes at a time when neighbours are busy. The probe does the same work
//! every time, so a command's time divided by the probe's time taken in the
//! same run follows the program rather than the host. It has two phases,
//! because neighbours slow memory-bound and compute-bound code by different
//! amounts and the measured commands do both: dependent reads over a
//! buffer larger than a core's private caches (as hash-table interning
//! waits on memory), and the same loop over a buffer that fits in L1.
//! Buffers are allocated and filled before the clock starts and the timed
//! loop calls nothing outside this file, so no change to the program can
//! change what the probe measures.

use std::sync::Barrier;
use std::time::Instant;

/// Dependent reads over 8 MiB per thread: waits on memory.
pub const MEMORY: Phase = Phase {
    entries: 1 << 20,
    touches: 1 << 17,
};
/// The same loop over 16 KiB per thread: compute and L1 only.
pub const COMPUTE: Phase = Phase {
    entries: 1 << 11,
    touches: 1 << 21,
};

/// One phase of the probe.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Buffer entries per thread (a power of two).
    entries: usize,
    /// Dependent read-modify-writes per thread.
    touches: usize,
}

/// `phase` on each of `threads` threads: the wall time from the moment all
/// threads are ready until the last one ends.
pub fn run(threads: usize, phase: Phase) -> f64 {
    run_phase(threads.max(1), phase.entries, phase.touches)
}

fn run_phase(threads: usize, entries: usize, touches: usize) -> f64 {
    let start = Barrier::new(threads + 1);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    let mut buf: Vec<u64> =
                        (0..entries as u64).map(|i| mix(i ^ t as u64)).collect();
                    start.wait();
                    std::hint::black_box(work(&mut buf, touches))
                })
            })
            .collect();
        start.wait();
        let clock = Instant::now();
        for worker in workers {
            std::hint::black_box(worker.join().expect("probe thread panicked"));
        }
        elapsed = clock.elapsed().as_secs_f64();
    });
    elapsed
}

/// Dependent read-modify-writes, each address drawn from the value just
/// read, then a sequential fold over the whole buffer.
fn work(buf: &mut [u64], touches: usize) -> u64 {
    let mask = buf.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..touches {
        let i = (x as usize) & mask;
        x = mix(buf[i] ^ x);
        buf[i] = x;
    }
    buf.iter().fold(x, |acc, &v| acc.rotate_left(5) ^ v)
}

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_time() {
        for entries in [MEMORY.entries, COMPUTE.entries] {
            let fill = |t: u64| -> Vec<u64> { (0..entries as u64).map(|i| mix(i ^ t)).collect() };
            let (mut a, mut b) = (fill(0), fill(0));
            assert_eq!(work(&mut a, 1000), work(&mut b, 1000));
            assert!(a == b);
        }
    }

    #[test]
    fn a_probe_takes_time_on_any_thread_count() {
        for threads in [0, 1, 2] {
            assert!(run(threads, MEMORY) > 0.0);
            assert!(run(threads, COMPUTE) > 0.0);
        }
    }
}
