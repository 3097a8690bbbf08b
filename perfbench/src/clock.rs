//! Host-speed calibration.
//!
//! A shared virtual machine does not run at one speed. On the two-vCPU
//! hosts this benchmark was built on, a fixed integer loop took 1.0x to
//! 1.6x its fastest time, in phases lasting seconds, and in other
//! phases the hypervisor took 40% of the machine's CPU time (the
//! `steal` column of `/proc/stat`). A run of ten seconds lands in a
//! random mix of phases, and its timings move with the mix, not with the
//! code.
//!
//! A [`HostClock`] samples, on its own thread for the whole run, the
//! time of a fixed integer kernel and the machine's stolen CPU time.
//! [`HostSpeed::scaled`] then converts a measured interval into the time
//! it would have taken on a host running the kernel at its reference
//! time with nothing stolen: each stretch of the interval is scaled by
//! the reference over the kernel's time around it, times the share of
//! CPU time not stolen around it. End-to-end timings are reported on
//! that scale; the raw timings are printed beside them.

use crate::stats::{median, SplitMix};
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed, ns (its typical time on
/// the fast phase of the host the benchmark was built on).
pub const REF_KERNEL_NS: f64 = 25_000.0;
/// Time between samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);
/// SplitMix steps in one kernel timing.
const KERNEL_STEPS: u32 = 16_000;
/// Timings per sample; the fastest is kept, so a preempted timing does
/// not count as a slow host.
const KERNEL_REPEATS: usize = 3;
/// Samples on each side whose median kernel time smooths a sample.
const SMOOTH: usize = 2;
/// Samples on each side over which the stolen share is measured (the
/// kernel counts CPU time in 10 ms ticks, so one 25 ms sample is too
/// short to see it).
const STEAL_SPAN: usize = 20;

/// The fastest of [`KERNEL_REPEATS`] timings of the kernel, ns.
pub fn kernel_ns() -> f64 {
    (0..KERNEL_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let mut rng = SplitMix::new(black_box(7));
            let mut x = 0u64;
            for _ in 0..KERNEL_STEPS {
                x ^= rng.next_u64();
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Machine-wide CPU time so far from `/proc/stat`, in ticks: (all time
/// up to and including steal, stolen time). `None` where the file or
/// its `cpu` line is missing; nothing is then counted as stolen.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *fields.get(7)?;
    Some((fields[..8].iter().sum(), steal))
}

/// One reading of the host.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was taken.
    pub at: Instant,
    /// The kernel's time, ns.
    pub kernel_ns: f64,
    /// Machine-wide (all, stolen) CPU ticks so far.
    pub ticks: Option<(u64, u64)>,
}

impl Sample {
    fn now() -> Sample {
        Sample {
            at: Instant::now(),
            kernel_ns: kernel_ns(),
            ticks: cpu_ticks(),
        }
    }
}

/// A running sampler.
pub struct HostClock {
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: JoinHandle<()>,
}

impl HostClock {
    /// Takes a first sample and starts sampling in the background.
    pub fn start() -> HostClock {
        let samples = Arc::new(Mutex::new(vec![Sample::now()]));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (flag, cond) = &*stop;
                let mut stopped = flag.lock().expect("clock stop lock");
                loop {
                    stopped = cond
                        .wait_timeout(stopped, SAMPLE_EVERY)
                        .expect("clock stop lock")
                        .0;
                    if *stopped {
                        return;
                    }
                    let sample = Sample::now();
                    samples.lock().expect("clock samples lock").push(sample);
                }
            })
        };
        HostClock {
            samples,
            stop,
            thread,
        }
    }

    /// Stops the sampler, waits for its thread, and returns the speed
    /// record.
    pub fn finish(self) -> HostSpeed {
        *self.stop.0.lock().expect("clock stop lock") = true;
        self.stop.1.notify_all();
        self.thread.join().expect("clock thread panicked");
        let samples = std::mem::take(&mut *self.samples.lock().expect("clock samples lock"));
        HostSpeed::from_samples(samples)
    }
}

/// Share of CPU time stolen between two samples (0 without tick counts).
fn stolen(from: &Sample, to: &Sample) -> f64 {
    match (from.ticks, to.ticks) {
        (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => {
            steal1.saturating_sub(steal0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    }
}

/// The host's speed over a run: a scale factor per sampling stretch.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    samples: Vec<Sample>,
    factors: Vec<f64>,
}

impl HostSpeed {
    /// From time-ordered samples; at least one.
    pub fn from_samples(samples: Vec<Sample>) -> HostSpeed {
        assert!(!samples.is_empty(), "a host clock takes a first sample");
        let kernel: Vec<f64> = samples.iter().map(|s| s.kernel_ns).collect();
        let last = samples.len() - 1;
        let factors = (0..samples.len())
            .map(|i| {
                let speed = REF_KERNEL_NS
                    / median(&kernel[i.saturating_sub(SMOOTH)..(i + SMOOTH + 1).min(last + 1)]);
                let kept = 1.0
                    - stolen(
                        &samples[i.saturating_sub(STEAL_SPAN)],
                        &samples[(i + STEAL_SPAN).min(last)],
                    );
                speed * kept
            })
            .collect();
        HostSpeed { samples, factors }
    }

    /// Seconds the interval `from..to` would have taken at the reference
    /// speed. Sample `i`'s factor holds from its time to the next
    /// sample's (the first also before it, the last also after it).
    pub fn scaled(&self, from: Instant, to: Instant) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut i = self
            .samples
            .partition_point(|s| s.at <= from)
            .saturating_sub(1);
        let mut start = from;
        let mut total = 0.0;
        loop {
            let end = match self.samples.get(i + 1) {
                Some(next) if next.at < to => next.at.max(start),
                _ => to,
            };
            total += (end - start).as_secs_f64() * self.factors[i];
            if end == to {
                return total;
            }
            start = end;
            i += 1;
        }
    }

    /// Median kernel time over the run, ns.
    pub fn median_kernel_ns(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.kernel_ns).collect::<Vec<_>>())
    }

    /// Share of the machine's CPU time stolen over the run.
    pub fn stolen_share(&self) -> f64 {
        stolen(&self.samples[0], &self.samples[self.samples.len() - 1])
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: Instant, kernel_ns: f64, ticks: Option<(u64, u64)>) -> Sample {
        Sample {
            at,
            kernel_ns,
            ticks,
        }
    }

    #[test]
    fn scaling_follows_the_sampled_speed() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Reference speed for 100 ms, then the kernel twice as slow.
        let samples: Vec<Sample> = (0..10)
            .map(|k| {
                let slowdown = if k < 5 { 1.0 } else { 2.0 };
                sample(at(20 * k), slowdown * REF_KERNEL_NS, None)
            })
            .collect();
        let speed = HostSpeed::from_samples(samples);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Entirely in the fast stretch: unchanged.
        assert!(close(speed.scaled(at(10), at(30)), 0.020));
        // Entirely in the slow stretch (and past the last sample):
        // halved.
        assert!(close(speed.scaled(at(150), at(250)), 0.050));
        assert!(close(speed.scaled(at(0), at(0)), 0.0));
        let straddle = speed.scaled(at(40), at(140));
        assert!(straddle > 0.05 && straddle < 0.1, "{straddle}");
        // Before the first sample the first factor holds.
        let before = speed.scaled(t0 - Duration::from_millis(10), t0);
        assert!(close(before, 0.010));
        assert_eq!(speed.stolen_share(), 0.0);
    }

    #[test]
    fn stolen_time_counts_as_lost() {
        let t0 = Instant::now();
        // Half of every tick stolen, at the reference kernel speed.
        let samples: Vec<Sample> = (0..50u64)
            .map(|k| {
                let at = t0 + Duration::from_millis(25 * k);
                sample(at, REF_KERNEL_NS, Some((10 * k, 5 * k)))
            })
            .collect();
        let speed = HostSpeed::from_samples(samples);
        assert_eq!(speed.stolen_share(), 0.5);
        let scaled = speed.scaled(t0, t0 + Duration::from_millis(500));
        assert!((scaled - 0.25).abs() < 1e-9, "{scaled}");
    }

    #[test]
    fn the_clock_samples_until_finished() {
        let clock = HostClock::start();
        std::thread::sleep(SAMPLE_EVERY * 3);
        let speed = clock.finish();
        assert!(speed.samples() >= 2);
        assert!(speed.median_kernel_ns() > 0.0);
        let t = Instant::now();
        assert!(speed.scaled(t, t + Duration::from_millis(5)) > 0.0);
    }
}
