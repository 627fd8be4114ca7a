//! Host CPU model.
//!
//! The paper's emulation runs every application component on a single
//! commodity server, and its evaluation (Fig. 7a and Fig. 9) depends on CPU
//! contention: transfer throughput plateaus once the number of consumers
//! exceeds the core count, and overall server utilization grows with the
//! number of coordinating sites. [`HostCpu`] reproduces that behaviour as a
//! multi-server queue: each work item occupies one core for its cost
//! (divided by the host's speed factor), and items queue when every core is
//! busy.
//!
//! Busy time is summed per sampling window as it is booked, so the run's
//! sampler reads the utilization of the window that just closed at each of
//! its ticks (500 ms by default), mirroring the paper's `/proc/stat`
//! snapshots, and a run keeps one number per window, not one interval per
//! work item.

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A shared handle to a host's CPU model.
pub type CpuHandle = Rc<RefCell<HostCpu>>;

/// A simulated multi-core CPU attached to an emulated host.
///
/// # Examples
///
/// ```
/// use s2g_sim::{HostCpu, SimDuration, SimTime};
///
/// let mut cpu = HostCpu::new("h1", 2, 1.0, SimDuration::from_millis(500));
/// let now = SimTime::ZERO;
/// // Two jobs fill both cores; the third queues behind the first to finish.
/// let d1 = cpu.execute(now, SimDuration::from_millis(10));
/// let d2 = cpu.execute(now, SimDuration::from_millis(10));
/// let d3 = cpu.execute(now, SimDuration::from_millis(10));
/// assert_eq!(d1.as_millis(), 10);
/// assert_eq!(d2.as_millis(), 10);
/// assert_eq!(d3.as_millis(), 20);
/// ```
#[derive(Debug)]
pub struct HostCpu {
    name: String,
    /// Next instant each core becomes free.
    cores: Vec<SimTime>,
    /// Relative speed (1.0 = nominal). The orchestrator lowers this for
    /// hosts capped via the `cpuPercentage` attribute.
    speed: f64,
    /// Width of a busy-time bin: the sampler's interval.
    window: SimDuration,
    /// Busy core-nanoseconds booked in each window since time zero, up to
    /// the last window any work reached.
    busy: Vec<u64>,
    /// Total busy core-time ever scheduled.
    total_busy: SimDuration,
    /// Number of work items executed.
    jobs: u64,
    /// The bin the last booking ended in: a booking wholly inside it is
    /// added there without a division.
    hot_bin: Option<usize>,
}

impl HostCpu {
    /// Creates a CPU with `cores` cores and a relative `speed` factor, its
    /// busy time summed in bins of `window`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `window` is zero or `speed` is not strictly
    /// positive.
    pub fn new(name: impl Into<String>, cores: usize, speed: f64, window: SimDuration) -> Self {
        assert!(cores > 0, "a host needs at least one core");
        assert!(!window.is_zero(), "sampling window must be positive");
        assert!(
            speed > 0.0 && speed.is_finite(),
            "speed must be positive, got {speed}"
        );
        HostCpu {
            name: name.into(),
            cores: vec![SimTime::ZERO; cores],
            speed,
            window,
            busy: Vec::new(),
            total_busy: SimDuration::ZERO,
            jobs: 0,
            hot_bin: None,
        }
    }

    /// Creates a shared handle.
    pub fn shared(
        name: impl Into<String>,
        cores: usize,
        speed: f64,
        window: SimDuration,
    ) -> CpuHandle {
        Rc::new(RefCell::new(HostCpu::new(name, cores, speed, window)))
    }

    /// The host name this CPU belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The relative speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Schedules a work item of `cost` nominal CPU time starting no earlier
    /// than `now`, and returns the delay from `now` until it completes.
    ///
    /// The item runs on the earliest-free core; its real duration is
    /// `cost / speed`.
    pub fn execute(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        // At nominal speed the rounded division is the cost itself (exact
        // for any cost below 2⁵³ ns), so it is skipped.
        let scaled = if self.speed == 1.0 {
            cost
        } else {
            SimDuration::from_nanos((cost.as_nanos() as f64 / self.speed).round() as u64)
        };
        // Earliest-free core, the lowest index among equals.
        let mut idx = 0;
        for (i, free) in self.cores.iter().enumerate().skip(1) {
            if *free < self.cores[idx] {
                idx = i;
            }
        }
        let start = self.cores[idx].max(now);
        let done = start + scaled;
        self.cores[idx] = done;
        self.total_busy += scaled;
        self.book(start.as_nanos(), done.as_nanos());
        self.jobs += 1;
        done - now
    }

    /// Adds the busy interval `[start, end)` (ns) to the windows it spans.
    fn book(&mut self, start: u64, end: u64) {
        let w = self.window.as_nanos();
        if let Some(bin) = self.hot_bin {
            let lo = bin as u64 * w;
            if lo <= start && end <= lo + w {
                self.busy[bin] += end - start;
                return;
            }
        }
        let mut cursor = start;
        while cursor < end {
            let idx = (cursor / w) as usize;
            if idx >= self.busy.len() {
                self.busy.resize(idx + 1, 0);
            }
            let chunk = end.min((idx as u64 + 1) * w) - cursor;
            self.busy[idx] += chunk;
            cursor += chunk;
            self.hot_bin = Some(idx);
        }
    }

    /// Total busy core-time scheduled so far.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Number of work items executed so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// The width of a busy-time bin.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Busy core-nanoseconds per window: entry `i` covers
    /// `[i × window, (i + 1) × window)`. Windows past the last one any work
    /// reached are absent, and idle.
    pub fn busy_bins(&self) -> &[u64] {
        &self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: SimDuration = SimDuration::from_millis(500);

    #[test]
    fn single_core_serializes_work() {
        let mut cpu = HostCpu::new("h", 1, 1.0, WINDOW);
        let t0 = SimTime::ZERO;
        assert_eq!(cpu.execute(t0, SimDuration::from_millis(5)).as_millis(), 5);
        assert_eq!(cpu.execute(t0, SimDuration::from_millis(5)).as_millis(), 10);
        assert_eq!(cpu.execute(t0, SimDuration::from_millis(5)).as_millis(), 15);
        assert_eq!(cpu.total_busy().as_millis(), 15);
        assert_eq!(cpu.jobs(), 3);
    }

    #[test]
    fn parallel_cores_run_concurrently() {
        let mut cpu = HostCpu::new("h", 4, 1.0, WINDOW);
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert_eq!(
                cpu.execute(t0, SimDuration::from_millis(10)).as_millis(),
                10
            );
        }
        // Fifth job waits for a core.
        assert_eq!(
            cpu.execute(t0, SimDuration::from_millis(10)).as_millis(),
            20
        );
    }

    #[test]
    fn speed_scales_cost() {
        let mut cpu = HostCpu::new("h", 1, 0.5, WINDOW);
        let d = cpu.execute(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d.as_millis(), 20);
    }

    #[test]
    fn later_now_pushes_start() {
        let mut cpu = HostCpu::new("h", 1, 1.0, WINDOW);
        cpu.execute(SimTime::ZERO, SimDuration::from_millis(1));
        // CPU free at 1ms; job arriving at 10ms starts immediately.
        let d = cpu.execute(SimTime::from_millis(10), SimDuration::from_millis(2));
        assert_eq!(d.as_millis(), 2);
    }

    #[test]
    fn busy_time_is_binned_by_window_whatever_the_booking_order() {
        let ms = SimDuration::from_millis;
        let book = |items: &[(u64, u64)]| {
            let mut cpu = HostCpu::new("h", 2, 1.0, WINDOW);
            for &(at, cost) in items {
                cpu.execute(SimTime::from_millis(at), ms(cost));
            }
            cpu.busy_bins().to_vec()
        };
        // 250 ms from 400 ms spans two windows; 1 200 ms from 900 ms on the
        // other core spans windows 1 to 4 and fills windows 2 and 3.
        let bins = book(&[(400, 250), (900, 1_200)]);
        let expect = [100, 150 + 100, 500, 500, 100].map(|busy| ms(busy).as_nanos());
        assert_eq!(bins, expect);
        assert_eq!(bins, book(&[(900, 1_200), (400, 250)]));
        assert_eq!(bins.iter().sum::<u64>(), ms(1_450).as_nanos());
    }

    #[test]
    fn zero_cost_work_is_free() {
        let mut cpu = HostCpu::new("h", 1, 1.0, WINDOW);
        let d = cpu.execute(SimTime::ZERO, SimDuration::ZERO);
        assert!(d.is_zero());
        assert!(cpu.busy_bins().is_empty());
    }

    /// The booking `execute` had before its integer path: a rounded float
    /// division at every speed, `min_by_key` over `(free, index)`, and a
    /// division per bin.
    struct ReferenceCpu {
        cores: Vec<SimTime>,
        speed: f64,
        window: SimDuration,
        busy: Vec<u64>,
        total_busy: SimDuration,
        jobs: u64,
    }

    impl ReferenceCpu {
        fn execute(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
            let scaled =
                SimDuration::from_nanos((cost.as_nanos() as f64 / self.speed).round() as u64);
            let (idx, _) = self
                .cores
                .iter()
                .enumerate()
                .min_by_key(|(i, t)| (**t, *i))
                .expect("at least one core");
            let start = self.cores[idx].max(now);
            let done = start + scaled;
            self.cores[idx] = done;
            self.total_busy += scaled;
            let w = self.window.as_nanos();
            let (mut cursor, end) = (start.as_nanos(), done.as_nanos());
            while cursor < end {
                let idx = (cursor / w) as usize;
                if idx >= self.busy.len() {
                    self.busy.resize(idx + 1, 0);
                }
                let chunk = end.min((idx as u64 + 1) * w) - cursor;
                self.busy[idx] += chunk;
                cursor += chunk;
            }
            self.jobs += 1;
            done - now
        }
    }

    /// Seeded `(now, cost)` sequences, from zero-cost and in-bin bookings to
    /// ones spanning several bins and queueing behind busy cores, give the
    /// reference's delays, bins, busy total and job count.
    #[test]
    fn execute_matches_the_reference_booking() {
        let mut state = 0x0c0f_fee5_u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let window = SimDuration::from_micros(300);
        for cores in 1..=8 {
            for speed in [1.0, 0.5] {
                let mut cpu = HostCpu::new("h", cores, speed, window);
                let mut reference = ReferenceCpu {
                    cores: vec![SimTime::ZERO; cores],
                    speed,
                    window,
                    busy: Vec::new(),
                    total_busy: SimDuration::ZERO,
                    jobs: 0,
                };
                let mut now = 0;
                for i in 0..2_000 {
                    let r = draw();
                    now += r % 60_000;
                    let cost = match (r >> 20) % 4 {
                        0 => 0,
                        1 | 2 => (r >> 24) % 20_000,
                        _ => (r >> 24) % 900_000,
                    };
                    let (at, cost) = (SimTime::from_nanos(now), SimDuration::from_nanos(cost));
                    let want = reference.execute(at, cost);
                    assert_eq!(
                        cpu.execute(at, cost),
                        want,
                        "{cores} cores, speed {speed}, booking {i}"
                    );
                }
                assert_eq!(cpu.busy_bins(), reference.busy, "{cores} cores, {speed}");
                assert_eq!(cpu.total_busy(), reference.total_busy);
                assert_eq!(cpu.jobs(), reference.jobs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = HostCpu::new("h", 0, 1.0, WINDOW);
    }
}
