//! A fixed reference kernel, run between the rounds of timed operations
//! while no operation is in flight.
//!
//! The sandbox this benchmark runs in changes speed under it: the same
//! request took 44 ms or 96 ms depending on which ten seconds it ran in,
//! CPU time rising with wall time, for minutes at a stretch. No statistic of
//! the request's own latencies survives a whole window of that. What does
//! survive is the ratio to a kernel of fixed work run at the same moment.
//! So every reported time is the measured time divided by the box's
//! slow-down at that moment, which is the kernel's time over
//! [`REFERENCE_MS`].
//!
//! The slow stretches hit code that lives in the shared cache hardest —
//! joins probing dictionaries of a few megabytes lost up to half their
//! speed while dense arithmetic lost a tenth — so the kernel is a sort whose
//! 1.6 MB spill out of the core's own cache as well. Probed for 160 s per
//! workload against five candidate kernels, it tracked the requests best:
//! over 10 s windows the median request time divided by it stayed within
//! 3 % (`star_warm`, `lake_mutating`) to 10 % (`lake_cold_start`) of itself
//! while the undivided median moved by 5–26 %.
//!
//! The two compute-bound workloads (`wide_fullscan`, `snowflake_augment`)
//! slow down less than the sort does: over three sets of ten runs the log of
//! their op time rose 0.55–0.75 as fast as the log of the kernel's time, and
//! dividing by the whole slow-down left them spread twice as wide as the
//! others (9–15 % against 4–6 %). So a workload states the share of the
//! kernel's slow-down its ops show ([`crate::WorkloadDef::speed_share`]),
//! and its slow-down is the kernel's raised to that share.

use std::time::Instant;

/// What one run of the kernel takes on the 2-core sandbox when it is quiet.
/// A constant of the benchmark: it only fixes the unit, so that a
/// speed-corrected time reads like the milliseconds a quiet box would show.
pub const REFERENCE_MS: f64 = 4.4;

const ELEMENTS: usize = 200_000;

pub struct Calibration {
    data: Vec<f64>,
    /// One scratch array per lane.
    scratch: Vec<Vec<f64>>,
    speed_share: f64,
}

/// One run of the kernel, in milliseconds: sort 200 000 fixed pseudo-random
/// floats.
fn run_ms(data: &[f64], scratch: &mut [f64]) -> f64 {
    let t = Instant::now();
    scratch.copy_from_slice(data);
    scratch.sort_unstable_by(f64::total_cmp);
    std::hint::black_box(scratch);
    t.elapsed().as_secs_f64() * 1e3
}

impl Calibration {
    /// `lanes` threads run the kernel at once: as many as the workload keeps
    /// busy, so that the kernel sees the box as the workload does.
    pub fn new(speed_share: f64, lanes: usize) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<f64> = (0..ELEMENTS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64
            })
            .collect();
        Calibration {
            scratch: vec![data.clone(); lanes.max(1)],
            data,
            speed_share,
        }
    }

    pub fn lanes(&self) -> usize {
        self.scratch.len()
    }

    /// The workload's slow-down right now: median of `runs` kernel runs on
    /// every lane over the reference time, raised to the workload's share of
    /// it. 1.0 on a quiet box for one lane.
    pub fn slowdown(&mut self, runs: usize) -> f64 {
        let data = &self.data;
        let lane = |scratch: &mut Vec<f64>| -> Vec<f64> {
            (0..runs.max(1)).map(|_| run_ms(data, scratch)).collect()
        };
        let (first, rest) = self.scratch.split_first_mut().expect("at least one lane");
        let ms = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|sc| s.spawn(|| lane(sc))).collect();
            let mut ms = lane(first);
            for h in others {
                ms.extend(h.join().expect("calibration lane"));
            }
            ms
        });
        (crate::median(&ms) / REFERENCE_MS).powf(self.speed_share)
    }
}
