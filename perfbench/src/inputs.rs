//! The benchmark's inputs, generated from `--seed`.
//!
//! The cell, point and job sets are fixed — they are the paper's
//! experiment, the CI sweep and a fixed service pool — so their expected
//! digests hold on every seed. The seed decides everything around them:
//! the order cells and points are submitted in (and so which run side by
//! side on the worker threads), and the served traffic: arrival times and
//! which pool entry each arrival asks for.

use std::time::Duration;

use alloc_locality::{AllocChoice, Experiment, JobSpec, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use explore::{GridSpec, SweepSpec};
use workloads::{Program, Scale};

/// Scale of the `matrix-cold` and `resweep-warm` cells.
pub const MATRIX_SCALE: f64 = 0.01;
/// Scale of the `explore-sweep` workload cell.
pub const SWEEP_SCALE: f64 = 0.005;
/// Scale of every job in the `serve-open` pool. At this scale
/// `perfbench capacity` measured one daemon worker running the 50 pool
/// entries cold in 0.46-0.72 s (69-108 jobs/s) on a 2-vCPU host, so a
/// round's 50 cold jobs, due over 2.5 s, keep it 18-29% busy: most jobs
/// find the worker idle, and one in ten waits about one execution.
pub const SERVE_SCALE: f64 = 0.0018;
/// Block size of the `resweep-warm` geometry (the populating runs used
/// the paper's 32 bytes).
pub const RESWEEP_BLOCK: u32 = 64;
/// Open-loop arrival rate of `serve-open`, in jobs per second: 55
/// arrivals in a 2.5 s round, the 50 pool entries and 5 duplicates. A
/// cache hit answers in about a millisecond, which a busy host doubles,
/// and the cheapest program's ten jobs finish in under 10 ms, with a gap
/// above them. With few hits the job p50 falls among the other
/// programs' executions, clear of both.
pub const SERVE_RATE: f64 = 22.0;
/// Zipf exponent of the popularity of `serve-open` duplicates.
pub const SERVE_ZIPF: f64 = 0.5;

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and one purpose (`stream` separates the
    /// draws of different workloads made from the same seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One (program, allocator) cell of the paper's 5x5 matrix.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The program.
    pub program: Program,
    /// The paper allocator.
    pub kind: AllocatorKind,
}

impl Cell {
    /// The cell's digest key under a workload prefix.
    pub fn key(&self, prefix: &str) -> String {
        format!("{prefix}/{}/{}", self.program.label(), self.kind.label())
    }

    /// The cell as an experiment with the given options.
    pub fn experiment(&self, opts: &SimOptions) -> Experiment {
        Experiment::new(self.program, AllocChoice::Paper(self.kind)).options(opts.clone())
    }
}

/// The 25 cells in the submission order of one batch of the seed's
/// run. Every batch gets its own order, so a run's median averages over
/// how the cells fall onto the worker threads.
pub fn matrix_cells(seed: u64, batch: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Program::FIVE
        .iter()
        .flat_map(|&program| AllocatorKind::ALL.iter().map(move |&kind| Cell { program, kind }))
        .collect();
    Rng::new(seed, batch << 8 | 1).shuffle(&mut cells);
    cells
}

/// `matrix-cold` options: the paper's five direct-mapped caches and the
/// LRU pager, storing streams under `stream_cache` when given.
pub fn matrix_options(stream_cache: Option<&std::path::Path>) -> SimOptions {
    SimOptions {
        scale: Scale(MATRIX_SCALE),
        stream_cache: stream_cache.map(std::path::Path::to_path_buf),
        ..SimOptions::default()
    }
}

/// `resweep-warm` options: the five paper sizes with 64-byte blocks, no
/// pager, answered from the stream cache at `stream_cache`.
pub fn resweep_options(stream_cache: Option<&std::path::Path>) -> SimOptions {
    SimOptions {
        cache_configs: CacheConfig::paper_sweep()
            .into_iter()
            .map(|c| CacheConfig::direct_mapped(c.size, RESWEEP_BLOCK))
            .collect(),
        paging: false,
        ..matrix_options(stream_cache)
    }
}

/// The CI explore job's 64-point, five-family espresso sweep, with the
/// families in the order of one batch of the seed's run.
pub fn sweep_spec(seed: u64, batch: u64) -> SweepSpec {
    let mut grids = vec![
        GridSpec {
            split_threshold: vec![8, 16, 24, 32, 48, 64],
            coalesce: vec![true, false],
            roving: vec![true, false],
            ..GridSpec::baseline("FirstFit")
        },
        GridSpec {
            split_threshold: vec![8, 16, 24, 32, 48, 64],
            coalesce: vec![true, false],
            ..GridSpec::baseline("GNU G++")
        },
        GridSpec {
            fast_max: vec![8, 16, 24, 32, 40, 48, 56, 64, 96, 128, 192, 256],
            ..GridSpec::baseline("QuickFit")
        },
        GridSpec { min_shift: vec![3, 4, 5, 6, 7, 8], ..GridSpec::baseline("BSD") },
        GridSpec {
            short_age: vec![1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000],
            ..GridSpec::baseline("Predictive")
        },
    ];
    Rng::new(seed, batch << 8 | 2).shuffle(&mut grids);
    let mut spec = SweepSpec::over("espresso", SWEEP_SCALE, grids);
    spec.cache_kb = vec![16];
    spec.paging = Some(false);
    spec
}

/// The `serve-open` pool in popularity order: five programs × five
/// paper allocators × {16K, 64K}, pager off. Rank r asks for program
/// r mod 5, so every popularity band mixes cheap and costly programs.
pub fn serve_pool() -> Vec<JobSpec> {
    (0..50)
        .map(|r| {
            let program = Program::FIVE[r % 5];
            let kind = AllocatorKind::ALL[(r / 5) % 5];
            JobSpec {
                cache_kb: vec![if r < 25 { 16 } else { 64 }],
                paging: Some(false),
                ..JobSpec::cell(program.label(), kind.label(), SERVE_SCALE)
            }
        })
        .collect()
}

/// One scheduled request: when it is due and which pool entry it asks
/// for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the run.
    pub due: Duration,
    /// Index into [`serve_pool`].
    pub spec: usize,
}

/// Open-loop Poisson arrivals at `rate` per second over `window`.
///
/// Both the load and the mix are fixed, and the seed decides how they
/// fall in time:
/// - the arrival count is `round(rate * window)` and the times are that
///   many uniform draws, sorted: exactly a Poisson process conditioned
///   on its count;
/// - every pool entry is asked for once and the remaining arrivals are
///   duplicates, rank r drawing a share in proportion to r^-`exponent`
///   (Zipf), apportioned exactly by largest remainder; the seed shuffles
///   which arrival asks for what.
///
/// So every seed executes the same set of distinct jobs cold and
/// answers the same number of duplicates from the result cache.
pub fn arrivals(
    seed: u64,
    round: u64,
    rate: f64,
    window: Duration,
    pool: usize,
    exponent: f64,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, round << 8 | 3);
    let count = (rate * window.as_secs_f64()).round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * window.as_secs_f64()).collect();
    times.sort_by(f64::total_cmp);
    let mut specs = zipf_mix(count, pool, exponent);
    rng.shuffle(&mut specs);
    times
        .into_iter()
        .zip(specs)
        .map(|(t, spec)| Arrival { due: Duration::from_secs_f64(t), spec })
        .collect()
}

/// `count` pool indices: every entry once (while `count` allows), and
/// the rest duplicates whose multiplicities follow Zipf(`exponent`) over
/// `pool` ranks, apportioned by largest remainder.
fn zipf_mix(count: usize, pool: usize, exponent: f64) -> Vec<usize> {
    let once = count.min(pool);
    let extra = count - once;
    let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * extra as f64).collect();
    let mut counts: Vec<usize> = quotas
        .iter()
        .enumerate()
        .map(|(i, q)| q.floor() as usize + usize::from(i < once))
        .collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = count - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts.iter().enumerate().flat_map(|(i, &n)| std::iter::repeat_n(i, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = arrivals(7, 0, 25.0, Duration::from_secs(10), 50, 1.0);
        assert_eq!(a, arrivals(7, 0, 25.0, Duration::from_secs(10), 50, 1.0));
        assert_ne!(a, arrivals(8, 0, 25.0, Duration::from_secs(10), 50, 1.0));
        assert_ne!(a, arrivals(7, 1, 25.0, Duration::from_secs(10), 50, 1.0));
        assert_eq!(a.len(), 250);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.spec < 50 && x.due < Duration::from_secs(10)));
        let mix = |s| {
            let mut specs: Vec<usize> = arrivals(s, 0, 15.0, Duration::from_secs(10), 50, 0.5)
                .iter()
                .map(|x| x.spec)
                .collect();
            specs.sort();
            specs
        };
        // The same mix on every seed, covering the whole pool, most
        // popular first.
        assert_eq!(mix(1), mix(2));
        let counts: Vec<usize> =
            (0..50).map(|i| mix(1).iter().filter(|&&s| s == i).count()).collect();
        assert!(counts.iter().all(|&n| n >= 1));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(counts.iter().sum::<usize>(), 150);
        // A served round: every entry once and 5 duplicates of the most
        // popular.
        let round = zipf_mix(55, 50, SERVE_ZIPF);
        let counts: Vec<usize> =
            (0..50).map(|i| round.iter().filter(|&&s| s == i).count()).collect();
        assert_eq!(round.len(), 55);
        assert!(counts.iter().all(|&n| n >= 1));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[..5].iter().all(|&n| n == 2) && counts[5..].iter().all(|&n| n == 1));
        let keys = |s, b| matrix_cells(s, b).iter().map(|c| c.key("m")).collect::<Vec<_>>();
        assert_eq!(keys(3, 0), keys(3, 0));
        assert_ne!(keys(3, 0), keys(4, 0));
        assert_ne!(keys(3, 0), keys(3, 1));
    }

    #[test]
    fn fixed_sets_do_not_depend_on_the_seed() {
        let mut a: Vec<String> = matrix_cells(1, 0).iter().map(|c| c.key("m")).collect();
        let mut b: Vec<String> = matrix_cells(2, 5).iter().map(|c| c.key("m")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let ids = |s| {
            let mut ids: Vec<String> =
                sweep_spec(s, s).points().iter().map(JobSpec::job_id).collect();
            ids.sort();
            ids
        };
        assert_eq!(ids(1), ids(2));
        assert_eq!(ids(1).len(), 64);
        assert_eq!(serve_pool().len(), 50);
    }
}
