//! The workloads: their inputs, request streams and open-loop arrival
//! schedules. Everything here is a pure function of the workload and the
//! run seed.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use generic_datasets::{generate_spatial, generate_tabular, SpatialSpec, TabularSpec};
use generic_hdc::Frame;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Distinct request rows per workload. A change that caches by input
/// sees each row again after about this many requests; see the README.
pub const POOL_ROWS: usize = 65_536;
/// Rows `generic train` learns from in a full run.
pub const TRAIN_ROWS: usize = 8_000;
/// Rows `generic train` learns from in a smoke run.
pub const SMOKE_TRAIN_ROWS: usize = 500;
/// Retraining epochs passed to `generic train`.
pub const TRAIN_EPOCHS: usize = 5;
/// Tenants published for `tenants-zipf`; every fourth one is pruned.
pub const TENANTS: usize = 64;
/// Exponent of the Zipf law tenants are drawn from.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// The class structure is fixed per data family, so every seed trains
/// and serves the same task and accuracy is comparable across seeds;
/// the run seed picks the training rows, the pool, and every draw.
const ISOLET_DATA_SEED: u64 = 0x150_1E7;
const PAGE_DATA_SEED: u64 = 0x9A6E;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// ISOLET-shaped spatial data: 64 features, 13 classes.
    Isolet,
    /// PAGE-shaped tabular data: 10 features, 5 classes.
    Page,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Infer frames against the shared writer model.
    Infer,
    /// Infer frames plus labeled Learn frames.
    Learn,
    /// Infer frames routed to Zipf-drawn registry tenants.
    Tenants,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub dim: usize,
    pub traffic: Traffic,
    /// Open-loop Infer arrivals per second.
    pub open_infer_rps: f64,
    /// Open-loop Learn arrivals per second (0 unless `Learn`).
    pub open_learn_rps: f64,
    /// Latency limit of `slo_attain`, milliseconds.
    pub limit_ms: f64,
}

/// Open rates are frozen at about a fifth of the closed-loop throughput
/// the benchmark measured on its defining commit, leaving headroom for
/// the host's slow phases (README, "Workloads").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "isolet-shared",
        shape: Shape::Isolet,
        dim: 4096,
        traffic: Traffic::Infer,
        open_infer_rps: 8_000.0,
        open_learn_rps: 0.0,
        limit_ms: 2.0,
    },
    Workload {
        name: "page-tiny",
        shape: Shape::Page,
        dim: 2048,
        traffic: Traffic::Infer,
        open_infer_rps: 20_000.0,
        open_learn_rps: 0.0,
        limit_ms: 1.0,
    },
    Workload {
        name: "isolet-learn",
        shape: Shape::Isolet,
        dim: 4096,
        traffic: Traffic::Learn,
        open_infer_rps: 6_000.0,
        open_learn_rps: 1_000.0,
        limit_ms: 2.0,
    },
    Workload {
        name: "tenants-zipf",
        shape: Shape::Isolet,
        dim: 4096,
        traffic: Traffic::Tenants,
        open_infer_rps: 6_000.0,
        open_learn_rps: 0.0,
        limit_ms: 2.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Derives an independent stream seed from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rows one run trains on and serves.
pub struct Inputs {
    pub n_classes: usize,
    pub train: Vec<Vec<f64>>,
    pub train_labels: Vec<usize>,
    pub pool: Vec<Vec<f64>>,
    pub pool_labels: Vec<usize>,
}

impl Inputs {
    /// Draws `train_rows + POOL_ROWS` distinct rows of the workload's
    /// data family and splits them, in seeded order, into the training
    /// set and the request pool.
    pub fn generate(workload: &Workload, seed: u64, train_rows: usize) -> Inputs {
        let total = train_rows + POOL_ROWS;
        let data = match workload.shape {
            Shape::Isolet => generate_spatial(
                "ISOLET",
                SpatialSpec {
                    n_features: 64,
                    n_classes: 13,
                    n_train: total,
                    n_test: 1,
                    n_motifs: 4,
                    motif_len: 5,
                    placement_jitter: 2,
                    noise: 0.8,
                },
                ISOLET_DATA_SEED,
            ),
            Shape::Page => generate_tabular(
                "PAGE",
                TabularSpec {
                    n_features: 10,
                    n_classes: 5,
                    n_train: total,
                    n_test: 1,
                    class_sep: 1.6,
                    noise: 1.0,
                    nuisance_fraction: 0.2,
                },
                PAGE_DATA_SEED,
            ),
        };
        let mut rows: Vec<(Vec<f64>, usize)> = data
            .train
            .features
            .into_iter()
            .zip(data.train.labels)
            .collect();
        rows.shuffle(&mut StdRng::seed_from_u64(mix(seed, 1)));
        let pool = rows.split_off(train_rows);
        let (train, train_labels) = rows.into_iter().unzip();
        let (pool, pool_labels) = pool.into_iter().unzip();
        Inputs {
            n_classes: data.n_classes,
            train,
            train_labels,
            pool,
            pool_labels,
        }
    }

    /// Writes the training rows as the labeled CSV `generic train`
    /// reads (shortest round-trip floats, label last).
    pub fn write_train_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (row, label) in self.train.iter().zip(&self.train_labels) {
            for v in row {
                write!(out, "{v},")?;
            }
            writeln!(out, "{label}")?;
        }
        out.flush()
    }

    /// The wire frame for one request.
    pub fn frame(&self, req: Req, request_id: u64) -> Frame {
        let features = self.pool[req.pool as usize].clone();
        if req.learn {
            Frame::Learn {
                request_id,
                label: self.pool_labels[req.pool as usize] as u64,
                features,
            }
        } else {
            Frame::Infer {
                request_id,
                deadline_us: 0,
                tenant: req.tenant.map(|t| tenant_name(usize::from(t))),
                features,
            }
        }
    }
}

pub fn tenant_name(index: usize) -> String {
    format!("t{index:02}")
}

/// Every fourth tenant serves a pruned 4-bit image, so pruned tenants
/// sit at every popularity rank.
pub fn is_pruned_tenant(index: usize) -> bool {
    index % 4 == 3
}

/// One request: a pool row sent as Infer (optionally tenant-routed) or
/// as Learn with the row's ground-truth label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub pool: u32,
    pub learn: bool,
    pub tenant: Option<u16>,
}

/// Cumulative Zipf(s) distribution over `n` ranks.
#[derive(Debug, Clone)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    /// The rank (0-based) whose cumulative share first reaches `u`.
    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// A seeded stream of requests of one kind.
pub struct Stream {
    rng: StdRng,
    learn: bool,
    tenants: Option<Zipf>,
}

impl Stream {
    pub fn new(workload: &Workload, seed: u64, learn: bool) -> Stream {
        let tenants = (workload.traffic == Traffic::Tenants && !learn)
            .then(|| Zipf::new(TENANTS, ZIPF_EXPONENT));
        Stream {
            rng: StdRng::seed_from_u64(seed),
            learn,
            tenants,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let pool = self.rng.random_range(0..POOL_ROWS as u32);
        let tenant = self
            .tenants
            .as_ref()
            .map(|z| z.sample(self.rng.random::<f64>()) as u16);
        Req {
            pool,
            learn: self.learn,
            tenant,
        }
    }
}

/// Arrival offsets (ns from the phase start) of a Poisson process with
/// `rate` arrivals per second over `duration`.
pub fn poisson_times(rate: f64, duration: Duration, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut times = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; 1 - u avoids ln(0).
        t += -(1.0 - rng.random::<f64>()).ln() / rate;
        if t >= end {
            return times;
        }
        times.push((t * 1e9) as u64);
    }
}

/// One scheduled open-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub req: Req,
}

/// The workload's open-loop traffic mix: each request is a Learn with
/// probability `learn / (infer + learn)`, otherwise an Infer.
pub struct Mix {
    pick: StdRng,
    learn_share: f64,
    infer: Stream,
    learn: Stream,
}

impl Mix {
    pub fn new(workload: &Workload, seed: u64) -> Mix {
        Mix {
            pick: StdRng::seed_from_u64(mix(seed, 2)),
            learn_share: workload.open_learn_rps
                / (workload.open_infer_rps + workload.open_learn_rps),
            infer: Stream::new(workload, mix(seed, 3), false),
            learn: Stream::new(workload, mix(seed, 4), true),
        }
    }

    pub fn next_req(&mut self) -> Req {
        if self.learn_share > 0.0 && self.pick.random_bool(self.learn_share) {
            self.learn.next_req()
        } else {
            self.infer.next_req()
        }
    }
}

/// The open-loop schedule: the workload's mix arriving as one Poisson
/// process at the summed Infer and Learn rate.
pub fn open_schedule(workload: &Workload, seed: u64, duration: Duration) -> Vec<Arrival> {
    let rate = workload.open_infer_rps + workload.open_learn_rps;
    let mut mix_of = Mix::new(workload, seed);
    poisson_times(rate, duration, mix(seed, 5))
        .into_iter()
        .map(|at_ns| Arrival {
            at_ns,
            req: mix_of.next_req(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_keeps_its_rate() {
        let ten_s = Duration::from_secs(10);
        let a = poisson_times(10_000.0, ten_s, 7);
        assert_eq!(a, poisson_times(10_000.0, ten_s, 7));
        assert_ne!(a, poisson_times(10_000.0, ten_s, 8));
        // 100k expected arrivals, standard deviation ~316.
        assert!((98_500..101_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 10_000_000_000);
        // Exponential gaps: the mean gap is 1/rate (100 µs).
        let mean_gap = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((mean_gap - 100_000.0).abs() < 2_000.0, "{mean_gap}");
    }

    #[test]
    fn open_schedule_mixes_learn_at_its_share() {
        let learn = find("isolet-learn").unwrap();
        let s = open_schedule(learn, 3, Duration::from_secs(2));
        assert_eq!(s, open_schedule(learn, 3, Duration::from_secs(2)));
        let learns = s.iter().filter(|a| a.req.learn).count() as f64;
        let share = learns / s.len() as f64;
        assert!((share - 2.0 / 14.0).abs() < 0.01, "{share}");
        assert!(s.iter().all(|a| a.req.tenant.is_none()));
        let shared = find("isolet-shared").unwrap();
        assert!(open_schedule(shared, 3, Duration::from_secs(1))
            .iter()
            .all(|a| !a.req.learn));
    }

    #[test]
    fn tenants_follow_a_zipf_law() {
        let w = find("tenants-zipf").unwrap();
        let mut stream = Stream::new(w, 11, false);
        let mut counts = [0u32; TENANTS];
        for _ in 0..50_000 {
            counts[stream.next_req().tenant.unwrap() as usize] += 1;
        }
        // P(rank 1) / P(rank 2) = 2^1.1 ≈ 2.14.
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((1.9..2.4).contains(&ratio), "{ratio}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn inputs_split_one_draw_into_train_and_pool() {
        let w = find("page-tiny").unwrap();
        let a = Inputs::generate(w, 5, 100);
        assert_eq!(a.train.len(), 100);
        assert_eq!(a.pool.len(), POOL_ROWS);
        assert_eq!((a.pool[0].len(), a.n_classes), (10, 5));
        let b = Inputs::generate(w, 5, 100);
        assert_eq!(a.pool[17], b.pool[17]);
        let c = Inputs::generate(w, 6, 100);
        assert_ne!(a.pool[17], c.pool[17]);
        assert!(a.pool_labels.iter().all(|&l| l < 5));
    }
}
