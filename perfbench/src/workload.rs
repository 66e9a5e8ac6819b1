//! The three workloads and the seeded inputs they send.
//!
//! The ground truth of every stream is a fixed seasonal CP stream; the
//! `--seed` draws its `(X, Y, Z)` corruption and the model's initial
//! factors. The SUT receives only the generated slices and the model
//! envelopes.

use sofia_core::SofiaConfig;
use sofia_datagen::corrupt::{CorruptionConfig, Corruptor};
use sofia_datagen::datasets::Dataset;
use sofia_datagen::seasonal::SeasonalStream;
use sofia_datagen::stream::TensorStream;
use sofia_tensor::{DenseTensor, ObservedTensor};

/// Which closed loop to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two NYC-taxi-sized streams, one per shard, per-stream reads.
    PaperNyc,
    /// 256 small streams, batched `Latest`, pipelined `Forecast`.
    ManyStreams,
    /// 64 streams over two nodes, one whole-slot migration per tick.
    SlotMigrate,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` lists it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-nyc" => Some(Workload::PaperNyc),
            "many-streams" => Some(Workload::ManyStreams),
            "slot-migrate" => Some(Workload::SlotMigrate),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperNyc => "paper-nyc",
            Workload::ManyStreams => "many-streams",
            Workload::SlotMigrate => "slot-migrate",
        }
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::PaperNyc => Spec {
                workload: self,
                streams: 2,
                dims: Dataset::NycTaxi.spatial_dims().to_vec(),
                rank: Dataset::NycTaxi.paper_rank(),
                period: Dataset::NycTaxi.period(),
                corruption: CorruptionConfig::from_percents(90, 10, 5.0),
                nodes: 1,
                shards: 2,
                checkpoint_every: None,
                horizon: 7,
                warmup_ticks: 3,
                nre_ticks: 40,
            },
            Workload::ManyStreams => Spec {
                workload: self,
                streams: 256,
                dims: vec![12, 10],
                rank: 4,
                period: 8,
                corruption: CorruptionConfig::from_percents(20, 10, 2.0),
                nodes: 1,
                shards: 2,
                checkpoint_every: None,
                horizon: 8,
                warmup_ticks: 5,
                nre_ticks: 60,
            },
            Workload::SlotMigrate => Spec {
                workload: self,
                streams: 64,
                dims: vec![24, 20],
                rank: 4,
                period: 8,
                corruption: CorruptionConfig::from_percents(30, 15, 3.0),
                nodes: 2,
                shards: 1,
                checkpoint_every: Some(8),
                horizon: 8,
                // Two full rotations over the four route slots.
                warmup_ticks: 8,
                nre_ticks: 60,
            },
        }
    }
}

/// Timed ticks in quiet blocks every workload waits for (up to its
/// time cap), so a p90 over ticks has ten samples beyond it.
pub const MIN_TICKS: usize = 100;

/// Timed ticks the interference filter keeps at least: enough for every
/// declared median. A run that found too few quiet blocks is topped up
/// with its quietest others only to here, not to [`MIN_TICKS`], and
/// prints no p90 it cannot back.
pub const MIN_KEPT: usize = 50;

/// A workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Streams served.
    pub streams: usize,
    /// Non-temporal slice dimensions.
    pub dims: Vec<usize>,
    /// CP rank of the source and the model.
    pub rank: usize,
    /// Seasonal period of the source and the model.
    pub period: usize,
    /// The `(X, Y, Z)` corruption of every sent slice.
    pub corruption: CorruptionConfig,
    /// SUT processes.
    pub nodes: usize,
    /// `--shards` of each SUT process (capped at the host's cores).
    pub shards: usize,
    /// `--checkpoint-every` of each SUT process; `None` runs without a
    /// checkpoint directory.
    pub checkpoint_every: Option<u64>,
    /// Horizon of the `Forecast` read.
    pub horizon: usize,
    /// Untimed ticks before the timed phase.
    pub warmup_ticks: usize,
    /// Timed ticks (from the first) whose reads the accuracy figures
    /// average, fixed so the figures depend on the seed only.
    pub nre_ticks: usize,
}

impl Spec {
    /// The model configuration: the same one `sofia-cli fleet` and
    /// `serve` warm-start their SOFIA streams with.
    pub fn model_config(&self) -> SofiaConfig {
        SofiaConfig::new(self.rank, self.period)
            .with_lambdas(0.01, 0.01, 10.0)
            .with_als_limits(1e-3, 1, 40)
    }

    /// Slices in each model's start-up window.
    pub fn startup_len(&self) -> usize {
        self.model_config().startup_len().max(2 * self.period)
    }

    /// The stream id of stream `i`.
    pub fn stream_id(&self, i: usize) -> String {
        format!("stream-{i:04}")
    }

    /// Builds stream `i`'s input source. As in the paper's experiments,
    /// the ground truth is a fixed dataset (its seed depends on the
    /// stream only) and `seed` draws the `(X, Y, Z)` corruption and the
    /// model's initial factors; the accuracy figures then vary across
    /// seeds by the corruption alone.
    pub fn input(&self, seed: u64, i: usize) -> Input {
        let truth = mix(GROUND_TRUTH_SEED, i as u64);
        let source = match self.workload {
            Workload::PaperNyc => Dataset::NycTaxi.stream(truth),
            Workload::ManyStreams | Workload::SlotMigrate => {
                SeasonalStream::paper_fig2(&self.dims, self.rank, self.period, truth)
            }
        };
        let s = mix(seed, i as u64);
        let corruptor = Corruptor::new(self.corruption, source.max_abs_over_season(), s);
        Input {
            id: self.stream_id(i),
            seed: mix(s, 1),
            source,
            corruptor,
        }
    }
}

/// One stream's input source.
pub struct Input {
    /// Stream id.
    pub id: String,
    /// Per-stream seed (also seeds the model's initial factors).
    pub seed: u64,
    source: SeasonalStream,
    corruptor: Corruptor,
}

impl Input {
    /// The clean slice at `t` and its corrupted, partially observed
    /// version (the one sent).
    pub fn slice(&self, t: usize) -> (DenseTensor, ObservedTensor) {
        let clean = self.source.clean_slice(t);
        let observed = self.corruptor.corrupt(&clean, t);
        (clean, observed)
    }
}

/// Seed of every workload's ground-truth streams.
const GROUND_TRUTH_SEED: u64 = 2021;

/// SplitMix64 of `a` and `b`: decorrelated per-stream seeds from one
/// run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in [
            Workload::PaperNyc,
            Workload::ManyStreams,
            Workload::SlotMigrate,
        ] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = Workload::SlotMigrate.spec();
        let a = spec.input(7, 3).slice(30);
        let b = spec.input(7, 3).slice(30);
        let c = spec.input(8, 3).slice(30);
        assert_eq!(a.1, b.1);
        assert_ne!(a.1, c.1);
        assert_eq!(a.0.shape().dims(), &[24, 20]);
    }

    #[test]
    fn seeds_differ_per_stream() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
