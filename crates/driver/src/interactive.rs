//! The real-time interactive workload behind Figure 3.
//!
//! Architecture (the paper's Figure 1): the update stream is produced
//! into a partitioned Kafka-like topic, keyed by
//! [`UpdateOp::partition_key`]; a pool of appliers (a consumer group,
//! one partition each) continuously consumes the topic and applies
//! batched updates to the system under test, honouring the dependency
//! tracker through the per-partition frontier protocol (see
//! [`crate::ingest`]); N concurrent closed-loop readers execute the
//! reduced read mix (short reads + a 2-hop complex read). Read and
//! write completions are bucketed per second to draw the figure.

use bytes::Bytes;
use parking_lot::Mutex;
use snb_core::metrics::{LatencyStats, ThroughputSeries};
use snb_core::SnbError;
use std::collections::HashMap;
use snb_datagen::GeneratedData;
use snb_mq::{Broker, Consumer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::adapter::SutAdapter;
use crate::ingest::{applier_loop, Applier};
use crate::ops::ParamGen;
use crate::scheduler::{DependencyTracker, IngestFrontiers};

/// Knobs for the interactive run.
#[derive(Debug, Clone)]
pub struct InteractiveConfig {
    /// Concurrent closed-loop reader threads (the paper uses 32).
    pub readers: usize,
    /// Wall-clock duration of the measured window.
    pub duration: Duration,
    /// Parameter seed (same seed → same read mix for every system).
    pub seed: u64,
    /// Parallel update appliers (= update-topic partitions).
    pub appliers: usize,
    /// Operations applied per engine batch.
    pub batch_size: usize,
    /// Pause each reader takes between operations (`Duration::ZERO` =
    /// fully closed-loop). Lets a run model think-time clients instead
    /// of readers that saturate every core.
    pub read_pacing: Duration,
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        InteractiveConfig {
            readers: 32,
            duration: Duration::from_secs(10),
            seed: 0x1db0,
            appliers: 2,
            batch_size: 128,
            read_pacing: Duration::ZERO,
        }
    }
}

/// Outcome of one interactive run.
#[derive(Debug, Clone)]
pub struct InteractiveReport {
    pub system: String,
    /// Completed read operations per second of the run.
    pub reads_per_sec: Vec<u64>,
    /// Applied update operations per second of the run.
    pub writes_per_sec: Vec<u64>,
    pub total_reads: u64,
    pub total_writes: u64,
    /// Reads rejected or timed out (Gremlin Server overload).
    pub read_errors: u64,
    pub write_errors: u64,
    /// Per-operation read latency (name → (mean ms, p99 ms, samples)).
    pub read_latency: Vec<(String, f64, f64, usize)>,
}

impl InteractiveReport {
    /// Mean read throughput over the window.
    pub fn mean_reads_per_sec(&self) -> f64 {
        mean(&self.reads_per_sec)
    }

    /// Mean write throughput over the window.
    pub fn mean_writes_per_sec(&self) -> f64 {
        mean(&self.writes_per_sec)
    }
}

fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// Run the interactive workload against one adapter. The adapter must
/// already be loaded with the snapshot of `data`.
pub fn run_interactive(
    adapter: &dyn SutAdapter,
    data: &GeneratedData,
    config: &InteractiveConfig,
) -> InteractiveReport {
    let appliers = config.appliers.max(1);
    let broker = Broker::new();
    let topic = broker
        .create_topic("updates", appliers as u32)
        .expect("fresh broker");
    let producer = broker.producer("updates").expect("topic exists");

    let stop = Arc::new(AtomicBool::new(false));
    let tracker = Arc::new(DependencyTracker::new(data.cut_ms));
    let frontiers = Arc::new(IngestFrontiers::new(appliers, data.cut_ms));
    let read_tput = Arc::new(ThroughputSeries::new());
    let write_tput = Arc::new(ThroughputSeries::new());
    let read_errors = Arc::new(AtomicU64::new(0));
    let write_errors = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<HashMap<&'static str, LatencyStats>>> =
        Arc::new(Mutex::new(HashMap::new()));

    std::thread::scope(|scope| {
        // Producer: streams the update operations into the topic, keyed
        // so every write touching one entity lands in one partition.
        {
            let stop = Arc::clone(&stop);
            let frontiers = Arc::clone(&frontiers);
            let updates = &data.updates;
            scope.spawn(move || {
                for op in updates {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let key = Bytes::from(op.partition_key().to_le_bytes().to_vec());
                    producer.send(op.ts_ms, Some(key), Bytes::from(op.encode_binary()));
                    frontiers.producer_advance(op.ts_ms);
                }
                // Whether the stream ended or the run stopped, nothing
                // more will be sent: let idle partitions drain.
                frontiers.producer_finished();
            });
        }

        // Appliers: a consumer group, one partition each, applying
        // dependency-ready updates in batches until the run stops.
        for mut consumer in Consumer::group(&topic, appliers) {
            let tracker = Arc::clone(&tracker);
            let frontiers = Arc::clone(&frontiers);
            let write_tput = Arc::clone(&write_tput);
            let write_errors = Arc::clone(&write_errors);
            let stop = Arc::clone(&stop);
            let batch_size = config.batch_size.max(1);
            scope.spawn(move || {
                let ctx = Applier {
                    adapter,
                    tracker: &tracker,
                    frontiers: &frontiers,
                    applied: &write_tput,
                    errors: &write_errors,
                    stop: &stop,
                    drain: false,
                    batch_size,
                    dependency_timeout: Duration::from_secs(2),
                };
                applier_loop(&ctx, &mut consumer);
            });
        }

        // Readers: closed-loop clients running the reduced mix.
        for r in 0..config.readers {
            let stop = Arc::clone(&stop);
            let read_tput = Arc::clone(&read_tput);
            let read_errors = Arc::clone(&read_errors);
            let mut params = ParamGen::new(data, config.seed.wrapping_add(r as u64));
            let latencies = Arc::clone(&latencies);
            let pacing = config.read_pacing;
            scope.spawn(move || {
                let mut local: HashMap<&'static str, LatencyStats> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    if !pacing.is_zero() {
                        std::thread::sleep(pacing);
                    }
                    let op = params.interactive_read();
                    let t0 = std::time::Instant::now();
                    match adapter.execute_read(&op) {
                        Ok(_) => {
                            local.entry(op.name()).or_default().record(t0.elapsed());
                            read_tput.record();
                        }
                        Err(SnbError::Overloaded(_)) => {
                            read_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            read_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let mut shared = latencies.lock();
                for (name, stats) in local {
                    shared.entry(name).or_default().merge(&stats);
                }
            });
        }

        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });

    let secs = config.duration.as_secs() as usize;
    let clamp = |mut xs: Vec<u64>| {
        xs.truncate(secs.max(1));
        xs
    };
    let mut read_latency: Vec<(String, f64, f64, usize)> = latencies
        .lock()
        .iter()
        .map(|(name, s)| (name.to_string(), s.mean_ms(), s.percentile_ms(99.0), s.len()))
        .collect();
    read_latency.sort_by(|a, b| a.0.cmp(&b.0));
    InteractiveReport {
        system: adapter.name().to_string(),
        total_reads: read_tput.total(),
        total_writes: write_tput.total(),
        reads_per_sec: clamp(read_tput.per_second()),
        writes_per_sec: clamp(write_tput.per_second()),
        read_errors: read_errors.load(Ordering::Relaxed),
        write_errors: write_errors.load(Ordering::Relaxed),
        read_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::sql::SqlAdapter;

    #[test]
    fn interactive_run_produces_reads_and_writes() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let adapter = SqlAdapter::row_store();
        adapter.load(&data.snapshot).unwrap();
        let report = run_interactive(
            &adapter,
            &data,
            &InteractiveConfig {
                readers: 4,
                duration: Duration::from_millis(600),
                seed: 1,
                ..InteractiveConfig::default()
            },
        );
        assert!(report.total_reads > 0, "readers made progress");
        assert!(report.total_writes > 0, "writer made progress");
        assert_eq!(report.write_errors, 0, "in-order stream has no dependency failures");
        assert!(report.mean_reads_per_sec() > 0.0);
        assert!(!report.read_latency.is_empty(), "per-op latency recorded");
        let total: usize = report.read_latency.iter().map(|(_, _, _, n)| n).sum();
        assert_eq!(total as u64, report.total_reads);
    }
}
