//! Parallel, dependency-aware application of the update stream.
//!
//! The update topic is partitioned by [`UpdateOp::partition_key`]; N
//! appliers form a consumer group, each owning exactly one partition.
//! Each applier accumulates dependency-ready operations and applies
//! them through [`SutAdapter::execute_update_batch`] — one lock/WAL
//! round trip per batch instead of per op — committing its offsets
//! after every applied batch (group commit).
//!
//! # Why one partition per applier, and how the watermark stays sound
//!
//! The producer emits the stream in timestamp order and keyed routing
//! is sticky, so each partition is itself timestamp-ordered. An applier
//! consuming one partition in order therefore never reorders writes
//! that touch the same entity (they share a key, hence a partition).
//!
//! The [`DependencyTracker`] watermark must mean "every operation at or
//! before this time is applied" — with parallel appliers no single
//! applier knows that, so the watermark is fed from
//! [`IngestFrontiers::min_applied`], the minimum over per-partition
//! applied frontiers. Deadlock-freedom: before blocking on a
//! dependency, an applier publishes `pending.ts_ms - 1` for its
//! partition (everything earlier in it is applied), and an applier with
//! an empty partition publishes the producer frontier read before its
//! poll. Take the globally oldest unapplied operation, at time T: its
//! effective dependency is at most `T - 1`, every other partition's
//! frontier reaches at least `T - 1` by the rules above, so it always
//! becomes ready. An operation never waits on its own timestamp
//! (`dep.min(ts - 1)`): same-partition dependencies are satisfied by
//! in-order application, and waiting for `watermark >= ts` would wait
//! on the operation itself.

use bytes::Bytes;
use snb_core::metrics::ThroughputSeries;
use snb_core::SnbError;
use snb_datagen::UpdateOp;
use snb_mq::{Broker, Consumer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::SutAdapter;
use crate::scheduler::{DependencyTracker, IngestFrontiers};

/// Knobs for a parallel ingestion run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Parallel appliers (= update-topic partitions).
    pub appliers: usize,
    /// Operations applied per engine batch; also the poll size.
    pub batch_size: usize,
    /// How long an applier waits for a dependency before skipping the
    /// operation (counted as an error).
    pub dependency_timeout: Duration,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            appliers: 4,
            batch_size: 256,
            dependency_timeout: Duration::from_secs(2),
        }
    }
}

/// Outcome of draining one update stream.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Operations applied.
    pub applied: u64,
    /// Decode failures, dependency timeouts, and failed writes.
    pub errors: u64,
    /// Wall-clock time from first send to last applier exit.
    pub elapsed: Duration,
}

impl IngestReport {
    /// Applied operations per second over the drain.
    pub fn updates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.applied as f64 / secs
        } else {
            0.0
        }
    }
}

/// Everything one applier thread shares with the rest of the pool.
pub(crate) struct Applier<'a> {
    pub adapter: &'a dyn SutAdapter,
    pub tracker: &'a DependencyTracker,
    pub frontiers: &'a IngestFrontiers,
    pub applied: &'a ThroughputSeries,
    pub errors: &'a AtomicU64,
    pub stop: &'a AtomicBool,
    /// Exit when the producer is finished and the partition is drained
    /// (bulk mode); otherwise run until `stop` (interactive mode).
    pub drain: bool,
    pub batch_size: usize,
    pub dependency_timeout: Duration,
}

impl Applier<'_> {
    /// Apply the accumulated batch, advance this partition's frontier to
    /// its last timestamp, and feed the watermark.
    fn flush(&self, batch: &mut Vec<UpdateOp>, partition: usize) {
        let Some(last) = batch.last() else { return };
        let last_ts = last.ts_ms;
        match self.adapter.execute_update_batch(batch) {
            Ok(_) => self.applied.record_n(batch.len() as u64),
            Err(_) => {
                // The batch stopped at its first failure with the
                // prefix applied; replay per-op. `Conflict` means the
                // prefix already holds that write — count it applied.
                for op in batch.iter() {
                    match self.adapter.execute_update(op) {
                        Ok(()) | Err(SnbError::Conflict(_)) => self.applied.record(),
                        Err(_) => {
                            self.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        batch.clear();
        self.frontiers.publish(partition, last_ts);
        self.tracker.mark_applied(self.frontiers.min_applied());
    }
}

/// One applier: consume the partition in order, batch ready operations,
/// flush before blocking on a dependency, group-commit offsets after
/// each applied batch.
pub(crate) fn applier_loop(ctx: &Applier<'_>, consumer: &mut Consumer) {
    let Some(&partition) = consumer.assignment().first() else {
        // More appliers than partitions: nothing will ever arrive.
        return;
    };
    let partition = partition as usize;
    let mut records = Vec::new();
    let mut batch: Vec<UpdateOp> = Vec::new();
    loop {
        if ctx.stop.load(Ordering::Relaxed) {
            return;
        }
        // Read the producer frontier BEFORE polling: if the poll comes
        // back empty, every record that could land here later carries a
        // timestamp at or past this frontier.
        let produced_before = ctx.frontiers.produced();
        records.clear();
        if consumer.poll_into(ctx.batch_size, &mut records) == 0 {
            let idle = if produced_before == i64::MAX {
                i64::MAX
            } else {
                produced_before - 1
            };
            ctx.frontiers.publish(partition, idle);
            ctx.tracker.mark_applied(ctx.frontiers.min_applied());
            if ctx.drain && produced_before == i64::MAX {
                consumer.commit();
                return;
            }
            consumer.poll_wait_into(ctx.batch_size, Duration::from_millis(5), &mut records);
            if records.is_empty() {
                continue;
            }
        }
        for (_, record) in &records {
            if ctx.stop.load(Ordering::Relaxed) {
                return;
            }
            let op: UpdateOp = match UpdateOp::decode_binary(&record.value) {
                Ok(op) => op,
                Err(_) => {
                    ctx.errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            // Never wait on our own timestamp (see module docs).
            let dep = op.dependency_ms.min(op.ts_ms - 1);
            if !ctx.tracker.ready(dep) {
                // Flush first — the accumulated batch may BE what some
                // other partition is waiting on — and pre-publish our
                // frontier so no one waits on us while we block.
                ctx.flush(&mut batch, partition);
                consumer.commit();
                ctx.frontiers.publish(partition, op.ts_ms - 1);
                ctx.tracker.mark_applied(ctx.frontiers.min_applied());
                // Wait in slices: a peer applier that exits at `stop`
                // leaves its frontier behind, and blocking through the
                // full timeout would miscount shutdown as a violation.
                let deadline = Instant::now() + ctx.dependency_timeout;
                let ready = loop {
                    if ctx.tracker.wait_until_ready(dep, Duration::from_millis(20)) {
                        break true;
                    }
                    if ctx.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if Instant::now() >= deadline {
                        break false;
                    }
                };
                if !ready {
                    // Timed out: skip the op and move the frontier past
                    // it (the sequential writer marks errored ops
                    // applied too) so the stream never wedges.
                    ctx.errors.fetch_add(1, Ordering::Relaxed);
                    ctx.frontiers.publish(partition, op.ts_ms);
                    ctx.tracker.mark_applied(ctx.frontiers.min_applied());
                    continue;
                }
            }
            batch.push(op);
            if batch.len() >= ctx.batch_size {
                ctx.flush(&mut batch, partition);
                consumer.commit();
            }
        }
        ctx.flush(&mut batch, partition);
        consumer.commit();
    }
}

/// Drain one update stream into an adapter with a parallel applier
/// pool, measuring wall-clock throughput. The adapter must already hold
/// the snapshot the stream's dependencies assume (`cut_ms` = its cut).
pub fn run_ingest(
    adapter: &dyn SutAdapter,
    updates: &[UpdateOp],
    cut_ms: i64,
    config: &IngestConfig,
) -> IngestReport {
    run_ingest_iter(adapter, updates.iter().cloned(), cut_ms, config)
}

/// [`run_ingest`] over a time-ordered iterator of operations instead of
/// a slice: the producer thread pulls ops straight from the iterator
/// into the partitioned topic, so a streaming generator can feed a
/// million-person update stream without ever materializing it whole.
pub fn run_ingest_iter<I>(
    adapter: &dyn SutAdapter,
    updates: I,
    cut_ms: i64,
    config: &IngestConfig,
) -> IngestReport
where
    I: Iterator<Item = UpdateOp> + Send,
{
    let appliers = config.appliers.max(1);
    let broker = Broker::new();
    let topic = broker
        .create_topic("updates", appliers as u32)
        .expect("fresh broker");
    let producer = broker.producer("updates").expect("topic exists");
    let tracker = DependencyTracker::new(cut_ms);
    let frontiers = IngestFrontiers::new(appliers, cut_ms);
    let applied = ThroughputSeries::new();
    let errors = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        {
            let producer = &producer;
            let frontiers = &frontiers;
            scope.spawn(move || {
                for op in updates {
                    let key = Bytes::from(op.partition_key().to_le_bytes().to_vec());
                    producer.send(op.ts_ms, Some(key), Bytes::from(op.encode_binary()));
                    frontiers.producer_advance(op.ts_ms);
                }
                frontiers.producer_finished();
            });
        }
        for mut consumer in Consumer::group(&topic, appliers) {
            let ctx = Applier {
                adapter,
                tracker: &tracker,
                frontiers: &frontiers,
                applied: &applied,
                errors: &errors,
                stop: &stop,
                drain: true,
                batch_size: config.batch_size.max(1),
                dependency_timeout: config.dependency_timeout,
            };
            scope.spawn(move || applier_loop(&ctx, &mut consumer));
        }
    });
    IngestReport {
        applied: applied.total(),
        errors: errors.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::cypher::CypherAdapter;
    use crate::adapter::sparql::SparqlAdapter;
    use snb_core::GraphBackend;

    #[test]
    fn parallel_drain_matches_sequential_application() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());

        let sequential = CypherAdapter::new();
        sequential.load(&data.snapshot).unwrap();
        for op in &data.updates {
            sequential.execute_update(op).unwrap();
        }

        let parallel = CypherAdapter::new();
        parallel.load(&data.snapshot).unwrap();
        let report = run_ingest(
            &parallel,
            &data.updates,
            data.cut_ms,
            &IngestConfig { appliers: 4, batch_size: 64, ..IngestConfig::default() },
        );
        assert_eq!(report.applied, data.updates.len() as u64);
        assert_eq!(report.errors, 0, "no dependency violations in a sound protocol");
        assert_eq!(parallel.store().vertex_count(), sequential.store().vertex_count());
        assert_eq!(parallel.store().edge_count(), sequential.store().edge_count());
    }

    #[test]
    fn single_applier_and_empty_stream_work() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let adapter = SparqlAdapter::new();
        adapter.load(&data.snapshot).unwrap();
        let empty = run_ingest(&adapter, &[], data.cut_ms, &IngestConfig::default());
        assert_eq!(empty.applied, 0);
        let one = run_ingest(
            &adapter,
            &data.updates,
            data.cut_ms,
            &IngestConfig { appliers: 1, ..IngestConfig::default() },
        );
        assert_eq!(one.applied, data.updates.len() as u64);
        assert_eq!(one.errors, 0);
        assert!(one.updates_per_sec() > 0.0);
    }
}
