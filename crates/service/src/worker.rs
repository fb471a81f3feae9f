//! Worker threads: each owns a long-lived estimation scratch and serves
//! requests from the shared queue.

use crate::cache::{SubplanCache, FINGERPRINT_SEED};
use crate::queue::BoundedQueue;
use crate::registry::{ModelHandle, ModelRegistry};
use crate::request::{EstimateRequest, EstimateResponse, Reply, ServiceError};
use crate::stats::StatsInner;
use factorjoin::EstimationScratch;
use fj_query::{connected_subplans_into, fingerprint_subplans, QueryGraph, SubplanMask};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A queued unit of work: the request plus its reply route.
pub(crate) struct Job {
    /// Multiplexing tag (0 for plain submits; wire request id for the
    /// network tier, whose connections share one reply channel).
    pub tag: u64,
    /// Index within the submitting batch (0 for single submits).
    pub index: usize,
    pub request: EstimateRequest,
    pub submitted: Instant,
    pub reply: mpsc::Sender<Reply>,
}

/// Spawns `count` workers draining `queue` until it is closed.
///
/// Each worker holds one [`EstimationScratch`] for its whole life — the
/// scratch-reuse contract of `SubplanEstimator` carried across requests
/// *and* across hot-swapped models (the scratch holds only buffers; every
/// request rebuilds its factors from the model it resolved, so reusing it
/// under a different model is sound). Model resolution happens per request
/// through the registry, which is what makes hot-swap atomic: a request is
/// served entirely by whichever model the registry held when the worker
/// picked it up.
pub(crate) fn spawn_workers(
    count: usize,
    default_dataset: String,
    queue: Arc<BoundedQueue<Job>>,
    registry: Arc<ModelRegistry>,
    stats: Arc<StatsInner>,
    cache: Option<Arc<SubplanCache>>,
) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|worker_id| {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let stats = Arc::clone(&stats);
            let cache = cache.clone();
            let default_dataset = default_dataset.clone();
            std::thread::Builder::new()
                .name(format!("fj-worker-{worker_id}"))
                .spawn(move || {
                    worker_loop(
                        worker_id,
                        &default_dataset,
                        &queue,
                        &registry,
                        &stats,
                        cache.as_deref(),
                    )
                })
                .expect("spawn worker thread")
        })
        .collect()
}

fn worker_loop(
    worker_id: usize,
    default_dataset: &str,
    queue: &BoundedQueue<Job>,
    registry: &ModelRegistry,
    stats: &StatsInner,
    cache: Option<&SubplanCache>,
) {
    let mut scratch = EstimationScratch::default();
    let mut masks: Vec<SubplanMask> = Vec::new();
    while let Some(job) = queue.pop() {
        let picked_up = Instant::now();
        // Shed already-expired work before touching the model: the caller
        // stopped waiting, so estimating would only steal CPU from live
        // requests. The ticket still resolves (with DeadlineExceeded) so
        // nothing upstream hangs.
        if let Some(deadline) = job.request.deadline {
            if picked_up >= deadline {
                stats.record_expired();
                let result = Err(ServiceError::DeadlineExceeded);
                let _ = job.reply.send((job.tag, job.index, result));
                continue;
            }
        }
        let dataset = job.request.dataset.as_deref().unwrap_or(default_dataset);
        let result = match registry.get(dataset) {
            None => {
                stats.record_error();
                Err(ServiceError::UnknownDataset(dataset.to_string()))
            }
            Some(handle) => {
                // Contain estimator panics: the scratch holds only buffers,
                // but a panic can leave them in an arbitrary state, so it is
                // rebuilt. AssertUnwindSafe is sound because nothing else
                // aliases the scratch and the model is read-only.
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    estimate_through_cache(
                        &handle,
                        &mut scratch,
                        &mut masks,
                        &job.request,
                        stats,
                        cache,
                    )
                }));
                match attempt {
                    Ok(estimates) => {
                        let response = EstimateResponse {
                            dataset: dataset.to_string(),
                            model_epoch: handle.epoch,
                            worker: worker_id,
                            queue_wait: picked_up.duration_since(job.submitted),
                            estimate_time: picked_up.elapsed(),
                            estimates,
                        };
                        stats.record_success(
                            response.estimates.len(),
                            response.queue_wait,
                            response.estimate_time,
                        );
                        Ok(response)
                    }
                    Err(payload) => {
                        scratch = EstimationScratch::default();
                        stats.record_worker_panic();
                        Err(ServiceError::WorkerPanicked(panic_message(&payload)))
                    }
                }
            }
        };
        // A dropped ticket just means the client stopped waiting.
        let _ = job.reply.send((job.tag, job.index, result));
    }
}

/// Serve the request's sub-plan estimates, consulting the sub-plan cache
/// when one is configured.
///
/// The read is **all-or-nothing**: the response is assembled from the
/// cache only when *every* sub-plan of the request hits under the
/// handle's epoch — a partial assembly would interleave cached bits with
/// a fresh computation for no latency win, and the all-or-nothing rule
/// keeps the hit/miss accounting a clean per-request split. On any miss
/// the whole request is computed by the model (the uncached path,
/// unchanged) and every `(mask, estimate)` pair is inserted, so the next
/// repeat hits.
///
/// The query is analyzed and its sub-plans enumerated once, into `masks`;
/// fingerprints and, on a miss, estimates are both computed over that one
/// mask list, so they pair up by construction.
///
/// Correctness hinges on two facts proven elsewhere:
/// * equal fingerprints imply bit-identical estimates — so a hit
///   reproduces the miss exactly (`f64::to_bits` round-trip, no
///   arithmetic).
/// * Registry epochs are globally unique and monotonic, so keying on
///   `handle.epoch` makes entries from a superseded model unreachable
///   the instant `swap_model`/`apply_insert` publishes: a request is
///   served entirely by the model *and cache generation* it resolved.
fn estimate_through_cache(
    handle: &ModelHandle,
    scratch: &mut EstimationScratch,
    masks: &mut Vec<SubplanMask>,
    request: &EstimateRequest,
    stats: &StatsInner,
    cache: Option<&SubplanCache>,
) -> Vec<(SubplanMask, f64)> {
    let (query, min_size) = (&request.query, request.min_size);
    let Some(cache) = cache else {
        return handle
            .model
            .estimate_subplans_with(scratch, query, min_size);
    };
    let graph = QueryGraph::analyze(query);
    connected_subplans_into(query, 1, masks);
    let fps = fingerprint_subplans(query, &graph, masks, min_size, FINGERPRINT_SEED);
    let mut cached = Vec::with_capacity(fps.len());
    for &(mask, fp) in &fps {
        match cache.get(handle.epoch, mask, fp) {
            Some(bits) => cached.push((mask, f64::from_bits(bits))),
            None => {
                cached.clear();
                break;
            }
        }
    }
    if !fps.is_empty() && cached.len() == fps.len() {
        stats.record_cache_hits(cached.len());
        return cached;
    }
    let estimates = handle
        .model
        .estimate_enumerated(scratch, query, &graph, masks, min_size);
    let mut evictions = 0usize;
    for (&(_, estimate), &(mask, fp)) in estimates.iter().zip(&fps) {
        if cache.insert(handle.epoch, mask, fp, estimate.to_bits()) {
            evictions += 1;
        }
    }
    stats.record_cache_misses(estimates.len(), evictions);
    estimates
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}
