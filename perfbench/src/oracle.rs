//! The correctness oracle: every served estimate must equal, bit for bit
//! (`f64::to_bits`), what `FactorJoinModel::estimate_subplans` computes in
//! process on the model of the epoch the response names.

use crate::workload::Stream;
use factorjoin::FactorJoinModel;
use fj_query::SubplanMask;
use fj_service::ModelHandle;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One served query: which pool query, which epoch answered, and what came
/// back.
#[derive(Debug, Clone)]
pub struct Record {
    pub qidx: u32,
    pub epoch: u64,
    pub estimates: Vec<(SubplanMask, f64)>,
}

/// Every model the run published, by epoch.
#[derive(Default)]
pub struct Oracle {
    models: Mutex<HashMap<u64, Arc<FactorJoinModel>>>,
}

impl Oracle {
    pub fn keep(&self, handle: &ModelHandle) {
        self.models
            .lock()
            .expect("oracle lock poisoned by a panicking thread")
            .insert(handle.epoch, Arc::clone(&handle.model));
    }

    /// Number of records whose estimates differ from the oracle (an epoch
    /// the run never published counts as a mismatch). Checks in parallel
    /// on `threads` threads, memoizing per (epoch, query).
    pub fn mismatches(&self, stream: &Stream, records: &[&Record], threads: usize) -> u64 {
        let models = self
            .models
            .lock()
            .expect("oracle lock poisoned by a panicking thread")
            .clone();
        let chunk = records.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let workers: Vec<_> = records
                .chunks(chunk)
                .map(|part| {
                    let models = &models;
                    s.spawn(move || {
                        let mut memo: HashMap<(u64, u32), Vec<(SubplanMask, u64)>> = HashMap::new();
                        let mut bad = 0u64;
                        for r in part {
                            let Some(model) = models.get(&r.epoch) else {
                                bad += 1;
                                continue;
                            };
                            let want = memo.entry((r.epoch, r.qidx)).or_insert_with(|| {
                                to_bits(&model.estimate_subplans(stream.query(r.qidx), 1))
                            });
                            if to_bits(&r.estimates) != *want {
                                bad += 1;
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle thread panicked"))
                .sum()
        })
    }
}

pub fn to_bits(estimates: &[(SubplanMask, f64)]) -> Vec<(SubplanMask, u64)> {
    estimates.iter().map(|&(m, e)| (m, e.to_bits())).collect()
}
