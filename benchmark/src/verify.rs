//! Answer checking: every served response is compared byte for byte
//! with `wire::handle_line` on an independently opened copy of the same
//! container, fed the same ingest batches through
//! `handle_line_writable`.
//!
//! Reads served while batches were being ingested may have been
//! answered from any epoch between the acknowledgements seen when the
//! read was sent and when its answer arrived; the copy replays the
//! batches in order and a read passes if its response matches the copy
//! at one of those epochs.

use std::collections::HashMap;

use utcq_core::wire::{handle_line, handle_line_writable, Json};
use utcq_core::Opened;

use crate::loadgen::{AckRecord, ReadRecord};

/// What the check found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Reads whose response matched no admissible epoch.
    pub read_mismatches: usize,
    /// Acks that differed from the copy's, did not advance `total` and
    /// `epoch` by exactly one batch, or never arrived.
    pub bad_acks: usize,
}

/// Replays `acks` (sent in batch order from batch 0, one at a time,
/// batch `k` being the line `batch_line(k)`) into `copy` and checks
/// every answered read of `reads` at the epochs its window admits.
/// `base_len` is the container's trajectory count, `batch_trajs` the
/// size of every batch.
pub fn check(
    copy: &Opened,
    reads: &[&ReadRecord],
    acks: &[&AckRecord],
    batch_line: &dyn Fn(usize) -> String,
    base_len: usize,
    batch_trajs: usize,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut order: Vec<&ReadRecord> = reads
        .iter()
        .copied()
        .filter(|r| r.response.is_some())
        .collect();
    order.sort_by_key(|r| r.acks_at_send);
    let mut matched = vec![false; order.len()];
    let mut first_open = 0usize;
    let epochs = acks.len();
    for epoch in 0..=epochs {
        let mut expected: HashMap<&str, String> = HashMap::new();
        for (i, r) in order.iter().enumerate().skip(first_open) {
            if r.acks_at_send > epoch {
                break;
            }
            if matched[i] || r.acks_at_recv < epoch {
                continue;
            }
            let want = expected
                .entry(&r.line)
                .or_insert_with(|| handle_line(copy, &r.line).line);
            if r.response.as_deref() == Some(want.as_str()) {
                matched[i] = true;
            }
        }
        while first_open < order.len()
            && (matched[first_open] || order[first_open].acks_at_recv <= epoch)
        {
            first_open += 1;
        }
        let Some(ack) = acks.get(epoch) else {
            break;
        };
        let reply = handle_line_writable(copy, &batch_line(ack.batch)).line;
        let advanced = field_u64(&reply, "epoch") == Some(epoch as u64 + 1)
            && field_u64(&reply, "total") == Some((base_len + (epoch + 1) * batch_trajs) as u64);
        if ack.batch != epoch || ack.response.as_deref() != Some(reply.as_str()) || !advanced {
            verdict.bad_acks += 1;
        }
    }
    verdict.read_mismatches = matched.iter().filter(|m| !**m).count();
    verdict
}

/// A top-level unsigned field of a response line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    Json::parse(line).ok()?.get(key)?.as_u64()
}

/// A top-level numeric field of a response's nested object.
pub fn nested_f64(line: &str, obj: &str, key: &str) -> Option<f64> {
    Json::parse(line).ok()?.get(obj)?.get(key)?.as_f64()
}
