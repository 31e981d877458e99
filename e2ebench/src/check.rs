//! Fidelity as it is served: the Δ check per read and the Mt check per
//! pair of reads, both against the update traces the origin replays.
//!
//! All instants here are trace milliseconds (origin trace time 0 = the
//! origin's `epoch_unix_ms()`).

use mutcon_core::time::Timestamp;
use mutcon_traces::UpdateTrace;

/// One correct reply, reduced to what the fidelity checks need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    /// Object index into the workload's trace list.
    pub key: u32,
    /// Receive instant, trace milliseconds.
    pub recv_ms: u64,
    /// Index of the version the reply carried.
    pub version: usize,
}

/// The index of the version created exactly at `rel_ms`, or `None` when
/// no update of `trace` happened then (a stamp the origin never served).
pub fn version_at_stamp(trace: &UpdateTrace, rel_ms: u64) -> Option<usize> {
    trace
        .times()
        .binary_search(&Timestamp::from_millis(rel_ms))
        .ok()
}

/// Δ-fidelity of one read: the served version is the origin's version at
/// `recv − Δ` or a newer one.
pub fn is_fresh(trace: &UpdateTrace, read: &Read, delta_ms: u64) -> bool {
    let at = Timestamp::from_millis(read.recv_ms.saturating_sub(delta_ms));
    trace
        .version_index_at(at)
        .is_none_or(|required| read.version >= required)
}

/// `(fresh, checked)` over the reads whose key `ruled` accepts.
pub fn fidelity(
    reads: &[Read],
    traces: &[UpdateTrace],
    ruled: impl Fn(u32) -> bool,
    delta_ms: u64,
) -> (u64, u64) {
    let mut fresh = 0;
    let mut checked = 0;
    for read in reads.iter().filter(|r| ruled(r.key)) {
        checked += 1;
        if is_fresh(&traces[read.key as usize], read, delta_ms) {
            fresh += 1;
        }
    }
    (fresh, checked)
}

/// Validity of version `v` at the origin: from its creation to the next
/// update (`None` = still current at the trace's end).
fn validity(trace: &UpdateTrace, v: usize) -> (u64, Option<u64>) {
    let times = trace.times();
    (
        times[v].as_millis(),
        times.get(v + 1).map(|t| t.as_millis()),
    )
}

/// Mt consistency of two served versions: their validity intervals at the
/// origin come within `delta_ms` of each other (overlap counts as 0 apart).
pub fn mutually_consistent(
    a: &UpdateTrace,
    va: usize,
    b: &UpdateTrace,
    vb: usize,
    delta_ms: u64,
) -> bool {
    let (a_start, a_end) = validity(a, va);
    let (b_start, b_end) = validity(b, vb);
    let latest_start = a_start.max(b_start);
    let earliest_end = match (a_end, b_end) {
        (Some(x), Some(y)) => x.min(y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => return true,
    };
    latest_start <= earliest_end + delta_ms
}

/// `(consistent, checked)` over read pairs of group members: each member
/// read is paired with the latest earlier read of a *different* member,
/// when that read came at most `window_ms` before it.
pub fn mt_fidelity(
    reads: &[Read],
    traces: &[UpdateTrace],
    member: impl Fn(u32) -> bool,
    delta_ms: u64,
    window_ms: u64,
) -> (u64, u64) {
    let mut consistent = 0;
    let mut checked = 0;
    // The latest member read, and the latest one of another key than it.
    let mut recent: Option<Read> = None;
    let mut other: Option<Read> = None;
    for read in reads.iter().filter(|r| member(r.key)) {
        let partner = match recent {
            Some(r) if r.key != read.key => Some(r),
            _ => other,
        };
        if let Some(p) = partner {
            if read.recv_ms.saturating_sub(p.recv_ms) <= window_ms {
                checked += 1;
                if mutually_consistent(
                    &traces[p.key as usize],
                    p.version,
                    &traces[read.key as usize],
                    read.version,
                    delta_ms,
                ) {
                    consistent += 1;
                }
            }
        }
        if let Some(r) = recent {
            if r.key != read.key {
                other = Some(r);
            }
        }
        recent = Some(*read);
    }
    (consistent, checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_traces::UpdateEvent;

    fn trace(name: &str, updates: &[u64]) -> UpdateTrace {
        UpdateTrace::new(
            name,
            Timestamp::ZERO,
            Timestamp::from_millis(10_000),
            updates
                .iter()
                .map(|&ms| UpdateEvent::temporal(Timestamp::from_millis(ms)))
                .collect(),
        )
        .unwrap()
    }

    fn read(key: u32, recv_ms: u64, version: usize) -> Read {
        Read {
            key,
            recv_ms,
            version,
        }
    }

    #[test]
    fn stamps_map_to_versions_only_at_update_instants() {
        let a = trace("a", &[0, 1000, 2000]);
        assert_eq!(version_at_stamp(&a, 1000), Some(1));
        assert_eq!(version_at_stamp(&a, 1001), None);
    }

    #[test]
    fn delta_sampler_flags_reads_inside_the_violation_interval() {
        // A updates at 1000 ms; with Δ = 100 ms a copy of version 0 is a
        // violation for reads received at 1100 ms or later.
        let traces = [trace("a", &[0, 1000, 2000])];
        assert!(is_fresh(&traces[0], &read(0, 1050, 0), 100));
        assert!(is_fresh(&traces[0], &read(0, 1099, 0), 100));
        assert!(!is_fresh(&traces[0], &read(0, 1100, 0), 100));
        assert!(is_fresh(&traces[0], &read(0, 1100, 1), 100));
        assert!(!is_fresh(&traces[0], &read(0, 2500, 1), 100));
        let reads = [
            read(0, 1050, 0),
            read(0, 1150, 0),
            read(0, 1150, 1),
            read(0, 2500, 1),
        ];
        assert_eq!(fidelity(&reads, &traces, |_| true, 100), (2, 4));
        assert_eq!(fidelity(&reads, &traces, |_| false, 100), (0, 0));
    }

    #[test]
    fn mt_check_uses_validity_gaps() {
        // A: v0 [0,1000], v1 [1000,2000], v2 [2000,∞); B: v0 [0,1500], v1 [1500,∞).
        let a = trace("a", &[0, 1000, 2000]);
        let b = trace("b", &[0, 1500]);
        assert!(mutually_consistent(&a, 1, &b, 0, 0), "overlapping");
        assert!(!mutually_consistent(&a, 2, &b, 0, 100), "500 ms apart");
        assert!(mutually_consistent(&a, 2, &b, 0, 500));
        assert!(!mutually_consistent(&a, 0, &b, 1, 499));
        assert!(mutually_consistent(&a, 2, &b, 1, 0), "both current");
    }

    #[test]
    fn mt_pairs_only_close_reads_of_distinct_members() {
        let traces = [trace("a", &[0, 1000, 2000]), trace("b", &[0, 1500])];
        let reads = [
            read(0, 2100, 2), // no partner yet
            read(0, 2101, 2), // same key: no partner
            read(1, 2105, 0), // pairs with a@2101: 500 ms gap > δ
            read(1, 2106, 1), // pairs with a@2101 (other): consistent
            read(0, 2200, 2), // b@2106 is 94 ms back: outside the window
            read(1, 2205, 1), // pairs with a@2200: consistent
        ];
        assert_eq!(mt_fidelity(&reads, &traces, |_| true, 100, 10), (2, 3));
    }
}
