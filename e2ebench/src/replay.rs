//! Traced replays of a workload's own inputs through the `core` layer.

use mutcon_core::limd::{Limd, LimdConfig, PollResult};
use mutcon_core::mutual::temporal::{MtCoordinator, MtPolicy};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_traces::UpdateTrace;

use crate::spans::Tracer;

/// Replays LIMD (and, with a group, the Mt coordinator) over `traces`:
/// each object is polled at the TTR LIMD chose, a poll sees the trace's
/// state at its instant, and Mt triggers pull the named members' next
/// polls forward. One `core.limd_update` span per `Limd::on_poll` call
/// and one `core.mt_on_poll` span per `MtCoordinator::on_poll` call.
/// Stops at `until` or after `max_polls` polls.
pub fn core(
    tracer: &mut Tracer,
    traces: &[&UpdateTrace],
    delta: Duration,
    group: Option<(Duration, MtPolicy)>,
    until: Timestamp,
    max_polls: u64,
) {
    let config = LimdConfig::builder(delta)
        .ttr_max(delta * 64)
        .build()
        .expect("Δ is positive");
    let mut limds: Vec<Limd> = traces.iter().map(|_| Limd::new(config)).collect();
    let mut next: Vec<Timestamp> = traces.iter().map(|t| t.start()).collect();
    let mut last: Vec<Option<Timestamp>> = vec![None; traces.len()];
    let mut coordinator =
        group.map(|(delta, policy)| MtCoordinator::new(delta, policy, 0..traces.len()));
    for poll in 0..max_polls {
        let Some((i, at)) = next.iter().copied().enumerate().min_by_key(|&(_, t)| t) else {
            return;
        };
        if at > until {
            return;
        }
        let trace = traces[i];
        let current = trace.event_at(at).map_or(trace.start(), |e| e.at);
        let result = match last[i] {
            Some(prev) if trace.events_between(prev, at).is_empty() => PollResult::NotModified,
            _ => PollResult::modified(current),
        };
        last[i] = Some(at);
        let limd = &mut limds[i];
        let decision = tracer.time(0, poll, "core.limd_update", || limd.on_poll(at, &result));
        next[i] = at + decision.ttr;
        if let Some(coordinator) = coordinator.as_mut() {
            let triggered = tracer.time(0, poll, "core.mt_on_poll", || {
                coordinator.on_poll(&i, at, &result)
            });
            coordinator.record_scheduled_poll(&i, next[i]);
            for j in triggered {
                next[j] = next[j].min(at + Duration::from_millis(1));
            }
        }
    }
}
