//! Each replica's requests in a flat exact fleet, read back from the
//! fleet's merged log and its dispatch log: a replica report keeps no
//! timelines of its own.

use rago_serving_sim::engine::RequestTimeline;
use rago_serving_sim::FleetReport;
use std::collections::HashMap;

/// Each replica's requests (indexed like [`FleetReport::per_replica`]), in
/// its dispatch order: each request is read from the merged log under its
/// *last* dispatch, since a crash that re-queues a request dispatches it
/// again. Ids must be unique; a request that never completed is left out.
pub fn replica_requests(fleet: &FleetReport) -> Vec<Vec<&RequestTimeline>> {
    let log: HashMap<u64, &RequestTimeline> =
        fleet.merged.timelines.iter().map(|t| (t.id, t)).collect();
    let last: HashMap<u64, usize> = fleet
        .assignments
        .iter()
        .enumerate()
        .map(|(k, &(id, _))| (id, k))
        .collect();
    let mut requests = vec![Vec::new(); fleet.per_replica.len()];
    for (k, &(id, slot)) in fleet.assignments.iter().enumerate() {
        if last[&id] == k {
            requests[slot].extend(log.get(&id).copied());
        }
    }
    requests
}
