//! The Maui-like scheduler: FIFO priority with conservative backfill.
//!
//! Maui's "rich scheduling functionality" (§4.1) — the piece that matters
//! for the paper's workflows — is backfill: the head of the queue gets a
//! *reservation* at the earliest time enough nodes will be free, and
//! smaller jobs may jump ahead only if they provably finish before that
//! reservation.

use crate::server::{JobId, JobState, NodeState, PbsServer};

/// One scheduling pass at the server's current time. Starts every job
/// that can start now under FIFO + conservative backfill. Returns the
/// ids started.
pub fn schedule(server: &mut PbsServer) -> Vec<JobId> {
    let mut started = Vec::new();
    loop {
        let free: Vec<String> = server.nodes_in_state(NodeState::Free);
        let queue = server.queued();
        let Some(&head) = queue.first() else { break };
        let head_nodes = server.job(head).expect("queued job exists").nodes;

        if head_nodes <= free.len() {
            // Head starts immediately.
            let assigned: Vec<String> = free.into_iter().take(head_nodes).collect();
            server.start_job(head, assigned).expect("nodes are free");
            started.push(head);
            continue;
        }

        // Head cannot start: compute its reservation, then try backfill.
        let Some(reservation) = reservation_time(server, head_nodes) else {
            // Not enough capacity will ever free up (draining shrank the
            // cluster); nothing more to do this pass.
            break;
        };

        let mut any_backfilled = false;
        for &candidate in queue.iter().skip(1) {
            let job = server.job(candidate).expect("queued job exists");
            let free_now = server.nodes_in_state(NodeState::Free);
            if job.nodes <= free_now.len() && server.now() + job.walltime_s <= reservation + 1e-9 {
                let assigned: Vec<String> = free_now.into_iter().take(job.nodes).collect();
                server.start_job(candidate, assigned).expect("nodes are free");
                started.push(candidate);
                any_backfilled = true;
            }
        }
        if !any_backfilled {
            break;
        }
        // Backfill may have consumed nodes; loop to re-evaluate (the head
        // still cannot start — backfill never delays the reservation).
        break;
    }
    started
}

/// Earliest time at which `wanted` nodes will be simultaneously free,
/// assuming running jobs end at their walltime and no new work arrives.
/// `None` if the schedulable node count can never reach `wanted`.
fn reservation_time(server: &PbsServer, wanted: usize) -> Option<f64> {
    let mut free = server.nodes_in_state(NodeState::Free).len();
    if free >= wanted {
        return Some(server.now());
    }
    // Sort running jobs by finish time; nodes return as jobs end (unless
    // the node is draining).
    let mut endings: Vec<(f64, usize)> = server
        .jobs()
        .filter_map(|j| match &j.state {
            JobState::Running { nodes, .. } => {
                let returning = nodes
                    .iter()
                    .filter(|n| server.node_state(n).map(|s| s == NodeState::Busy).unwrap_or(false))
                    .count();
                j.finish_time().map(|t| (t, returning))
            }
            _ => None,
        })
        .collect();
    endings.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for (t, returning) in endings {
        free += returning;
        if free >= wanted {
            return Some(t);
        }
    }
    None
}

/// Rank `among` by how soon each node can be handed to the installer and
/// return up to `k` names: idle nodes first (they drain instantly), then
/// busy nodes by their running job's finish time, then nodes already out
/// of scheduling (`Offline`/`Down`) last. Ties break by name so drain
/// selection is deterministic. This is the rollout orchestrator's
/// drain-target policy: it minimizes the time reinstall capacity sits
/// idle waiting for jobs to finish.
pub(crate) fn drain_candidates(server: &PbsServer, among: &[String], k: usize) -> Vec<String> {
    let mut ranked: Vec<(f64, String)> = among
        .iter()
        .filter_map(|name| {
            let release = match server.node_state(name).ok()? {
                NodeState::Free => server.now(),
                NodeState::Busy => {
                    server.job_on_node(name).and_then(|j| j.finish_time()).unwrap_or(f64::INFINITY)
                }
                NodeState::Offline | NodeState::Down => f64::INFINITY,
            };
            Some((release, name.clone()))
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.1.cmp(&b.1))
    });
    ranked.truncate(k);
    ranked.into_iter().map(|(_, name)| name).collect()
}

/// Run the cluster forward: repeatedly schedule, then jump to the next
/// job completion, until the queue drains or nothing can make progress.
/// Returns the time the last job finished.
pub fn run_to_completion(server: &mut PbsServer) -> f64 {
    loop {
        schedule(server);
        match server.next_completion() {
            Some(t) => {
                server.advance_to(t);
            }
            None => {
                // Nothing running. If jobs remain queued they are stuck
                // (cluster shrank); stop either way.
                return server.now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(n: usize) -> PbsServer {
        let mut s = PbsServer::new();
        for i in 0..n {
            s.add_node(&format!("compute-0-{i}"));
        }
        s
    }

    #[test]
    fn fifo_start_order() {
        let mut s = server(4);
        let a = s.qsub("a", 2, 100.0).unwrap();
        let b = s.qsub("b", 2, 100.0).unwrap();
        let c = s.qsub("c", 2, 100.0).unwrap();
        let started = schedule(&mut s);
        assert_eq!(started, vec![a, b]);
        assert!(matches!(s.job(c).unwrap().state, JobState::Queued));
    }

    #[test]
    fn backfill_small_job_jumps_ahead_without_delaying_head() {
        let mut s = server(4);
        // Fill 3 of 4 nodes for 100 s.
        let running = s.qsub("big-running", 3, 100.0).unwrap();
        schedule(&mut s);
        assert!(matches!(s.job(running).unwrap().state, JobState::Running { .. }));
        // Head needs all 4 → reservation at t=100.
        let head = s.qsub("head", 4, 50.0).unwrap();
        // A 1-node 80 s job fits before t=100 on the free node.
        let filler = s.qsub("filler", 1, 80.0).unwrap();
        // A 1-node 200 s job would delay the head: must NOT start.
        let blocker = s.qsub("blocker", 1, 200.0).unwrap();
        let started = schedule(&mut s);
        assert_eq!(started, vec![filler]);
        assert!(matches!(s.job(head).unwrap().state, JobState::Queued));
        assert!(matches!(s.job(blocker).unwrap().state, JobState::Queued));

        // When the big job ends, the head starts.
        s.advance_to(100.0);
        let started = schedule(&mut s);
        assert_eq!(started, vec![head]);
    }

    #[test]
    fn run_to_completion_drains_queue() {
        let mut s = server(2);
        for i in 0..5 {
            s.qsub(&format!("j{i}"), 1, 10.0 + i as f64).unwrap();
        }
        let end = run_to_completion(&mut s);
        assert!(s.queued().is_empty());
        assert!(s.jobs().all(|j| matches!(j.state, JobState::Done { .. })));
        // 5 jobs on 2 nodes, ~10-14 s each → ends around 34-38 s.
        assert!((30.0..45.0).contains(&end), "end {end}");
    }

    #[test]
    fn draining_cluster_strands_oversized_head() {
        let mut s = server(4);
        for i in 0..3 {
            s.set_node_state(&format!("compute-0-{i}"), NodeState::Offline).unwrap();
        }
        let head = s.qsub("needs-2", 2, 10.0).unwrap();
        let started = schedule(&mut s);
        assert!(started.is_empty());
        assert!(matches!(s.job(head).unwrap().state, JobState::Queued));
    }

    #[test]
    fn drain_candidates_prefer_idle_then_earliest_finish() {
        let mut s = server(4);
        // compute-0-0 busy until t=100, compute-0-1 busy until t=30,
        // compute-0-2 free, compute-0-3 already down.
        let long = s.qsub("long", 1, 100.0).unwrap();
        s.start_job(long, vec!["compute-0-0".into()]).unwrap();
        let short = s.qsub("short", 1, 30.0).unwrap();
        s.start_job(short, vec!["compute-0-1".into()]).unwrap();
        s.set_node_state("compute-0-3", NodeState::Down).unwrap();
        let among = s.node_names();
        let picks = drain_candidates(&s, &among, 3);
        assert_eq!(picks, vec!["compute-0-2", "compute-0-1", "compute-0-0"]);
        // k larger than the candidate set returns everything, ranked.
        assert_eq!(drain_candidates(&s, &among, 10).len(), 4);
    }

    #[test]
    fn reservation_accounts_for_draining_nodes() {
        let mut s = server(2);
        let a = s.qsub("a", 2, 50.0).unwrap();
        schedule(&mut s);
        // Drain one node mid-run: when `a` ends only one node returns.
        s.set_node_state("compute-0-0", NodeState::Offline).unwrap();
        let head = s.qsub("wants-2", 2, 10.0).unwrap();
        // Head can never get 2 nodes; nothing starts, nothing panics.
        s.advance_to(50.0);
        let started = schedule(&mut s);
        assert!(started.is_empty());
        assert!(matches!(s.job(head).unwrap().state, JobState::Queued));
        assert!(matches!(s.job(a).unwrap().state, JobState::Done { .. }));
    }
}
