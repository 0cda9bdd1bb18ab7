//! Jobs, nodes, and the PBS server state machine.

use crate::{PbsError, Result};
use std::collections::BTreeMap;

/// Job identifier (monotonic, like PBS sequence numbers).
pub type JobId = u64;

/// A node's availability from the workload manager's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Idle and schedulable.
    Free,
    /// Running part of a job.
    Busy,
    /// Administratively removed from scheduling (draining for
    /// reinstallation); running work is allowed to finish.
    Offline,
    /// Down — being reinstalled or failed.
    Down,
}

/// Job lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for nodes.
    Queued,
    /// Running on the named nodes since `started_at`.
    Running {
        /// Assigned node names.
        nodes: Vec<String>,
        /// Start time (seconds).
        started_at: f64,
    },
    /// Finished at the recorded time.
    Done {
        /// Completion time (seconds).
        finished_at: f64,
    },
}

/// One batch job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Human name (`qsub -N`).
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Requested walltime in seconds (jobs run exactly this long in the
    /// model — PBS kills at the limit anyway).
    pub walltime_s: f64,
    /// Submission time.
    pub submitted_at: f64,
    /// Current state.
    pub state: JobState,
}

impl Job {
    /// When a running job will finish.
    pub fn finish_time(&self) -> Option<f64> {
        match &self.state {
            JobState::Running { started_at, .. } => Some(started_at + self.walltime_s),
            _ => None,
        }
    }
}

/// The PBS server: node table + job table + a caller-advanced clock.
#[derive(Debug, Default)]
pub struct PbsServer {
    nodes: BTreeMap<String, NodeState>,
    jobs: BTreeMap<JobId, Job>,
    next_id: JobId,
    now: f64,
}

impl PbsServer {
    /// An empty server at t=0.
    pub fn new() -> PbsServer {
        PbsServer { next_id: 1, ..Default::default() }
    }

    /// Register a node (initially free).
    pub fn add_node(&mut self, name: &str) {
        self.nodes.insert(name.to_string(), NodeState::Free);
    }

    /// Current time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Node names in order.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    /// A node's state.
    pub fn node_state(&self, name: &str) -> Result<NodeState> {
        self.nodes.get(name).copied().ok_or_else(|| PbsError::NoSuchNode(name.to_string()))
    }

    /// Set a node's state directly (reinstall integration).
    pub fn set_node_state(&mut self, name: &str, state: NodeState) -> Result<()> {
        match self.nodes.get_mut(name) {
            Some(slot) => {
                *slot = state;
                Ok(())
            }
            None => Err(PbsError::NoSuchNode(name.to_string())),
        }
    }

    /// Nodes currently in `state`.
    pub fn nodes_in_state(&self, state: NodeState) -> Vec<String> {
        self.nodes.iter().filter(|(_, s)| **s == state).map(|(n, _)| n.clone()).collect()
    }

    /// Submit a job (`qsub`). Returns its id.
    pub fn qsub(&mut self, name: &str, nodes: usize, walltime_s: f64) -> Result<JobId> {
        if nodes > self.nodes.len() {
            return Err(PbsError::TooLarge { requested: nodes, cluster: self.nodes.len() });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                name: name.to_string(),
                nodes,
                walltime_s,
                submitted_at: self.now,
                state: JobState::Queued,
            },
        );
        Ok(id)
    }

    /// Query a job (`qstat`).
    pub fn job(&self, id: JobId) -> Result<&Job> {
        self.jobs.get(&id).ok_or(PbsError::NoSuchJob(id))
    }

    /// All jobs, by id.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Queued jobs in submission order.
    pub fn queued(&self) -> Vec<JobId> {
        let mut queued: Vec<&Job> =
            self.jobs.values().filter(|j| matches!(j.state, JobState::Queued)).collect();
        queued.sort_by(|a, b| {
            a.submitted_at
                .partial_cmp(&b.submitted_at)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        queued.iter().map(|j| j.id).collect()
    }

    /// Start a queued job on specific nodes (the scheduler calls this).
    pub(crate) fn start_job(&mut self, id: JobId, node_names: Vec<String>) -> Result<()> {
        for n in &node_names {
            if self.node_state(n)? != NodeState::Free {
                return Err(PbsError::BadState("node not free"));
            }
        }
        let job = self.jobs.get_mut(&id).ok_or(PbsError::NoSuchJob(id))?;
        if !matches!(job.state, JobState::Queued) {
            return Err(PbsError::BadState("job not queued"));
        }
        job.state = JobState::Running { nodes: node_names.clone(), started_at: self.now };
        for n in node_names {
            self.nodes.insert(n, NodeState::Busy);
        }
        Ok(())
    }

    /// Advance the clock, completing any jobs whose walltime elapsed.
    /// Busy nodes return to `Free` — unless they were marked `Offline`
    /// while running (draining), in which case they stay out of service.
    /// Returns ids of jobs that completed.
    pub fn advance_to(&mut self, t: f64) -> Vec<JobId> {
        assert!(t >= self.now, "time cannot run backwards");
        self.now = t;
        let mut finished = Vec::new();
        let ids: Vec<JobId> = self.jobs.keys().copied().collect();
        for id in ids {
            let (done, nodes) = {
                let job = &self.jobs[&id];
                match (&job.state, job.finish_time()) {
                    (JobState::Running { nodes, .. }, Some(end)) if end <= t => {
                        (true, nodes.clone())
                    }
                    _ => (false, Vec::new()),
                }
            };
            if done {
                let end = self.jobs[&id].finish_time().expect("running job has an end");
                self.jobs.get_mut(&id).expect("exists").state = JobState::Done { finished_at: end };
                for n in nodes {
                    let slot = self.nodes.get_mut(&n).expect("job nodes exist");
                    if *slot == NodeState::Busy {
                        *slot = NodeState::Free;
                    }
                    // Offline (draining) and Down stay as they are.
                }
                finished.push(id);
            }
        }
        finished
    }

    /// The running job currently occupying `name`, if any. Lets the
    /// rollout orchestrator rank drain candidates by when they come free.
    pub fn job_on_node(&self, name: &str) -> Option<&Job> {
        self.jobs.values().find(|j| {
            matches!(&j.state, JobState::Running { nodes, .. } if nodes.iter().any(|n| n == name))
        })
    }

    /// Whether any running job currently occupies `name`. Needed because
    /// a draining node keeps running its job: `Offline` state alone does
    /// not mean the node is idle.
    pub fn node_running_job(&self, name: &str) -> bool {
        self.job_on_node(name).is_some()
    }

    /// Earliest finish time among running jobs, if any — the scheduler's
    /// event horizon.
    pub fn next_completion(&self) -> Option<f64> {
        self.jobs
            .values()
            .filter_map(|j| j.finish_time())
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
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
    fn qsub_qstat_lifecycle() {
        let mut s = server(4);
        let id = s.qsub("namd-run", 2, 100.0).unwrap();
        assert!(matches!(s.job(id).unwrap().state, JobState::Queued));
        s.start_job(id, vec!["compute-0-0".into(), "compute-0-1".into()]).unwrap();
        assert_eq!(s.node_state("compute-0-0").unwrap(), NodeState::Busy);
        let finished = s.advance_to(100.0);
        assert_eq!(finished, vec![id]);
        assert!(matches!(s.job(id).unwrap().state, JobState::Done { .. }));
        assert_eq!(s.node_state("compute-0-0").unwrap(), NodeState::Free);
    }

    #[test]
    fn oversized_job_rejected() {
        let mut s = server(2);
        assert!(matches!(
            s.qsub("big", 3, 10.0),
            Err(PbsError::TooLarge { requested: 3, cluster: 2 })
        ));
    }

    #[test]
    fn draining_node_does_not_return_to_free() {
        let mut s = server(2);
        let id = s.qsub("j", 1, 50.0).unwrap();
        s.start_job(id, vec!["compute-0-0".into()]).unwrap();
        // Drain while running: Offline overrides the busy→free return.
        s.set_node_state("compute-0-0", NodeState::Offline).unwrap();
        s.advance_to(50.0);
        assert_eq!(s.node_state("compute-0-0").unwrap(), NodeState::Offline);
    }

    #[test]
    fn queued_order_is_fifo_by_submission() {
        let mut s = server(4);
        let a = s.qsub("a", 1, 10.0).unwrap();
        s.advance_to(1.0);
        let b = s.qsub("b", 1, 10.0).unwrap();
        assert_eq!(s.queued(), vec![a, b]);
    }

    #[test]
    fn next_completion_tracks_running_jobs() {
        let mut s = server(2);
        assert_eq!(s.next_completion(), None);
        let a = s.qsub("a", 1, 30.0).unwrap();
        let b = s.qsub("b", 1, 10.0).unwrap();
        s.start_job(a, vec!["compute-0-0".into()]).unwrap();
        s.start_job(b, vec!["compute-0-1".into()]).unwrap();
        assert_eq!(s.next_completion(), Some(10.0));
    }
}
