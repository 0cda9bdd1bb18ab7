//! The rexec client: parallel fan-out with multiplexed I/O and signal
//! forwarding.

use crate::agent::{ExecRequest, NodeAgent, Signal};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Which stream a line came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Standard output.
    Stdout,
    /// Standard error.
    Stderr,
}

/// One multiplexed output line, labelled with its origin node — the way
/// rexec prefixes parallel output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOutput {
    /// Node hostname.
    pub node: String,
    /// stdout or stderr.
    pub stream: Stream,
    /// Line text.
    pub line: String,
}

/// The local environment rexec propagates (paper §4.1: "environment
/// variables, user ID, group ID and current working directory").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecEnv {
    /// Environment variables.
    pub vars: BTreeMap<String, String>,
    /// Numeric user id.
    pub uid: u32,
    /// Numeric group id.
    pub gid: u32,
    /// Working directory.
    pub cwd: String,
}

impl Default for ExecEnv {
    fn default() -> Self {
        ExecEnv { vars: BTreeMap::new(), uid: 500, gid: 500, cwd: "/home/user".to_string() }
    }
}

impl ExecEnv {
    /// Flatten to the variable map handed to agents (uid/gid/cwd become
    /// the conventional variables).
    fn to_agent_env(&self) -> BTreeMap<String, String> {
        let mut env = self.vars.clone();
        env.insert("UID".to_string(), self.uid.to_string());
        env.insert("GID".to_string(), self.gid.to_string());
        env.insert("PWD".to_string(), self.cwd.clone());
        env
    }
}

/// Per-node exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelResult {
    /// Multiplexed output in arrival order (per-node order preserved).
    pub output: Vec<NodeOutput>,
    /// Exit status per node, in the order the nodes were given.
    pub exits: Vec<(String, i32)>,
}

impl ParallelResult {
    /// True when every node exited 0.
    pub fn all_ok(&self) -> bool {
        self.exits.iter().all(|(_, code)| *code == 0)
    }

    /// Stdout lines from one node, in order.
    pub fn stdout_of(&self, node: &str) -> Vec<&str> {
        self.output
            .iter()
            .filter(|o| o.node == node && o.stream == Stream::Stdout)
            .map(|o| o.line.as_str())
            .collect()
    }
}

/// A dispatched parallel job: signal it, then collect.
pub struct RunningJob {
    signal_txs: Vec<Sender<Signal>>,
    done_rxs: Vec<(String, Receiver<i32>)>,
    output_rx: Receiver<NodeOutput>,
}

impl RunningJob {
    /// Forward a signal to every node's process (paper: "remote
    /// forwarding of signals").
    pub fn signal(&self, signal: Signal) {
        for tx in &self.signal_txs {
            let _ = tx.send(signal);
        }
    }

    /// Wait for every node to finish and collect multiplexed output.
    pub fn wait(self, timeout: Duration) -> ParallelResult {
        let mut exits = Vec::new();
        for (node, rx) in &self.done_rxs {
            let code = rx.recv_timeout(timeout).unwrap_or(-1);
            exits.push((node.clone(), code));
        }
        // All nodes are done, but the multiplexer threads may still be
        // forwarding; read until every one has closed (the channel
        // disconnects) or the stream goes quiet.
        drop(self.signal_txs);
        let mut output = Vec::new();
        // Read until disconnected or quiet: everything flushed by then.
        while let Ok(line) = self.output_rx.recv_timeout(Duration::from_millis(500)) {
            output.push(line);
        }
        ParallelResult { output, exits }
    }
}

/// The rexec client over a set of node agents.
pub struct Rexec<'a> {
    nodes: Vec<&'a NodeAgent>,
}

impl<'a> Rexec<'a> {
    /// Target a node set (usually selected via the cluster database).
    pub fn new(nodes: Vec<&'a NodeAgent>) -> Rexec<'a> {
        Rexec { nodes }
    }

    /// Dispatch `command` on every node, propagating `env`. Returns a
    /// handle for signalling and collection.
    pub fn dispatch(&self, command: &str, env: &ExecEnv) -> RunningJob {
        let (output_tx, output_rx) = channel::<NodeOutput>();
        let mut signal_txs = Vec::new();
        let mut done_rxs = Vec::new();
        for agent in &self.nodes {
            let (sig_tx, sig_rx) = channel();
            let (done_tx, done_rx) = channel();
            // Adapter channels that label lines with the node name.
            let (out_tx, out_rx) = channel::<String>();
            let (err_tx, err_rx) = channel::<String>();
            let node = agent.name().to_string();
            // One forwarder thread per stream; each drains its channel
            // until the agent closes it. Per-stream line order is
            // preserved, which is all the multiplexer guarantees anyway.
            for (rx, stream) in [(out_rx, Stream::Stdout), (err_rx, Stream::Stderr)] {
                let mux = output_tx.clone();
                let mux_node = node.clone();
                std::thread::spawn(move || {
                    for line in rx.iter() {
                        let _ = mux.send(NodeOutput { node: mux_node.clone(), stream, line });
                    }
                });
            }
            agent.submit(ExecRequest {
                command: command.to_string(),
                env: env.to_agent_env(),
                stdout: out_tx,
                stderr: err_tx,
                signals: sig_rx,
                done: done_tx,
            });
            signal_txs.push(sig_tx);
            done_rxs.push((node, done_rx));
        }
        drop(output_tx);
        RunningJob { signal_txs, done_rxs, output_rx }
    }

    /// Run to completion with a default timeout.
    pub fn run(&self, command: &str, env: &ExecEnv) -> ParallelResult {
        self.dispatch(command, env).wait(Duration::from_secs(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agents(n: usize) -> Vec<NodeAgent> {
        (0..n).map(|i| NodeAgent::start(&format!("compute-0-{i}"))).collect()
    }

    #[test]
    fn parallel_hostname_reaches_all_nodes() {
        let agents = agents(4);
        let rexec = Rexec::new(agents.iter().collect());
        let result = rexec.run("hostname", &ExecEnv::default());
        assert!(result.all_ok());
        assert_eq!(result.exits.len(), 4);
        for agent in &agents {
            assert_eq!(result.stdout_of(agent.name()), vec![agent.name()]);
        }
    }

    #[test]
    fn environment_is_propagated_to_every_node() {
        let agents = agents(2);
        let rexec = Rexec::new(agents.iter().collect());
        let mut env = ExecEnv { uid: 1234, ..Default::default() };
        env.vars.insert("JOB".to_string(), "namd".to_string());
        env.cwd = "/export/home/science".to_string();
        let result = rexec.run("printenv JOB", &env);
        assert!(result.all_ok());
        assert_eq!(result.stdout_of("compute-0-0"), vec!["namd"]);
        let result = rexec.run("printenv PWD", &env);
        assert_eq!(result.stdout_of("compute-0-1"), vec!["/export/home/science"]);
        let result = rexec.run("printenv UID", &env);
        assert_eq!(result.stdout_of("compute-0-0"), vec!["1234"]);
    }

    #[test]
    fn exit_codes_are_per_node() {
        let agents = agents(2);
        agents[0].spawn_process("bad-job"); // only node 0 has the job
        let rexec = Rexec::new(agents.iter().collect());
        let result = rexec.run("pkill bad-job", &ExecEnv::default());
        assert!(!result.all_ok());
        let codes: BTreeMap<&str, i32> =
            result.exits.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        assert_eq!(codes["compute-0-0"], 0);
        assert_eq!(codes["compute-0-1"], 1);
    }

    #[test]
    fn signal_forwarding_interrupts_all_nodes() {
        let agents = agents(3);
        let rexec = Rexec::new(agents.iter().collect());
        let job = rexec.dispatch("sleep 30000", &ExecEnv::default());
        std::thread::sleep(Duration::from_millis(30));
        job.signal(Signal::Int);
        let result = job.wait(Duration::from_secs(5));
        assert_eq!(result.exits.len(), 3);
        assert!(result.exits.iter().all(|(_, code)| *code == 130), "{:?}", result.exits);
        // Each node reported the interruption on stderr.
        let interrupted = result
            .output
            .iter()
            .filter(|o| o.stream == Stream::Stderr && o.line.contains("interrupted"))
            .count();
        assert_eq!(interrupted, 3);
    }

    #[test]
    fn per_node_output_order_is_preserved() {
        let agents = agents(1);
        let rexec = Rexec::new(agents.iter().collect());
        let result = rexec.run("printenv", &ExecEnv::default());
        let lines = result.stdout_of("compute-0-0");
        // BTreeMap order: GID, PWD, UID.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("GID="));
        assert!(lines[1].starts_with("PWD="));
        assert!(lines[2].starts_with("UID="));
    }

    #[test]
    fn empty_node_set_is_a_noop() {
        let rexec = Rexec::new(vec![]);
        let result = rexec.run("hostname", &ExecEnv::default());
        assert!(result.all_ok());
        assert!(result.output.is_empty());
    }
}
