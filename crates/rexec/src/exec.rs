//! The rexec client: fan-out in node order with per-node-labelled I/O and
//! signal forwarding.

use crate::agent::{NodeAgent, Signal};
use std::collections::BTreeMap;

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
    /// Output grouped by node, in the order the nodes were given; within
    /// a node, in the order its command wrote it.
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
#[derive(Debug)]
pub struct RunningJob {
    /// One started command per node, in dispatch order: its node, what it
    /// has written, and its exit code (`None` while it sleeps).
    commands: Vec<(String, Vec<NodeOutput>, Option<i32>)>,
}

impl RunningJob {
    /// Forward a signal to every node's process (paper: "remote
    /// forwarding of signals"). A still-sleeping command ends with exit
    /// 130 and says so on stderr; a finished one is unaffected.
    pub fn signal(&mut self, _signal: Signal) {
        for (node, output, exit) in &mut self.commands {
            if exit.is_none() {
                let line = format!("{node}: interrupted");
                output.push(NodeOutput { node: node.clone(), stream: Stream::Stderr, line });
                *exit = Some(130);
            }
        }
    }

    /// Let every still-sleeping command run out (exit 0) and collect the
    /// output.
    pub fn wait(self) -> ParallelResult {
        let mut result = ParallelResult { output: Vec::new(), exits: Vec::new() };
        for (node, output, exit) in self.commands {
            result.output.extend(output);
            result.exits.push((node, exit.unwrap_or(0)));
        }
        result
    }
}

/// Start `command` on each of `nodes`, in the order given, propagating
/// `env`; a name given twice runs twice. Every name is checked before any
/// node runs anything: `Err` carries the first one `agents` lacks.
pub fn dispatch(
    agents: &mut BTreeMap<String, NodeAgent>,
    nodes: &[String],
    command: &str,
    env: &ExecEnv,
) -> Result<RunningJob, String> {
    if let Some(unknown) = nodes.iter().find(|n| !agents.contains_key(*n)) {
        return Err(unknown.clone());
    }
    let env = env.to_agent_env();
    let commands = nodes
        .iter()
        .map(|node| {
            let agent = agents.get_mut(node).expect("every name was checked");
            let (lines, exit) = agent.interpret(command, &env);
            let output = lines
                .into_iter()
                .map(|(stream, line)| NodeOutput { node: node.clone(), stream, line })
                .collect();
            (node.clone(), output, exit)
        })
        .collect();
    Ok(RunningJob { commands })
}

/// Run `command` to completion on each of `nodes`: [`dispatch`], then
/// [`RunningJob::wait`].
pub fn run(
    agents: &mut BTreeMap<String, NodeAgent>,
    nodes: &[String],
    command: &str,
    env: &ExecEnv,
) -> Result<ParallelResult, String> {
    Ok(dispatch(agents, nodes, command, env)?.wait())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` fresh agents and their names, in order.
    fn agents(n: usize) -> (BTreeMap<String, NodeAgent>, Vec<String>) {
        let names: Vec<String> = (0..n).map(|i| format!("compute-0-{i}")).collect();
        (names.iter().map(|name| (name.clone(), NodeAgent::start(name))).collect(), names)
    }

    #[test]
    fn parallel_hostname_reaches_all_nodes() {
        let (mut agents, names) = agents(4);
        let result = run(&mut agents, &names, "hostname", &ExecEnv::default()).unwrap();
        assert!(result.all_ok());
        assert_eq!(result.exits.len(), 4);
        for name in &names {
            assert_eq!(result.stdout_of(name), vec![name.as_str()]);
        }
    }

    #[test]
    fn environment_is_propagated_to_every_node() {
        let (mut agents, names) = agents(2);
        let mut env = ExecEnv { uid: 1234, ..Default::default() };
        env.vars.insert("JOB".to_string(), "namd".to_string());
        env.cwd = "/export/home/science".to_string();
        let result = run(&mut agents, &names, "printenv JOB", &env).unwrap();
        assert!(result.all_ok());
        assert_eq!(result.stdout_of("compute-0-0"), vec!["namd"]);
        let result = run(&mut agents, &names, "printenv PWD", &env).unwrap();
        assert_eq!(result.stdout_of("compute-0-1"), vec!["/export/home/science"]);
        let result = run(&mut agents, &names, "printenv UID", &env).unwrap();
        assert_eq!(result.stdout_of("compute-0-0"), vec!["1234"]);
    }

    #[test]
    fn exit_codes_are_per_node() {
        let (mut agents, names) = agents(2);
        // Only node 0 has the job.
        run(&mut agents, &names[..1], "start bad-job", &ExecEnv::default()).unwrap();
        let result = run(&mut agents, &names, "pkill bad-job", &ExecEnv::default()).unwrap();
        assert!(!result.all_ok());
        assert_eq!(result.exits, vec![("compute-0-0".into(), 0), ("compute-0-1".into(), 1)]);
    }

    #[test]
    fn signal_forwarding_interrupts_all_nodes() {
        let (mut agents, names) = agents(3);
        let mut job = dispatch(&mut agents, &names, "sleep 30000", &ExecEnv::default()).unwrap();
        job.signal(Signal::Int);
        let result = job.wait();
        let interrupted: Vec<(String, i32)> = names.iter().map(|n| (n.clone(), 130)).collect();
        assert_eq!(result.exits, interrupted);
        // Each node reported the interruption on stderr, in node order.
        let stderr: Vec<String> = names.iter().map(|n| format!("{n}: interrupted")).collect();
        let lines: Vec<&String> = result.output.iter().map(|o| &o.line).collect();
        assert_eq!(lines, stderr.iter().collect::<Vec<_>>());
        assert!(result.output.iter().all(|o| o.stream == Stream::Stderr));
        // The other signals interrupt the same way.
        for signal in [Signal::Term, Signal::Kill] {
            let mut job = dispatch(&mut agents, &names, "sleep 5", &ExecEnv::default()).unwrap();
            job.signal(signal);
            assert_eq!(job.wait().exits, interrupted);
        }
    }

    #[test]
    fn per_node_output_order_is_preserved() {
        let (mut agents, names) = agents(2);
        let result = run(&mut agents, &names, "printenv", &ExecEnv::default()).unwrap();
        // Grouped by node in the order given; BTreeMap order within a node.
        let lines: Vec<(&str, &str)> =
            result.output.iter().map(|o| (o.node.as_str(), &o.line[..4])).collect();
        assert_eq!(
            lines,
            vec![
                ("compute-0-0", "GID="),
                ("compute-0-0", "PWD="),
                ("compute-0-0", "UID="),
                ("compute-0-1", "GID="),
                ("compute-0-1", "PWD="),
                ("compute-0-1", "UID="),
            ]
        );
    }

    #[test]
    fn empty_node_set_is_a_noop() {
        let (mut agents, _) = agents(1);
        let result = run(&mut agents, &[], "hostname", &ExecEnv::default()).unwrap();
        assert!(result.all_ok());
        assert!(result.output.is_empty());
    }
}
