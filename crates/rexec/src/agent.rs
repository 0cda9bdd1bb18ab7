//! Per-node agents: a process table and a small command interpreter.

use crate::exec::Stream;
use std::collections::BTreeMap;

/// Signals forwardable to remote processes (the REXEC feature the paper
/// calls out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Interrupt (Ctrl-C in the rexec terminal).
    Int,
    /// Terminate.
    Term,
    /// Kill (not catchable).
    Kill,
}

/// A simulated cluster node: its hostname and process table. Commands run
/// on the caller's thread, one at a time, through the node's interpreter.
#[derive(Debug)]
pub struct NodeAgent {
    name: String,
    /// Long-lived "processes" on the node — what cluster-kill targets.
    procs: BTreeMap<u32, String>,
    next_pid: u32,
}

impl NodeAgent {
    /// A freshly booted node named `name` (its hostname), with an empty
    /// process table.
    pub fn start(name: &str) -> NodeAgent {
        NodeAgent { name: name.to_string(), procs: BTreeMap::new(), next_pid: 1000 }
    }

    /// Names of processes currently on the node.
    pub fn process_names(&self) -> Vec<String> {
        self.procs.values().cloned().collect()
    }

    /// The command interpreter. Commands mirror the small utilities Rocks
    /// administrators run across nodes:
    ///
    /// * `hostname` — print the node name,
    /// * `echo ...` — print arguments,
    /// * `printenv [VAR]` — show the propagated environment,
    /// * `ps` — list the process table,
    /// * `start <name>` — register a long-running process, print its pid,
    /// * `pkill <name>` — kill matching processes, print the count,
    /// * `sleep <ms>` — sleep until the job is waited on or signalled,
    /// * `false` — exit 1,
    /// * anything else — exit 127 with an error on stderr.
    ///
    /// Returns the lines the command wrote, in order, and its exit code:
    /// `None` while a `sleep` is still running. A sleep's length is
    /// virtual, so nothing here waits.
    pub(crate) fn interpret(
        &mut self,
        command: &str,
        env: &BTreeMap<String, String>,
    ) -> (Vec<(Stream, String)>, Option<i32>) {
        use Stream::{Stderr, Stdout};
        let mut parts = command.split_whitespace();
        let program = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let mut lines = Vec::new();
        let exit = match program {
            "hostname" => {
                lines.push((Stdout, self.name.clone()));
                Some(0)
            }
            "echo" => {
                lines.push((Stdout, args.join(" ")));
                Some(0)
            }
            "printenv" => match args.first() {
                Some(var) => match env.get(*var) {
                    Some(value) => {
                        lines.push((Stdout, value.clone()));
                        Some(0)
                    }
                    None => Some(1),
                },
                None => {
                    lines.extend(env.iter().map(|(k, v)| (Stdout, format!("{k}={v}"))));
                    Some(0)
                }
            },
            "ps" => {
                lines
                    .extend(self.procs.iter().map(|(pid, name)| (Stdout, format!("{pid} {name}"))));
                Some(0)
            }
            "start" => match args.first() {
                Some(name) => {
                    self.next_pid += 1;
                    self.procs.insert(self.next_pid, name.to_string());
                    lines.push((Stdout, self.next_pid.to_string()));
                    Some(0)
                }
                None => {
                    lines.push((Stderr, "start: missing process name".into()));
                    Some(2)
                }
            },
            "pkill" => match args.first() {
                Some(name) => {
                    let before = self.procs.len();
                    self.procs.retain(|_, n| n != name);
                    let killed = before - self.procs.len();
                    lines.push((Stdout, format!("killed {killed}")));
                    Some(if killed == 0 { 1 } else { 0 })
                }
                None => {
                    lines.push((Stderr, "pkill: missing pattern".into()));
                    Some(2)
                }
            },
            "sleep" => match args.first().map(|ms| ms.parse::<u64>()) {
                Some(Ok(0)) => Some(0),
                Some(Ok(_)) => None,
                _ => {
                    lines.push((Stderr, "sleep: expected a duration in ms".into()));
                    Some(2)
                }
            },
            "false" => Some(1),
            "" => Some(0),
            other => {
                lines.push((Stderr, format!("{}: {other}: command not found", self.name)));
                Some(127)
            }
        };
        (lines, exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{dispatch, ExecEnv, NodeOutput, RunningJob};

    /// Lines of one stream, in order.
    fn stream(lines: &[(Stream, String)], which: Stream) -> Vec<&str> {
        lines.iter().filter(|(s, _)| *s == which).map(|(_, l)| l.as_str()).collect()
    }

    fn run(agent: &mut NodeAgent, command: &str) -> (Vec<(Stream, String)>, Option<i32>) {
        agent.interpret(command, &BTreeMap::new())
    }

    /// `command` started on a one-node cluster named `n`.
    fn job_on_one_node(command: &str) -> RunningJob {
        let mut agents = BTreeMap::from([("n".to_string(), NodeAgent::start("n"))]);
        dispatch(&mut agents, &["n".to_string()], command, &ExecEnv::default()).unwrap()
    }

    #[test]
    fn hostname_and_echo() {
        let mut agent = NodeAgent::start("compute-0-3");
        assert_eq!(
            run(&mut agent, "hostname"),
            (vec![(Stream::Stdout, "compute-0-3".into())], Some(0))
        );
        assert_eq!(
            run(&mut agent, "echo a b  c"),
            (vec![(Stream::Stdout, "a b c".into())], Some(0))
        );
    }

    #[test]
    fn env_propagation() {
        let mut agent = NodeAgent::start("n");
        let mut env = BTreeMap::new();
        env.insert("USER".to_string(), "bruno".to_string());
        env.insert("PWD".to_string(), "/home/bruno".to_string());
        let (lines, exit) = agent.interpret("printenv USER", &env);
        assert_eq!((stream(&lines, Stream::Stdout), exit), (vec!["bruno"], Some(0)));
        let (lines, _) = agent.interpret("printenv", &env);
        assert_eq!(stream(&lines, Stream::Stdout), vec!["PWD=/home/bruno", "USER=bruno"]);
        assert_eq!(agent.interpret("printenv MISSING", &env), (vec![], Some(1)));
    }

    #[test]
    fn process_table_start_ps_pkill() {
        let mut agent = NodeAgent::start("n");
        let (lines, _) = run(&mut agent, "start bad-job");
        assert_eq!(stream(&lines, Stream::Stdout), vec!["1001"]);
        run(&mut agent, "start bad-job");
        run(&mut agent, "start good-job");
        assert_eq!(agent.process_names(), vec!["bad-job", "bad-job", "good-job"]);
        let (lines, _) = run(&mut agent, "ps");
        assert_eq!(
            stream(&lines, Stream::Stdout),
            vec!["1001 bad-job", "1002 bad-job", "1003 good-job"]
        );
        let (lines, exit) = run(&mut agent, "pkill bad-job");
        assert_eq!((stream(&lines, Stream::Stdout), exit), (vec!["killed 2"], Some(0)));
        assert_eq!(agent.process_names(), vec!["good-job"]);
        assert_eq!(run(&mut agent, "pkill bad-job").1, Some(1)); // nothing left
    }

    #[test]
    fn missing_or_bad_arguments_exit_2() {
        let mut agent = NodeAgent::start("n");
        for command in ["start", "pkill", "sleep", "sleep abc", "sleep -5"] {
            let (lines, exit) = run(&mut agent, command);
            assert_eq!(exit, Some(2), "{command}");
            let errors = stream(&lines, Stream::Stderr);
            let program = command.split(' ').next().unwrap();
            assert!(
                errors.len() == 1 && errors[0].starts_with(&format!("{program}: ")),
                "{command}: {errors:?}"
            );
        }
        assert!(agent.process_names().is_empty());
    }

    #[test]
    fn unknown_command_exits_127() {
        let mut agent = NodeAgent::start("n");
        let (lines, exit) = run(&mut agent, "frobnicate --now");
        assert_eq!(exit, Some(127));
        assert_eq!(stream(&lines, Stream::Stderr), vec!["n: frobnicate: command not found"]);
    }

    #[test]
    fn sleep_completes_without_signal() {
        // The interpreter leaves the sleep running; `wait` completes it.
        assert_eq!(run(&mut NodeAgent::start("n"), "sleep 10000"), (vec![], None));
        let result = job_on_one_node("sleep 10000").wait();
        assert_eq!(result.exits, vec![("n".to_string(), 0)]);
        assert!(result.output.is_empty());
    }

    #[test]
    fn sleep_interrupted_by_signal() {
        let mut job = job_on_one_node("sleep 10000");
        job.signal(Signal::Int);
        let result = job.wait();
        assert_eq!(result.exits, vec![("n".to_string(), 130)]);
        let interrupted =
            NodeOutput { node: "n".into(), stream: Stream::Stderr, line: "n: interrupted".into() };
        assert_eq!(result.output, vec![interrupted]);
        // A command that already finished is unaffected.
        let mut job = job_on_one_node("sleep 0");
        job.signal(Signal::Int);
        assert_eq!(job.wait().exits, vec![("n".to_string(), 0)]);
    }
}
