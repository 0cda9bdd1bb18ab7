//! Per-node agents: a thread with a small command interpreter and a
//! process table.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// What one command execution produced on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentCommandOutcome {
    /// Stdout lines in order.
    pub stdout: Vec<String>,
    /// Stderr lines in order.
    pub stderr: Vec<String>,
    /// Exit status (0 success; 130 signal-interrupted, like a shell).
    pub exit: i32,
}

/// A request sent to the agent thread.
pub(crate) struct ExecRequest {
    pub command: String,
    pub env: BTreeMap<String, String>,
    pub stdout: Sender<String>,
    pub stderr: Sender<String>,
    pub signals: Receiver<Signal>,
    pub done: Sender<i32>,
}

/// A simulated cluster node: hostname, environment, process table, and a
/// worker thread interpreting commands.
pub struct NodeAgent {
    name: String,
    tx: Sender<ExecRequest>,
    /// Long-lived "processes" on the node — what cluster-kill targets.
    procs: Arc<Mutex<BTreeMap<u32, String>>>,
    next_pid: Arc<Mutex<u32>>,
    worker: Option<JoinHandle<()>>,
}

impl NodeAgent {
    /// Start an agent named `name` (the node's hostname).
    pub fn start(name: &str) -> NodeAgent {
        let (tx, rx) = channel::<ExecRequest>();
        let procs: Arc<Mutex<BTreeMap<u32, String>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let next_pid = Arc::new(Mutex::new(1000u32));
        let worker_name = name.to_string();
        let worker_procs = Arc::clone(&procs);
        let worker_next_pid = Arc::clone(&next_pid);
        let worker = std::thread::spawn(move || {
            while let Ok(request) = rx.recv() {
                let exit = interpret(&worker_name, &worker_procs, &worker_next_pid, &request);
                let _ = request.done.send(exit);
            }
        });
        NodeAgent { name: name.to_string(), tx, procs, next_pid, worker: Some(worker) }
    }

    /// The node's hostname.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submit a command (used by [`crate::exec::Rexec`]).
    pub(crate) fn submit(&self, request: ExecRequest) {
        let _ = self.tx.send(request);
    }

    /// Directly spawn a background "process" (test setup for
    /// cluster-kill scenarios).
    pub fn spawn_process(&self, name: &str) -> u32 {
        let mut pid_slot = self.next_pid.lock();
        *pid_slot += 1;
        let pid = *pid_slot;
        self.procs.lock().insert(pid, name.to_string());
        pid
    }

    /// Names of processes currently on the node.
    pub fn process_names(&self) -> Vec<String> {
        self.procs.lock().values().cloned().collect()
    }
}

impl Drop for NodeAgent {
    fn drop(&mut self) {
        // Close the request channel, then join the worker.
        let (tx, _rx) = channel();
        self.tx = tx;
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

/// The command interpreter. Commands mirror the small utilities Rocks
/// administrators run across nodes:
///
/// * `hostname` — print the node name,
/// * `echo ...` — print arguments,
/// * `printenv [VAR]` — show the propagated environment,
/// * `ps` — list the process table,
/// * `start <name>` — register a long-running process,
/// * `pkill <name>` — kill matching processes, print the count,
/// * `sleep <ms>` — sleep, interruptible by a forwarded signal,
/// * `false` — exit 1,
/// * anything else — exit 127 with an error on stderr.
fn interpret(
    node: &str,
    procs: &Arc<Mutex<BTreeMap<u32, String>>>,
    next_pid: &Arc<Mutex<u32>>,
    request: &ExecRequest,
) -> i32 {
    let mut parts = request.command.split_whitespace();
    let program = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();
    match program {
        "hostname" => {
            let _ = request.stdout.send(node.to_string());
            0
        }
        "echo" => {
            let _ = request.stdout.send(args.join(" "));
            0
        }
        "printenv" => match args.first() {
            Some(var) => match request.env.get(*var) {
                Some(value) => {
                    let _ = request.stdout.send(value.clone());
                    0
                }
                None => 1,
            },
            None => {
                for (k, v) in &request.env {
                    let _ = request.stdout.send(format!("{k}={v}"));
                }
                0
            }
        },
        "ps" => {
            for (pid, name) in procs.lock().iter() {
                let _ = request.stdout.send(format!("{pid} {name}"));
            }
            0
        }
        "start" => match args.first() {
            Some(name) => {
                let mut pid_slot = next_pid.lock();
                *pid_slot += 1;
                let pid = *pid_slot;
                procs.lock().insert(pid, name.to_string());
                let _ = request.stdout.send(format!("{pid}"));
                0
            }
            None => {
                let _ = request.stderr.send("start: missing process name".into());
                2
            }
        },
        "pkill" => match args.first() {
            Some(name) => {
                let mut table = procs.lock();
                let victims: Vec<u32> =
                    table.iter().filter(|(_, n)| n == name).map(|(pid, _)| *pid).collect();
                for pid in &victims {
                    table.remove(pid);
                }
                let _ = request.stdout.send(format!("killed {}", victims.len()));
                if victims.is_empty() {
                    1
                } else {
                    0
                }
            }
            None => {
                let _ = request.stderr.send("pkill: missing pattern".into());
                2
            }
        },
        "sleep" => {
            let ms: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0);
            let deadline = std::time::Instant::now() + Duration::from_millis(ms);
            while std::time::Instant::now() < deadline {
                match request.signals.try_recv() {
                    Ok(_signal) => {
                        let _ = request.stderr.send(format!("{node}: interrupted"));
                        return 130;
                    }
                    Err(TryRecvError::Empty) => std::thread::sleep(Duration::from_millis(1)),
                    Err(TryRecvError::Disconnected) => break,
                }
            }
            0
        }
        "false" => 1,
        "" => 0,
        other => {
            let _ = request.stderr.send(format!("{node}: {other}: command not found"));
            127
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(agent: &NodeAgent, command: &str) -> AgentCommandOutcome {
        run_env(agent, command, BTreeMap::new())
    }

    fn run_env(
        agent: &NodeAgent,
        command: &str,
        env: BTreeMap<String, String>,
    ) -> AgentCommandOutcome {
        let (out_tx, out_rx) = channel();
        let (err_tx, err_rx) = channel();
        let (_sig_tx, sig_rx) = channel();
        let (done_tx, done_rx) = channel();
        agent.submit(ExecRequest {
            command: command.to_string(),
            env,
            stdout: out_tx,
            stderr: err_tx,
            signals: sig_rx,
            done: done_tx,
        });
        let exit = done_rx.recv_timeout(Duration::from_secs(5)).expect("command finishes");
        AgentCommandOutcome {
            stdout: out_rx.try_iter().collect(),
            stderr: err_rx.try_iter().collect(),
            exit,
        }
    }

    #[test]
    fn hostname_and_echo() {
        let agent = NodeAgent::start("compute-0-3");
        assert_eq!(run(&agent, "hostname").stdout, vec!["compute-0-3"]);
        assert_eq!(run(&agent, "echo a b  c").stdout, vec!["a b c"]);
    }

    #[test]
    fn env_propagation() {
        let agent = NodeAgent::start("n");
        let mut env = BTreeMap::new();
        env.insert("USER".to_string(), "bruno".to_string());
        env.insert("PWD".to_string(), "/home/bruno".to_string());
        let outcome = run_env(&agent, "printenv USER", env.clone());
        assert_eq!(outcome.stdout, vec!["bruno"]);
        let outcome = run_env(&agent, "printenv", env);
        assert_eq!(outcome.stdout, vec!["PWD=/home/bruno", "USER=bruno"]);
        assert_eq!(run(&agent, "printenv MISSING").exit, 1);
    }

    #[test]
    fn process_table_start_ps_pkill() {
        let agent = NodeAgent::start("n");
        run(&agent, "start bad-job");
        run(&agent, "start bad-job");
        run(&agent, "start good-job");
        assert_eq!(agent.process_names(), vec!["bad-job", "bad-job", "good-job"]);
        let outcome = run(&agent, "pkill bad-job");
        assert_eq!(outcome.stdout, vec!["killed 2"]);
        assert_eq!(outcome.exit, 0);
        assert_eq!(agent.process_names(), vec!["good-job"]);
        assert_eq!(run(&agent, "pkill bad-job").exit, 1); // nothing left
    }

    #[test]
    fn unknown_command_exits_127() {
        let agent = NodeAgent::start("n");
        let outcome = run(&agent, "frobnicate --now");
        assert_eq!(outcome.exit, 127);
        assert!(outcome.stderr[0].contains("command not found"));
    }

    #[test]
    fn sleep_completes_without_signal() {
        let agent = NodeAgent::start("n");
        assert_eq!(run(&agent, "sleep 5").exit, 0);
    }

    #[test]
    fn sleep_interrupted_by_signal() {
        let agent = NodeAgent::start("n");
        let (out_tx, _out_rx) = channel();
        let (err_tx, err_rx) = channel();
        let (sig_tx, sig_rx) = channel();
        let (done_tx, done_rx) = channel();
        agent.submit(ExecRequest {
            command: "sleep 10000".into(),
            env: BTreeMap::new(),
            stdout: out_tx,
            stderr: err_tx,
            signals: sig_rx,
            done: done_tx,
        });
        std::thread::sleep(Duration::from_millis(20));
        sig_tx.send(Signal::Int).unwrap();
        let exit = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(exit, 130);
        let errs: Vec<String> = err_rx.try_iter().collect();
        assert!(errs[0].contains("interrupted"));
    }
}
