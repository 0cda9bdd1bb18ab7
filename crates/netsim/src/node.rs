//! The installing node's state machine.
//!
//! Mirrors what anaconda does on a Rocks compute node: power-on self
//! test, DHCP, fetch the generated Kickstart file over HTTP, format the
//! root partition, then alternate per-RPM download and install work,
//! run post-configuration (including the Myrinet GM source rebuild,
//! §6.3), and reboot. Every visible step emits an eKV progress line —
//! the text Figure 7 shows in the shoot-node xterm.
//!
//! With [`SimConfig::retry`] set, every HTTP fetch is additionally guarded
//! by the retrying install protocol: a watchdog deadline per attempt,
//! capped exponential backoff with deterministic jitter, and failover
//! across the configured install servers (see
//! [`RetryPolicy`](crate::config::RetryPolicy)).

use crate::config::SimConfig;
use crate::engine::{micros, Engine, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Installation phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Powered off.
    Off,
    /// BIOS / power-on self test — the window where an administrator is
    /// "in the dark" (§4).
    Post,
    /// DHCP exchange.
    Dhcp,
    /// Fetching the generated Kickstart file from the frontend CGI.
    KickstartFetch,
    /// Waiting out a retry backoff before re-requesting the kickstart
    /// file (retrying install protocol only).
    KickstartBackoff,
    /// Partitioning and formatting the root filesystem.
    Format,
    /// Downloading package `i`.
    Fetch(usize),
    /// Waiting out a retry backoff before re-downloading package `i`
    /// (retrying install protocol only).
    FetchBackoff(usize),
    /// Installing (unpacking) package `i`.
    Install(usize),
    /// Running %post configuration scripts.
    PostConfig,
    /// Rebuilding the Myrinet GM driver from source.
    MyrinetBuild,
    /// Final reboot into the installed system.
    Reboot,
    /// Installed and serving jobs.
    Up,
    /// Hung (failure injection); only a power cycle recovers it (§4).
    Hung,
    /// Gave up: every install server exhausted its retry budget. Only a
    /// power cycle (which grants a fresh budget) recovers it.
    Failed,
}

impl NodeState {
    /// Monotone install-progress rank within one power-on life: the
    /// chaos harness asserts this never decreases between events of the
    /// same life. A fetch and its backoff share a rank (a retry is not
    /// regress), and the terminal states rank above everything.
    pub fn phase_rank(&self) -> u32 {
        const TAIL: u32 = 1 << 24; // above any realistic package index
        match self {
            NodeState::Off => 0,
            NodeState::Post => 1,
            NodeState::Dhcp => 2,
            NodeState::KickstartFetch | NodeState::KickstartBackoff => 3,
            NodeState::Format => 4,
            NodeState::Fetch(i) | NodeState::FetchBackoff(i) => 5 + 2 * (*i as u32),
            NodeState::Install(i) => 6 + 2 * (*i as u32),
            NodeState::PostConfig => TAIL,
            NodeState::MyrinetBuild => TAIL + 1,
            NodeState::Reboot => TAIL + 2,
            NodeState::Up => TAIL + 3,
            NodeState::Hung | NodeState::Failed => u32::MAX,
        }
    }
}

/// What woke the node: a completed transfer or a fired timer. The FSM
/// needs the distinction once fetches carry watchdog timers — a timer in
/// a fetch state is a timeout, not a download.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// A flow tagged with this node's id completed.
    FlowDone,
    /// A timer tagged with this node's id fired.
    TimerFired,
}

/// What an HTTP fetch is asking for. Public so fetch backends (the
/// cabinet proxy of a [`FederatedSim`](crate::FederatedSim)) can key their
/// caches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchTarget {
    /// The per-node generated Kickstart file (frontend CGI; never
    /// cacheable — every node's file is different).
    Kickstart,
    /// Package `i` of the configured package set (cacheable byte-range).
    Package(usize),
}

/// How a backend answered a fetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStart {
    /// A transfer flow tagged with the node's id is now running; a
    /// `FlowDone` wakeup will follow.
    Started,
    /// The request is parked (cabinet proxy cache miss): the backend
    /// will start the flow once the bytes arrive from the upper tier.
    /// The watchdog, if configured, still guards the whole wait.
    Parked,
}

/// Where a node's HTTP fetches are served from. The flat backend starts
/// a flow straight to the install server (the flat topology);
/// the federated path substitutes a cabinet caching proxy that may park
/// the request on a cache miss.
pub trait FetchBackend {
    /// Begin serving `target` (`bytes` long) for the node tagged `tag`
    /// whose downloads traverse `route`.
    fn start_fetch(
        &mut self,
        engine: &mut Engine,
        tag: usize,
        route: &[usize],
        target: FetchTarget,
        bytes: u64,
        demand_bps: f64,
    ) -> FetchStart;

    /// Drop any parked request for `tag` (the node timed out, hung, or
    /// power-cycled while waiting on a cache fill).
    fn cancel_wait(&mut self, engine: &mut Engine, tag: usize);
}

/// The flat backend: every fetch is a flow straight over the node's
/// route. Byte-identical to the pre-federation behavior.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DirectFetch;

impl FetchBackend for DirectFetch {
    fn start_fetch(
        &mut self,
        engine: &mut Engine,
        tag: usize,
        route: &[usize],
        _target: FetchTarget,
        bytes: u64,
        demand_bps: f64,
    ) -> FetchStart {
        engine.start_flow_routed(route, tag, bytes, demand_bps);
        FetchStart::Started
    }

    fn cancel_wait(&mut self, _engine: &mut Engine, _tag: usize) {}
}

/// Push an eKV log line unless the node is quiet. A macro rather than
/// a method so quiet nodes skip the `format!` entirely (per-event
/// string building dominates million-node sweeps) without fighting the
/// borrow checker over closure captures of `self`.
macro_rules! log_line {
    ($node:expr, $at:expr, $($fmt:tt)*) => {
        if !$node.quiet {
            let text = format!($($fmt)*);
            $node.log.push(NodeLogLine { at: $at, text });
        }
    };
}

/// One eKV progress line with its timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLogLine {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Telnet-rendered text.
    pub text: String,
}

/// A simulated node.
#[derive(Debug, Clone)]
pub struct SimNode {
    /// Index into the cluster's node table; also the engine tag.
    pub id: usize,
    /// Hostname, e.g. `compute-0-5`.
    pub name: String,
    /// Links this node's downloads currently traverse: the active HTTP
    /// server's uplink, then (in a cabinet topology) the cabinet-switch
    /// uplink. Failover rewrites the first hop.
    pub route: Vec<usize>,
    /// Candidate install-server links in failover order; `route[0]` is
    /// always `servers[server_cursor]`.
    servers: Vec<usize>,
    /// The non-server tail of the route (cabinet uplink, if any).
    extra_route: Vec<usize>,
    /// Which entry of `servers` the node is currently using.
    server_cursor: usize,
    /// Current phase.
    pub state: NodeState,
    /// When the current install began.
    pub install_started: Option<SimTime>,
    /// When the node reached `Up`.
    pub install_finished: Option<SimTime>,
    /// eKV output.
    pub log: Vec<NodeLogLine>,
    /// Per-node jitter source.
    rng: StdRng,
    /// Count of completed installs (a reinstall increments this).
    pub installs_completed: usize,
    /// Power-on count: each call to [`power_on`](Self::power_on) starts a
    /// new life. The chaos harness keys its monotone-phase invariant on
    /// this.
    pub lives: u32,
    /// Fetch attempts started over the node's whole lifetime (kickstart
    /// and package requests, including retries, across lives).
    pub fetch_attempts: u32,
    /// Attempts spent on the current fetch target (resets on success and
    /// on power-on).
    pub target_attempts: u32,
    /// Times the node rotated to a different install server.
    pub failovers: u32,
    /// Cumulative seconds spent waiting out retry backoffs.
    pub backoff_seconds: f64,
    /// Kickstart CGI requests issued (first attempt plus refetches) —
    /// the frontend-side load the generation service would have seen.
    pub kickstart_requests: u32,
    /// Suppress eKV log lines. Million-node federated sweeps set this:
    /// per-event `String` formatting would dominate both time and
    /// memory at that scale.
    quiet: bool,
}

impl SimNode {
    /// Create a node with an explicit failover list: `servers` are the
    /// candidate first-hop links in rotation order (the node starts on
    /// `servers[0]`), and `extra_route` is the shared tail of the path
    /// (e.g. the cabinet uplink).
    pub fn with_failover(
        id: usize,
        name: &str,
        servers: Vec<usize>,
        extra_route: Vec<usize>,
        seed: u64,
    ) -> SimNode {
        assert!(!servers.is_empty(), "a node needs at least one install server");
        let mut route = vec![servers[0]];
        route.extend_from_slice(&extra_route);
        SimNode {
            id,
            name: name.to_string(),
            route,
            servers,
            extra_route,
            server_cursor: 0,
            state: NodeState::Off,
            install_started: None,
            install_finished: None,
            log: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            installs_completed: 0,
            lives: 0,
            fetch_attempts: 0,
            target_attempts: 0,
            failovers: 0,
            backoff_seconds: 0.0,
            kickstart_requests: 0,
            quiet: false,
        }
    }

    /// Turn eKV logging off (or back on). Large sweeps run quiet.
    pub fn set_quiet(&mut self, quiet: bool) {
        self.quiet = quiet;
    }

    /// The install-server link the node is currently fetching from.
    pub fn current_server(&self) -> usize {
        self.servers[self.server_cursor]
    }

    fn jittered(&mut self, (mean, jitter): (f64, f64)) -> SimTime {
        let factor = 1.0 + self.rng.gen_range(-jitter..=jitter);
        micros(mean * factor)
    }

    /// Power the node on into installation mode (what a hard power cycle
    /// or `shoot-node` produces — a Rocks node that boots from the
    /// network always reinstalls).
    pub fn power_on(&mut self, engine: &mut Engine, cfg: &SimConfig) {
        // Drop anything in flight from a previous life.
        engine.cancel_flows_tagged(self.id);
        engine.cancel_timers_tagged(self.id);
        self.state = NodeState::Post;
        self.install_started = Some(engine.now());
        self.install_finished = None;
        // A fresh life gets a fresh retry budget on its home server.
        self.server_cursor = 0;
        self.route = vec![self.servers[0]];
        self.route.extend_from_slice(&self.extra_route);
        self.target_attempts = 0;
        self.lives += 1;
        let at = engine.now();
        log_line!(self, at, "{}: power on, POST", self.name);
        let delay = self.jittered(cfg.post_s);
        engine.start_timer(self.id, delay);
    }

    /// Force the node into the hung state (failure injection): all
    /// in-flight work is lost and no further events fire.
    pub fn hang(&mut self, engine: &mut Engine) {
        engine.cancel_flows_tagged(self.id);
        engine.cancel_timers_tagged(self.id);
        self.state = NodeState::Hung;
        let at = engine.now();
        log_line!(self, at, "{}: hung (no response on Ethernet)", self.name);
    }

    /// Seconds the last completed install took, if any.
    pub fn last_install_seconds(&self) -> Option<f64> {
        match (self.install_started, self.install_finished) {
            (Some(start), Some(end)) => Some(crate::engine::seconds(end - start)),
            _ => None,
        }
    }

    /// Advance the FSM after a wakeup, fetching straight from the install
    /// server (the flat topology). See [`SimNode::on_wakeup_with`].
    pub fn on_wakeup(&mut self, engine: &mut Engine, cfg: &SimConfig, event: NodeEvent) {
        self.on_wakeup_with(engine, cfg, event, &mut DirectFetch);
    }

    /// Advance the FSM after a wakeup. The caller guarantees the wakeup
    /// was tagged with this node's id; `event` says whether it was a
    /// completed transfer or a fired timer — with the retrying install
    /// protocol a timer during a fetch is the watchdog expiring.
    /// Fetches are served through `backend` (install server or cabinet
    /// proxy).
    pub fn on_wakeup_with(
        &mut self,
        engine: &mut Engine,
        cfg: &SimConfig,
        event: NodeEvent,
        backend: &mut impl FetchBackend,
    ) {
        let now = engine.now();
        match self.state {
            NodeState::Off | NodeState::Up | NodeState::Hung | NodeState::Failed => {
                // Stale wakeup from a cancelled life; ignore.
            }
            NodeState::Post => {
                self.state = NodeState::Dhcp;
                log_line!(self, now, "{}: DHCP discover", self.name);
                let delay = self.jittered(cfg.dhcp_s);
                engine.start_timer(self.id, delay);
            }
            NodeState::Dhcp => {
                self.begin_fetch(engine, cfg, FetchTarget::Kickstart, backend);
            }
            NodeState::KickstartFetch => match event {
                NodeEvent::TimerFired => {
                    self.handle_fetch_timeout(engine, cfg, FetchTarget::Kickstart, backend)
                }
                NodeEvent::FlowDone => {
                    self.fetch_succeeded(engine, cfg);
                    self.state = NodeState::Format;
                    log_line!(
                        self,
                        now,
                        "{}: formatting / (non-root partitions preserved)",
                        self.name
                    );
                    let delay = self.jittered(cfg.format_s);
                    engine.start_timer(self.id, delay);
                }
            },
            NodeState::KickstartBackoff => {
                if event == NodeEvent::TimerFired {
                    self.begin_fetch(engine, cfg, FetchTarget::Kickstart, backend);
                }
            }
            NodeState::Format => {
                self.begin_fetch(engine, cfg, FetchTarget::Package(0), backend);
            }
            NodeState::Fetch(i) => match event {
                NodeEvent::TimerFired => {
                    self.handle_fetch_timeout(engine, cfg, FetchTarget::Package(i), backend)
                }
                NodeEvent::FlowDone => {
                    // Package downloaded; unpack it.
                    self.fetch_succeeded(engine, cfg);
                    let pkg = &cfg.packages[i];
                    self.state = NodeState::Install(i);
                    log_line!(
                        self,
                        now,
                        "{}: installing {} ({}k) [{}/{}]",
                        self.name,
                        pkg.name,
                        pkg.transfer_bytes / 1024,
                        i + 1,
                        cfg.packages.len()
                    );
                    let delay = micros(pkg.installed_bytes as f64 / cfg.install_bps);
                    engine.start_timer(self.id, delay);
                }
            },
            NodeState::FetchBackoff(i) => {
                if event == NodeEvent::TimerFired {
                    self.begin_fetch(engine, cfg, FetchTarget::Package(i), backend);
                }
            }
            NodeState::Install(i) => {
                if i + 1 < cfg.packages.len() {
                    self.begin_fetch(engine, cfg, FetchTarget::Package(i + 1), backend);
                } else {
                    self.state = NodeState::PostConfig;
                    log_line!(self, now, "{}: running %post configuration", self.name);
                    let delay = self.jittered(cfg.postconfig_s);
                    engine.start_timer(self.id, delay);
                }
            }
            NodeState::PostConfig => {
                if cfg.with_myrinet {
                    self.state = NodeState::MyrinetBuild;
                    log_line!(self, now, "{}: rebuilding Myrinet gm driver from source", self.name);
                    let delay = self.jittered(cfg.myrinet_s);
                    engine.start_timer(self.id, delay);
                } else {
                    self.begin_reboot(engine, cfg, now);
                }
            }
            NodeState::MyrinetBuild => {
                let now = engine.now();
                self.begin_reboot(engine, cfg, now);
            }
            NodeState::Reboot => {
                self.state = NodeState::Up;
                self.install_finished = Some(now);
                self.installs_completed += 1;
                log_line!(self, now, "{}: up (install complete)", self.name);
            }
        }
    }

    /// Start (or retry) an HTTP fetch through `backend`, arming the
    /// watchdog deadline when the retrying install protocol is
    /// configured. The watchdog guards the whole request — including
    /// time spent parked on a proxy cache miss — so a dead tier still
    /// times out instead of wedging the node forever.
    fn begin_fetch(
        &mut self,
        engine: &mut Engine,
        cfg: &SimConfig,
        target: FetchTarget,
        backend: &mut impl FetchBackend,
    ) {
        let now = engine.now();
        self.fetch_attempts += 1;
        self.target_attempts += 1;
        let bytes = match target {
            FetchTarget::Kickstart => {
                self.kickstart_requests += 1;
                self.state = NodeState::KickstartFetch;
                if self.target_attempts == 1 {
                    log_line!(self, now, "{}: requesting kickstart via HTTP CGI", self.name);
                }
                cfg.kickstart_bytes
            }
            FetchTarget::Package(i) => {
                self.state = NodeState::Fetch(i);
                cfg.packages[i].transfer_bytes
            }
        };
        if self.target_attempts > 1 {
            let what = match target {
                FetchTarget::Kickstart => "kickstart".to_string(),
                FetchTarget::Package(i) => cfg.packages[i].name.clone(),
            };
            log_line!(
                self,
                now,
                "{}: retrying {} (attempt {}) via server link {}",
                self.name,
                what,
                self.target_attempts,
                self.current_server()
            );
        }
        backend.start_fetch(engine, self.id, &self.route, target, bytes, cfg.per_stream_bps);
        if let Some(policy) = cfg.retry {
            engine.start_timer(self.id, micros(policy.fetch_timeout_s));
        }
    }

    /// A guarded fetch completed: disarm the watchdog and reset the
    /// per-target attempt counter.
    fn fetch_succeeded(&mut self, engine: &mut Engine, cfg: &SimConfig) {
        if cfg.retry.is_some() {
            // The watchdog is the only timer this node can hold while a
            // fetch is in flight.
            engine.cancel_timers_tagged(self.id);
        }
        self.target_attempts = 0;
    }

    /// The watchdog expired mid-fetch: cancel the transfer (or the
    /// parked proxy wait), rotate to the next install server, and back
    /// off — or give up once every server has exhausted its attempt
    /// budget.
    fn handle_fetch_timeout(
        &mut self,
        engine: &mut Engine,
        cfg: &SimConfig,
        target: FetchTarget,
        backend: &mut impl FetchBackend,
    ) {
        let Some(policy) = cfg.retry else {
            // No watchdog was ever armed; a timer here is a stale event
            // from a cancelled life.
            return;
        };
        let now = engine.now();
        engine.cancel_flows_tagged(self.id);
        backend.cancel_wait(engine, self.id);
        let max = policy.max_attempts(self.servers.len());
        if self.target_attempts >= max {
            self.state = NodeState::Failed;
            log_line!(
                self,
                now,
                "{}: giving up after {} attempts (all install servers exhausted)",
                self.name,
                self.target_attempts
            );
            return;
        }
        if self.servers.len() > 1 {
            self.server_cursor = (self.server_cursor + 1) % self.servers.len();
            self.route[0] = self.servers[self.server_cursor];
            self.failovers += 1;
        }
        let jitter = 1.0 + self.rng.gen_range(-policy.backoff_jitter..=policy.backoff_jitter);
        let delay_s = policy.backoff_s(self.target_attempts) * jitter;
        self.backoff_seconds += delay_s;
        self.state = match target {
            FetchTarget::Kickstart => NodeState::KickstartBackoff,
            FetchTarget::Package(i) => NodeState::FetchBackoff(i),
        };
        log_line!(
            self,
            now,
            "{}: fetch timed out (attempt {}/{}); backing off {:.1}s, next server link {}",
            self.name,
            self.target_attempts,
            max,
            delay_s,
            self.current_server()
        );
        engine.start_timer(self.id, micros(delay_s));
    }

    fn begin_reboot(&mut self, engine: &mut Engine, cfg: &SimConfig, now: SimTime) {
        self.state = NodeState::Reboot;
        log_line!(self, now, "{}: rebooting into installed system", self.name);
        let delay = self.jittered(cfg.reboot_s);
        engine.start_timer(self.id, delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Wakeup;

    fn tiny_config() -> SimConfig {
        let mut cfg = SimConfig::paper_testbed(1);
        cfg.packages.truncate(3);
        cfg
    }

    fn run_to_up(node: &mut SimNode, engine: &mut Engine, cfg: &SimConfig) {
        node.power_on(engine, cfg);
        loop {
            match engine.step() {
                Wakeup::Idle => break,
                Wakeup::FlowDone { tag } => {
                    assert_eq!(tag, node.id);
                    node.on_wakeup(engine, cfg, NodeEvent::FlowDone);
                }
                Wakeup::TimerFired { tag } => {
                    assert_eq!(tag, node.id);
                    node.on_wakeup(engine, cfg, NodeEvent::TimerFired);
                }
            }
            if node.state == NodeState::Up {
                break;
            }
        }
    }

    #[test]
    fn full_install_reaches_up() {
        let cfg = tiny_config();
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "compute-0-0", vec![0], vec![], 42);
        run_to_up(&mut node, &mut engine, &cfg);
        assert_eq!(node.state, NodeState::Up);
        assert_eq!(node.installs_completed, 1);
        assert!(node.last_install_seconds().unwrap() > 0.0);
    }

    #[test]
    fn log_shows_figure7_style_progress() {
        let cfg = tiny_config();
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "compute-0-0", vec![0], vec![], 42);
        run_to_up(&mut node, &mut engine, &cfg);
        let text: Vec<&str> = node.log.iter().map(|l| l.text.as_str()).collect();
        assert!(text.iter().any(|l| l.contains("POST")));
        assert!(text.iter().any(|l| l.contains("requesting kickstart")));
        assert!(text.iter().any(|l| l.contains("[1/3]")));
        assert!(text.iter().any(|l| l.contains("[3/3]")));
        assert!(text.iter().any(|l| l.contains("Myrinet")));
        assert!(text.iter().any(|l| l.contains("up (install complete)")));
        // Timestamps are monotone.
        assert!(node.log.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn no_myrinet_skips_rebuild() {
        let mut cfg = tiny_config();
        cfg.with_myrinet = false;
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "compute-0-0", vec![0], vec![], 42);
        run_to_up(&mut node, &mut engine, &cfg);
        assert!(node.log.iter().all(|l| !l.text.contains("Myrinet")));
    }

    #[test]
    fn myrinet_penalty_is_visible_in_duration() {
        let mk = |with: bool| {
            let mut cfg = tiny_config();
            cfg.with_myrinet = with;
            let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
            let mut node = SimNode::with_failover(0, "n", vec![0], vec![], 42);
            run_to_up(&mut node, &mut engine, &cfg);
            node.last_install_seconds().unwrap()
        };
        let with = mk(true);
        let without = mk(false);
        assert!(with > without + 100.0, "with={with} without={without}");
    }

    #[test]
    fn hang_stops_all_events() {
        let cfg = tiny_config();
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "n", vec![0], vec![], 42);
        node.power_on(&mut engine, &cfg);
        node.hang(&mut engine);
        assert_eq!(engine.step(), Wakeup::Idle);
        assert_eq!(node.state, NodeState::Hung);
    }

    #[test]
    fn power_cycle_restarts_install() {
        let cfg = tiny_config();
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "n", vec![0], vec![], 42);
        node.power_on(&mut engine, &cfg);
        // Step a few events, then hard power cycle mid-install.
        for _ in 0..4 {
            match engine.step() {
                Wakeup::FlowDone { .. } => node.on_wakeup(&mut engine, &cfg, NodeEvent::FlowDone),
                Wakeup::TimerFired { .. } => {
                    node.on_wakeup(&mut engine, &cfg, NodeEvent::TimerFired)
                }
                Wakeup::Idle => break,
            }
        }
        node.power_on(&mut engine, &cfg); // the PDU's hard power cycle
        run_to_up(&mut node, &mut engine, &cfg);
        assert_eq!(node.state, NodeState::Up);
        assert_eq!(node.installs_completed, 1);
    }

    fn retry_cfg() -> SimConfig {
        let mut cfg = tiny_config();
        cfg.retry = Some(crate::config::RetryPolicy {
            fetch_timeout_s: 30.0,
            backoff_base_s: 5.0,
            backoff_cap_s: 40.0,
            backoff_jitter: 0.2,
            attempts_per_server: 3,
        });
        cfg
    }

    /// Drive a single node until it is terminal (Up or Failed) or the
    /// engine drains.
    fn run_to_terminal(node: &mut SimNode, engine: &mut Engine, cfg: &SimConfig) {
        node.power_on(engine, cfg);
        loop {
            match engine.step() {
                Wakeup::Idle => break,
                Wakeup::FlowDone { .. } => node.on_wakeup(engine, cfg, NodeEvent::FlowDone),
                Wakeup::TimerFired { .. } => node.on_wakeup(engine, cfg, NodeEvent::TimerFired),
            }
            if matches!(node.state, NodeState::Up | NodeState::Failed) {
                break;
            }
        }
    }

    #[test]
    fn healthy_node_never_retries() {
        let cfg = retry_cfg();
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "n", vec![0], vec![], 42);
        run_to_terminal(&mut node, &mut engine, &cfg);
        assert_eq!(node.state, NodeState::Up);
        // One attempt per target, zero failovers, zero backoff.
        assert_eq!(node.fetch_attempts as usize, 1 + cfg.packages.len());
        assert_eq!(node.failovers, 0);
        assert_eq!(node.backoff_seconds, 0.0);
        assert_eq!(node.kickstart_requests, 1);
    }

    #[test]
    fn dead_server_exhausts_budget_and_fails() {
        let cfg = retry_cfg();
        // A dead (zero-capacity) server: every fetch stalls until the
        // watchdog kills it.
        let mut engine = Engine::new(vec![0.0]);
        let mut node = SimNode::with_failover(0, "n", vec![0], vec![], 42);
        run_to_terminal(&mut node, &mut engine, &cfg);
        assert_eq!(node.state, NodeState::Failed);
        let budget = cfg.retry.unwrap().max_attempts(1);
        assert_eq!(node.target_attempts, budget);
        assert!(node.backoff_seconds > 0.0);
        // The budget was burnt on the kickstart fetch alone.
        assert_eq!(node.kickstart_requests, budget);
        assert!(node.log.iter().any(|l| l.text.contains("giving up")));
    }

    #[test]
    fn failover_rotates_to_healthy_server() {
        let cfg = retry_cfg();
        // Server link 0 dead, server link 1 healthy.
        let mut engine = Engine::new(vec![0.0, cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "n", vec![0, 1], vec![], 42);
        run_to_terminal(&mut node, &mut engine, &cfg);
        assert_eq!(node.state, NodeState::Up);
        assert!(node.failovers >= 1);
        assert_eq!(node.current_server(), 1);
        // Each target costs at most one wasted attempt on the dead
        // server before rotating: attempts stay bounded.
        assert!(node.fetch_attempts as usize <= 2 * (1 + cfg.packages.len()));
    }

    #[test]
    fn power_cycle_resets_retry_budget_and_home_server() {
        let cfg = retry_cfg();
        let mut engine = Engine::new(vec![0.0, cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "n", vec![0, 1], vec![], 42);
        node.power_on(&mut engine, &cfg);
        // Walk until the first timeout moved it off the home server.
        while node.failovers == 0 {
            match engine.step() {
                Wakeup::Idle => panic!("expected a timeout"),
                Wakeup::FlowDone { .. } => node.on_wakeup(&mut engine, &cfg, NodeEvent::FlowDone),
                Wakeup::TimerFired { .. } => {
                    node.on_wakeup(&mut engine, &cfg, NodeEvent::TimerFired)
                }
            }
        }
        assert_eq!(node.current_server(), 1);
        node.power_on(&mut engine, &cfg);
        assert_eq!(node.current_server(), 0, "a fresh life starts on the home server");
        assert_eq!(node.target_attempts, 0);
        assert_eq!(node.lives, 2);
    }

    #[test]
    fn phase_rank_is_monotone_through_a_clean_install() {
        let cfg = tiny_config();
        let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
        let mut node = SimNode::with_failover(0, "n", vec![0], vec![], 42);
        node.power_on(&mut engine, &cfg);
        let mut last = node.state.phase_rank();
        loop {
            match engine.step() {
                Wakeup::Idle => break,
                Wakeup::FlowDone { .. } => node.on_wakeup(&mut engine, &cfg, NodeEvent::FlowDone),
                Wakeup::TimerFired { .. } => {
                    node.on_wakeup(&mut engine, &cfg, NodeEvent::TimerFired)
                }
            }
            let rank = node.state.phase_rank();
            assert!(rank >= last, "rank regressed: {rank} < {last}");
            last = rank;
            if node.state == NodeState::Up {
                break;
            }
        }
        assert_eq!(node.state, NodeState::Up);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = tiny_config();
        let run = |seed| {
            let mut engine = Engine::new(vec![cfg.server_capacity_bps]);
            let mut node = SimNode::with_failover(0, "n", vec![0], vec![], seed);
            run_to_up(&mut node, &mut engine, &cfg);
            node.last_install_seconds().unwrap()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
