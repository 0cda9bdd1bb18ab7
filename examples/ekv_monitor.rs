//! eKV end-to-end (paper §6.3, Figure 7): a node's installation progress
//! streamed over a real TCP socket to a shoot-node-style watcher.
//!
//! The installing "node" is a simulated reinstall; every eKV line it
//! would print goes through a telnet-compatible [`rocks::ekv::EkvServer`]
//! and is consumed live by [`rocks::ekv::watch_lines`] — the same wire
//! path the paper's xterm used.
//!
//! Run with: `cargo run --example ekv_monitor`

use rocks::ekv::{watch_lines, EkvServer, InstallScreen};
use rocks::netsim::{ClusterSim, SimConfig};
use std::time::Duration;

fn main() {
    // Simulate one node's reinstall and capture its installer output.
    let cfg = SimConfig::paper_testbed(7);
    let mut sim = ClusterSim::new(cfg.clone(), 1);
    sim.try_run_reinstall().expect("single healthy node cannot stall");
    let transcript: Vec<String> = sim
        .node(0)
        .log
        .iter()
        .map(|l| format!("[{:>7.1}s] {}", l.at as f64 / 1e6, l.text))
        .collect();

    // Node side: the eKV port. It runs no thread of its own; this loop
    // drives it.
    let mut server = EkvServer::start().expect("bind eKV port");
    let addr = server.addr();
    println!("eKV listening on {addr} (a real TCP socket; telnet-compatible)\n");

    // Watcher side (shoot-node's xterm, its own process in Rocks):
    // connect and stream. The backlog replay guarantees no early lines
    // are missed.
    let watcher = std::thread::spawn(move || {
        let mut shown = 0usize;
        watch_lines(
            addr,
            Duration::from_secs(5),
            |line| {
                // Print an excerpt: the first lines and every 40th.
                if shown < 8 || shown.is_multiple_of(40) || line.contains("complete") {
                    println!("{line}");
                }
                shown += 1;
            },
            |line| line.contains("install complete"),
        )
        .expect("watch over TCP")
    });

    // The installer replays its transcript over the wire, then keeps
    // driving the port until the watcher has drained everything.
    for line in &transcript {
        server.publish(line);
    }
    server.publish("install complete");
    while !watcher.is_finished() {
        server.wait_input(Duration::from_millis(1));
    }
    let count = watcher.join().expect("watcher");
    println!("\n... watched {count} lines over TCP\n");

    // And the Figure 7 panel, rendered from the same progress data.
    let installs: Vec<_> =
        sim.node(0).log.iter().filter(|l| l.text.contains("installing")).collect();
    let total_bytes: u64 = cfg.packages.iter().map(|p| p.transfer_bytes).sum();
    let mut screen = InstallScreen::new(cfg.packages.len(), total_bytes);
    let start = installs.first().expect("has installs").at;
    for (i, line) in installs.iter().enumerate().take(39) {
        let pkg = &cfg.packages[i];
        let elapsed = (line.at - start) as f64 / 1e6;
        if i < 38 {
            screen.begin_package(&pkg.name, pkg.transfer_bytes, "package payload", elapsed);
            screen.finish_package(elapsed);
        } else {
            screen.begin_package(&pkg.name, pkg.transfer_bytes, "installing...", elapsed);
        }
    }
    println!("{}", screen.render());
}
