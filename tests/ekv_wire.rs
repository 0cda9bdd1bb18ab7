//! eKV over the real wire: a simulated install's transcript served on a
//! TCP port, consumed by a shoot-node-style watcher, with interactive
//! input flowing back — the full §6.3 loop across crates.
//!
//! Each watcher runs on its own thread, as `shoot-node`'s xterm is its
//! own process; the installer's thread publishes and drives the port.

use rocks::ekv::{watch_lines, EkvServer};
use rocks::netsim::{ClusterSim, SimConfig};
use std::io::Write;
use std::net::TcpStream;
use std::thread::{self, JoinHandle};
use std::time::Duration;

#[test]
fn full_install_transcript_streams_over_tcp() {
    // Produce a real install transcript.
    let cfg = SimConfig::paper_testbed(3).bundled(10);
    let mut sim = ClusterSim::new(cfg, 1);
    sim.run_reinstall();
    let transcript: Vec<String> = sim.node(0).log.iter().map(|l| l.text.clone()).collect();
    let expected = transcript.len();

    // Node side: the installer's thread publishes and drives the port.
    let mut server = EkvServer::start().expect("bind");
    let addr = server.addr();

    // Watcher side: stream everything, stop at the completion marker,
    // then type back into the install over a fresh connection.
    let watcher = thread::spawn(move || {
        let mut seen = Vec::new();
        let count = watch_lines(
            addr,
            Duration::from_secs(5),
            |line| seen.push(line.to_string()),
            |line| line.starts_with("== install complete"),
        )
        .expect("watch");
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "ok").expect("send");
        stream.flush().expect("flush");
        (count, seen)
    });
    for line in &transcript {
        server.publish(line);
    }
    server.publish("== install complete ==");

    // Interactive path: waiting for the watcher's input drives the port.
    assert_eq!(
        server.wait_input(Duration::from_secs(5)).as_deref(),
        Some("ok"),
        "watcher input must reach the installer"
    );
    let (count, seen) = watcher.join().expect("watcher");
    assert_eq!(count, expected + 1);
    assert!(seen.iter().any(|l| l.contains("requesting kickstart")));
    assert!(seen.iter().any(|l| l.contains("[10/10]")), "per-package progress missing");
    assert!(seen.first().unwrap().contains("power on"), "backlog replay must start at boot");
}

#[test]
fn two_watchers_see_identical_streams() {
    let mut server = EkvServer::start().expect("bind");
    let addr = server.addr();
    for i in 0..20 {
        server.publish(&format!("line {i}"));
    }
    let watch = move || {
        let mut lines = Vec::new();
        watch_lines(
            addr,
            Duration::from_millis(300),
            |l| lines.push(l.to_string()),
            |l| l == "line 19",
        )
        .expect("watch");
        lines
    };
    let (a, b) = (thread::spawn(watch), thread::spawn(watch));
    pump(&mut server, &a);
    pump(&mut server, &b);
    let (a, b) = (a.join().expect("watcher a"), b.join().expect("watcher b"));
    assert_eq!(a, b);
    assert_eq!(a.len(), 20);
}

/// Drive the server from the installer's thread until `watcher` is done.
fn pump<T>(server: &mut EkvServer, watcher: &JoinHandle<T>) {
    while !watcher.is_finished() {
        server.wait_input(Duration::from_millis(1));
    }
}

#[test]
fn watch_until_completion_marker() {
    let mut server = EkvServer::start().unwrap();
    server.publish("formatting /");
    server.publish("installing glibc [1/3]");
    server.publish("install complete");
    server.publish("after-marker noise");

    let addr = server.addr();
    let watcher = thread::spawn(move || {
        let mut seen = Vec::new();
        let count = watch_lines(
            addr,
            Duration::from_secs(5),
            |line| seen.push(line.to_string()),
            |line| line.contains("install complete"),
        )
        .unwrap();
        (count, seen)
    });
    pump(&mut server, &watcher);
    let (count, seen) = watcher.join().unwrap();
    assert_eq!(count, 3);
    assert_eq!(seen.last().unwrap(), "install complete");
}

#[test]
fn timeout_returns_cleanly_when_quiet() {
    let mut server = EkvServer::start().unwrap();
    server.publish("only line");
    let addr = server.addr();
    let watcher =
        thread::spawn(move || watch_lines(addr, Duration::from_millis(100), |_| {}, |_| false));
    pump(&mut server, &watcher);
    assert_eq!(watcher.join().unwrap().unwrap(), 1);
}
