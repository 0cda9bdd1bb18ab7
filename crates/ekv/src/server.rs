//! The node-side eKV broadcaster.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A telnet-compatible broadcaster: every line published is written to
/// every connected client. Clients that disconnect are dropped silently
/// (the installer must never block on a dead watcher).
///
/// The channel is bidirectional: lines a watcher types come back through
/// [`EkvServer::wait_input`] — the paper's "we've also inserted code that
/// allows users to interact with the installation through the same xterm
/// window" (§6.3).
pub struct EkvServer {
    addr: SocketAddr,
    clients: Arc<Mutex<Vec<TcpStream>>>,
    /// Lines published before any client connects are replayed to new
    /// connections, so `shoot-node` never misses early boot output.
    backlog: Arc<Mutex<Vec<String>>>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    input_rx: Receiver<String>,
}

impl EkvServer {
    /// Bind on an ephemeral localhost port and start accepting watchers.
    pub fn start() -> std::io::Result<EkvServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let clients: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let backlog: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (input_tx, input_rx) = channel::<String>();

        let accept_clients = Arc::clone(&clients);
        let accept_backlog = Arc::clone(&backlog);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            while !accept_shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        // Replay the backlog so late watchers see history.
                        // Hold the backlog lock until the client is
                        // registered: publish() takes the same lock first,
                        // so no line can land in the gap between replay
                        // and registration (it would otherwise be lost to
                        // this watcher).
                        let history = accept_backlog.lock().expect("backlog lock");
                        let mut ok = true;
                        for line in history.iter() {
                            if writeln!(stream, "{line}").is_err() {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            let _ = stream.flush();
                            // A reader thread per watcher forwards typed
                            // input back to the installer.
                            if let Ok(read_half) = stream.try_clone() {
                                let tx = input_tx.clone();
                                std::thread::spawn(move || {
                                    let reader = BufReader::new(read_half);
                                    for line in reader.lines() {
                                        match line {
                                            Ok(text) => {
                                                if tx.send(text).is_err() {
                                                    break;
                                                }
                                            }
                                            Err(_) => break,
                                        }
                                    }
                                });
                            }
                            accept_clients.lock().expect("clients lock").push(stream);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(EkvServer {
            addr,
            clients,
            backlog,
            shutdown,
            accept_thread: Some(accept_thread),
            input_rx,
        })
    }

    /// Block up to `timeout` for one line of watcher input;
    /// `Duration::ZERO` polls without blocking.
    pub fn wait_input(&self, timeout: std::time::Duration) -> Option<String> {
        self.input_rx.recv_timeout(timeout).ok()
    }

    /// The address watchers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publish one line of installer output to all watchers.
    pub fn publish(&self, line: &str) {
        self.backlog.lock().expect("backlog lock").push(line.to_string());
        let mut clients = self.clients.lock().expect("clients lock");
        clients
            .retain_mut(|stream| writeln!(stream, "{line}").and_then(|_| stream.flush()).is_ok());
    }

    /// Stop accepting and drop all watchers.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.clients.lock().expect("clients lock").clear();
    }
}

impl Drop for EkvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An in-process feed with identical semantics (publish/subscribe with
/// backlog replay) for tests and for wiring the simulator's node logs to
/// a monitor without sockets.
#[derive(Clone, Default)]
pub struct LocalFeed {
    inner: Arc<Mutex<LocalFeedInner>>,
}

#[derive(Default)]
struct LocalFeedInner {
    backlog: Vec<String>,
    subscribers: Vec<Sender<String>>,
}

impl LocalFeed {
    /// New empty feed.
    pub fn new() -> LocalFeed {
        LocalFeed::default()
    }

    /// Publish a line to all subscribers (and the backlog).
    pub fn publish(&self, line: &str) {
        let mut inner = self.inner.lock().expect("feed lock");
        inner.backlog.push(line.to_string());
        inner.subscribers.retain(|tx| tx.send(line.to_string()).is_ok());
    }

    /// Subscribe; the returned receiver first sees the whole backlog.
    pub fn subscribe(&self) -> Receiver<String> {
        let (tx, rx) = channel();
        let mut inner = self.inner.lock().expect("feed lock");
        for line in &inner.backlog {
            let _ = tx.send(line.clone());
        }
        inner.subscribers.push(tx);
        rx
    }

    /// Lines published so far.
    pub fn backlog(&self) -> Vec<String> {
        self.inner.lock().expect("feed lock").backlog.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        BufReader::new(stream)
    }

    fn wait_for_watchers(server: &EkvServer, n: usize) {
        for _ in 0..500 {
            if server.clients.lock().unwrap().len() >= n {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("watcher never registered");
    }

    #[test]
    fn tcp_watcher_receives_published_lines() {
        let server = EkvServer::start().unwrap();
        let mut reader = connect(server.addr());
        wait_for_watchers(&server, 1);
        server.publish("Installing dev-3.0.6-5 (340k) [38/162]");
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "Installing dev-3.0.6-5 (340k) [38/162]");
    }

    #[test]
    fn late_watcher_gets_backlog_replay() {
        let server = EkvServer::start().unwrap();
        server.publish("line one");
        server.publish("line two");
        let mut reader = connect(server.addr());
        let mut a = String::new();
        let mut b = String::new();
        reader.read_line(&mut a).unwrap();
        reader.read_line(&mut b).unwrap();
        assert_eq!(a.trim_end(), "line one");
        assert_eq!(b.trim_end(), "line two");
    }

    #[test]
    fn multiple_watchers_all_receive() {
        let server = EkvServer::start().unwrap();
        let mut r1 = connect(server.addr());
        let mut r2 = connect(server.addr());
        wait_for_watchers(&server, 2);
        server.publish("broadcast");
        for reader in [&mut r1, &mut r2] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "broadcast");
        }
    }

    #[test]
    fn disconnected_watcher_is_dropped() {
        let server = EkvServer::start().unwrap();
        {
            let _reader = connect(server.addr());
            wait_for_watchers(&server, 1);
        } // reader dropped: TCP closed
          // Publishing twice flushes out the dead client.
        server.publish("a");
        server.publish("b");
        server.publish("c");
        assert_eq!(server.clients.lock().unwrap().len(), 0);
    }

    #[test]
    fn local_feed_replays_and_streams() {
        let feed = LocalFeed::new();
        feed.publish("early");
        let rx = feed.subscribe();
        feed.publish("late");
        assert_eq!(rx.recv().unwrap(), "early");
        assert_eq!(rx.recv().unwrap(), "late");
        assert_eq!(feed.backlog().len(), 2);
    }

    #[test]
    fn watcher_input_reaches_installer() {
        // §6.3: interaction flows back through the same connection.
        let server = EkvServer::start().unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        wait_for_watchers(&server, 1);
        let mut write_half = stream.try_clone().unwrap();
        writeln!(write_half, "ok").unwrap();
        writeln!(write_half, "format-disk yes").unwrap();
        write_half.flush().unwrap();
        assert_eq!(server.wait_input(Duration::from_secs(5)).as_deref(), Some("ok"));
        assert_eq!(server.wait_input(Duration::from_secs(5)).as_deref(), Some("format-disk yes"));
        assert_eq!(server.wait_input(Duration::ZERO), None);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = EkvServer::start().unwrap();
        server.publish("x");
        server.shutdown();
        server.shutdown();
    }
}
