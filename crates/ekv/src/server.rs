//! The node-side eKV port: a sans-IO feed, and the TCP server that
//! drives it from the installer's own loop.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The installer's transcript: every published line, in order, held as
/// one newline-terminated buffer. Publishing appends and does no I/O.
///
/// A watcher is a byte offset into that buffer (a cursor), and
/// [`since`](Self::since) is what it has not seen yet. A watcher that
/// joins late starts at 0 and replays the whole install; one that falls
/// behind costs only its cursor. [`EkvServer`] is this feed plus sockets,
/// driven by the installer's loop; on its own it is the in-process
/// transport, e.g. the per-node transcripts of a monitored `shoot-node`.
#[derive(Debug, Default)]
pub struct LocalFeed {
    transcript: String,
}

impl LocalFeed {
    /// Append one line of installer output.
    pub fn publish(&mut self, line: &str) {
        self.transcript.push_str(line);
        self.transcript.push('\n');
    }

    /// The transcript after byte `cursor`. A reader that has taken `n`
    /// bytes of it advances its cursor by `n`.
    pub fn since(&self, cursor: usize) -> &[u8] {
        &self.transcript.as_bytes()[cursor..]
    }

    /// Lines published so far. A published line that held a newline
    /// reads back as two, as it does on the wire.
    pub fn backlog(&self) -> std::str::Lines<'_> {
        self.transcript.lines()
    }
}

/// A telnet-compatible eKV port: every published line goes to every
/// connected watcher, and lines a watcher types come back through
/// [`EkvServer::wait_input`] — the paper's "we've also inserted code that
/// allows users to interact with the installation through the same xterm
/// window" (§6.3).
///
/// The server starts no thread: the installer's own loop drives the I/O.
/// Every socket is nonblocking, and [`publish`](Self::publish) and
/// [`wait_input`](Self::wait_input) run poll steps that accept pending
/// watchers at cursor 0 (replaying the backlog, so `shoot-node` never
/// misses early boot output), write each watcher whatever its socket will
/// take from its cursor, and read typed input. So the installer never
/// blocks on a watcher: one that stops reading just falls behind, and gets
/// everything if it reads again. A watcher that closes or errors is
/// dropped. Sockets close when the server is dropped.
pub struct EkvServer {
    listener: TcpListener,
    addr: SocketAddr,
    feed: LocalFeed,
    watchers: Vec<Watcher>,
    /// Typed lines not yet returned by `wait_input`, oldest first.
    input: VecDeque<String>,
}

/// One connected watcher.
struct Watcher {
    stream: BufReader<TcpStream>,
    /// Transcript bytes already written to `stream`.
    cursor: usize,
    /// Typed bytes since the last newline.
    partial: Vec<u8>,
}

impl EkvServer {
    /// Bind on an ephemeral localhost port. Watchers are accepted by the
    /// next [`publish`](Self::publish) or [`wait_input`](Self::wait_input).
    pub fn start() -> std::io::Result<EkvServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        Ok(EkvServer {
            addr: listener.local_addr()?,
            listener,
            feed: LocalFeed::default(),
            watchers: Vec::new(),
            input: VecDeque::new(),
        })
    }

    /// The address watchers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publish one line of installer output and send each watcher what
    /// its socket will take now; never waits for a watcher.
    pub fn publish(&mut self, line: &str) {
        self.feed.publish(line);
        self.poll();
    }

    /// Drive the I/O until a watcher has typed a line or `timeout` has
    /// passed, and return that line; `Duration::ZERO` polls once.
    pub fn wait_input(&mut self, timeout: Duration) -> Option<String> {
        let start = Instant::now();
        loop {
            self.poll();
            match self.input.pop_front() {
                Some(line) => return Some(line),
                None if start.elapsed() >= timeout => return None,
                // Let the watchers' side of the sockets move.
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// One nonblocking step: accept, read typed input, write from each
    /// cursor, and drop the watchers that are gone.
    fn poll(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            // An accepted socket does not inherit the listener's mode.
            if stream.set_nonblocking(true).is_ok() {
                let stream = BufReader::new(stream);
                self.watchers.push(Watcher { stream, cursor: 0, partial: Vec::new() });
            }
        }
        let (feed, input) = (&self.feed, &mut self.input);
        // Read first, so a line typed just before a close still arrives.
        self.watchers.retain_mut(|w| w.read_into(input) && w.write_from(feed));
    }
}

impl Watcher {
    /// Queue every line typed so far (a line counts once its newline
    /// arrives); false once the watcher has closed or failed.
    fn read_into(&mut self, input: &mut VecDeque<String>) -> bool {
        loop {
            // On `WouldBlock` the bytes read so far stay in `partial`.
            match self.stream.read_until(b'\n', &mut self.partial) {
                Ok(_) if self.partial.ends_with(b"\n") => {
                    // As `BufRead::lines` gives it: no `\n` or `\r\n`.
                    let line = &self.partial[..self.partial.len() - 1];
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    input.push_back(String::from_utf8_lossy(line).into_owned());
                    self.partial.clear();
                }
                Ok(_) => return false,
                Err(e) => return e.kind() == ErrorKind::WouldBlock,
            }
        }
    }

    /// Write from the cursor until the socket takes no more; false once
    /// the watcher is gone.
    fn write_from(&mut self, feed: &LocalFeed) -> bool {
        while !feed.since(self.cursor).is_empty() {
            match self.stream.get_mut().write(feed.since(self.cursor)) {
                Ok(0) => return false,
                Ok(n) => self.cursor += n,
                Err(e) => return e.kind() == ErrorKind::WouldBlock,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        BufReader::new(stream)
    }

    /// Drive the server until it holds `n` watchers.
    fn settle(server: &mut EkvServer, n: usize) {
        for _ in 0..2_500 {
            server.poll();
            if server.watchers.len() == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("the server holds {} watchers, not {n}", server.watchers.len());
    }

    #[test]
    fn tcp_watcher_receives_published_lines() {
        let mut server = EkvServer::start().unwrap();
        let mut reader = connect(server.addr());
        settle(&mut server, 1);
        server.publish("Installing dev-3.0.6-5 (340k) [38/162]");
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "Installing dev-3.0.6-5 (340k) [38/162]");
    }

    #[test]
    fn late_watcher_gets_backlog_replay() {
        let mut server = EkvServer::start().unwrap();
        server.publish("line one");
        server.publish("line two");
        let mut reader = connect(server.addr());
        settle(&mut server, 1);
        let mut a = String::new();
        let mut b = String::new();
        reader.read_line(&mut a).unwrap();
        reader.read_line(&mut b).unwrap();
        assert_eq!(a.trim_end(), "line one");
        assert_eq!(b.trim_end(), "line two");
    }

    #[test]
    fn multiple_watchers_all_receive() {
        let mut server = EkvServer::start().unwrap();
        let mut r1 = connect(server.addr());
        let mut r2 = connect(server.addr());
        settle(&mut server, 2);
        server.publish("broadcast");
        for reader in [&mut r1, &mut r2] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "broadcast");
        }
    }

    #[test]
    fn disconnected_watcher_is_dropped() {
        let mut server = EkvServer::start().unwrap();
        {
            let _reader = connect(server.addr());
            settle(&mut server, 1);
        } // reader dropped: TCP closed
        server.publish("a");
        server.publish("b");
        server.publish("c");
        settle(&mut server, 0);
    }

    #[test]
    fn local_feed_replays_and_streams() {
        let mut feed = LocalFeed::default();
        feed.publish("early");
        // A reader that joins now starts at cursor 0 and replays the backlog.
        let mut cursor = 0;
        assert_eq!(feed.since(cursor), b"early\n");
        cursor += feed.since(cursor).len();
        feed.publish("late");
        assert_eq!(feed.since(cursor), b"late\n");
        assert_eq!(feed.backlog().collect::<Vec<_>>(), ["early", "late"]);
    }

    #[test]
    fn watcher_input_reaches_installer() {
        // §6.3: interaction flows back through the same connection.
        let mut server = EkvServer::start().unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        settle(&mut server, 1);
        writeln!(stream, "ok").unwrap();
        write!(stream, "format-disk yes\r\n").unwrap();
        stream.flush().unwrap();
        assert_eq!(server.wait_input(Duration::from_secs(5)).as_deref(), Some("ok"));
        assert_eq!(server.wait_input(Duration::from_secs(5)).as_deref(), Some("format-disk yes"));
        assert_eq!(server.wait_input(Duration::ZERO), None);
    }

    #[test]
    fn dropping_the_server_closes_every_watcher() {
        let mut server = EkvServer::start().unwrap();
        server.publish("x");
        let mut reader = connect(server.addr());
        settle(&mut server, 1);
        drop(server);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "x\n");
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after the backlog");
    }
}
