//! The watcher side: what `shoot-node`'s xterm runs.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connect to a node's eKV port and invoke `on_line` for every line until
/// `until` returns true, the peer closes, or `timeout` elapses with no
/// traffic. Returns the number of lines observed.
pub fn watch_lines(
    addr: SocketAddr,
    timeout: Duration,
    mut on_line: impl FnMut(&str),
    mut until: impl FnMut(&str) -> bool,
) -> std::io::Result<usize> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut reader = BufReader::new(stream);
    let mut count = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // peer closed (node rebooted into the OS)
            Ok(_) => {
                let text = line.trim_end();
                count += 1;
                on_line(text);
                if until(text) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    Ok(count)
}
