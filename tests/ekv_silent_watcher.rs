//! §6.3's watcher who walks away must not stall the install: the eKV
//! port is driven from the installer's thread, and a watcher that never
//! reads only falls behind.

use rocks::ekv::EkvServer;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// Bytes in one transcript line, newline included.
const LINE: usize = 1024;
/// Lines in the transcript: 64 MiB.
const LINES: usize = 64 << 10;

/// Line `i` of the transcript as it goes over the wire.
fn wire_line(i: usize) -> String {
    format!("{i:07} {:.<width$}\n", "", width = LINE - 9)
}

/// Check that `bytes` continue the transcript at byte `pos`, and advance
/// `pos` past them.
fn check_in_order(pos: &mut usize, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        let (i, off) = (*pos / LINE, *pos % LINE);
        let n = bytes.len().min(LINE - off);
        assert!(bytes[..n] == wire_line(i).as_bytes()[off..off + n], "byte {pos} is out of order");
        *pos += n;
        bytes = &bytes[n..];
    }
}

/// §6.3's watcher who walks away: one connection never reads while the
/// installer publishes 64 MiB. `publish` must keep returning, a reading
/// watcher must get every line in order, and the silent one must still be
/// connected — when it reads at last, it gets the whole transcript.
#[test]
fn a_silent_watcher_never_blocks_the_installer() {
    let started = Instant::now();
    let mut server = EkvServer::start().unwrap();
    let mut silent = TcpStream::connect(server.addr()).unwrap();
    let addr = server.addr();
    let reader = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let (mut pos, mut buf) = (0, vec![0u8; 64 << 10]);
        while pos < LINE * LINES {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "the reading watcher was dropped at byte {pos}");
            check_in_order(&mut pos, &buf[..n]);
        }
        writeln!(stream, "done").unwrap();
    });

    for i in 0..LINES {
        server.publish(wire_line(i).trim_end());
    }
    let published = started.elapsed();
    assert_eq!(server.wait_input(Duration::from_secs(60)).as_deref(), Some("done"));
    reader.join().unwrap();

    silent.set_nonblocking(true).unwrap();
    let (mut pos, mut buf) = (0, vec![0u8; 64 << 10]);
    let deadline = Instant::now() + Duration::from_secs(60);
    while pos < LINE * LINES {
        assert!(Instant::now() < deadline, "the silent watcher stalled at byte {pos}");
        server.wait_input(Duration::ZERO);
        loop {
            match silent.read(&mut buf) {
                Ok(0) => panic!("the silent watcher was dropped at byte {pos}"),
                Ok(n) => check_in_order(&mut pos, &buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
    }
    println!(
        "published {LINES} lines ({} MiB) in {published:?}; both watchers done in {:?}",
        (LINE * LINES) >> 20,
        started.elapsed()
    );
}
