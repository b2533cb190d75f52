//! The server out of file descriptors: `accept` failing with `EMFILE`
//! must not spin the workers on the still-readable listener, and
//! service must resume once descriptors come free.
//!
//! Its own test binary because it lowers the process-wide
//! `RLIMIT_NOFILE`, which would starve any test running beside it.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use utcq::core::serve::Server;
use utcq::core::Opened;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

/// Caps this process's open descriptors at `limit`.
fn limit_open_files(limit: u64) {
    let mut rl = RLimit { cur: 0, max: 0 };
    // SAFETY: `rl` is a live, C-laid-out rlimit the calls read/write.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) }, 0);
    rl.cur = limit.min(rl.max);
    // SAFETY: as above.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &rl) }, 0);
}

/// The highest descriptor number this process has open.
fn highest_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .unwrap_or(0)
}

/// User plus system CPU time of this process, in clock ticks, read
/// through an already open `/proc/self/stat` (no descriptor needed).
fn cpu_ticks(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).expect("rewind stat");
    stat.read_to_string(&mut text).expect("read stat");
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = &text[text.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

fn ping(stream: &TcpStream) -> String {
    let mut w = stream;
    w.write_all(b"{\"id\":1,\"op\":\"ping\"}\n")
        .expect("send ping");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read pong");
    line.trim_end().to_string()
}

const PONG: &str = r#"{"id":1,"ok":true,"op":"ping"}"#;

#[test]
fn accept_out_of_descriptors_idles_and_recovers() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny_v3.utcq");
    let opened = Arc::new(Opened::open(path).expect("fixture opens"));
    let server = Server::bind(opened, "127.0.0.1:0", 2).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));

    // Clients the server is already serving.
    let served: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    for s in &served {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ping(s), PONG);
    }
    let mut stat = File::open("/proc/self/stat").expect("open stat");

    // Fill the descriptor table, then free exactly one slot for a
    // client socket: its connection completes in the kernel, and the
    // server's accept fails with EMFILE.
    limit_open_files(highest_fd() + 16);
    let mut filler = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        filler.push(f);
    }
    filler.pop();
    let pending = TcpStream::connect(addr).expect("connect the pending client");
    pending
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    (&pending)
        .write_all(b"{\"id\":1,\"op\":\"ping\"}\n")
        .expect("send ping");

    // The listener stays readable, but the workers must idle.
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_ticks(&mut stat);
    std::thread::sleep(Duration::from_millis(200));
    let spent = cpu_ticks(&mut stat) - before;
    assert!(
        spent <= 5,
        "{spent} clock ticks of CPU in 200 ms with accept out of descriptors"
    );

    // Served clients close: their descriptors come free, and the
    // pending connection is accepted and answered.
    drop(served);
    let mut line = String::new();
    BufReader::new(&pending)
        .read_line(&mut line)
        .expect("pending client's pong");
    assert_eq!(line.trim_end(), PONG);

    drop(filler);
    handle.shutdown();
    runner.join().expect("server thread");
}
