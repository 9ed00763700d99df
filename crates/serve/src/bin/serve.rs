//! `serve` — stand-alone fourq-serve server binary.
//!
//! ```text
//! serve [--addr 127.0.0.1:0] [--window-us 0] [--max-batch 256]
//!       [--queue-cap 8192] [--tenant-root N]
//! ```
//!
//! Every flag defaults to `ServerConfig::default()`: `--window-us 0` is
//! work-conserving (a flush leaves as soon as an executor is free), a
//! positive window lingers that long for a batch to form, and
//! `--max-batch 1` executes every request alone. The server runs one
//! executor per thread of `FOURQ_THREADS` (else the host's parallelism,
//! capped at 8); each runs whole flushes on its own thread.
//!
//! Binds (port `0` = ephemeral), prints the resolved address on the
//! first stdout line as `listening on <addr>`, then serves until killed.
//! Scripts (the CI serve-smoke stage) read that line to discover the
//! port.

use fourq_serve::ServerConfig;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--window-us N] [--max-batch N]\n\
         \x20            [--queue-cap N] [--tenant-root N]\n\
         executors: FOURQ_THREADS, else the host's parallelism (capped at 8)"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = String::from("127.0.0.1:0");
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--addr" => addr = val("--addr"),
            "--window-us" => cfg.window_us = parse(&val("--window-us")),
            "--max-batch" => cfg.max_batch = parse(&val("--max-batch")),
            "--queue-cap" => cfg.queue_cap = parse(&val("--queue-cap")),
            "--tenant-root" => cfg.tenant_root = parse(&val("--tenant-root")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }

    let handle = match fourq_serve::spawn_on(&addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "window_us={} max_batch={} queue_cap={} executors={}",
        cfg.window_us,
        cfg.max_batch,
        cfg.queue_cap,
        fourq_pool::resolved_threads()
    );
    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value: {s}");
        usage()
    })
}
