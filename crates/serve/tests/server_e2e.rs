//! End-to-end server behaviour: backpressure, malformed input handling,
//! connection lifecycle, and the wire stats probe.

use fourq_curve::{CurveId, FourQEngine, MultiCurveEngine};
use fourq_fp::{Scalar, SUBGROUP_ORDER};
use fourq_serve::proto::{encode_request, OpKind, Request, Status, MAX_FRAME, PROTO_VERSION};
use fourq_serve::{Client, ServerConfig};
use fourq_sig::schnorr;
use std::time::Duration;

fn quiet_server(cfg: ServerConfig) -> fourq_serve::ServerHandle {
    fourq_serve::spawn(cfg).expect("spawn server")
}

#[test]
fn busy_backpressure_rejects_beyond_queue_cap() {
    // A long window keeps requests queued; cap 2 forces the third into
    // an explicit Busy rejection instead of unbounded buffering.
    let handle = quiet_server(ServerConfig {
        window_us: 200_000,
        queue_cap: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    for i in 1..=3u64 {
        client
            .send_with_id(
                i,
                &Request::FixedBaseMul {
                    scalar: Scalar::from_u64(i),
                },
            )
            .expect("send");
    }
    let mut statuses = Vec::new();
    for _ in 0..3 {
        let resp = client.recv().expect("recv");
        statuses.push((resp.id, resp.status));
    }
    // The Busy rejection arrives first (answered inline); the two queued
    // requests complete Ok once the window flushes.
    statuses.sort_unstable_by_key(|(id, _)| *id);
    assert_eq!(statuses[0].1, Status::Ok);
    assert_eq!(statuses[1].1, Status::Ok);
    assert_eq!(statuses[2].1, Status::Busy);
    assert_eq!(handle.stats().busy_rejects, 1);
    handle.shutdown();
}

#[test]
fn malformed_frame_answers_and_keeps_the_connection() {
    let handle = quiet_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A well-framed payload with an unknown op tag: id echoes back.
    let mut payload = vec![PROTO_VERSION, 0xEE];
    payload.extend_from_slice(&42u64.to_le_bytes());
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_raw(&frame).expect("send raw");
    let resp = client.recv().expect("recv");
    assert_eq!((resp.id, resp.status), (42, Status::Malformed));

    // A wrong protocol version likewise.
    let mut payload = vec![PROTO_VERSION + 9, 2];
    payload.extend_from_slice(&43u64.to_le_bytes());
    payload.extend_from_slice(&[0u8; 32]);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_raw(&frame).expect("send raw");
    let resp = client.recv().expect("recv");
    assert_eq!((resp.id, resp.status), (43, Status::Malformed));

    // The connection is still good for real work afterwards.
    let resp = client
        .call(&Request::FixedBaseMul {
            scalar: Scalar::from_u64(9),
        })
        .expect("call after malformed");
    assert_eq!(resp.status, Status::Ok);
    handle.shutdown();
}

#[test]
fn non_canonical_schnorr_s_is_malformed_and_keeps_the_connection() {
    let handle = quiet_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let kp = schnorr::KeyPair::from_seed(&[7u8; 32]);
    let msg = b"one signature, one encoding";
    let sig = kp.sign(msg);

    // s + N is a second encoding of the same residue: a malformed frame,
    // answered with the id echoed.
    let s_plus_n = sig
        .s
        .to_u256()
        .checked_add(&SUBGROUP_ORDER)
        .expect("s + N fits in 256 bits");
    let mut payload = vec![PROTO_VERSION, OpKind::SchnorrVerify.as_u8()];
    payload.extend_from_slice(&77u64.to_le_bytes());
    payload.extend_from_slice(&kp.public.encoded);
    payload.extend_from_slice(&sig.r);
    payload.extend_from_slice(&s_plus_n.to_le_bytes());
    payload.extend_from_slice(msg);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_raw(&frame).expect("send raw");
    let resp = client.recv().expect("recv");
    assert_eq!((resp.id, resp.status), (77, Status::Malformed));

    // The canonical encoding of the same signature still verifies on the
    // same connection.
    let resp = client
        .call(&Request::SchnorrVerify {
            public: kp.public.encoded,
            sig_r: sig.r,
            sig_s: sig.s,
            msg: msg.to_vec(),
        })
        .expect("call after malformed");
    assert_eq!((resp.status, resp.payload), (Status::Ok, vec![1]));
    handle.shutdown();
}

#[test]
fn unknown_curve_id_answers_typed_frame_and_keeps_connection() {
    let handle = quiet_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A well-framed CurveMul naming curve id 7: the server answers the
    // typed UnknownCurve status with the id echoed, not Malformed, and
    // does not drop the connection.
    let mut payload = vec![PROTO_VERSION, OpKind::CurveMul.as_u8()];
    payload.extend_from_slice(&91u64.to_le_bytes());
    payload.push(7); // unknown curve byte
    payload.extend_from_slice(&[0u8; 64]); // scalar + point-sized tail
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    client.send_raw(&frame).expect("send raw");
    let resp = client.recv().expect("recv");
    assert_eq!((resp.id, resp.status), (91, Status::UnknownCurve));

    // The same connection still serves real multi-curve work.
    let eng = MultiCurveEngine::shared();
    for curve in CurveId::ALL {
        let scalar = [5u8; 32];
        let point = eng.generator_encoded(curve);
        let resp = client
            .call(&Request::CurveMul {
                curve,
                scalar,
                point: point.clone(),
            })
            .expect("curve_mul call");
        assert_eq!(resp.status, Status::Ok, "{curve}");
        assert_eq!(
            resp.payload,
            eng.curve_mul(curve, &scalar, &point).expect("one-shot"),
            "{curve}"
        );
    }
    handle.shutdown();
}

#[test]
fn oversized_frame_closes_the_connection_but_not_the_server() {
    let handle = quiet_server(ServerConfig::default());
    let mut bad = Client::connect(handle.addr()).expect("connect");
    bad.send_raw(&(MAX_FRAME as u32 + 1).to_le_bytes())
        .expect("send raw");
    // The server answers Malformed and/or closes; either way the read
    // side terminates instead of hanging.
    match bad.recv() {
        Ok(resp) => assert_eq!(resp.status, Status::Malformed),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
    }

    // A fresh connection still serves.
    let mut good = Client::connect(handle.addr()).expect("connect");
    let resp = good
        .call(&Request::FixedBaseMul {
            scalar: Scalar::from_u64(4),
        })
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    handle.shutdown();
}

#[test]
fn truncated_stream_then_disconnect_leaves_server_healthy() {
    let handle = quiet_server(ServerConfig::default());
    {
        let mut partial = Client::connect(handle.addr()).expect("connect");
        // Announce 50 bytes, deliver 3, vanish.
        partial.send_raw(&50u32.to_le_bytes()).expect("send raw");
        partial.send_raw(&[1, 2, 3]).expect("send raw");
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client
        .call(&Request::FixedBaseMul {
            scalar: Scalar::from_u64(6),
        })
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    handle.shutdown();
}

#[test]
fn stats_probe_reports_coalescing_over_the_wire() {
    let handle = quiet_server(ServerConfig {
        window_us: 5_000,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let n = 16u64;
    for i in 1..=n {
        client
            .send_with_id(
                i,
                &Request::FixedBaseMul {
                    scalar: Scalar::from_u64(i),
                },
            )
            .expect("send");
    }
    for _ in 0..n {
        assert_eq!(client.recv().expect("recv").status, Status::Ok);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.items, n);
    assert!(
        stats.flushes >= 1 && stats.flushes < n,
        "expected coalescing"
    );
    assert!(stats.mean_flush() > 1.0);
    handle.shutdown();
}

#[test]
fn shutdown_drains_pending_work() {
    let handle = quiet_server(ServerConfig {
        window_us: 100_000,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .send_with_id(
            1,
            &Request::FixedBaseMul {
                scalar: Scalar::from_u64(11),
            },
        )
        .expect("send");
    // Give the reactor a moment to enqueue before shutting down.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let stats = handle.stats();
    handle.shutdown();
    // The request was either flushed before shutdown or drained by it;
    // the coalescer contract says it is never silently dropped.
    assert!(stats.items <= 1);
}

#[test]
fn burst_coalesces_with_no_window_on_the_default_config() {
    // 64 requests in one write: the first flush may leave alone, and the
    // rest queue while it runs, so batches form with no window at all.
    let handle = quiet_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let n = 64u64;
    let burst: Vec<u8> = (1..=n)
        .flat_map(|i| {
            encode_request(
                i,
                &Request::FixedBaseMul {
                    scalar: Scalar::from_u64(i),
                },
            )
        })
        .collect();
    client.send_raw(&burst).expect("send burst");
    let eng = FourQEngine::shared();
    let mut seen = vec![false; n as usize];
    for _ in 0..n {
        let resp = client.recv().expect("recv");
        assert_eq!(resp.status, Status::Ok, "id {}", resp.id);
        let want = eng.fixed_base_mul(&Scalar::from_u64(resp.id)).encode();
        assert_eq!(resp.payload, want.to_vec(), "id {}", resp.id);
        let first = !std::mem::replace(&mut seen[resp.id as usize - 1], true);
        assert!(first, "duplicate response id {}", resp.id);
    }
    let stats = handle.stats();
    handle.shutdown();
    assert_eq!(stats.items, n);
    assert!(stats.flushes < n, "no batch formed: {stats:?}");
}

#[test]
fn shutdown_on_the_default_config_returns() {
    // With the executors gone, the reactor's response channel reports
    // Disconnected; shutdown must still join every thread.
    let handle = quiet_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client
        .call(&Request::FixedBaseMul {
            scalar: Scalar::from_u64(12),
        })
        .expect("call");
    assert_eq!(resp.status, Status::Ok);
    let (tx, rx) = std::sync::mpsc::channel();
    let closer = std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("shutdown returns");
    closer.join().expect("shutdown thread");
}

#[cfg(target_os = "linux")]
#[test]
fn a_client_that_never_reads_cannot_grow_the_server() {
    // One client writes 1 M `Stats` frames (14 bytes each, 46-byte
    // answers) and never reads. The server stops reading it once its
    // unsent answers pass the output cap, so the client's writes stall
    // and the server's peak resident set stays small; uncapped, the
    // answers pile up to ~46 MB. The `serve` binary runs as a child
    // process so its peak (`VmHWM`) is its own.
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    use std::process::{Command, Stdio};
    use std::time::Instant;

    struct Kill(std::process::Child);
    impl Drop for Kill {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut serve = Kill(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("start serve"),
    );
    let mut line = String::new();
    BufReader::new(serve.0.stdout.take().expect("serve stdout"))
        .read_line(&mut line)
        .expect("read the address line");
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .expect("address line");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nonblocking(true).expect("non-blocking");
    let burst = encode_request(0, &Request::Stats).repeat(1024);
    let total = burst.len() / 1024 * 1_000_000;
    let (mut sent, mut progress) = (0, Instant::now());
    while sent < total && progress.elapsed() < Duration::from_secs(1) {
        let at = sent % burst.len();
        match stream.write(&burst[at..burst.len().min(at + total - sent)]) {
            Ok(n) => {
                sent += n;
                progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("write: {e}"),
        }
    }
    // Without the cap the server is still reading what the kernel
    // buffered for it; let it, so a missing cap shows in full.
    std::thread::sleep(Duration::from_millis(500));

    let status = std::fs::read_to_string(format!("/proc/{}/status", serve.0.id()))
        .expect("read the server's /proc status");
    let hwm_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    assert!(
        hwm_kb < 16 * 1024,
        "server peak RSS {hwm_kb} kB after {sent} of {total} bytes from a client that never reads"
    );
    // The stalled connection does not stall the reactor.
    let probe = std::net::TcpStream::connect(addr).expect("connect a second client");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let stats = Client::from_stream(probe).stats();
    assert!(stats.is_ok(), "second connection: {stats:?}");
}
