//! The open-loop load generator: one connection, one sender thread and
//! one receiver thread.
//!
//! Arrivals are Poisson at a fixed rate and drawn up front from the
//! seed. The sender sleeps until each request is due and writes every
//! request already due in one pipelined write; the receiver reads the
//! replies in order. Latency runs from the due instant to the read that
//! completed the reply, so a stall anywhere (generator included) counts
//! against every request it delayed.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use mutcon_http::message::Response;
use mutcon_http::parse::parse_response;
use mutcon_sim::rng::SimRng;

use crate::sys;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option setting the calling thread's timer slack in ns.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the kernel wake this thread's sleeps up to 1 µs late instead of
/// the default 50 µs, so the sender's own lateness stays small beside
/// the latency it measures. A refusal only leaves the default in place.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument by value
    // and changes only the calling thread's timer slack; no memory is
    // shared with the kernel.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

/// Seeded arrivals: due offsets (ns from the window start) and the key
/// each request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Due instant of request `i`, nanoseconds after the window opens.
    pub due_ns: Vec<u64>,
    /// Object index of request `i`.
    pub keys: Vec<u32>,
}

impl Schedule {
    /// Poisson arrivals at `rate` per second over `seconds`, keys drawn
    /// by `key` from the same seeded stream.
    pub fn poisson(
        rng: &mut SimRng,
        rate: f64,
        seconds: f64,
        mut key: impl FnMut(&mut SimRng) -> u32,
    ) -> Schedule {
        let mean_gap_ns = 1e9 / rate;
        let end_ns = seconds * 1e9;
        let mut at = 0.0;
        let mut due_ns = Vec::with_capacity((rate * seconds * 1.1) as usize);
        let mut keys = Vec::with_capacity(due_ns.capacity());
        loop {
            at += rng.exponential(mean_gap_ns);
            if at >= end_ns {
                break;
            }
            due_ns.push(at as u64);
            keys.push(key(rng));
        }
        Schedule { due_ns, keys }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.due_ns.len()
    }
}

/// What the receiver made of one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Nanoseconds from the window start to the read completing it.
    pub recv_ns: u64,
    /// The verdict of the workload's check (`Some(stamp)` = correct).
    pub stamp_ms: Option<u64>,
}

/// One window's raw results.
#[derive(Debug, Default)]
pub struct Drive {
    /// Per request: its reply, if one arrived before the deadline.
    pub replies: Vec<Option<Reply>>,
    /// Per request: how late the sender wrote it, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Per request: the part of its lateness that was the sender's own,
    /// counted from its due instant or from when the sender's previous
    /// write returned, whichever is later. A proxy that stops draining
    /// the connection blocks that write; the wait is the proxy's.
    pub own_late_ns: Vec<u64>,
    /// Sender plus receiver CPU time over the window.
    pub gen_cpu_ns: u64,
    /// `sample()` read at the window start and after every slice.
    pub samples: Vec<u64>,
    /// Traced windows only, per request: when the write carrying it
    /// returned (ns after the window start).
    pub written_ns: Vec<u64>,
    /// Traced windows only, per reply: the receiver's `parse_response`
    /// call that completed it, (start, end) ns after the window start.
    pub parse_ns: Vec<(u64, u64)>,
}

/// Runs `schedule` over `stream`, opening the window at `start`.
/// Replies still missing at `deadline` stay `None`; the stream is then
/// shut down, so a sender blocked on a connection the proxy stopped
/// reading returns, and the connection is not used again. `verify`
/// judges a reply to the request for `key`, returning its stamp when
/// correct. With `traced`, the sender and the receiver record when each
/// write returned and each reply's parse. Meanwhile the calling thread
/// reads `sample` at `start` and every `slice` after it until the last
/// request is due.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    stream: &TcpStream,
    requests: &[Vec<u8>],
    schedule: &Schedule,
    start: Instant,
    deadline: Instant,
    traced: bool,
    verify: &(dyn Fn(u32, &Response) -> Option<u64> + Sync),
    slice: Duration,
    sample: &dyn Fn() -> u64,
) -> io::Result<Drive> {
    let n = schedule.len();
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    // No single write may outlast the window and its grace.
    writer.set_write_timeout(Some(deadline.saturating_duration_since(Instant::now())))?;

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            tighten_timer_slack();
            let cpu0 = sys::thread_cpu_ns();
            let mut late_ns = vec![0u64; n];
            let mut own_late_ns = vec![0u64; n];
            let mut written_ns = if traced { vec![0u64; n] } else { Vec::new() };
            let mut batch = Vec::with_capacity(64 * 1024);
            let mut free_ns = 0;
            let mut i = 0;
            while i < n {
                let due = start + Duration::from_nanos(schedule.due_ns[i]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now_ns = start.elapsed().as_nanos() as u64;
                batch.clear();
                let first = i;
                while i < n && schedule.due_ns[i] <= now_ns {
                    batch.extend_from_slice(&requests[schedule.keys[i] as usize]);
                    late_ns[i] = now_ns - schedule.due_ns[i];
                    own_late_ns[i] = now_ns - schedule.due_ns[i].max(free_ns).min(now_ns);
                    i += 1;
                }
                if writer.write_all(&batch).is_err() {
                    break;
                }
                free_ns = start.elapsed().as_nanos() as u64;
                if traced {
                    written_ns[first..i].fill(free_ns);
                }
            }
            (
                late_ns,
                own_late_ns,
                written_ns,
                sys::thread_cpu_ns() - cpu0,
            )
        });

        let receiver = scope.spawn(move || {
            let cpu0 = sys::thread_cpu_ns();
            let mut replies: Vec<Option<Reply>> = vec![None; n];
            let mut parse_ns = Vec::new();
            let mut buf: Vec<u8> = Vec::with_capacity(256 * 1024);
            let mut chunk = vec![0u8; 64 * 1024];
            let mut next = 0;
            'read: while next < n && Instant::now() < deadline {
                let got = match reader.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(got) => got,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(_) => break,
                };
                let recv_ns = start.elapsed().as_nanos() as u64;
                buf.extend_from_slice(&chunk[..got]);
                let mut used = 0;
                while next < n {
                    let parse_start = if traced {
                        start.elapsed().as_nanos() as u64
                    } else {
                        0
                    };
                    match parse_response(&buf[used..]) {
                        Ok(Some((response, len))) => {
                            if traced {
                                parse_ns.push((parse_start, start.elapsed().as_nanos() as u64));
                            }
                            used += len;
                            replies[next] = Some(Reply {
                                recv_ns,
                                stamp_ms: verify(schedule.keys[next], &response),
                            });
                            next += 1;
                        }
                        Ok(None) => break,
                        // An unparseable stream loses every later reply.
                        Err(_) => break 'read,
                    }
                }
                buf.drain(..used);
            }
            (replies, next == n, parse_ns, sys::thread_cpu_ns() - cpu0)
        });

        let last_due = start + Duration::from_nanos(schedule.due_ns.last().copied().unwrap_or(0));
        let mut samples = Vec::new();
        let mut at = start;
        while at <= last_due + slice {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            samples.push(sample());
            at += slice;
        }

        let (replies, complete, parse_ns, recv_cpu) =
            receiver.join().expect("receiver thread panicked");
        if !complete {
            // Replies are matched to requests by their order, so a
            // connection that lost one is out of step for good.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let (late_ns, own_late_ns, written_ns, send_cpu) =
            sender.join().expect("sender thread panicked");
        Ok(Drive {
            replies,
            late_ns,
            own_late_ns,
            gen_cpu_ns: send_cpu + recv_cpu,
            samples,
            written_ns,
            parse_ns,
        })
    })
}

/// Pipelined GETs over `stream` (set-up and warm-up): writes every
/// request at once, then reads their replies in order.
pub fn fetch_all(stream: &mut TcpStream, requests: &[&[u8]]) -> io::Result<Vec<Response>> {
    stream.write_all(&requests.concat())?;
    let mut responses = Vec::with_capacity(requests.len());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while responses.len() < requests.len() {
        let mut used = 0;
        while responses.len() < requests.len() {
            match parse_response(&buf[used..])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                Some((response, len)) => {
                    used += len;
                    responses.push(response);
                }
                None => break,
            }
        }
        buf.drain(..used);
        if responses.len() == requests.len() {
            break;
        }
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..got]);
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Schedule {
        let mut rng = SimRng::seed_from_u64(seed);
        Schedule::poisson(&mut rng, 1000.0, 2.0, |rng| rng.uniform_u64(0, 64) as u32)
    }

    #[test]
    fn same_seed_same_requests_different_seed_different() {
        let a = schedule(1);
        assert_eq!(a, schedule(1));
        let b = schedule(2);
        assert_ne!(a.due_ns, b.due_ns);
        assert_ne!(a.keys, b.keys);
    }

    /// A peer that never reads blocks the sender once the socket buffers
    /// fill; the window still ends at its deadline, every request counts
    /// as unanswered, and the sender is released.
    #[test]
    fn a_peer_that_stops_reading_cannot_hang_the_window() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let requests = vec![vec![b'x'; 16 * 1024]];
        let n = 4096; // 64 MiB, far beyond any loopback socket buffer
        let schedule = Schedule {
            due_ns: vec![0; n],
            keys: vec![0; n],
        };
        let start = Instant::now();
        let deadline = start + Duration::from_millis(500);
        let drive = drive(
            &stream,
            &requests,
            &schedule,
            start,
            deadline,
            false,
            &|_, _| Some(0),
            Duration::from_millis(100),
            &|| 0,
        )
        .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        assert!(drive.replies.iter().all(Option::is_none));
        drop(listener);
    }

    #[test]
    fn poisson_arrivals_keep_the_rate() {
        let s = schedule(3);
        // 2000 expected; a Poisson count is within ±5 σ (≈ 224).
        assert!((1776..=2224).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.due_ns.iter().all(|&d| d < 2_000_000_000));
    }
}
