//! The load generator: one thread per client, each with one keep-alive
//! connection and its own pre-generated stream.
//!
//! A client has one request in flight. In an open-loop phase it sends
//! each request at its due instant, or as soon after as the previous
//! response allows; latency is timed from the *due* instant either way,
//! so the wait a stall imposes on later requests is counted, and how
//! late each request left is kept beside it.

use crate::stream::{ClientStream, Op, Request};
use crate::trace::{self, now_ns};
use om_http::{HttpClient, HttpServer, Response};
use std::time::Duration;

/// What came back for one request.
pub struct Sample {
    pub op: Op,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status, 0 for a transport error.
    pub status: u16,
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Index into the sending client's [`ClientStream::carts`].
    pub cart: usize,
    pub client: usize,
    /// Whether span recording was on when the request was sent.
    pub traced: bool,
    /// Kept for every checkout (the audit needs the order id) and for
    /// every 32nd other request (dashboard checks, encode probes).
    pub response: Option<Response>,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }

    /// 2xx, a business rejection (422) or a miss (404) is an answer;
    /// anything else — 409 and 503 included — failed.
    pub fn failed(&self) -> bool {
        !(matches!(self.status, 200..=299) || self.status == 422 || self.status == 404)
    }
}

pub struct Client {
    pub index: usize,
    pub stream: ClientStream,
    http: HttpClient,
    sent: usize,
    /// The core this client's threads pin themselves to, if the cell set
    /// one aside for the clients (see [`crate::placement`]).
    core: Option<usize>,
}

impl Client {
    pub fn connect(
        server: &HttpServer,
        index: usize,
        stream: ClientStream,
        core: Option<usize>,
    ) -> Self {
        Self {
            index,
            stream,
            http: server.connect(),
            sent: 0,
            core,
        }
    }

    pub fn core(&self) -> Option<usize> {
        self.core
    }

    /// Sends one request and waits for its response.
    pub fn exchange(&mut self, req: &Request, due_ns: Option<u64>) -> Sample {
        let sent_ns = now_ns();
        self.http.send_raw(&self.stream.wire[req.wire.clone()]);
        let response = self.http.read_response();
        let done_ns = now_ns();
        self.sent += 1;
        let (status, response_bytes, response) = match response {
            Ok(r) => {
                let keep = req.op == Op::Checkout || self.sent.is_multiple_of(32);
                (r.status, r.body.len(), keep.then_some(r))
            }
            Err(_) => (0, 0, None),
        };
        Sample {
            op: req.op,
            due_ns: due_ns.unwrap_or(sent_ns),
            sent_ns,
            done_ns,
            status,
            request_bytes: req.wire.len(),
            response_bytes,
            cart: req.cart,
            client: self.index,
            traced: false,
            response,
        }
    }

    pub fn close(self) {
        self.http.close();
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Puts the calling client thread on the clients' core, if there is one,
/// and lets its sleeps end on time: with the default 50 µs timer slack a
/// sleep overshoots by tens of microseconds, which would be charged to
/// the system as latency.
fn become_client_thread(core: Option<usize>) {
    if let Some(core) = core {
        crate::placement::pin_client(core);
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: sets the calling thread's own timer slack to 1 ns; the
    // remaining arguments are unused by this option.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Sleeps until just before `t`, then spins the rest, so that the
/// request leaves at its due instant and not a wake-up later.
fn wait_until(t: u64) {
    const SPIN_NS: u64 = 20_000;
    loop {
        let now = now_ns();
        if now >= t {
            return;
        }
        if t - now > 2 * SPIN_NS {
            std::thread::sleep(Duration::from_nanos(t - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// The instant due times count from.
    pub start_ns: u64,
    /// First due instant to last response, over all clients.
    pub elapsed_ns: u64,
}

/// Length of the slices an alternating phase switches span recording by.
pub const SLICE_NS: u64 = 250_000_000;

/// Whether spans are recorded while a phase runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Spans {
    Off,
    /// On in even [`SLICE_NS`] slices of the phase, off in odd ones, so
    /// traced and untraced requests see the same state and drift.
    Alternate,
}

/// Whether spans are recorded `at_ns` into an alternating phase. Every
/// client asks with the same clock, so all agree on the slice.
fn in_traced_slice(at_ns: u64) -> bool {
    (at_ns / SLICE_NS).is_multiple_of(2)
}

/// Runs phase `phase` of every client's stream concurrently, one thread
/// per client: open loop if its requests carry due times, closed loop
/// (back to back) if not. While spans are recorded, each request is also
/// recorded as a `client.<op>` span.
pub fn run_phase(clients: &mut [Client], phase: usize, spans: Spans) -> PhaseResult {
    // Far enough ahead that every thread is running before the first due.
    let start = now_ns() + 20_000_000;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    become_client_thread(client.core);
                    let reqs = std::mem::take(&mut client.stream.phases[phase]);
                    wait_until(start);
                    let samples: Vec<Sample> = reqs
                        .iter()
                        .map(|req| {
                            let due = (req.due_ns > 0).then(|| {
                                wait_until(start + req.due_ns);
                                start + req.due_ns
                            });
                            // The slice comes from the clock, not from this
                            // request's due time: a client running late must
                            // not switch recording under the other's feet.
                            let traced = spans == Spans::Alternate
                                && in_traced_slice(now_ns().saturating_sub(start));
                            if spans == Spans::Alternate {
                                trace::set_enabled(traced);
                            }
                            let mut sample = client.exchange(req, due);
                            sample.traced = traced;
                            if spans == Spans::Alternate {
                                trace::record_client(
                                    client_span(req.op),
                                    0,
                                    sample.due_ns,
                                    sample.done_ns,
                                    !sample.failed(),
                                );
                            }
                            sample
                        })
                        .collect();
                    client.stream.phases[phase] = reqs;
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.due_ns);
    trace::set_enabled(false);
    let end = samples.iter().map(|s| s.done_ns).max().unwrap_or(start);
    PhaseResult {
        samples,
        start_ns: start,
        elapsed_ns: end - start,
    }
}

/// Runs phase `phase` with exactly one request in flight, alternating
/// between the clients, and names that request to the span recorder so
/// work done for it on any thread is attributed to it. `settle` runs
/// between requests (untimed) to drain work the response did not wait for.
pub fn run_one_in_flight(
    clients: &mut [Client],
    phase: usize,
    settle: impl Fn() + Send,
) -> Vec<Sample> {
    let longest = clients
        .iter()
        .map(|c| c.stream.phases[phase].len())
        .max()
        .unwrap_or(0);
    let core = clients.first().and_then(|c| c.core);
    // On a thread of its own so that it runs where the client threads do.
    std::thread::scope(|scope| {
        let pass = scope.spawn(move || {
            become_client_thread(core);
            let mut samples = Vec::new();
            let mut id = 0;
            trace::set_enabled(true);
            for i in 0..longest {
                for client in clients.iter_mut() {
                    let Some(req) = client.stream.phases[phase].get(i).cloned() else {
                        continue;
                    };
                    id += 1;
                    trace::set_request(id);
                    let mut sample = client.exchange(&req, None);
                    sample.traced = true;
                    trace::set_request(0);
                    trace::record_client(
                        client_span(req.op),
                        id,
                        sample.sent_ns,
                        sample.done_ns,
                        !sample.failed(),
                    );
                    samples.push(sample);
                    settle();
                }
            }
            trace::set_enabled(false);
            samples
        });
        pass.join().expect("the one-in-flight pass panicked")
    })
}

fn client_span(op: Op) -> &'static str {
    match op {
        Op::CartAdd => "client.cart_add",
        Op::Checkout => "client.checkout",
        Op::PriceUpdate => "client.price_update",
        Op::Dashboard => "client.dashboard",
        Op::Delivery => "client.delivery",
    }
}
