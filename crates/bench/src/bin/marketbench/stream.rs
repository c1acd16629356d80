//! The seeded request stream: wire bytes and due times, a pure function
//! of the seed. The platform only ever receives what is generated here,
//! so parent and change see byte-identical load.

use om_common::rng::{SplitMix64, Zipfian};

pub const SELLERS: u64 = 10;
pub const PRODUCTS_PER_SELLER: u64 = 10;
pub const PRODUCTS: u64 = SELLERS * PRODUCTS_PER_SELLER;
pub const CUSTOMERS: u64 = 200;
/// Large enough that no product ever sells out, so no checkout is
/// rejected for stock and the stream stays failure-free.
pub const INITIAL_STOCK: u32 = 1_000_000;
pub const ZIPF_THETA: f64 = 0.99;
pub const MAX_CART_LINES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    CartAdd,
    Checkout,
    PriceUpdate,
    Dashboard,
    Delivery,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::CartAdd,
        Op::Checkout,
        Op::PriceUpdate,
        Op::Dashboard,
        Op::Delivery,
    ];
}

/// Request-mix weights, in [`Op::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix(pub [u32; 5]);

impl Mix {
    fn sample(&self, rng: &mut SplitMix64) -> Op {
        let total: u32 = self.0.iter().sum();
        let mut roll = rng.next_bounded(total as u64) as u32;
        for (op, weight) in Op::ALL.into_iter().zip(self.0) {
            if roll < weight {
                return op;
            }
            roll -= weight;
        }
        unreachable!("roll is below the weight total")
    }
}

/// How one phase of the run is paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: `count` requests (over all clients) sent back to back.
    Closed { count: usize },
    /// Open loop: Poisson arrivals at `rps` (over all clients) for `secs`.
    Open { rps: f64, secs: f64 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub op: Op,
    /// Offset from the phase start at which the request is due: at least
    /// 1 in an open-loop phase, 0 (send back to back) in a closed-loop one.
    pub due_ns: u64,
    /// The request's bytes within [`ClientStream::wire`].
    pub wire: std::ops::Range<usize>,
    /// For a checkout, the cart it buys: index into [`ClientStream::carts`].
    pub cart: usize,
}

/// `(product, quantity)` lines of one cart, one line per product.
pub type CartLines = Vec<(u64, u32)>;

/// Everything one client thread sends, phase by phase, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientStream {
    pub wire: Vec<u8>,
    pub phases: Vec<Vec<Request>>,
    pub carts: Vec<CartLines>,
}

impl ClientStream {
    pub fn bytes(&self, req: &Request) -> &[u8] {
        &self.wire[req.wire.clone()]
    }
}

pub fn seller_of(product: u64) -> u64 {
    product / PRODUCTS_PER_SELLER
}

struct Generator {
    rng: SplitMix64,
    zipf: Zipfian,
    mix: Mix,
    /// This client's customers (a disjoint share of all customers).
    customers: Vec<u64>,
    /// Open cart of each of `customers`, by position.
    open: Vec<CartLines>,
    /// Positions in `customers` whose cart is non-empty.
    filled: Vec<usize>,
    out: ClientStream,
}

impl Generator {
    fn push(&mut self, op: Op, due_ns: u64, head: &str, body: &str, cart: usize) -> Request {
        let start = self.out.wire.len();
        self.out.wire.extend_from_slice(head.as_bytes());
        if body.is_empty() {
            self.out
                .wire
                .extend_from_slice(b" HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
        } else {
            self.out.wire.extend_from_slice(
                format!(
                    " HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        Request {
            op,
            due_ns,
            wire: start..self.out.wire.len(),
            cart,
        }
    }

    fn cart_add(&mut self, due_ns: u64) -> Request {
        let at = self.rng.next_bounded(self.customers.len() as u64) as usize;
        // A cart holds at most MAX_CART_LINES products; a full one gets
        // more of a product it already holds.
        let product = if self.open[at].len() < MAX_CART_LINES {
            self.zipf.sample(&mut self.rng)
        } else {
            self.rng.pick(&self.open[at]).0
        };
        let quantity = self.rng.range_inclusive(1, 3) as u32;
        if self.open[at].is_empty() {
            self.filled.push(at);
        }
        match self.open[at].iter_mut().find(|(p, _)| *p == product) {
            Some(line) => line.1 += quantity,
            None => self.open[at].push((product, quantity)),
        }
        let head = format!("POST /customers/{}/cart/items", self.customers[at]);
        let body = format!(
            "{{\"seller\":{},\"product\":{product},\"quantity\":{quantity}}}",
            seller_of(product)
        );
        self.push(Op::CartAdd, due_ns, &head, &body, usize::MAX)
    }

    fn checkout(&mut self, due_ns: u64) -> Request {
        if self.filled.is_empty() {
            // Nothing to buy yet: a checkout must follow a cart_add.
            return self.cart_add(due_ns);
        }
        let pick = self.rng.next_bounded(self.filled.len() as u64) as usize;
        let at = self.filled.swap_remove(pick);
        let lines = std::mem::take(&mut self.open[at]);
        let items: Vec<String> = lines
            .iter()
            .map(|(product, quantity)| {
                format!(
                    "{{\"seller\":{},\"product\":{product},\"quantity\":{quantity}}}",
                    seller_of(*product)
                )
            })
            .collect();
        let head = format!("POST /customers/{}/checkout", self.customers[at]);
        let body = format!(
            "{{\"items\":[{}],\"method\":\"CreditCard\"}}",
            items.join(",")
        );
        self.out.carts.push(lines);
        let cart = self.out.carts.len() - 1;
        self.push(Op::Checkout, due_ns, &head, &body, cart)
    }

    fn request(&mut self, due_ns: u64) -> Request {
        match self.mix.sample(&mut self.rng) {
            Op::CartAdd => self.cart_add(due_ns),
            Op::Checkout => self.checkout(due_ns),
            Op::PriceUpdate => {
                let product = self.zipf.sample(&mut self.rng);
                let price = self.rng.range_inclusive(100, 100_000);
                let head = format!("PATCH /products/{}/{product}/price", seller_of(product));
                let body = format!("{{\"price\":{price}}}");
                self.push(Op::PriceUpdate, due_ns, &head, &body, usize::MAX)
            }
            Op::Dashboard => {
                let seller = self.rng.next_bounded(SELLERS);
                let head = format!("GET /sellers/{seller}/dashboard");
                self.push(Op::Dashboard, due_ns, &head, "", usize::MAX)
            }
            Op::Delivery => self.push(
                Op::Delivery,
                due_ns,
                "PATCH /shipments/delivery?max_sellers=10",
                "",
                usize::MAX,
            ),
        }
    }

    fn phase(&mut self, pace: Pace, clients: usize) -> Vec<Request> {
        match pace {
            Pace::Closed { count } => (0..count / clients).map(|_| self.request(0)).collect(),
            Pace::Open { rps, secs } => {
                let per_client = rps / clients as f64;
                let mut reqs = Vec::with_capacity((per_client * secs) as usize + 16);
                let mut t = 0.0f64;
                loop {
                    // Exponential gaps make the arrivals Poisson.
                    t += -(1.0 - self.rng.next_f64()).ln() / per_client;
                    if t >= secs {
                        return reqs;
                    }
                    reqs.push(self.request(((t * 1e9) as u64).max(1)));
                }
            }
        }
    }
}

/// One stream seed per cell of a run, a pure function of the run's seed.
pub fn cell_seeds(seed: u64, cells: usize) -> Vec<u64> {
    let mut root = SplitMix64::new(seed);
    (0..cells).map(|_| root.next_u64()).collect()
}

/// Generates every client's stream for one cell: one phase per entry of
/// `phases`, the totals split evenly over `clients`. Client `i` owns the
/// customers `c` with `c % clients == i`, so no two clients ever touch
/// the same cart and each cart sees its requests in generated order.
pub fn generate(seed: u64, clients: usize, phases: &[(Mix, Pace)]) -> Vec<ClientStream> {
    let mut root = SplitMix64::new(seed);
    (0..clients)
        .map(|client| {
            let customers: Vec<u64> = (0..CUSTOMERS)
                .filter(|c| *c as usize % clients == client)
                .collect();
            let mut gen = Generator {
                rng: root.fork(),
                zipf: Zipfian::new(PRODUCTS, ZIPF_THETA),
                mix: Mix([1, 0, 0, 0, 0]),
                open: vec![CartLines::new(); customers.len()],
                customers,
                filled: Vec::new(),
                out: ClientStream {
                    wire: Vec::new(),
                    phases: Vec::new(),
                    carts: Vec::new(),
                },
            };
            for (mix, pace) in phases {
                gen.mix = *mix;
                let reqs = gen.phase(*pace, clients);
                gen.out.phases.push(reqs);
            }
            gen.out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix([55, 20, 15, 10, 5]);
    const PHASES: [(Mix, Pace); 3] = [
        (Mix([5, 2, 0, 0, 0]), Pace::Closed { count: 400 }),
        (
            MIX,
            Pace::Open {
                rps: 500.0,
                secs: 2.0,
            },
        ),
        (MIX, Pace::Closed { count: 200 }),
    ];

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let a = generate(42, 2, &PHASES);
        let b = generate(42, 2, &PHASES);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| !c.wire.is_empty()));
    }

    #[test]
    fn cells_of_one_run_get_distinct_seeds_that_repeat() {
        let seeds = cell_seeds(42, 5);
        assert_eq!(seeds, cell_seeds(42, 5));
        assert_ne!(seeds, cell_seeds(43, 5));
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn different_seed_gives_a_different_stream() {
        let a = generate(42, 2, &PHASES);
        let b = generate(43, 2, &PHASES);
        assert_ne!(a[0].wire, b[0].wire);
        assert_ne!(
            a[0].phases[1].iter().map(|r| r.due_ns).collect::<Vec<_>>(),
            b[0].phases[1].iter().map(|r| r.due_ns).collect::<Vec<_>>()
        );
    }

    fn customer_of(target: &str) -> u64 {
        target.split('/').nth(2).unwrap().parse().unwrap()
    }

    #[test]
    fn each_client_keeps_cart_add_before_checkout_per_customer() {
        let streams = generate(7, 2, &PHASES);
        let mut seen_by = std::collections::HashMap::new();
        for (client, stream) in streams.iter().enumerate() {
            let mut lines = std::collections::HashMap::<u64, u32>::new();
            let mut checkouts = 0;
            for req in stream.phases.iter().flatten() {
                let text = std::str::from_utf8(stream.bytes(req)).unwrap();
                let target = text.split(' ').nth(1).unwrap();
                match req.op {
                    Op::CartAdd => {
                        let c = customer_of(target);
                        assert_eq!(*seen_by.entry(c).or_insert(client), client);
                        *lines.entry(c).or_default() += 1;
                    }
                    Op::Checkout => {
                        let c = customer_of(target);
                        let n = lines.remove(&c).unwrap_or(0);
                        assert!(n >= 1, "checkout of customer {c} follows no cart_add");
                        let cart = &stream.carts[req.cart];
                        assert!((1..=MAX_CART_LINES).contains(&cart.len()));
                        let bought: u32 = cart.iter().map(|l| l.1).sum();
                        assert!(bought >= n);
                        checkouts += 1;
                    }
                    _ => {}
                }
            }
            assert!(checkouts > 20, "the mix produces checkouts");
            assert_eq!(checkouts, stream.carts.len());
        }
    }

    #[test]
    fn open_phases_are_scheduled_inside_their_window_in_order() {
        let streams = generate(9, 2, &PHASES);
        for stream in &streams {
            let due: Vec<u64> = stream.phases[1].iter().map(|r| r.due_ns).collect();
            assert!(due.windows(2).all(|w| w[0] <= w[1]));
            assert!(*due.last().unwrap() < 2_000_000_000);
            // 250 req/s per client for 2 s, Poisson: well within ±30 %.
            assert!((350..650).contains(&due.len()), "{}", due.len());
            assert!(stream.phases[0].iter().all(|r| r.due_ns == 0));
            assert_eq!(stream.phases[0].len(), 200);
        }
    }

    #[test]
    fn requests_parse_as_http() {
        let streams = generate(3, 2, &PHASES);
        let cfg = om_http::ParserConfig::default();
        for req in streams[0].phases.iter().flatten().take(300) {
            let mut buf = bytes::BytesMut::from(streams[0].bytes(req));
            let parsed = om_http::parse_request(&mut buf, &cfg).unwrap().unwrap();
            assert!(buf.is_empty());
            assert_eq!(
                parsed.body.is_empty(),
                matches!(req.op, Op::Dashboard | Op::Delivery)
            );
        }
    }
}
