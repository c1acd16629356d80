//! The row codecs of `domain::rows`: storing a service and loading it back
//! gives the same service state for the rows touched, and rows read back
//! from storage — outside input at checkpoint recovery and grain
//! activation — give a typed error, never a panic, whatever they hold. A
//! seller's entries are one entry page per order, rewritten from the view
//! by the change that touched the order, and its activation leaves out
//! the entry rows that do not read. Entry pages round-trip, read back in
//! order, and fail typed when damaged.

use om_common::entity::{CartItem, Customer, OrderEntry, OrderStatus, PaymentMethod, Seller};
use om_common::event::OrderLineRef;
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId, ShipmentId, TransactionId};
use om_common::time::EventTime;
use om_common::{Money, OmResult};
use om_marketplace::domain::rows::{self, load_root, store_root, CustomerOrders, RowWriter};
use om_marketplace::domain::rows::StoredRows;
use om_marketplace::domain::{OrderService, PaymentService, SellerView, ShipmentService};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Rows as a store holds them: every write applied in order.
#[derive(Default)]
struct Store(BTreeMap<Vec<u8>, Vec<u8>>);

impl RowWriter for Store {
    fn put_row(&mut self, row: Vec<u8>, bytes: Vec<u8>) {
        self.0.insert(row, bytes);
    }

    fn delete_row(&mut self, row: Vec<u8>) {
        self.0.remove(&row);
    }
}

impl Store {
    /// The rows read back, as an activation or a checkpoint read gets them.
    fn read(&self) -> StoredRows {
        let mut rows = self.0.clone();
        let root = rows.remove(rows::ROOT);
        StoredRows {
            root,
            rows: rows.into_iter().collect(),
        }
    }
}

fn encode<T: serde::Serialize>(value: &T) -> Vec<u8> {
    om_common::codec::to_bytes(value).unwrap()
}

fn seller() -> SellerView {
    SellerView::new(Seller::new(SellerId(1), "s".into(), "c".into()))
}

fn entry(order: u64, product: u64) -> OrderEntry {
    OrderEntry {
        order: OrderId(order),
        seller: SellerId(1),
        product: ProductId(product),
        quantity: 1,
        total_amount: Money::from_cents(100 * product as i64),
        status: OrderStatus::Invoiced,
    }
}

fn item() -> CartItem {
    CartItem {
        seller: SellerId(1),
        product: ProductId(4),
        quantity: 2,
        unit_price: Money::from_cents(150),
        freight_value: Money::ZERO,
        product_version: 0,
    }
}

fn line(product: u64) -> OrderLineRef {
    OrderLineRef {
        seller: SellerId(1),
        product: ProductId(product),
        quantity: 2,
        total_amount: Money::from_cents(300),
        freight_value: Money::ZERO,
    }
}

/// The entries of `order`'s entry row in `store`, decoded.
fn order_row(store: &Store, order: u64) -> Option<Vec<OrderEntry>> {
    let page = store.0.get(&[[rows::ENTRY].as_slice(), &order.to_be_bytes()].concat())?;
    let mut entries = Vec::new();
    rows::decode_entry_page(page, SellerId(1), &mut entries).unwrap();
    Some(entries)
}

#[test]
fn a_seller_view_round_trips_through_header_and_entry_rows() {
    let mut view = seller();
    for (order, product) in [(10, 2), (10, 1), (11, 1), (12, 3)] {
        view.add_entry(entry(order, product));
    }
    let mut store = Store::default();
    view.store_orders([10, 11, 12].map(OrderId), &mut store).unwrap();
    assert_eq!(store.0.len(), 1 + 3, "the header and one row per order");
    assert_eq!(order_row(&store, 10), Some(vec![entry(10, 1), entry(10, 2)]));
    let back = SellerView::load_all(&store.read()).unwrap().unwrap();
    assert_eq!(back.dashboard(), view.dashboard());
    assert_eq!(
        rows::seller_entries(&store.read(), SellerId(1)).unwrap(),
        view.entry_list()
    );

    // A change to one order stores that order: a terminal status deletes
    // its row.
    view.apply_status(OrderId(10), OrderStatus::Delivered);
    view.store_orders([OrderId(10)], &mut store).unwrap();
    assert_eq!(store.0.len(), 1 + 2, "the header and orders 11 and 12");
    assert_eq!(order_row(&store, 10), None);
    let back = SellerView::load_all(&store.read()).unwrap().unwrap();
    assert_eq!(back.dashboard(), view.dashboard());
    assert_eq!(back.seller, view.seller);

    // The header alone, then one order's row.
    let mut part: SellerView = load_root(&store.read()).unwrap().unwrap();
    assert!(part.entries.is_empty());
    part.load_order(&store.read(), OrderId(12)).unwrap();
    assert_eq!(part.entry_list(), vec![entry(12, 3)]);

    // A new view replaces every row of the old one: from the orders of
    // the view a grain holds, or from the stored rows' names.
    let mut by_name = Store(store.0.clone());
    SellerView::delete_entries(&store.read(), &mut by_name);
    seller()
        .store_orders(view.entries.keys().map(|&(order, _)| order), &mut store)
        .unwrap();
    assert_eq!(store.0.len(), 1, "only the header");
    assert_eq!(by_name.0.keys().collect::<Vec<_>>(), vec![rows::ROOT]);
}

#[test]
fn an_in_progress_status_rewrites_the_orders_row_with_its_status_byte() {
    let mut view = seller();
    view.add_entry(entry(10, 1));
    view.add_entry(entry(11, 1));
    let mut store = Store::default();
    view.store_orders([10, 11].map(OrderId), &mut store).unwrap();
    let other = order_row(&store, 11);

    view.apply_status(OrderId(10), OrderStatus::Paid);
    view.store_orders([OrderId(10)], &mut store).unwrap();
    let page = &store.0[&[[rows::ENTRY].as_slice(), &10u64.to_be_bytes()].concat()];
    assert_eq!(page.len(), rows::PAGE_RECORD);
    assert_eq!(page[rows::PAGE_RECORD - 1], 1, "Paid is status byte 1");
    let mut paid = entry(10, 1);
    paid.status = OrderStatus::Paid;
    assert_eq!(order_row(&store, 10), Some(vec![paid]));
    assert_eq!(order_row(&store, 11), other, "order 11's row is left as it was");
}

#[test]
fn a_terminal_status_deletes_the_orders_row() {
    for status in [OrderStatus::PaymentFailed, OrderStatus::Delivered, OrderStatus::Canceled] {
        let mut view = seller();
        view.add_entry(entry(10, 1));
        view.add_entry(entry(10, 2));
        let mut store = Store::default();
        view.store_orders([OrderId(10)], &mut store).unwrap();
        assert!(order_row(&store, 10).is_some());
        view.apply_status(OrderId(10), status);
        view.store_orders([OrderId(10)], &mut store).unwrap();
        assert_eq!(order_row(&store, 10), None, "{status:?}");
        assert_eq!(store.0.len(), 1, "{status:?}: only the header");
    }
}

#[test]
fn two_products_of_one_order_land_in_one_row_in_product_order() {
    // Added one message at a time, as a dataflow function does: each loads
    // the order's row, adds its entry and rewrites the row.
    let mut store = Store::default();
    seller().store_orders([], &mut store).unwrap();
    for product in [7, 3] {
        let mut view: SellerView = load_root(&store.read()).unwrap().unwrap();
        view.load_order(&store.read(), OrderId(10)).unwrap();
        view.add_entry(entry(10, product));
        view.store_orders([OrderId(10)], &mut store).unwrap();
    }
    assert_eq!(store.0.len(), 1 + 1, "the header and order 10's row");
    assert_eq!(order_row(&store, 10), Some(vec![entry(10, 3), entry(10, 7)]));
    let header: SellerView = load_root(&store.read()).unwrap().unwrap();
    assert_eq!(header.aggregate(), (Money::from_cents(1_000), 2));
}

/// The header row's bytes, as the seller rows stored them when every
/// entry was a row of its own: the per-order entry pages left them as
/// they were.
#[test]
fn a_seller_header_row_keeps_its_bytes() {
    let mut view = seller();
    for (order, product) in [(10, 1), (10, 2), (11, 3)] {
        view.add_entry(entry(order, product));
    }
    view.apply_status(OrderId(10), OrderStatus::Paid);
    view.apply_status(OrderId(11), OrderStatus::Delivered);
    let mut store = Store::default();
    view.store_orders([10, 11].map(OrderId), &mut store).unwrap();
    let header = store.read().root.unwrap();
    let hex: String = header.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "0100000000000000010000000000000073010000000000000063030000000000000001000000000000002c01\
         0000000000002c0100000000000002000000000000000000000000000000"
    );
}

#[test]
fn a_customers_orders_round_trip_through_order_and_assembly_rows() {
    let (customer, tid) = (CustomerId(7), TransactionId(9));
    let mut store = Store::default();
    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.svc.begin_assembly(tid, 1, EventTime(1));
    st.store(&mut store).unwrap();

    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.load_pending(&store.read(), tid).unwrap();
    let done = st
        .svc
        .record_stock_answer(tid, item(), true)
        .expect("the one answer");
    let order = st.svc.create_order(&done.confirmed, EventTime(2)).unwrap();
    st.store(&mut store).unwrap();
    assert_eq!(rows::orders(&store.read()).unwrap(), vec![order.clone()]);
    assert_eq!(store.0.len(), 2, "the completed assembly's row is deleted");

    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.load_order(&store.read(), order.id).unwrap();
    let sellers = std::collections::BTreeSet::from([order.items[0].seller]);
    st.svc.delivered.insert(order.id, sellers.clone());
    st.svc
        .set_status(order.id, OrderStatus::Paid, EventTime(3))
        .unwrap();
    st.store(&mut store).unwrap();
    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.load_order(&store.read(), order.id).unwrap();
    assert_eq!(st.svc.orders[&order.id].status, OrderStatus::Paid);
    assert_eq!(st.svc.delivered[&order.id], sellers, "the order row keeps its delivered sellers");
    let next = st.svc.create_order(&done.confirmed, EventTime(4)).unwrap();
    assert_eq!(
        next.invoice, "INV-7-1",
        "the header keeps the invoice sequence"
    );
}

#[test]
fn roots_payments_and_shipments_round_trip_through_their_rows() {
    let mut store = Store::default();
    let mut customer = Customer::new(CustomerId(2), "c".into(), "a".into());
    customer.record_payment(true, Money::from_cents(250));
    store_root(&mut store, &customer).unwrap();
    assert_eq!(load_root(&store.read()).unwrap(), Some(customer));

    let mut store = Store::default();
    let mut svc = PaymentService::new(CustomerId(2));
    let pay = |svc: &mut PaymentService, o| {
        svc.process(
            OrderId(o),
            PaymentMethod::Boleto,
            Money::ZERO,
            0.0,
            EventTime(o),
        )
    };
    let paid = vec![pay(&mut svc, 1), pay(&mut svc, 2)];
    svc.store_rows(&mut store).unwrap();
    assert_eq!(rows::payments(&store.read()).unwrap(), paid);
    let mut svc: PaymentService = load_root(&store.read()).unwrap().unwrap();
    assert!(svc.payments.is_empty());
    assert_ne!(
        pay(&mut svc, 3).id,
        paid[1].id,
        "the header keeps the id sequence"
    );

    let mut store = Store::default();
    let mut svc = ShipmentService::new(SellerId(1));
    let (c, first, second) = (CustomerId(1), [line(1), line(2)], [line(3)]);
    svc.create_packages(ShipmentId(8), OrderId(8), c, &first, EventTime(5));
    svc.create_packages(ShipmentId(6), OrderId(6), c, &second, EventTime(7));
    let packages = svc.packages.clone();
    svc.store_rows(&mut store).unwrap();
    let oldest = ShipmentService::oldest_open(&store.read()).unwrap();
    assert_eq!(oldest, Some((EventTime(5), OrderId(8))));

    let mut svc: ShipmentService = load_root(&store.read()).unwrap().unwrap();
    svc.load_order(&store.read(), OrderId(8)).unwrap();
    assert_eq!(svc.packages, packages[..2]);
    assert_eq!(
        svc.deliver_oldest_order(EventTime(9)).unwrap().0,
        OrderId(8)
    );
    svc.store_rows(&mut store).unwrap();
    let oldest = ShipmentService::oldest_open(&store.read()).unwrap();
    assert_eq!(
        oldest,
        Some((EventTime(7), OrderId(6))),
        "order 8 left the index"
    );
    let stored = rows::packages(&store.read()).unwrap();
    assert_eq!(
        stored.iter().filter(|p| p.delivered_at.is_some()).count(),
        2
    );
    let svc: ShipmentService = load_root(&store.read()).unwrap().unwrap();
    assert_eq!((svc.delivered_count, stored.len()), (2, 3));
}

#[test]
fn a_row_name_shorter_than_its_ids_is_a_typed_error() {
    let short = |tag, id: u8| vec![tag, 0, 0, 0, 0, 0, 0, 0, id];
    let entries = StoredRows {
        root: Some(encode(&seller())),
        rows: vec![(vec![rows::ENTRY, 0, 0, 1], rows::encode_entry_page(&[entry(1, 1)]))],
    };
    let err = rows::seller_entries(&entries, SellerId(1)).unwrap_err();
    assert_eq!(err.label(), "internal");
    let shipment = StoredRows {
        root: None,
        rows: vec![(short(rows::OPEN, 5), Vec::new())],
    };
    let err = ShipmentService::oldest_open(&shipment).unwrap_err();
    assert_eq!(err.label(), "internal");
}

#[test]
fn a_seller_activates_without_the_entry_rows_that_do_not_read() {
    let mut store = Store::default();
    let mut view = seller();
    for (order, product) in [(1, 1), (1, 2), (2, 2), (3, 1)] {
        view.add_entry(entry(order, product));
    }
    view.store_orders([1, 2, 3].map(OrderId), &mut store).unwrap();
    let mut stored = store.read();
    // Order 2's row holds bytes that do not decode, order 3's holds order
    // 1's entries, and a fourth row's name is shorter than its order id.
    stored.rows[1].1 = vec![0xff; 3];
    stored.rows[2].1 = rows::encode_entry_page(&[entry(1, 1)]);
    stored
        .rows
        .push((vec![rows::ENTRY, 9], rows::encode_entry_page(&[entry(9, 9)])));

    let back = SellerView::load_all(&stored).unwrap().unwrap();
    assert_eq!(back.entry_list(), vec![entry(1, 1), entry(1, 2)]);
    for order in [2, 3] {
        let err = seller().load_order(&stored, OrderId(order)).unwrap_err();
        assert_eq!(err.label(), "internal", "order {order}");
    }
    assert_eq!(back.seller, view.seller);
}

#[test]
fn an_entry_page_is_one_fixed_width_record_per_entry() {
    let e = OrderEntry {
        order: OrderId(0x0102),
        seller: SellerId(1),
        product: ProductId(3),
        quantity: 4,
        total_amount: Money::from_cents(-5),
        status: OrderStatus::Invoiced,
    };
    let mut expected = 0x0102u64.to_le_bytes().to_vec();
    expected.extend_from_slice(&3u64.to_le_bytes());
    expected.extend_from_slice(&4u32.to_le_bytes());
    expected.extend_from_slice(&(-5i64).to_le_bytes());
    expected.push(0);
    assert_eq!(rows::encode_entry_page(std::slice::from_ref(&e)), expected);
    for (byte, status) in STATUSES.into_iter().enumerate() {
        let mut e = e.clone();
        e.status = status;
        let page = rows::encode_entry_page(&[e]);
        assert_eq!(page[rows::PAGE_RECORD - 1] as usize, byte, "{status:?}");
    }
}

/// Rows as storage may hand them back: a root row that is `header` or any
/// bytes, names under `tags` with one or two small ids cut anywhere (some
/// shorter than their ids), and values that are `valid` or any bytes.
fn rows_from_outside(
    tags: Vec<u8>,
    header: Vec<u8>,
    valid: Vec<u8>,
) -> impl Strategy<Value = StoredRows> {
    let either = |valid: Vec<u8>| {
        (
            prop::bool::weighted(0.5),
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(move |(ok, junk)| if ok { valid.clone() } else { junk })
    };
    let cut = prop::sample::select(vec![0, 3, 8, 8, 12, 16, 16]);
    let name = (prop::sample::select(tags), 0u64..3, 0u64..3, cut).prop_map(|(tag, a, b, cut)| {
        [[tag].as_slice(), &a.to_be_bytes(), &b.to_be_bytes()].concat()[..1 + cut].to_vec()
    });
    let rows = prop::collection::btree_map(name, either(valid), 0..6);
    (either(header), rows).prop_map(|(root, rows)| StoredRows {
        root: Some(root),
        rows: rows.into_iter().collect(),
    })
}

/// The value of a real order row.
fn an_order_row() -> Vec<u8> {
    let mut st = CustomerOrders::load(CustomerId(0), &StoredRows::default()).unwrap();
    st.svc.create_order(&[item()], EventTime(1)).unwrap();
    let mut store = Store::default();
    st.store(&mut store).unwrap();
    store
        .0
        .into_iter()
        .find(|(name, _)| name.first() == Some(&rows::ORDER))
        .unwrap()
        .1
}

/// The value of a real package row.
fn a_package() -> Vec<u8> {
    let mut svc = ShipmentService::new(SellerId(1));
    svc.create_packages(
        ShipmentId(1),
        OrderId(1),
        CustomerId(1),
        &[line(1)],
        EventTime(1),
    );
    encode(&svc.packages[0])
}

/// An outcome of reading outside input: a value, or a typed error.
fn typed<T>(result: OmResult<T>) -> Result<(), TestCaseError> {
    if let Err(e) = result {
        prop_assert_eq!(e.label(), "internal");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_seller_rows_from_outside_read_or_fail_typed(
        stored in rows_from_outside(
            vec![rows::ENTRY, b'x'],
            encode(&seller()),
            rows::encode_entry_page(&[entry(1, 2), entry(1, 3)]),
        ),
        order in 0u64..3,
    ) {
        typed(SellerView::load_all(&stored))?;
        typed(rows::seller_entries(&stored, SellerId(1)))?;
        typed(seller().load_order(&stored, OrderId(order)))?;
    }

    #[test]
    fn prop_order_rows_from_outside_read_or_fail_typed(
        stored in rows_from_outside(
            vec![rows::ORDER, rows::PENDING],
            encode(&OrderService::new(CustomerId(1))),
            an_order_row(),
        ),
        id in 0u64..3,
    ) {
        typed(rows::orders(&stored))?;
        if let Ok(mut st) = CustomerOrders::load(CustomerId(1), &stored) {
            typed(st.load_order(&stored, OrderId(id)))?;
            typed(st.load_pending(&stored, TransactionId(id)))?;
        }
    }

    #[test]
    fn prop_shipment_rows_from_outside_read_or_fail_typed(
        stored in rows_from_outside(
            vec![rows::PACKAGE, rows::OPEN],
            encode(&ShipmentService::new(SellerId(1))),
            a_package(),
        ),
        order in 0u64..3,
    ) {
        typed(ShipmentService::oldest_open(&stored))?;
        typed(rows::packages(&stored))?;
        if let Ok(Some(mut svc)) = load_root::<ShipmentService>(&stored) {
            typed(svc.load_order(&stored, OrderId(order)))?;
        }
    }

    #[test]
    fn prop_entry_pages_round_trip_in_order_and_fail_typed_when_damaged(
        stored in prop::collection::vec(
            (0u64..64, 0u64..8, any::<u32>(), any::<i64>(), 0usize..STATUSES.len()),
            0..40,
        ),
        cut in 1usize..rows::PAGE_RECORD,
        bad_status in STATUSES.len() as u8..=u8::MAX,
        victim in any::<usize>(),
    ) {
        // One page per range of 16 order ids, each sorted by
        // (order, product), as the projection writes them.
        let mut pages: BTreeMap<u64, Vec<OrderEntry>> = BTreeMap::new();
        let mut sorted: BTreeMap<(OrderId, ProductId), OrderEntry> = BTreeMap::new();
        for (order, product, quantity, cents, status) in stored {
            let e = OrderEntry {
                order: OrderId(order),
                seller: SellerId(7),
                product: ProductId(product),
                quantity,
                total_amount: Money::from_cents(cents),
                status: STATUSES[status],
            };
            sorted.insert((e.order, e.product), e);
        }
        for e in sorted.values() {
            pages.entry(e.order.0 / 16).or_default().push(e.clone());
        }
        let encoded: Vec<Vec<u8>> = pages.values().map(rows::encode_entry_page).collect();

        let mut all = Vec::new();
        for (page, raw) in pages.values().zip(&encoded) {
            prop_assert_eq!(raw.len(), page.len() * rows::PAGE_RECORD);
            let mut one = Vec::new();
            rows::decode_entry_page(raw, SellerId(7), &mut one).unwrap();
            prop_assert_eq!(&one, page);
            rows::decode_entry_page(raw, SellerId(7), &mut all).unwrap();
        }
        prop_assert_eq!(all, sorted.into_values().collect::<Vec<_>>());

        if let Some(raw) = encoded.first() {
            let before = vec![entry(1, 1)];
            let mut out = before.clone();
            let short = &raw[..raw.len() - cut];
            prop_assert!(rows::decode_entry_page(short, SellerId(7), &mut out).is_err());
            let long = [raw.as_slice(), &raw[..cut]].concat();
            prop_assert!(rows::decode_entry_page(&long, SellerId(7), &mut out).is_err());
            let mut bad = raw.clone();
            let record = victim % (raw.len() / rows::PAGE_RECORD);
            bad[record * rows::PAGE_RECORD + rows::PAGE_RECORD - 1] = bad_status;
            let damaged = rows::decode_entry_page(&bad, SellerId(7), &mut out);
            prop_assert!(damaged.is_err());
            typed(damaged)?;
            prop_assert_eq!(out, before, "a failed decode appends nothing");
        }
    }
}

/// Every order status, in the order of its byte in an entry page.
const STATUSES: [OrderStatus; 6] = [
    OrderStatus::Invoiced,
    OrderStatus::Paid,
    OrderStatus::PaymentFailed,
    OrderStatus::InTransit,
    OrderStatus::Delivered,
    OrderStatus::Canceled,
];

