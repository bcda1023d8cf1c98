package tpcc

import (
	"errors"
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

func engines() map[string]Config {
	return map[string]Config{
		"hot-btree":  {Heap: db.HeapHOT, Index: db.IdxBTree, RefMode: db.RefPhysical},
		"sias-btree": {Heap: db.HeapSIAS, Index: db.IdxBTree, RefMode: db.RefLogical},
		"sias-pbt":   {Heap: db.HeapSIAS, Index: db.IdxPBT, RefMode: db.RefPhysical, BloomBits: 10},
		"sias-mvpbt": {Heap: db.HeapSIAS, Index: db.IdxMVPBT, RefMode: db.RefPhysical, BloomBits: 10},
	}
}

func load(t *testing.T, cfg Config) *Bench {
	t.Helper()
	eng := db.NewEngine(db.Config{BufferPages: 4096, PartitionBufferBytes: 1 << 22})
	cfg.Warehouses = 1
	cfg.CustomersPerDistrict = 30
	cfg.Items = 100
	b, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLoadAndRunMix(t *testing.T) {
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			b := load(t, cfg)
			if err := b.Run(300); err != nil {
				t.Fatal(err)
			}
			st := b.Stats
			if st.Total() < 250 {
				t.Fatalf("too few commits: %+v", st)
			}
			if st.NewOrders == 0 || st.Payments == 0 || st.Deliveries == 0 {
				t.Fatalf("mix not exercised: %+v", st)
			}
		})
	}
}

func TestMoneyConservation(t *testing.T) {
	// TPC-C consistency: W_YTD == sum(D_YTD) per warehouse, since Payment
	// adds the same amount to both.
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			b := load(t, cfg)
			if err := b.Run(400); err != nil {
				t.Fatal(err)
			}
			tx := b.eng.Begin()
			defer b.eng.Commit(tx)
			whRef, err := b.lookup(tx, b.warehouse, WarehouseKey(1))
			if err != nil {
				t.Fatal(err)
			}
			wYTD := DecodeWarehouse(whRef.Row).YTD
			var dYTD int64
			for d := uint32(1); d <= districts; d++ {
				dr, err := b.lookup(tx, b.district, DistrictKey(1, d))
				if err != nil {
					t.Fatal(err)
				}
				dYTD += DecodeDistrict(dr.Row).YTD
			}
			if wYTD != dYTD {
				t.Fatalf("YTD mismatch: warehouse=%d districts=%d", wYTD, dYTD)
			}
		})
	}
}

func TestOrderChainConsistency(t *testing.T) {
	// Every order id below a district's NextOID must exist exactly once
	// unless its New-Order transaction rolled back.
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			b := load(t, cfg)
			if err := b.Run(400); err != nil {
				t.Fatal(err)
			}
			tx := b.eng.Begin()
			defer b.eng.Commit(tx)
			for d := uint32(1); d <= districts; d++ {
				dr, err := b.lookup(tx, b.district, DistrictKey(1, d))
				if err != nil {
					t.Fatal(err)
				}
				dist := DecodeDistrict(dr.Row)
				orders := 0
				err = b.orders.Scan(tx, pk(b.orders), OrderKey(1, d, 0), OrderKey(1, d, ^uint32(0)), false,
					func(db.RowRef) bool { orders++; return true })
				if err != nil {
					t.Fatal(err)
				}
				if orders > int(dist.NextOID-1) {
					t.Fatalf("district %d: %d orders > next_o_id-1 %d", d, orders, dist.NextOID-1)
				}
			}
		})
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	b := load(t, engines()["sias-mvpbt"])
	// Generate orders, then deliver repeatedly.
	for i := 0; i < 50; i++ {
		if err := b.NewOrderTx(); err != nil && err != errIntentionalRollback {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := b.DeliveryTx(); err != nil {
			t.Fatal(err)
		}
	}
	tx := b.eng.Begin()
	defer b.eng.Commit(tx)
	pending := 0
	err := b.neworder.Scan(tx, pk(b.neworder), OrderKey(1, 0, 0), OrderKey(1, ^uint32(0), 0), false,
		func(db.RowRef) bool { pending++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Fatalf("%d new-orders undelivered after 30 delivery rounds", pending)
	}
}

// TestReadOnlyTxReturnsReadErrors: Order-Status and Stock-Level tolerate a
// row missing from a scaled-down load, not a failed read. With every page
// evicted and every device read failing, both return the error instead of
// committing.
func TestReadOnlyTxReturnsReadErrors(t *testing.T) {
	for name, cfg := range engines() {
		t.Run(name, func(t *testing.T) {
			b := load(t, cfg)
			if err := b.eng.Pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			b.eng.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Sticky: true})
			defer b.eng.Dev.DisarmAllFaults()
			for _, tx := range []struct {
				name string
				run  func() error
			}{{"Order-Status", b.OrderStatusTx}, {"Stock-Level", b.StockLevelTx}} {
				if err := tx.run(); !errors.Is(err, storage.ErrIOFault) {
					t.Errorf("%s with every read failing: %v, want %v", tx.name, err, storage.ErrIOFault)
				}
			}
		})
	}
}

func TestCustomerByLastName(t *testing.T) {
	b := load(t, engines()["sias-mvpbt"])
	tx := b.eng.Begin()
	defer b.eng.Commit(tx)
	// Find any customer's last name via pk, then search by name index.
	cr, err := b.lookup(tx, b.customer, CustomerKey(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := DecodeCustomer(cr.Row)
	lo := util.EncodeUint32(util.EncodeUint32(nil, 1), 1)
	lo = append(lo, c.Last...)
	hi := append(append([]byte(nil), lo...), 1)
	lo = append(lo, 0)
	found := 0
	err = b.customer.Scan(tx, b.customer.Index("name"), lo, hi, true, func(rr db.RowRef) bool {
		if DecodeCustomer(rr.Row).Last != c.Last {
			t.Fatalf("name index returned wrong last name")
		}
		found++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("name index found nothing")
	}
}

func TestRowCodecsRoundTrip(t *testing.T) {
	w := Warehouse{W: 3, Tax: 1234, YTD: 567890, Name: "WH003"}
	if got := DecodeWarehouse(w.Encode()); got != w {
		t.Fatalf("warehouse: %+v", got)
	}
	d := District{W: 1, D: 2, Tax: 3, YTD: 4, NextOID: 5}
	if got := DecodeDistrict(d.Encode()); got != d {
		t.Fatalf("district: %+v", got)
	}
	c := Customer{W: 1, D: 2, C: 3, Balance: -99, YTDPayment: 7, PaymentCnt: 2, Last: "BARBAROUGHT", Data: "xyz"}
	if got := DecodeCustomer(c.Encode()); got != c {
		t.Fatalf("customer: %+v", got)
	}
	o := Order{W: 1, D: 2, O: 3, C: 4, EntryD: 5, Carrier: 6, OLCnt: 7}
	if got := DecodeOrder(o.Encode()); got != o {
		t.Fatalf("order: %+v", got)
	}
	ol := OrderLine{W: 1, D: 2, O: 3, Number: 4, Item: 5, SupplyW: 6, Delivery: 7, Quantity: 8, Amount: 9}
	if got := DecodeOrderLine(ol.Encode()); got != ol {
		t.Fatalf("orderline: %+v", got)
	}
	it := Item{I: 9, Price: 42, Name: "widget"}
	if got := DecodeItem(it.Encode()); got != it {
		t.Fatalf("item: %+v", got)
	}
	s := Stock{W: 1, I: 2, Quantity: 3, YTD: 4, OrderCnt: 5, Data: "d"}
	if got := DecodeStock(s.Encode()); got != s {
		t.Fatalf("stock: %+v", got)
	}
	n := NewOrder{W: 1, D: 2, O: 3}
	if got := DecodeNewOrder(n.Encode()); got != n {
		t.Fatalf("neworder: %+v", got)
	}
}

func TestLastNames(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0)=%s", LastName(0))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Fatalf("LastName(999)=%s", LastName(999))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371)=%s", LastName(371))
	}
}

func TestKeyExtractorsMatchBuilders(t *testing.T) {
	c := Customer{W: 1, D: 2, C: 3, Last: "ABLEPRIESE"}
	row := c.Encode()
	want := "\x00\x00\x00\x01\x00\x00\x00\x02ABLEPRIESE\x00\x00\x00\x00\x03"
	if string(CustomerNameExtract(row)) != want {
		t.Fatal("customer name extractor diverges from the (w, d, last, 0, c) key")
	}
	o := Order{W: 1, D: 2, O: 9, C: 5}
	if string(OrderCustomerExtract(o.Encode())) != string(OrderCustomerKey(1, 2, 5, 9)) {
		t.Fatal("order customer extractor diverges from key builder")
	}
}
