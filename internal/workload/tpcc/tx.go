package tpcc

import (
	"mvpbt/internal/db"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// pk returns a table's primary-key index (always the first definition).
func pk(t *db.Table) *db.Index { return t.Indexes()[0] }

func (b *Bench) lookup(tx *txn.Tx, t *db.Table, key []byte) (db.RowRef, error) {
	rr, ok, err := t.LookupOne(tx, pk(t), key, true)
	if err == nil && !ok {
		err = errRowMissing
	}
	return rr, err
}

func (b *Bench) randWH() uint32 { return uint32(1 + b.r.Intn(b.cfg.Warehouses)) }
func (b *Bench) randD() uint32  { return uint32(1 + b.r.Intn(districts)) }

var clockTick int64

func (b *Bench) now() int64 {
	clockTick++
	return clockTick
}

// NewOrderTx is the TPC-C New-Order transaction: district sequence bump,
// order + new-order inserts, and 5–15 order lines each reading the item
// and updating the stock row. 1% roll back intentionally.
func (b *Bench) NewOrderTx() error {
	w, d := b.randWH(), b.randD()
	c := b.randomCustomerID()
	tx := b.eng.Begin()
	abort := func(err error) error {
		b.eng.Abort(tx)
		return err
	}

	if _, err := b.lookup(tx, b.warehouse, WarehouseKey(w)); err != nil {
		return abort(err)
	}
	distRef, err := b.lookup(tx, b.district, DistrictKey(w, d))
	if err != nil {
		return abort(err)
	}
	dist := DecodeDistrict(distRef.Row)
	o := dist.NextOID
	dist.NextOID++
	if _, err := b.district.Update(tx, distRef, dist.Encode()); err != nil {
		return abort(err)
	}
	if _, err := b.lookup(tx, b.customer, CustomerKey(w, d, c)); err != nil {
		return abort(err)
	}

	nLines := uint32(5 + b.r.Intn(11))
	ord := Order{W: w, D: d, O: o, C: c, EntryD: b.now(), OLCnt: nLines}
	if _, _, err := b.orders.Insert(tx, ord.Encode()); err != nil {
		return abort(err)
	}
	if _, _, err := b.neworder.Insert(tx, NewOrder{W: w, D: d, O: o}.Encode()); err != nil {
		return abort(err)
	}

	if b.r.Intn(100) == 0 {
		return abort(errIntentionalRollback)
	}

	for num := uint32(1); num <= nLines; num++ {
		i := b.randomItemID()
		itRef, err := b.lookup(tx, b.item, ItemKey(i))
		if err != nil {
			return abort(err)
		}
		item := DecodeItem(itRef.Row)
		stRef, err := b.lookup(tx, b.stock, StockKey(w, i))
		if err != nil {
			return abort(err)
		}
		st := DecodeStock(stRef.Row)
		qty := uint32(1 + b.r.Intn(10))
		if st.Quantity >= qty+10 {
			st.Quantity -= qty
		} else {
			st.Quantity = st.Quantity - qty + 91
		}
		st.YTD += int64(qty)
		st.OrderCnt++
		if _, err := b.stock.Update(tx, stRef, st.Encode()); err != nil {
			return abort(err)
		}
		ol := OrderLine{W: w, D: d, O: o, Number: num, Item: i, SupplyW: w,
			Quantity: qty, Amount: int64(qty) * item.Price}
		if _, _, err := b.orderline.Insert(tx, ol.Encode()); err != nil {
			return abort(err)
		}
	}
	b.eng.Commit(tx)
	return nil
}

// customerByNameOrID implements the 60/40 customer selection rule.
func (b *Bench) customerByNameOrID(tx *txn.Tx, w, d uint32) (db.RowRef, error) {
	if b.r.Intn(100) < 60 {
		// By last name: select the middle matching customer.
		last := LastName(b.nuRand(255, 0, 999))
		lo := util.EncodeUint32(util.EncodeUint32(nil, w), d)
		lo = append(lo, last...)
		hi := append(append([]byte(nil), lo...), 1)
		lo = append(lo, 0)
		nameIdx := b.customer.Index("name")
		var matches []db.RowRef
		if err := b.customer.Scan(tx, nameIdx, lo, hi, true, func(rr db.RowRef) bool {
			matches = append(matches, rr)
			return true
		}); err != nil {
			return db.RowRef{}, err
		}
		if len(matches) == 0 {
			// Name not populated in a scaled-down district: fall back to id.
			return b.lookup(tx, b.customer, CustomerKey(w, d, b.randomCustomerID()))
		}
		return matches[len(matches)/2], nil
	}
	return b.lookup(tx, b.customer, CustomerKey(w, d, b.randomCustomerID()))
}

// PaymentTx is the TPC-C Payment transaction: warehouse and district YTD
// updates (hot rows), customer balance update, history insert.
func (b *Bench) PaymentTx() error {
	w, d := b.randWH(), b.randD()
	amount := int64(100 + b.r.Intn(500000))
	tx := b.eng.Begin()
	abort := func(err error) error {
		b.eng.Abort(tx)
		return err
	}

	whRef, err := b.lookup(tx, b.warehouse, WarehouseKey(w))
	if err != nil {
		return abort(err)
	}
	wh := DecodeWarehouse(whRef.Row)
	wh.YTD += amount
	if _, err := b.warehouse.Update(tx, whRef, wh.Encode()); err != nil {
		return abort(err)
	}

	distRef, err := b.lookup(tx, b.district, DistrictKey(w, d))
	if err != nil {
		return abort(err)
	}
	dist := DecodeDistrict(distRef.Row)
	dist.YTD += amount
	if _, err := b.district.Update(tx, distRef, dist.Encode()); err != nil {
		return abort(err)
	}

	custRef, err := b.customerByNameOrID(tx, w, d)
	if err != nil {
		return abort(err)
	}
	cust := DecodeCustomer(custRef.Row)
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if _, err := b.customer.Update(tx, custRef, cust.Encode()); err != nil {
		return abort(err)
	}

	h := History{W: w, D: d, C: cust.C, Amount: amount, Date: b.now()}
	if _, _, err := b.history.Insert(tx, h.Encode()); err != nil {
		return abort(err)
	}
	b.eng.Commit(tx)
	return nil
}

// OrderStatusTx is the read-only Order-Status transaction: customer
// selection, newest order via the (w,d,c,o) index, then its order lines.
func (b *Bench) OrderStatusTx() error {
	w, d := b.randWH(), b.randD()
	tx := b.eng.Begin()
	defer b.eng.Commit(tx)

	custRef, err := b.customerByNameOrID(tx, w, d)
	if err == errRowMissing {
		return nil // read-only; tolerate scaled-down misses
	}
	if err != nil {
		return err
	}
	cust := DecodeCustomer(custRef.Row)

	lo := OrderCustomerKey(w, d, cust.C, 0)
	hi := OrderCustomerKey(w, d, cust.C, ^uint32(0))
	var last *Order
	if err := b.orders.Scan(tx, b.orders.Index("cust"), lo, hi, true, func(rr db.RowRef) bool {
		o := DecodeOrder(rr.Row)
		last = &o
		return true
	}); err != nil {
		return err
	}
	if last == nil {
		return nil
	}
	return b.orderline.Scan(tx, pk(b.orderline),
		OrderLineKey(w, d, last.O, 0), OrderLineKey(w, d, last.O, ^uint32(0)), true,
		func(db.RowRef) bool { return true })
}

// DeliveryTx is the TPC-C Delivery transaction: per district, pop the
// oldest new-order, stamp the order's carrier, stamp every order line's
// delivery date and credit the customer.
func (b *Bench) DeliveryTx() error {
	w := b.randWH()
	carrier := uint32(1 + b.r.Intn(10))
	tx := b.eng.Begin()
	abort := func(err error) error {
		b.eng.Abort(tx)
		return err
	}
	for d := uint32(1); d <= districts; d++ {
		lo := OrderKey(w, d, 0)
		hi := OrderKey(w, d, ^uint32(0))
		var oldest *db.RowRef
		if err := b.neworder.Scan(tx, pk(b.neworder), lo, hi, true, func(rr db.RowRef) bool {
			oldest = &rr
			return false
		}); err != nil {
			return abort(err)
		}
		if oldest == nil {
			continue
		}
		no := DecodeNewOrder(oldest.Row)
		if err := b.neworder.Delete(tx, *oldest); err != nil {
			return abort(err)
		}

		ordRef, err := b.lookup(tx, b.orders, OrderKey(w, d, no.O))
		if err != nil {
			return abort(err)
		}
		ord := DecodeOrder(ordRef.Row)
		ord.Carrier = carrier
		if _, err := b.orders.Update(tx, ordRef, ord.Encode()); err != nil {
			return abort(err)
		}

		total := int64(0)
		var lines []db.RowRef
		if err := b.orderline.Scan(tx, pk(b.orderline),
			OrderLineKey(w, d, no.O, 0), OrderLineKey(w, d, no.O, ^uint32(0)), true,
			func(rr db.RowRef) bool {
				lines = append(lines, rr)
				return true
			}); err != nil {
			return abort(err)
		}
		when := b.now()
		for _, lr := range lines {
			ol := DecodeOrderLine(lr.Row)
			total += ol.Amount
			ol.Delivery = when
			if _, err := b.orderline.Update(tx, lr, ol.Encode()); err != nil {
				return abort(err)
			}
		}

		custRef, err := b.lookup(tx, b.customer, CustomerKey(w, d, ord.C))
		if err != nil {
			return abort(err)
		}
		cust := DecodeCustomer(custRef.Row)
		cust.Balance += total
		if _, err := b.customer.Update(tx, custRef, cust.Encode()); err != nil {
			return abort(err)
		}
	}
	b.eng.Commit(tx)
	return nil
}

// StockLevelTx is the read-only Stock-Level transaction: order lines of
// the district's last 20 orders, counting distinct items below a stock
// threshold.
func (b *Bench) StockLevelTx() error {
	w, d := b.randWH(), b.randD()
	threshold := uint32(10 + b.r.Intn(11))
	tx := b.eng.Begin()
	defer b.eng.Commit(tx)

	// Read-only: a row missing from a scaled-down load is tolerated, a
	// failed read is not.
	distRef, err := b.lookup(tx, b.district, DistrictKey(w, d))
	if err == errRowMissing {
		return nil
	}
	if err != nil {
		return err
	}
	dist := DecodeDistrict(distRef.Row)
	loOID := uint32(1)
	if dist.NextOID > 20 {
		loOID = dist.NextOID - 20
	}
	items := map[uint32]bool{}
	if err := b.orderline.Scan(tx, pk(b.orderline),
		OrderLineKey(w, d, loOID, 0), OrderLineKey(w, d, dist.NextOID, 0), true,
		func(rr db.RowRef) bool {
			items[DecodeOrderLine(rr.Row).Item] = true
			return true
		}); err != nil {
		return err
	}
	low := 0
	for i := range items {
		stRef, err := b.lookup(tx, b.stock, StockKey(w, i))
		if err == errRowMissing {
			continue
		}
		if err != nil {
			return err
		}
		if DecodeStock(stRef.Row).Quantity < threshold {
			low++
		}
	}
	_ = low
	return nil
}
