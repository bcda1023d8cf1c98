// Package tpcc implements a TPC-C–style OLTP workload (the paper uses the
// DBT-2 TPC-C implementation and OLTP-Bench, §5): the nine-table schema,
// the five transaction profiles with the standard mix, and a scalable
// loader. Every table runs on the storage engine under test — heap
// organization, index structure and reference mode are injected, which is
// exactly the axis Figures 14a–d vary.
package tpcc

import (
	"encoding/binary"

	"mvpbt/internal/util"
)

// Rows are fixed-layout binary records. Key attributes live at fixed
// offsets at the front so index extractors are cheap slices; strings
// follow the fixed part.

func u32(b []byte, off int) uint32     { return binary.BigEndian.Uint32(b[off:]) }
func pu32(b []byte, off int, v uint32) { binary.BigEndian.PutUint32(b[off:], v) }
func i64(b []byte, off int) int64      { return int64(binary.BigEndian.Uint64(b[off:])) }
func pi64(b []byte, off int, v int64)  { binary.BigEndian.PutUint64(b[off:], uint64(v)) }

// ---- Warehouse: [0:4) w_id | [4:12) tax | [12:20) ytd | name.
type Warehouse struct {
	W    uint32
	Tax  int64 // basis points
	YTD  int64 // cents
	Name string
}

// Encode renders the row.
func (w Warehouse) Encode() []byte {
	b := make([]byte, 20+len(w.Name))
	pu32(b, 0, w.W)
	pi64(b, 4, w.Tax)
	pi64(b, 12, w.YTD)
	copy(b[20:], w.Name)
	return b
}

// DecodeWarehouse parses a row.
func DecodeWarehouse(b []byte) Warehouse {
	return Warehouse{W: u32(b, 0), Tax: i64(b, 4), YTD: i64(b, 12), Name: string(b[20:])}
}

// WarehouseKey is the primary key.
func WarehouseKey(w uint32) []byte { return util.EncodeUint32(nil, w) }

// ---- District: [0:4) w | [4:8) d | [8:16) tax | [16:24) ytd | [24:28) next_o_id.
type District struct {
	W, D    uint32
	Tax     int64
	YTD     int64
	NextOID uint32
}

// Encode renders the row.
func (d District) Encode() []byte {
	b := make([]byte, 28)
	pu32(b, 0, d.W)
	pu32(b, 4, d.D)
	pi64(b, 8, d.Tax)
	pi64(b, 16, d.YTD)
	pu32(b, 24, d.NextOID)
	return b
}

// DecodeDistrict parses a row.
func DecodeDistrict(b []byte) District {
	return District{W: u32(b, 0), D: u32(b, 4), Tax: i64(b, 8), YTD: i64(b, 16), NextOID: u32(b, 24)}
}

// DistrictKey is the primary key.
func DistrictKey(w, d uint32) []byte {
	return util.EncodeUint32(util.EncodeUint32(nil, w), d)
}

// ---- Customer: [0:4) w | [4:8) d | [8:12) c | [12:20) balance |
// [20:28) ytd_payment | [28:32) payment_cnt | [32] lastLen | last | data.
type Customer struct {
	W, D, C    uint32
	Balance    int64
	YTDPayment int64
	PaymentCnt uint32
	Last       string
	Data       string
}

// Encode renders the row.
func (c Customer) Encode() []byte {
	b := make([]byte, 33+len(c.Last)+len(c.Data))
	pu32(b, 0, c.W)
	pu32(b, 4, c.D)
	pu32(b, 8, c.C)
	pi64(b, 12, c.Balance)
	pi64(b, 20, c.YTDPayment)
	pu32(b, 28, c.PaymentCnt)
	b[32] = byte(len(c.Last))
	copy(b[33:], c.Last)
	copy(b[33+len(c.Last):], c.Data)
	return b
}

// DecodeCustomer parses a row.
func DecodeCustomer(b []byte) Customer {
	ll := int(b[32])
	return Customer{
		W: u32(b, 0), D: u32(b, 4), C: u32(b, 8),
		Balance: i64(b, 12), YTDPayment: i64(b, 20), PaymentCnt: u32(b, 28),
		Last: string(b[33 : 33+ll]), Data: string(b[33+ll:]),
	}
}

// CustomerKey is the primary key.
func CustomerKey(w, d, c uint32) []byte {
	k := util.EncodeUint32(nil, w)
	k = util.EncodeUint32(k, d)
	return util.EncodeUint32(k, c)
}

// CustomerNameExtract derives the (w, d, last, 0, c) secondary key from a row.
func CustomerNameExtract(row []byte) []byte {
	ll := int(row[32])
	k := make([]byte, 0, 13+ll)
	k = append(k, row[0:8]...)
	k = append(k, row[33:33+ll]...)
	k = append(k, 0)
	return append(k, row[8:12]...)
}

// ---- Order: [0:4) w | [4:8) d | [8:12) o | [12:16) c | [16:24) entry_d |
// [24:28) carrier | [28:32) ol_cnt.
type Order struct {
	W, D, O uint32
	C       uint32
	EntryD  int64
	Carrier uint32
	OLCnt   uint32
}

// Encode renders the row.
func (o Order) Encode() []byte {
	b := make([]byte, 32)
	pu32(b, 0, o.W)
	pu32(b, 4, o.D)
	pu32(b, 8, o.O)
	pu32(b, 12, o.C)
	pi64(b, 16, o.EntryD)
	pu32(b, 24, o.Carrier)
	pu32(b, 28, o.OLCnt)
	return b
}

// DecodeOrder parses a row.
func DecodeOrder(b []byte) Order {
	return Order{W: u32(b, 0), D: u32(b, 4), O: u32(b, 8), C: u32(b, 12),
		EntryD: i64(b, 16), Carrier: u32(b, 24), OLCnt: u32(b, 28)}
}

// OrderKey is the primary key.
func OrderKey(w, d, o uint32) []byte {
	k := util.EncodeUint32(nil, w)
	k = util.EncodeUint32(k, d)
	return util.EncodeUint32(k, o)
}

// OrderCustomerExtract derives the (w, d, c, o) secondary key from a row.
func OrderCustomerExtract(row []byte) []byte {
	k := make([]byte, 0, 16)
	k = append(k, row[0:8]...)
	k = append(k, row[12:16]...)
	return append(k, row[8:12]...)
}

// OrderCustomerKey builds the (w, d, c, o) secondary key.
func OrderCustomerKey(w, d, c, o uint32) []byte {
	k := util.EncodeUint32(nil, w)
	k = util.EncodeUint32(k, d)
	k = util.EncodeUint32(k, c)
	return util.EncodeUint32(k, o)
}

// ---- NewOrder: [0:4) w | [4:8) d | [8:12) o.
type NewOrder struct {
	W, D, O uint32
}

// Encode renders the row.
func (n NewOrder) Encode() []byte {
	b := make([]byte, 12)
	pu32(b, 0, n.W)
	pu32(b, 4, n.D)
	pu32(b, 8, n.O)
	return b
}

// DecodeNewOrder parses a row.
func DecodeNewOrder(b []byte) NewOrder {
	return NewOrder{W: u32(b, 0), D: u32(b, 4), O: u32(b, 8)}
}

// ---- OrderLine: [0:4) w | [4:8) d | [8:12) o | [12:16) number |
// [16:20) item | [20:24) supply_w | [24:32) delivery_d | [32:36) quantity |
// [36:44) amount.
type OrderLine struct {
	W, D, O  uint32
	Number   uint32
	Item     uint32
	SupplyW  uint32
	Delivery int64
	Quantity uint32
	Amount   int64
}

// Encode renders the row.
func (l OrderLine) Encode() []byte {
	b := make([]byte, 44)
	pu32(b, 0, l.W)
	pu32(b, 4, l.D)
	pu32(b, 8, l.O)
	pu32(b, 12, l.Number)
	pu32(b, 16, l.Item)
	pu32(b, 20, l.SupplyW)
	pi64(b, 24, l.Delivery)
	pu32(b, 32, l.Quantity)
	pi64(b, 36, l.Amount)
	return b
}

// DecodeOrderLine parses a row.
func DecodeOrderLine(b []byte) OrderLine {
	return OrderLine{W: u32(b, 0), D: u32(b, 4), O: u32(b, 8), Number: u32(b, 12),
		Item: u32(b, 16), SupplyW: u32(b, 20), Delivery: i64(b, 24),
		Quantity: u32(b, 32), Amount: i64(b, 36)}
}

// OrderLineKey is the primary key.
func OrderLineKey(w, d, o, num uint32) []byte {
	k := util.EncodeUint32(nil, w)
	k = util.EncodeUint32(k, d)
	k = util.EncodeUint32(k, o)
	return util.EncodeUint32(k, num)
}

// ---- Item: [0:4) i | [4:12) price | name.
type Item struct {
	I     uint32
	Price int64
	Name  string
}

// Encode renders the row.
func (i Item) Encode() []byte {
	b := make([]byte, 12+len(i.Name))
	pu32(b, 0, i.I)
	pi64(b, 4, i.Price)
	copy(b[12:], i.Name)
	return b
}

// DecodeItem parses a row.
func DecodeItem(b []byte) Item {
	return Item{I: u32(b, 0), Price: i64(b, 4), Name: string(b[12:])}
}

// ItemKey is the primary key.
func ItemKey(i uint32) []byte { return util.EncodeUint32(nil, i) }

// ---- Stock: [0:4) w | [4:8) i | [8:12) quantity | [12:20) ytd |
// [20:24) order_cnt | data.
type Stock struct {
	W, I     uint32
	Quantity uint32
	YTD      int64
	OrderCnt uint32
	Data     string
}

// Encode renders the row.
func (s Stock) Encode() []byte {
	b := make([]byte, 24+len(s.Data))
	pu32(b, 0, s.W)
	pu32(b, 4, s.I)
	pu32(b, 8, s.Quantity)
	pi64(b, 12, s.YTD)
	pu32(b, 20, s.OrderCnt)
	copy(b[24:], s.Data)
	return b
}

// DecodeStock parses a row.
func DecodeStock(b []byte) Stock {
	return Stock{W: u32(b, 0), I: u32(b, 4), Quantity: u32(b, 8),
		YTD: i64(b, 12), OrderCnt: u32(b, 20), Data: string(b[24:])}
}

// StockKey is the primary key.
func StockKey(w, i uint32) []byte {
	return util.EncodeUint32(util.EncodeUint32(nil, w), i)
}

// ---- History: [0:4) w | [4:8) d | [8:12) c | [12:20) amount |
// [20:28) date. Write-only, no index.
type History struct {
	W, D, C uint32
	Amount  int64
	Date    int64
}

// Encode renders the row.
func (h History) Encode() []byte {
	b := make([]byte, 28)
	pu32(b, 0, h.W)
	pu32(b, 4, h.D)
	pu32(b, 8, h.C)
	pi64(b, 12, h.Amount)
	pi64(b, 20, h.Date)
	return b
}

// prefix4, prefix8, prefix12, prefix16 are key extractors for rows whose
// primary key is the leading fixed bytes.
func prefix4(row []byte) []byte  { return row[0:4] }
func prefix8(row []byte) []byte  { return row[0:8] }
func prefix12(row []byte) []byte { return row[0:12] }
func prefix16(row []byte) []byte { return row[0:16] }
