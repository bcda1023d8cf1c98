package tpcc

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/heap"
	"mvpbt/internal/util"
)

// districts is the number of districts per warehouse, fixed by the TPC-C
// specification.
const districts = 10

// Config scales the benchmark and selects the storage engine under test.
type Config struct {
	Warehouses int
	// CustomersPerDistrict (TPC-C: 3000; scaled down by default).
	CustomersPerDistrict int
	// Items in the catalog (TPC-C: 100000; scaled down by default).
	Items int
	Seed  uint64

	// Engine axis (Figures 14a–d): heap organization, index structure,
	// reference mode and index options applied to every table.
	Heap      db.HeapKind
	Index     db.IndexKind
	RefMode   db.RefMode
	BloomBits int
	PrefixLen int
	DisableGC bool
	// AutoVacuumEvery runs a vacuum pass over all tables every N committed
	// transactions during Run (0 disables; PostgreSQL-style autovacuum).
	AutoVacuumEvery int
}

func (c Config) withDefaults() Config {
	if c.Warehouses <= 0 {
		c.Warehouses = 1
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 100
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Stats counts transaction outcomes.
type Stats struct {
	NewOrders, Payments, OrderStatus, Deliveries, StockLevels int64
	Aborts                                                    int64
}

// Total returns the number of committed transactions.
func (s Stats) Total() int64 {
	return s.NewOrders + s.Payments + s.OrderStatus + s.Deliveries + s.StockLevels
}

// Bench is a loaded TPC-C database plus the transaction mix driver.
type Bench struct {
	cfg Config
	eng *db.Engine
	r   *util.Rand

	warehouse, district, customer, orders *db.Table
	neworder, orderline, item, stock      *db.Table
	history                               *db.Table

	Stats Stats
}

// New creates the schema on eng per cfg (no data yet; call Load).
func New(eng *db.Engine, cfg Config) (*Bench, error) {
	cfg = cfg.withDefaults()
	b := &Bench{cfg: cfg, eng: eng, r: util.NewRand(cfg.Seed)}

	idx := func(name string, unique bool, extract func([]byte) []byte, prefixLen int) db.IndexDef {
		return db.IndexDef{
			Name: name, Kind: cfg.Index, RefMode: cfg.RefMode, Unique: unique,
			Extract: extract, BloomBits: cfg.BloomBits, PrefixLen: prefixLen,
			DisableGC: cfg.DisableGC,
		}
	}
	var err error
	mk := func(name string, defs ...db.IndexDef) *db.Table {
		if err != nil {
			return nil
		}
		var t *db.Table
		t, err = eng.NewTable(name, cfg.Heap, defs...)
		return t
	}
	pl := cfg.PrefixLen
	b.warehouse = mk("warehouse", idx("pk", true, prefix4, 0))
	b.district = mk("district", idx("pk", true, prefix8, 0))
	b.customer = mk("customer",
		idx("pk", true, prefix12, 0),
		idx("name", false, CustomerNameExtract, pl))
	b.orders = mk("orders",
		idx("pk", true, prefix12, 0),
		idx("cust", false, OrderCustomerExtract, pl))
	b.neworder = mk("new_order", idx("pk", true, prefix12, pl))
	b.orderline = mk("order_line", idx("pk", true, prefix16, pl))
	b.item = mk("item", idx("pk", true, prefix4, 0))
	b.stock = mk("stock", idx("pk", true, prefix8, pl))
	b.history = mk("history")
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Engine returns the underlying engine.
func (b *Bench) Engine() *db.Engine { return b.eng }

// Table accessors for analytical queries (CH-benchmark).
func (b *Bench) OrderLineTable() *db.Table { return b.orderline }
func (b *Bench) StockTable() *db.Table     { return b.stock }
func (b *Bench) CustomerTable() *db.Table  { return b.customer }
func (b *Bench) DistrictTable() *db.Table  { return b.district }

// AllTables returns every table of the schema.
func (b *Bench) AllTables() []*db.Table {
	return []*db.Table{b.warehouse, b.district, b.customer, b.orders,
		b.neworder, b.orderline, b.item, b.stock, b.history}
}

// lastNames per the TPC-C syllable table.
var syllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// LastName renders TPC-C customer last name n (0..999).
func LastName(n int) string {
	return syllables[n/100] + syllables[(n/10)%10] + syllables[n%10]
}

// nuRand is the TPC-C non-uniform random function.
func (b *Bench) nuRand(a, x, y int) int {
	c := 123 % (a + 1)
	return (((b.r.IntRange(0, a) | b.r.IntRange(x, y)) + c) % (y - x + 1)) + x
}

func (b *Bench) randomCustomerID() uint32 {
	return uint32(b.nuRand(1023, 1, b.cfg.CustomersPerDistrict))
}

func (b *Bench) randomItemID() uint32 {
	return uint32(b.nuRand(8191, 1, b.cfg.Items))
}

// Load populates the database per the (scaled) TPC-C population rules.
func (b *Bench) Load() error {
	c := b.cfg
	data := make([]byte, 64)
	for w := uint32(1); w <= uint32(c.Warehouses); w++ {
		tx := b.eng.Begin()
		if _, _, err := b.warehouse.Insert(tx, Warehouse{W: w, Tax: int64(b.r.Intn(2000)), Name: fmt.Sprintf("WH%03d", w)}.Encode()); err != nil {
			return err
		}
		for i := uint32(1); i <= uint32(c.Items); i++ {
			if w == 1 { // items are global
				it := Item{I: i, Price: int64(100 + b.r.Intn(9900)), Name: fmt.Sprintf("item-%06d", i)}
				if _, _, err := b.item.Insert(tx, it.Encode()); err != nil {
					return err
				}
			}
			b.r.Letters(data[:24])
			st := Stock{W: w, I: i, Quantity: uint32(10 + b.r.Intn(91)), Data: string(data[:24])}
			if _, _, err := b.stock.Insert(tx, st.Encode()); err != nil {
				return err
			}
		}
		b.eng.Commit(tx)
		for d := uint32(1); d <= districts; d++ {
			tx := b.eng.Begin()
			dist := District{W: w, D: d, Tax: int64(b.r.Intn(2000)), NextOID: 1}
			if _, _, err := b.district.Insert(tx, dist.Encode()); err != nil {
				return err
			}
			for cu := uint32(1); cu <= uint32(c.CustomersPerDistrict); cu++ {
				b.r.Letters(data[:32])
				last := LastName(b.nuRand(255, 0, 999))
				cust := Customer{W: w, D: d, C: cu, Balance: -1000, Last: last, Data: string(data[:32])}
				if _, _, err := b.customer.Insert(tx, cust.Encode()); err != nil {
					return err
				}
			}
			b.eng.Commit(tx)
		}
	}
	return nil
}

// Tx runs one transaction of the standard mix (45/43/4/4/4) and updates
// Stats. Serialization failures abort and count.
func (b *Bench) Tx() error {
	roll := b.r.Intn(100)
	var err error
	switch {
	case roll < 45:
		err = b.NewOrderTx()
		if err == nil {
			b.Stats.NewOrders++
		}
	case roll < 88:
		err = b.PaymentTx()
		if err == nil {
			b.Stats.Payments++
		}
	case roll < 92:
		err = b.OrderStatusTx()
		if err == nil {
			b.Stats.OrderStatus++
		}
	case roll < 96:
		err = b.DeliveryTx()
		if err == nil {
			b.Stats.Deliveries++
		}
	default:
		err = b.StockLevelTx()
		if err == nil {
			b.Stats.StockLevels++
		}
	}
	if err == heap.ErrWriteConflict || err == errIntentionalRollback {
		b.Stats.Aborts++
		return nil
	}
	return err
}

// Run executes n transactions of the mix, with periodic autovacuum when
// configured.
func (b *Bench) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := b.Tx(); err != nil {
			return err
		}
		if v := b.cfg.AutoVacuumEvery; v > 0 && b.Stats.Total()%int64(v) == 0 {
			if err := b.VacuumAll(); err != nil {
				return err
			}
		}
	}
	return nil
}

// VacuumAll reclaims dead versions in every table.
func (b *Bench) VacuumAll() error {
	for _, t := range b.AllTables() {
		if _, err := t.Vacuum(); err != nil {
			return err
		}
	}
	return nil
}

type tpccError string

func (e tpccError) Error() string { return string(e) }

const (
	errIntentionalRollback = tpccError("tpcc: intentional rollback (1% of new-orders)")
	errRowMissing          = tpccError("tpcc: expected row missing")
)
