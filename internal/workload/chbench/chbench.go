// Package chbench implements the CH-benchmark mixed workload of the
// paper's Figures 12a/12b: the TPC-C transaction mix interleaved with
// long-running analytical queries executed under old snapshots. The
// analytical side is a representative subset of the CH query set —
// full-relation aggregations over order_line (Q1/Q6 style), a stock scan
// and a customer-balance aggregate — all expressed as index scans, which
// is exactly where the visibility-check strategy dominates cost.
package chbench

import (
	"mvpbt/internal/db"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
	"mvpbt/internal/workload/tpcc"
)

// Bench wraps a TPC-C database with analytical queries.
type Bench struct {
	*tpcc.Bench
}

// New builds the CH-benchmark over a TPC-C configuration.
func New(eng *db.Engine, cfg tpcc.Config) (*Bench, error) {
	t, err := tpcc.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	return &Bench{Bench: t}, nil
}

// QueryResult carries an analytical query's aggregate outputs (used to
// verify consistency across engines, and to defeat dead-code elimination).
type QueryResult struct {
	Rows   int
	Sum    int64
	Groups int
}

// fullRange spans every (w, d, ...) composite key.
func fullRange() (lo, hi []byte) {
	return util.EncodeUint32(nil, 0), util.EncodeUint32(nil, ^uint32(0))
}

// Q1OrderLineAggregate is the CH Q1-style query: scan ALL order lines,
// grouping by line number. The group key (ol_number) is part of the index
// key, so the query is index-only-able: MV-PBT answers it without any
// base-table access, while version-oblivious indexes must fetch every
// candidate version for the visibility check — the paper's Figure 2 cost
// model at query scale.
func (b *Bench) Q1OrderLineAggregate(tx *txn.Tx) (QueryResult, error) {
	lo, hi := fullRange()
	var res QueryResult
	groups := map[uint32]int64{}
	tbl := b.OrderLineTable()
	err := tbl.Scan(tx, tbl.Indexes()[0], lo, hi, false, func(rr db.RowRef) bool {
		// ol_number is the last 4 bytes of the (w,d,o,number) key.
		num := util.DecodeUint32(rr.Key[12:16])
		groups[num]++
		res.Rows++
		return true
	})
	res.Groups = len(groups)
	return res, err
}

// Q6RevenueFilter is the CH Q6-style query shape: count order lines whose
// line number falls in a band — index-only, like Q1.
func (b *Bench) Q6RevenueFilter(tx *txn.Tx) (QueryResult, error) {
	lo, hi := fullRange()
	var res QueryResult
	tbl := b.OrderLineTable()
	err := tbl.Scan(tx, tbl.Indexes()[0], lo, hi, false, func(rr db.RowRef) bool {
		if num := util.DecodeUint32(rr.Key[12:16]); num >= 3 && num <= 7 {
			res.Rows++
		}
		return true
	})
	return res, err
}

// StockBelowThreshold scans all stock rows counting low inventory.
func (b *Bench) StockBelowThreshold(tx *txn.Tx, threshold uint32) (QueryResult, error) {
	lo, hi := fullRange()
	var res QueryResult
	tbl := b.StockTable()
	err := tbl.Scan(tx, tbl.Indexes()[0], lo, hi, true, func(rr db.RowRef) bool {
		if tpcc.DecodeStock(rr.Row).Quantity < threshold {
			res.Rows++
		}
		return true
	})
	return res, err
}

// CustomerBalanceAggregate sums all customer balances (touching the
// update-hot customer table).
func (b *Bench) CustomerBalanceAggregate(tx *txn.Tx) (QueryResult, error) {
	lo, hi := fullRange()
	var res QueryResult
	tbl := b.CustomerTable()
	err := tbl.Scan(tx, tbl.Indexes()[0], lo, hi, true, func(rr db.RowRef) bool {
		res.Sum += tpcc.DecodeCustomer(rr.Row).Balance
		res.Rows++
		return true
	})
	return res, err
}

// AnalyticalQuery runs the i-th query of the rotating CH set.
func (b *Bench) AnalyticalQuery(tx *txn.Tx, i int) (QueryResult, error) {
	switch i % 4 {
	case 0:
		return b.Q1OrderLineAggregate(tx)
	case 1:
		return b.Q6RevenueFilter(tx)
	case 2:
		return b.StockBelowThreshold(tx, 15)
	default:
		return b.CustomerBalanceAggregate(tx)
	}
}
