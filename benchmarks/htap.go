package main

import (
	"fmt"
	"runtime"
	"time"
)

// The htap workload is the paper's headline cell (Fig. 12a/b), in process
// on one goroutine with no network and no WAL: every round takes a
// snapshot, runs OLTP transactions that build up versions the snapshot
// still has to see past, then runs one analytical query under that old
// snapshot. OLTP and OLAP time accumulate separately, as the paper reports
// them. Single-threaded, so every count and all virtual time repeat
// exactly for a seed.
//
// One database runs the cell as bench.fig12a sizes it: 2 500 warm-up
// transactions, then 12 rounds of 400. A run measures htapDatabases of
// them, each loaded and driven from its own sub-seed, one after the other,
// and pools the results: cost per transaction grows severalfold while a
// database ages (table indexes never merge their partitions), which makes
// a single long-lived database both slow and sensitive to its seed.

const (
	htapDatabases  = 4 // at run_seconds
	htapRounds     = 12
	htapTxPerRound = 400
	htapWarmupTx   = 2500
	htapQueries    = 4
	htapAgeWindows = 8 // equal-count windows over one database's life
	htapSpaceEvery = 100
)

var htapQueryNames = [htapQueries]string{"q1", "q6", "stock", "customer"}

// txDeck deals transaction types the way the TPC-C specification suggests
// (clause 5.2.4.2): from a shuffled deck holding the standard mix exactly,
// here 45/43/4/4/4 in 100 cards, reshuffled when it runs out. Rolling dice
// per transaction, as tpcc.Bench.Tx does, lets the number of Delivery
// transactions in a round swing by a quarter, and one Delivery costs as
// much as 10 to 50 of the others: the dice alone spread ops_per_s by 14%
// from seed to seed.
type txDeck struct {
	r     prng
	cards []int
	next  int
}

func newTxDeck(seed uint64) *txDeck {
	d := &txDeck{r: newPRNG(seed)}
	for kind, n := range [...]int{txNewOrder: 45, txPayment: 43, txOrderStatus: 4, txDelivery: 4, txStockLevel: 4} {
		for ; n > 0; n-- {
			d.cards = append(d.cards, kind)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *txDeck) deal() int {
	if d.next == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.r.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// htapDatabase is one loaded, warmed-up database and the deck that drives it.
type htapDatabase struct {
	sys  *htapSystem
	deck *txDeck
}

// htapSetup builds one database up to its first measured transaction:
// engine, load, warm-up transactions.
func htapSetup(seed uint64, warmup int) (htapDatabase, error) {
	sys, err := newHTAPSystem(mixSeed(seed, 7))
	if err != nil {
		return htapDatabase{}, err
	}
	deck := newTxDeck(mixSeed(seed, 8))
	for i := 0; i < warmup; i++ {
		if _, err := sys.tx(deck.deal()); err != nil {
			sys.close()
			return htapDatabase{}, fmt.Errorf("htap: warm-up tx %d: %w", i, err)
		}
	}
	return htapDatabase{sys, deck}, nil
}

func htapStats(dbs []htapDatabase) layerStats {
	var st layerStats
	for _, d := range dbs {
		d.sys.addStats(&st)
	}
	return st
}

func runHTAP(c runConfig) (*runResult, error) {
	seed, seconds, scale, trace := c.seed, c.seconds, c.scale, c.trace
	ndb := max(htapDatabases*seconds/runSeconds, 1)
	rounds, txPerRound, warmup := htapRounds, htapTxPerRound, htapWarmupTx
	if scale < 1 {
		ndb, rounds = 1, htapQueries
		txPerRound = max(int(float64(txPerRound)*scale), 2*htapAgeWindows)
		warmup = max(int(float64(warmup)*scale), 50)
	}
	res := &runResult{workload: wHTAP}

	// Every database is built before the first is measured; set-up time is
	// the median over them.
	var dbs []htapDatabase
	defer func() {
		for _, d := range dbs {
			d.sys.close()
		}
	}()
	var setupS []float64
	for i := 0; i < ndb; i++ {
		t0 := time.Now()
		d, err := htapSetup(mixSeed(seed, uint64(100+i)), warmup)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds()+float64(d.sys.virtualNS())/1e9)
		dbs = append(dbs, d)
	}

	totalTx := ndb * rounds * txPerRound
	var rec *spanRecorder
	if trace {
		rec = newSpanRecorder(wHTAP, totalTx+ndb*rounds)
	}
	perWindow := rounds * txPerRound / htapAgeWindows
	txUS := make([]float64, 0, totalTx)
	// Every database takes the same steps at the same ages, so the wall
	// time of a step is the median over the databases: windowNS[age] and
	// queryMS[round] hold one value per database.
	windowNS := make([][]float64, htapAgeWindows)
	queryMS := make([][]float64, rounds)
	var olapMS [htapQueries][]float64
	var oltpWall, oltpVirtual, olapVirtual, boundary time.Duration
	var liveSum, liveSamples, committed float64

	runtime.GC()
	before := htapStats(dbs)
	a := startAllocs()
	t0 := time.Now()
	for n, d := range dbs {
		sys := d.sys
		done := 0 // transactions run on this database
		for round := 0; round < rounds; round++ {
			snap := sys.begin()
			// Untimed, right after Begin: what the query must still return
			// once the transactions below have piled versions on top of the
			// snapshot.
			want, err := sys.query(snap, round)
			if err != nil {
				sys.end(snap)
				return nil, fmt.Errorf("htap: reference query, database %d round %d: %w", n, round, err)
			}
			v0 := sys.virtualNS()
			for i := 0; i < txPerRound; i++ {
				if len(txUS)%htapSpaceEvery == 0 {
					liveSum += float64(sys.liveBytes())
					liveSamples++
				}
				var sv, sb int64
				if rec != nil {
					sv, sb = sys.virtualNS(), sys.devBytesWritten()
				}
				start := time.Since(t0)
				ok, err := sys.tx(d.deck.deal())
				end := time.Since(t0)
				if err != nil {
					res.bad.addf("htap: database %d round %d tx %d: %v", n, round, i, err)
				} else if ok {
					committed++
				}
				oltpWall += end - start
				txUS = append(txUS, float64(end-start)/1e3)
				if rec != nil {
					rec.add(span{rung: "engine", kind: "tx", opIndex: len(txUS) - 1, startNS: int64(start), endNS: int64(end),
						virtual: sys.virtualNS() - sv, devBytes: sys.devBytesWritten() - sb})
				}
				if done++; done%perWindow == 0 && done/perWindow <= htapAgeWindows {
					windowNS[done/perWindow-1] = append(windowNS[done/perWindow-1], float64(oltpWall-boundary))
					boundary = oltpWall
				}
			}
			oltpVirtual += time.Duration(sys.virtualNS() - v0)

			qv, qb := sys.virtualNS(), sys.devBytesWritten()
			start := time.Since(t0)
			got, err := sys.query(snap, round)
			end := time.Since(t0)
			virtual := sys.virtualNS() - qv
			olapVirtual += time.Duration(virtual)
			sys.end(snap)
			q := round % htapQueries
			if err != nil {
				res.bad.addf("htap: query %s, database %d round %d: %v", htapQueryNames[q], n, round, err)
			} else if got != want {
				res.bad.addf("htap: query %s, database %d round %d: %+v under the old snapshot, %+v when it was taken",
					htapQueryNames[q], n, round, got, want)
			}
			ms := float64(int64(end-start)+virtual) / 1e6
			olapMS[q] = append(olapMS[q], ms)
			queryMS[round] = append(queryMS[round], ms)
			if rec != nil {
				rec.add(span{rung: "engine", kind: htapQueryNames[q], opIndex: totalTx + n*rounds + round,
					startNS: int64(start), endNS: int64(end), virtual: virtual, devBytes: sys.devBytesWritten() - qb})
			}
		}
	}
	alloc := a.stop()
	end := htapStats(dbs)
	delta := end.sub(before)
	res.attempted = totalTx + ndb*rounds
	res.notef("measured phase: %d databases, %d tx in %.2f s wall + %.2f s virtual, %d queries, %.2f s wall in all",
		ndb, totalTx, oltpWall.Seconds(), oltpVirtual.Seconds(), ndb*rounds, time.Since(t0).Seconds())

	m := &res.metrics
	tx := float64(totalTx)
	wallNS := medianAcross(windowNS) * float64(ndb)
	if !trace {
		m.put("ops_per_s", ratio(committed*1e9, wallNS+float64(oltpVirtual)))
		m.put("sim_io_us_per_op", ratio(float64(oltpVirtual)/1e3, tx))
		m.put("write_amp", ratio(end.BytesWritten, end.HeapBytes))
		// Mean live bytes of a database over the mean base-table volume.
		m.put("space_amp", ratio(liveSum/liveSamples, end.HeapBytes/float64(ndb)))
		m.putN("scan_io_us", ratio(float64(olapVirtual)/1e3, float64(ndb*rounds)), ndb*rounds)
		m.put("alloc_kb_per_op", ratio(alloc.bytes/1024, tx))
		m.putN("setup_s", median(setupS), len(setupS))
		return res, nil
	}

	layerMetrics(m, delta, tx)
	runtimeMetrics(m, alloc, tx)
	m.put("runtime.wall_ops_per_s", ratio(tx*1e9, wallNS))
	// The mean over a database's rounds: query time grows severalfold while
	// it ages, so a median over rounds would report the middle ones only.
	m.putN("db.olap_query_ms", medianAcross(queryMS)/float64(rounds), ndb*rounds)
	m.putN("db.oltp_tx_wall_us", median(txUS), len(txUS))
	for q, name := range htapQueryNames {
		m.putN("db.olap_"+name+"_ms", median(olapMS[q]), len(olapMS[q]))
	}
	if err := leafProbesHeap(scale, m); err != nil {
		return nil, err
	}
	if _, err := rec.write(c.outDir); err != nil {
		return nil, err
	}
	return res, nil
}
