package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The three KV workloads run against the sharded stack over loopback TCP:
// a closed loop (the wire protocol has no pipelining, so each caller waits
// for its reply) of kvClients goroutines, one connection each, fixed
// regardless of the number of cores. Op counts are fixed by the run length
// asked for, never cut off by a timer, so state, counts and virtual time
// repeat from run to run.

const (
	kvClients      = 2
	kvKeys         = 50_000 // 25 MiB of live data per shard against an 8 MiB pool
	kvValueBytes   = 1024
	kvScanLimit    = 50
	kvWindows      = 16    // equal-count windows per client for the wall-rate estimator
	kvSpaceEvery   = 100   // ops between live-space samples
	kvSweepPasses  = 3     // times the final check reads the key space; the fastest pass is reported
	kvWarmupOps    = 2000  // SETs a workload without a preload warms up with
	kvStallNS      = 1e6   // an op slower than this waited on inline background work
	ladderFraction = 0.125 // share of the op stream the traced replay covers
	openLoopRate   = 4000  // requests per second, all connections together
	openLoopSecs   = 3
	openSlowNS     = 5e6
	openLateNS     = 1e5

	// Writer ids are base + id%kvClients: the measured clients write as 0
	// and 1, the preload as 2 and 3, the open-loop probe as 4 and 5.
	writerPreload = 2
	writerOpen    = 4
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opScan
	opTxn
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "scan", "txn"}

type op struct {
	kind    opKind
	id, id2 uint32
}

// kvSpec is one workload's traffic mix; the remainder of the three shares
// is two-key cross-shard transactions. ops is the count at run_seconds.
type kvSpec struct {
	ops                     int
	getPct, setPct, scanPct int
	zipf                    bool // scrambled-zipfian ids instead of uniform
	preload                 bool // every key written through Router.Put in set-up; else kvWarmupOps SETs
	restart                 bool // crash and recover both shards after the run
}

var kvSpecs = map[string]kvSpec{
	wIngest: {ops: 150_000, setPct: 100, restart: true},
	wMixed:  {ops: 140_000, getPct: 50, setPct: 40, scanPct: 5, zipf: true, preload: true},
	wRead:   {ops: 350_000, getPct: 95, scanPct: 5, preload: true},
}

// kvWorkload is one seeded instance: its keys and both clients' op streams.
type kvWorkload struct {
	name    string
	spec    kvSpec
	seed    uint64
	scale   float64
	keys    [][]byte
	shardOf []uint8
	preload []uint32 // ids set-up writes, in order
	streams [kvClients][]op
}

// mixSeed spreads consecutive seeds and salts over the generator's state
// space (splitmix64); xorshift started from small integers is correlated.
func mixSeed(seed, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newKVWorkload(name string, c runConfig) (*kvWorkload, error) {
	spec, ok := kvSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown KV workload %q", name)
	}
	seed, seconds, scale := c.seed, c.seconds, c.scale
	w := &kvWorkload{name: name, spec: spec, seed: seed, scale: scale}
	nkeys := kvKeys
	if scale < 1 {
		nkeys = max(1000, int(kvKeys*scale))
	}
	perClient := int(float64(spec.ops)*float64(seconds)/runSeconds*scale) / kvClients
	perClient -= perClient % kvWindows
	if perClient < kvWindows {
		return nil, fmt.Errorf("%s: %d s at scale %g leaves no ops to run", name, seconds, scale)
	}
	w.keys = make([][]byte, nkeys)
	for id := range w.keys {
		w.keys[id] = keyOf(uint64(id))
	}
	sys, err := newKVSystem(false, false)
	if err != nil {
		return nil, err
	}
	w.shardOf = make([]uint8, nkeys)
	for id, k := range w.keys {
		w.shardOf[id] = uint8(sys.shardOf(k))
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	r := newPRNG(mixSeed(seed, 99))
	if spec.preload {
		w.preload = make([]uint32, nkeys)
		for i := range w.preload {
			w.preload[i] = uint32(i)
		}
		for i := nkeys - 1; i > 0; i-- {
			j := r.intn(i + 1)
			w.preload[i], w.preload[j] = w.preload[j], w.preload[i]
		}
	} else {
		// A warm-up in place of the preload: connections, goroutines and
		// heap are past their cold start when the measured phase begins,
		// and set-up has device time to its name, not 6 ms of allocation
		// whose wall time drifts with the box.
		ids := r.uniform(nkeys)
		w.preload = make([]uint32, max(int(kvWarmupOps*min(scale, 1)), 1))
		for i := range w.preload {
			w.preload[i] = uint32(ids.Next())
		}
	}
	for g := range w.streams {
		w.streams[g] = w.genOps(g, perClient, mixSeed(seed, uint64(g)))
	}
	return w, nil
}

// genOps draws one client's stream. Client g writes only ids with
// id%kvClients == g, so every key has a single writer and the model of the
// final state does not depend on how the clients interleave.
func (w *kvWorkload) genOps(g, n int, seed uint64) []op {
	r := newPRNG(seed)
	nkeys := len(w.keys)
	ids := r.uniform(nkeys)
	if w.spec.zipf {
		ids = r.scrambled(nkeys)
	}
	own := func() uint32 {
		id := int(ids.Next())
		id += g - id%kvClients
		if id >= nkeys {
			id -= kvClients
		}
		return uint32(id)
	}
	s := w.spec
	ops := make([]op, n)
	for i := range ops {
		switch roll := r.intn(100); {
		case roll < s.getPct:
			ops[i] = op{kind: opGet, id: uint32(ids.Next())}
		case roll < s.getPct+s.setPct:
			ops[i] = op{kind: opSet, id: own()}
		case roll < s.getPct+s.setPct+s.scanPct:
			ops[i] = op{kind: opScan, id: uint32(ids.Next())}
		default:
			// Two keys of this client on different shards: always 2PC.
			a := own()
			b := own()
			for w.shardOf[a] == w.shardOf[b] {
				b = own()
			}
			ops[i] = op{kind: opTxn, id: a, id2: b}
		}
	}
	return ops
}

// kvModel is the expected final state: per key the (writer, seq) of the
// last acknowledged write, and of a later write whose outcome is unknown
// because it returned an error (either neighbour is then legal).
type kvModel struct {
	acked, maybe []uint64 // writer<<56 | seq; 0 = never
}

func packVersion(writer int, seq uint64) uint64 { return uint64(writer)<<56 | seq }

// fillValue stamps val with (key id, writer, seq).
func fillValue(val []byte, id uint32, version uint64) {
	binary.BigEndian.PutUint64(val[0:8], uint64(id))
	binary.BigEndian.PutUint64(val[8:16], version)
}

func valueID(val []byte) (uint64, bool) {
	if len(val) != kvValueBytes {
		return 0, false
	}
	return binary.BigEndian.Uint64(val[0:8]), true
}

func keyID(key []byte) (uint64, bool) {
	if len(key) != 20 || !bytes.HasPrefix(key, []byte("user")) {
		return 0, false
	}
	id, err := strconv.ParseUint(string(key[4:]), 10, 64)
	return id, err == nil
}

// violations counts failed operations and failed checks, keeping the first
// few messages for the report.
type violations struct {
	n    int
	msgs []string
}

func (v *violations) addf(format string, args ...any) {
	v.n++
	if len(v.msgs) < 5 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) merge(o violations) {
	v.n += o.n
	for _, m := range o.msgs {
		if len(v.msgs) < 5 {
			v.msgs = append(v.msgs, m)
		}
	}
}

// driveResult is what one client saw.
type driveResult struct {
	lat      []int64   // wall ns per op, by op index
	windowNS []float64 // duration of each equal-count window
	live     spaceSamples
	bad      violations
}

// spaceSamples are readings of the live device bytes, taken every
// kvSpaceEvery ops.
type spaceSamples struct{ sum, n, peak float64 }

func (s *spaceSamples) add(live int64) {
	s.sum += float64(live)
	s.n++
	s.peak = max(s.peak, float64(live))
}

// driver issues ops through one entry point and checks every reply.
type driver struct {
	w         *kvWorkload
	k         kvOps
	m         *kvModel
	sys       *kvSystem
	val, val2 []byte
	seq       [8]uint64 // last sequence number, by writer id
	userBytes int64     // acknowledged key+value bytes
	bad       violations
}

func (w *kvWorkload) newDriver(k kvOps, m *kvModel, sys *kvSystem) *driver {
	val := make([]byte, kvValueBytes)
	for i := range val {
		val[i] = byte(i * 131)
	}
	return &driver{w: w, k: k, m: m, sys: sys, val: val, val2: append([]byte(nil), val...)}
}

// exec runs one op. Writes go out as writer writerBase + (id % kvClients).
func (d *driver) exec(o op, writerBase int) {
	w := d.w
	switch o.kind {
	case opGet:
		v, ok, err := d.k.get(w.keys[o.id])
		switch {
		case err != nil:
			d.bad.addf("GET %s: %v", w.keys[o.id], err)
		case !ok:
			d.bad.addf("GET %s: not found", w.keys[o.id])
		default:
			if id, ok := valueID(v); !ok || id != uint64(o.id) {
				d.bad.addf("GET %s: value of %d bytes carries id %d", w.keys[o.id], len(v), id)
			}
		}
	case opSet:
		ver := d.nextVersion(o.id, writerBase)
		fillValue(d.val, o.id, ver)
		d.note(d.k.set(w.keys[o.id], d.val), "SET", ver, o.id)
	case opScan:
		lo := w.keys[o.id]
		n := 0
		var prev []byte
		err := d.k.scan(lo, kvScanLimit, func(k, v []byte) {
			n++
			kid, okK := keyID(k)
			vid, okV := valueID(v)
			if !okK || !okV || kid != vid || bytes.Compare(k, lo) < 0 || (prev != nil && bytes.Compare(k, prev) <= 0) {
				d.bad.addf("SCAN %s: pair %d is key %q with value id %d after %q", lo, n, k, vid, prev)
			}
			prev = append(prev[:0], k...)
		})
		if err != nil {
			d.bad.addf("SCAN %s: %v", lo, err)
		} else if n > kvScanLimit {
			d.bad.addf("SCAN %s: %d pairs, limit %d", lo, n, kvScanLimit)
		}
	case opTxn:
		v1, v2 := d.nextVersion(o.id, writerBase), d.nextVersion(o.id2, writerBase)
		fillValue(d.val, o.id, v1)
		fillValue(d.val2, o.id2, v2)
		err := d.k.txn2(w.keys[o.id], d.val, w.keys[o.id2], d.val2)
		d.note(err, "TXN", v1, o.id)
		if err == nil {
			d.note(nil, "TXN", v2, o.id2)
		} else {
			d.m.maybe[o.id2] = v2
		}
	}
}

func (d *driver) nextVersion(id uint32, writerBase int) uint64 {
	writer := writerBase + int(id)%kvClients
	d.seq[writer]++
	return packVersion(writer, d.seq[writer])
}

// note records a write's outcome in the model.
func (d *driver) note(err error, what string, version uint64, id uint32) {
	if err != nil {
		d.bad.addf("%s %s: %v", what, d.w.keys[id], err)
		d.m.maybe[id] = version
		return
	}
	d.m.acked[id], d.m.maybe[id] = version, 0
	d.userBytes += int64(len(d.w.keys[id]) + kvValueBytes)
}

// run issues ops in a closed loop, timing each. With a recorder it also
// records one span per op under the given rung name.
func (d *driver) run(ops []op, sampleSpace bool, rec *spanRecorder, rung string) driveResult {
	res := driveResult{lat: make([]int64, len(ops)), windowNS: make([]float64, 0, kvWindows)}
	perWindow := len(ops) / kvWindows
	var v0, b0 int64
	var boundary time.Duration
	t0 := time.Now()
	for i, o := range ops {
		if sampleSpace && i%kvSpaceEvery == 0 {
			res.live.add(d.sys.liveBytes())
		}
		if rec != nil {
			v0, b0 = d.sys.virtualNS(), d.sys.devBytesWritten()
		}
		start := time.Since(t0)
		d.exec(o, 0)
		end := time.Since(t0)
		res.lat[i] = int64(end - start)
		if rec != nil {
			rec.add(span{rung: rung, kind: kindNames[o.kind], opIndex: i, startNS: int64(start), endNS: int64(end),
				virtual: d.sys.virtualNS() - v0, devBytes: d.sys.devBytesWritten() - b0})
		}
		if (i+1)%perWindow == 0 {
			res.windowNS = append(res.windowNS, float64(end-boundary))
			boundary = end
		}
	}
	res.bad = d.bad
	d.bad = violations{}
	return res
}

// sweep reads the whole key space back in SCAN(kvScanLimit) requests and
// checks every key against the model: present exactly when written, in
// strictly ascending order, carrying the last acknowledged (writer, seq).
// It returns the composite time of each request in ms.
func (d *driver) sweep() (scanMS []float64, bad violations) {
	w, m := d.w, d.m
	lo := append([]byte(nil), w.keys[0]...)
	var last []byte
	seen := 0
	for {
		n := 0
		v0 := d.sys.virtualNS()
		t0 := time.Now()
		err := d.k.scan(lo, kvScanLimit, func(k, v []byte) {
			n++
			seen++
			id, okK := keyID(k)
			vid, okV := valueID(v)
			switch {
			case !okK || id >= uint64(len(w.keys)) || !okV || vid != id:
				bad.addf("sweep: key %q with value id %d", k, vid)
			case last != nil && bytes.Compare(k, last) <= 0:
				bad.addf("sweep: key %q after %q", k, last)
			default:
				got := binary.BigEndian.Uint64(v[8:16])
				if got != m.acked[id] && (m.maybe[id] == 0 || got != m.maybe[id]) {
					bad.addf("sweep: key %q holds version %#x, model has %#x (or %#x)", k, got, m.acked[id], m.maybe[id])
				}
			}
			last = append(last[:0], k...)
		})
		scanMS = append(scanMS, float64(int64(time.Since(t0))+d.sys.virtualNS()-v0)/1e6)
		if err != nil {
			bad.addf("sweep: SCAN %q: %v", lo, err)
			return scanMS, bad
		}
		if n < kvScanLimit {
			break
		}
		lo = append(append(lo[:0], last...), 0)
	}
	// A key whose only write returned an error may or may not be there.
	written, unsure := 0, 0
	for id := range m.acked {
		if m.acked[id] != 0 {
			written++
		} else if m.maybe[id] != 0 {
			unsure++
		}
	}
	if seen < written || seen > written+unsure {
		bad.addf("sweep: %d keys stored, model has %d (and %d it is unsure of)", seen, written, unsure)
	}
	return scanMS, bad
}

// kvInstance is one built system with its model and connections.
type kvInstance struct {
	sys       *kvSystem
	m         *kvModel
	conns     []*clientRung
	userBytes int64 // acknowledged key+value bytes since creation
}

func (in *kvInstance) close() error {
	for _, c := range in.conns {
		c.close()
	}
	return in.sys.close()
}

// setup builds one system up to its first measured op: engines, listener,
// preload (or warm-up) through Router.Put, client connections.
func (w *kvWorkload) setup(durable, listen bool) (*kvInstance, error) {
	sys, err := newKVSystem(durable, listen)
	if err != nil {
		return nil, err
	}
	in := &kvInstance{sys: sys, m: &kvModel{acked: make([]uint64, len(w.keys)), maybe: make([]uint64, len(w.keys))}}
	d := w.newDriver(sys.router(), in.m, sys)
	for _, id := range w.preload {
		d.exec(op{kind: opSet, id: id}, writerPreload)
	}
	if d.bad.n > 0 {
		in.close()
		return nil, fmt.Errorf("%s: preload: %s", w.name, d.bad.msgs[0])
	}
	in.userBytes = d.userBytes
	if listen {
		for g := 0; g < kvClients; g++ {
			c, err := sys.dial()
			if err != nil {
				in.close()
				return nil, err
			}
			in.conns = append(in.conns, c)
		}
	}
	return in, nil
}

// phase is the untraced measured phase of one run.
type phase struct {
	clients [kvClients]driveResult
	wallNS  int64
	delta   layerStats // counters over the phase, levels at its end
	end     layerStats
	alloc   allocDelta
	ops     int
	live    spaceSamples
	bad     violations
}

func (w *kvWorkload) measure(in *kvInstance) phase {
	var p phase
	drivers := make([]*driver, kvClients)
	for g := range drivers {
		drivers[g] = w.newDriver(in.conns[g], in.m, in.sys)
	}
	runtime.GC()
	before := in.sys.stats()
	a := startAllocs()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range drivers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p.clients[g] = drivers[g].run(w.streams[g], g == 0, nil, "")
		}(g)
	}
	wg.Wait()
	p.wallNS = int64(time.Since(t0))
	p.alloc = a.stop()
	p.end = in.sys.stats()
	p.delta = p.end.sub(before)
	for g := range p.clients {
		in.userBytes += drivers[g].userBytes
		p.ops += len(w.streams[g])
		if p.clients[g].live.n > 0 {
			p.live = p.clients[g].live
		}
		p.bad.merge(p.clients[g].bad)
	}
	return p
}

// runKV runs one KV workload: end-to-end metrics with trace off, per-layer
// metrics (boundary counters, ladder, probes) with trace on.
func runKV(name string, c runConfig) (*runResult, error) {
	w, err := newKVWorkload(name, c)
	if err != nil {
		return nil, err
	}
	trace := c.trace
	res := &runResult{workload: name}

	// Set-up is repeated so that its time is a median, not one sample: the
	// last system built is the one measured.
	var setupS []float64
	var in *kvInstance
	for spent := time.Duration(0); moreSetups(len(setupS), spent, trace); {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if in, err = w.setup(true, true); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		spent += wall
		setupS = append(setupS, (wall + in.sys.stats().virtualMax()).Seconds())
	}
	defer func() { in.close() }()

	p := w.measure(in)
	res.notef("measured phase: %d ops in %.2f s wall + %.2f s virtual (slowest shard)", p.ops, float64(p.wallNS)/1e9, p.delta.virtualMax().Seconds())
	res.attempted += p.ops
	res.bad.merge(p.bad)
	if p.delta.Restarts != 0 || p.end.InDoubt != 0 || p.delta.ROEntries != 0 {
		res.bad.addf("%s: %v restarts, %v in doubt, %v read-only entries during the run",
			name, p.delta.Restarts, p.end.InDoubt, p.delta.ROEntries)
	}

	// Final state against the model; in kv_ingest once more after both
	// shards were crashed and recovered from the flushed log alone.
	d := w.newDriver(in.conns[0], in.m, in.sys)
	var recoverS float64
	if w.spec.restart {
		ms, bad := d.sweep()
		res.attempted += len(ms)
		res.bad.merge(bad)
		for i := 0; i < kvShards; i++ {
			wall, virtual, err := in.sys.failAndRecover(i)
			if err != nil {
				return nil, err
			}
			recoverS += (wall + virtual).Seconds()
			res.notef("shard %d recovered in %.2f s wall + %.2f s virtual", i, wall.Seconds(), virtual.Seconds())
		}
	}
	// The pool holds a third of the data, so every pass reads it from the
	// device again; the pass with the lowest median is the least disturbed.
	var scanMS []float64
	scans, scanVirtual := 0, -in.sys.virtualNS()
	for pass := 0; pass < kvSweepPasses; pass++ {
		ms, bad := d.sweep()
		scans += len(ms)
		res.bad.merge(bad)
		if scanMS == nil || median(ms) < median(scanMS) {
			scanMS = ms
		}
	}
	scanVirtual += in.sys.virtualNS()
	res.attempted += scans

	ops := float64(p.ops)
	ok := float64(p.ops - p.bad.n)
	var windows []float64
	for g := range p.clients {
		windows = append(windows, p.clients[g].windowNS...)
	}
	// Both clients' windows cover the same wall time: the estimate of that
	// time is half of the estimate of their windows laid end to end.
	wallNS := fastHalfNS(windows) / kvClients
	if !trace {
		liveKeys := 0
		for id := range in.m.acked {
			if in.m.acked[id] != 0 {
				liveKeys++
			}
		}
		m := &res.metrics
		m.put("ops_per_s", ratio(ok*1e9, wallNS+float64(p.delta.virtualMax())))
		m.put("sim_io_us_per_op", ratio(float64(p.delta.virtualSum())/1e3, ops))
		m.put("write_amp", ratio(p.end.BytesWritten, float64(in.userBytes)))
		m.put("space_amp", ratio(p.live.sum/p.live.n, float64(liveKeys*(len(w.keys[0])+kvValueBytes))))
		m.putN("scan_io_us", ratio(float64(scanVirtual)/1e3, float64(scans)), scans)
		m.put("alloc_kb_per_op", ratio(p.alloc.bytes/1024, ops))
		m.putN("setup_s", median(setupS), len(setupS))
		return res, nil
	}

	m := &res.metrics
	layerMetrics(m, p.delta, ops)
	runtimeMetrics(m, p.alloc, ops)
	m.put("runtime.wall_ops_per_s", ratio(ops*1e9, wallNS))
	m.putN("shardclient.sweep_scan_ms", median(scanMS), len(scanMS))
	m.put("server.sessions_admitted", p.end.SessionsAdmitted)
	m.put("server.sessions_rejected", p.end.SessionsRejected)
	m.put("sfile.peak_live_mb", p.live.peak/(1<<20))
	if w.spec.restart {
		m.put("shard.recover_s", recoverS)
	}
	w.latencyMetrics(m, p)

	rec := newSpanRecorder(name, 4*int(ladderFraction*ops)+16)
	if err := w.ladder(m, rec, res); err != nil {
		return nil, err
	}
	if name == wIngest {
		if err := leafProbesKV(probeInput{keys: w.distinctKeys(), val: d.val, scale: c.scale}, m); err != nil {
			return nil, err
		}
	}
	if name == wMixed {
		w.openLoop(m, in, res)
	}
	if _, err := rec.write(c.outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// distinctKeys lists the keys of client 0's stream in first-use order.
func (w *kvWorkload) distinctKeys() [][]byte {
	seen := make(map[uint32]bool)
	var out [][]byte
	for _, o := range w.streams[0] {
		if !seen[o.id] {
			seen[o.id] = true
			out = append(out, w.keys[o.id])
		}
	}
	return out
}

// latencyMetrics reports client-side wall latency by op kind and the share
// of client time spent in ops slower than kvStallNS.
func (w *kvWorkload) latencyMetrics(m *metricSet, p phase) {
	var byKind [numKinds][]float64
	var total, slow float64
	for g := range p.clients {
		for i, ns := range p.clients[g].lat {
			k := w.streams[g][i].kind
			byKind[k] = append(byKind[k], float64(ns)/1e3)
			total += float64(ns)
			if ns > kvStallNS {
				slow += float64(ns)
			}
		}
	}
	m.put("shardclient.stall_time_share", ratio(slow, total))
	for k, us := range byKind {
		if len(us) == 0 {
			continue
		}
		pre := "shardclient." + kindNames[k]
		us = sorted(us)
		m.putN(pre+"_p50_us", percentile(us, 0.50), len(us))
		m.putN(pre+"_p99_us", percentile(us, 0.99), len(us))
		if opKind(k) == opSet {
			m.putN(pre+"_p999_us", percentile(us, 0.999), len(us))
		}
		m.put(pre+"_samples", float64(len(us)))
	}
}

// ladder replays the head of the op stream with one client on a fresh,
// identically configured system at four successively lower entry points,
// one span per call. Differences between neighbouring rungs are the self
// times of the layers between them.
func (w *kvWorkload) ladder(m *metricSet, rec *spanRecorder, res *runResult) error {
	n := int(ladderFraction*float64(kvClients*len(w.streams[0]))) / kvWindows * kvWindows
	n = max(n, kvWindows)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.streams[i%kvClients][i/kvClients]
	}
	type rung struct {
		name            string
		durable, listen bool
		untraced        bool
	}
	rungs := []rung{{name: "client", durable: true, listen: true}}
	if w.name == wRead {
		// For trace.overhead_share: the client rung once more without span
		// recording, right after the traced one so that the box has the
		// least time to drift between the two.
		rungs = append(rungs, rung{name: "client", durable: true, listen: true, untraced: true})
	}
	rungs = append(rungs, rung{name: "router", durable: true}, rung{name: "engine", durable: true}, rung{name: "engine_nowal"})
	type cost struct {
		lat                            []int64
		virtualUS, devBytes, userBytes float64
		wallNS                         float64 // undisturbed estimate, see fastHalfNS
	}
	costs := map[string]cost{}
	for _, r := range rungs {
		in, err := w.setup(r.durable, r.listen)
		if err != nil {
			return err
		}
		var k kvOps
		switch r.name {
		case "client":
			k = in.conns[0]
		case "router":
			k = in.sys.router()
		default:
			k = in.sys.engine()
		}
		d := w.newDriver(k, in.m, in.sys)
		dev0, v0 := in.sys.devBytesWritten(), in.sys.virtualNS()
		key, r2 := r.name, rec
		if r.untraced {
			key, r2 = "untraced", nil
		}
		runtime.GC()
		dr := d.run(ops, false, r2, r.name)
		costs[key] = cost{
			lat:       dr.lat,
			virtualUS: float64(in.sys.virtualNS()-v0) / 1e3 / float64(n),
			devBytes:  float64(in.sys.devBytesWritten() - dev0),
			userBytes: float64(d.userBytes),
			wallNS:    fastHalfNS(dr.windowNS),
		}
		res.attempted += n
		res.bad.merge(dr.bad)
		if err := in.close(); err != nil {
			return err
		}
	}
	client, router, engine, nowal := costs["client"], costs["router"], costs["engine"], costs["engine_nowal"]

	// Two rungs are two runs, and a difference of two means inherits the
	// noise of both; on this stack it is dominated by the few ops that wait
	// for an inline eviction, merge or checkpoint, which cost milliseconds.
	// So the differences are taken over the ops that stalled at no rung, and
	// the ops that did stall keep their whole cost at the bottom rung, where
	// the evictions and merges run. What the ladder cannot attribute, the
	// top-to-bottom difference on the stalled ops (checkpoints, which only
	// the rungs with a WAL have, and interference), is reported as its own
	// part, so that the five parts still sum to the client span exactly.
	var server, shard, wal, mvpbt, stalledDiff, clientAll, stalled float64
	for i := range ops {
		c, r, e, b := float64(client.lat[i]), float64(router.lat[i]), float64(engine.lat[i]), float64(nowal.lat[i])
		clientAll += c
		mvpbt += b
		if max(c, r, e, b) > kvStallNS {
			stalled++
			stalledDiff += c - b
			continue
		}
		server += c - r
		shard += r - e
		wal += e - b
	}
	perOp := 1 / (1e3 * float64(n))
	m.putN("server.self_us_per_op", server*perOp, n)
	m.putN("shard.self_us_per_op", shard*perOp, n)
	m.putN("wal.self_us_per_op", wal*perOp, n)
	m.putN("mvpbt.self_us_per_op", mvpbt*perOp, n)
	m.putN("trace.stalled_diff_us_per_op", stalledDiff*perOp, n)
	m.putN("trace.client_us_per_op", clientAll*perOp, n)
	m.put("trace.stalled_op_share", stalled/float64(n))
	m.put("wal.virtual_us_per_op", engine.virtualUS-nowal.virtualUS)
	m.put("mvpbt.virtual_us_per_op", nowal.virtualUS)
	if engine.userBytes > 0 {
		m.put("wal.dev_bytes_per_user_byte", (engine.devBytes-nowal.devBytes)/engine.userBytes)
		m.put("mvpbt.dev_bytes_per_user_byte", nowal.devBytes/engine.userBytes)
		m.put("trace.engine_write_amp", engine.devBytes/engine.userBytes)
	}
	if u, ok := costs["untraced"]; ok {
		m.put("trace.overhead_share", ratio(client.wallNS-u.wallNS, u.wallNS))
	}
	return nil
}

// openLoop sends requests on a fixed schedule over the workload's
// connections, whether or not earlier ones have been answered, and times
// each from the moment it was due: a stall delays the requests behind it
// and that delay counts. Reported every run, gated never: on a shared
// two-core box even an idle loop's tail is scheduler noise.
func (w *kvWorkload) openLoop(m *metricSet, in *kvInstance, res *runResult) {
	perClient := openLoopRate * openLoopSecs / kvClients
	if w.scale < 1 {
		perClient = max(int(float64(perClient)*w.scale), 1)
	}
	period := time.Second * kvClients / openLoopRate
	type sample struct{ latNS, lateNS int64 }
	samples := make([][]sample, kvClients)
	var bad [kvClients]violations
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < kvClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := w.newDriver(in.conns[g], in.m, in.sys)
			ops := w.genOps(g, perClient, mixSeed(w.seed, uint64(10+g)))
			out := make([]sample, len(ops))
			for i, o := range ops {
				due := time.Duration(i)*period + time.Duration(g)*period/kvClients
				for {
					wait := due - time.Since(t0)
					if wait <= 0 {
						break
					}
					if wait > 2*time.Millisecond {
						time.Sleep(wait - 2*time.Millisecond)
					} else {
						runtime.Gosched()
					}
				}
				sent := time.Since(t0)
				d.exec(o, writerOpen)
				out[i] = sample{latNS: int64(time.Since(t0) - due), lateNS: int64(sent - due)}
			}
			samples[g], bad[g] = out, d.bad
		}(g)
	}
	wg.Wait()
	var us []float64
	var slow, late float64
	for g := range samples {
		res.attempted += len(samples[g])
		res.bad.merge(bad[g])
		for _, s := range samples[g] {
			us = append(us, float64(s.latNS)/1e3)
			if s.latNS > openSlowNS {
				slow++
			}
			if s.lateNS > openLateNS {
				late++
			}
		}
	}
	n := float64(len(us))
	us = sorted(us)
	m.putN("shardclient.open_p50_us", percentile(us, 0.50), len(us))
	m.putN("shardclient.open_p99_us", percentile(us, 0.99), len(us))
	m.put("shardclient.open_slow_share", ratio(slow, n))
	m.put("shardclient.open_late_share", ratio(late, n))
}
