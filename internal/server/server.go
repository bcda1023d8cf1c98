// Package server fronts a shard.Router with the wire protocol over TCP:
// connection and session management, per-session transaction tables,
// graceful drain on shutdown, and per-tenant admission control wired to
// the shards' space-governor watermarks (DESIGN.md §12).
//
// Concurrency model: one goroutine per connection, processing requests
// serially (the protocol has no request pipelining), so a session's
// transaction table needs no lock of its own. All cross-session state —
// the session registry, tenant counts, drain flag — lives behind one
// server mutex taken only at session boundaries and drain, never per
// request.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server/wire"
	"mvpbt/internal/shard"
	"mvpbt/internal/storage"
)

const (
	// maxTxPerSession caps a session's open transaction table.
	maxTxPerSession = 64
	// commitTokenCap bounds the commit-token dedup table. At the cap expired
	// tokens are swept and, if that frees less than an eighth, the oldest go
	// too (the staleness caveat of commitTokenTTL applies to them).
	commitTokenCap = 1 << 16
	// commitTokenTTL bounds how long a committed commit token stays in the
	// dedup table. A retried COMMIT resolving after the TTL may see
	// StatusNotCommitted for a commit that applied — the documented
	// staleness bound clients must resolve within.
	commitTokenTTL = 5 * time.Minute
	// drainGrace is how long Drain lets admitted sessions keep issuing
	// requests before their connections are deadlined out. A Drain context
	// with an earlier deadline shortens it.
	drainGrace = time.Second
	// writeTimeout bounds each response write: a peer that stops draining
	// its socket cannot wedge the connection goroutine.
	writeTimeout = 30 * time.Second
	// helloTimeout bounds the wait for a new connection's HELLO.
	helloTimeout = 5 * time.Second
)

// Config tunes the server. The zero value serves on a random port and
// refuses a session at once under overload.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// MaxSessions caps concurrently admitted sessions (default 256).
	MaxSessions int
	// MaxSessionsPerTenant caps sessions per tenant name (default 64).
	MaxSessionsPerTenant int
	// QueueTimeout is how long a new session waits for admission while a
	// shard is past its soft space watermark or a session cap is reached;
	// 0 refuses it at once with StatusAdmission.
	QueueTimeout time.Duration
	// IdleTimeout reaps sessions that go this long without sending a
	// request (default 5m; negative disables). A reaped session's open
	// transactions are aborted like any disconnect's, so an abandoned
	// connection can neither pin the GC horizon nor hold admission slots.
	IdleTimeout time.Duration
	// WrapListener, if set, wraps the bound listener before Serve uses
	// it — the seam chaos testing (internal/server/chaos) and, later,
	// TLS plug into.
	WrapListener func(net.Listener) net.Listener
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	return c
}

// Metrics counts session-level admission outcomes.
type Metrics struct {
	Admitted uint64 // sessions admitted (including after queueing)
	Rejected uint64 // sessions refused with StatusAdmission (including after queueing)
	Queued   uint64 // sessions that waited in the admission queue, admitted or refused after
	Drained  uint64 // sessions refused with StatusDraining
}

// Server serves the wire protocol for one shard.Router.
type Server struct {
	r   *shard.Router
	cfg Config

	mu sync.Mutex
	ln net.Listener
	// conns holds every accepted connection, admitted or not: Drain
	// deadlines and closes them all. sessions holds the admitted ones,
	// which the session caps count.
	conns    map[*session]struct{}
	sessions map[*session]struct{}
	tenants  map[string]int
	draining bool

	wg sync.WaitGroup

	// served is closed, after serveErr is set, when the Serve goroutine
	// that Start launched returns.
	served   chan struct{}
	serveErr error

	// tokens is the commit-token dedup table: tokens of committed
	// transactions, recorded BEFORE the commit's OK is written, so a
	// client that lost the ack can resolve the outcome by token. Bounded by
	// tokenTTL and tokenCap (commitTokenTTL and commitTokenCap; tests lower
	// them).
	// committing counts, per token, the COMMITs executing right now (a
	// retry on a second connection can overlap the first); a resolution of
	// one of them waits on tokDone until none is left.
	tokMu      sync.Mutex
	tokDone    sync.Cond
	tokens     map[uint64]time.Time
	tokenCap   int
	tokenTTL   time.Duration
	committing map[uint64]int

	admitted atomic.Uint64
	rejected atomic.Uint64
	queued   atomic.Uint64
	drained  atomic.Uint64
}

// New builds a server over r. Call Start, or Listen then Serve.
func New(r *shard.Router, cfg Config) *Server {
	s := &Server{
		r:          r,
		cfg:        cfg.withDefaults(),
		conns:      map[*session]struct{}{},
		sessions:   map[*session]struct{}{},
		tenants:    map[string]int{},
		tokens:     map[uint64]time.Time{},
		tokenCap:   commitTokenCap,
		tokenTTL:   commitTokenTTL,
		committing: map[uint64]int{},
	}
	s.tokDone.L = &s.tokMu
	return s
}

// recordToken marks a commit token as applied; tokMu is held. It runs after
// the commit succeeds and before its OK frame is written: a lost ack
// therefore always finds its token here. The table is TTL-swept and
// size-bounded.
func (s *Server) recordToken(tok uint64) {
	now := time.Now()
	if len(s.tokens) >= s.tokenCap {
		s.evictTokens(now)
	}
	s.tokens[tok] = now
}

// beginCommit marks tok's COMMIT as executing, endCommit ends that and
// records the token if the transaction is applied. In between, a resolution
// of tok waits: the client of a connection that died under its COMMIT
// reconnects and resolves at once, and "not recorded" would be a false "not
// applied" for a commit still on its way. The wait has no deadline of its
// own: RESOLVE and a tokened BEGIN block for as long as that commit runs.
func (s *Server) beginCommit(tok uint64) {
	s.tokMu.Lock()
	s.committing[tok]++
	s.tokMu.Unlock()
}

func (s *Server) endCommit(tok uint64, applied bool) {
	s.tokMu.Lock()
	if applied {
		s.recordToken(tok)
	}
	if s.committing[tok]--; s.committing[tok] == 0 {
		delete(s.committing, tok)
	}
	s.tokMu.Unlock()
	s.tokDone.Broadcast()
}

// evictTokens makes room in a full dedup table: expired tokens go, and if
// more than 7/8 of the cap are left, so do the oldest beyond that — bounded
// memory beats completeness, per the documented staleness caveat. Evicting
// an eighth at a time keeps the two scans an eighth of the cap commits
// apart; evicting one entry would run them on every commit.
func (s *Server) evictTokens(now time.Time) {
	keep := s.tokenCap - s.tokenCap/8
	live := make([]time.Time, 0, len(s.tokens))
	for t, at := range s.tokens {
		if now.Sub(at) > s.tokenTTL {
			delete(s.tokens, t)
		} else {
			live = append(live, at)
		}
	}
	if len(live) <= keep {
		return
	}
	slices.SortFunc(live, time.Time.Compare)
	newestEvicted := live[len(live)-keep-1]
	for t, at := range s.tokens {
		if !at.After(newestEvicted) {
			delete(s.tokens, t)
		}
	}
}

// tokenCommitted resolves a commit token, lazily expiring it. A token whose
// COMMIT is executing resolves when that ends.
func (s *Server) tokenCommitted(tok uint64) bool {
	s.tokMu.Lock()
	defer s.tokMu.Unlock()
	for s.committing[tok] > 0 {
		s.tokDone.Wait()
	}
	at, ok := s.tokens[tok]
	if !ok {
		return false
	}
	if time.Since(at) > s.tokenTTL {
		delete(s.tokens, tok)
		return false
	}
	return true
}

// Listen binds the configured address and returns it (useful with :0).
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	addr := ln.Addr()
	if s.cfg.WrapListener != nil {
		ln = s.cfg.WrapListener(ln)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return addr, nil
}

// Serve accepts connections until the listener closes (Drain). It returns
// nil on a drain-initiated close.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sess := &session{conn: conn}
		s.mu.Lock()
		s.conns[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(sess)
	}
}

// Start binds the configured address and serves it on a goroutine that
// Stop waits for: Listen, then go Serve.
func (s *Server) Start() (net.Addr, error) {
	addr, err := s.Listen()
	if err != nil {
		return nil, err
	}
	s.served = make(chan struct{})
	go func() {
		s.serveErr = s.Serve()
		close(s.served)
	}()
	return addr, nil
}

// Done is closed once the Serve goroutine of a started server has returned
// — after a drain, or early because accepting failed; Stop then reports why.
func (s *Server) Done() <-chan struct{} { return s.served }

// Stop shuts a started server down: Drain under ctx, then wait for the
// Serve goroutine. It returns Drain's error and Serve's.
func (s *Server) Stop(ctx context.Context) error {
	err := s.Drain(ctx)
	<-s.served
	if err != nil {
		err = fmt.Errorf("drain: %w", err)
	}
	if s.serveErr != nil {
		err = errors.Join(err, fmt.Errorf("serve: %w", s.serveErr))
	}
	return err
}

// Metrics returns a snapshot of the admission counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Admitted: s.admitted.Load(),
		Rejected: s.rejected.Load(),
		Queued:   s.queued.Load(),
		Drained:  s.drained.Load(),
	}
}

// Drain gracefully shuts the server down: stop accepting, let admitted
// sessions keep working for the drain grace (or until ctx's deadline if
// sooner), then deadline every connection out, admitted or not, and close
// them all if ctx ends first. Open transactions of sessions that do not
// finish in time are aborted. Returns nil once every connection has exited.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	grace := drainGrace
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < grace {
			grace = until
		}
	}
	deadline := time.Now().Add(grace)
	for sess := range s.conns {
		sess.forcedDL.Store(deadline.UnixNano())
		sess.conn.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	if !already && ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.conns {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// session is one accepted connection and, once admitted, its tenant
// accounting slot and its private transaction table. Owned by the
// connection goroutine; forcedDL is the one field another goroutine (Drain)
// writes.
type session struct {
	conn   net.Conn
	tenant string
	txs    map[uint32]*shard.Tx
	// tokens maps open transaction ids to the commit token their Begin
	// carried (absent for token-less Begins).
	tokens map[uint32]uint64
	nextTx uint32
	// req is the buffer request frames are read into and reply the one GET
	// and SCAN replies are assembled in, each reset rather than reallocated
	// between requests (and dropped past wire.MaxKeptBuffer); scanPairs
	// counts the pairs in a SCAN reply. The request loop is their only user.
	// collect is appendPair bound once: a callback goes to its target
	// through an interface, where a closure made per request would escape to
	// the heap with everything it captures.
	req       []byte
	reply     []byte
	scanPairs uint32
	collect   func(k, v []byte) bool
	// forcedDL is a drain-imposed read deadline (unix nanos; 0 = none).
	// The request loop clamps its idle deadline to it so a slow session
	// cannot extend its life past the drain grace.
	forcedDL atomic.Int64
}

// readDeadline computes the next frame's read deadline from the idle
// timeout (the HELLO's timeout, before admission) and any drain-forced
// deadline.
func (sess *session) readDeadline(idle time.Duration) time.Time {
	var dl time.Time
	if idle > 0 {
		dl = time.Now().Add(idle)
	}
	if f := sess.forcedDL.Load(); f != 0 {
		fdl := time.Unix(0, f)
		if dl.IsZero() || fdl.Before(dl) {
			dl = fdl
		}
	}
	return dl
}

// handleConn speaks the protocol on one connection: HELLO + admission,
// then a serial request loop. Always releases the session slot and aborts
// leftover transactions on the way out.
func (s *Server) handleConn(sess *session) {
	defer s.wg.Done()
	conn := sess.conn
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, sess)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	// flush writes the buffered response under the write deadline: a peer
	// that stops draining its socket gets cut off, not waited on forever.
	flush := func() error {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		err := bw.Flush()
		conn.SetWriteDeadline(time.Time{})
		return err
	}

	// First frame must be HELLO; it carries the protocol version and the
	// tenant name admission accounts against.
	conn.SetReadDeadline(sess.readDeadline(helloTimeout))
	op, payload, req, err := wire.ReadFrameInto(br, nil)
	if err != nil || op != wire.OpHello {
		return
	}
	ver, rest, err := wire.TakeU32(payload)
	if err != nil {
		ver = 0 // short/legacy HELLO: version unknown
	}
	if ver != wire.ProtoVersion {
		wire.WriteFrame(bw, wire.StatusVersionMismatch, wire.U32(wire.ProtoVersion),
			[]byte(fmt.Sprintf("client speaks protocol %d, server speaks %d", ver, wire.ProtoVersion)))
		flush()
		return
	}
	conn.SetReadDeadline(time.Time{})
	tenant := string(rest)
	if tenant == "" {
		tenant = "default"
	}

	sess.tenant, sess.req = tenant, wire.Keep(req)
	sess.txs, sess.tokens = map[uint32]*shard.Tx{}, map[uint32]uint64{}
	sess.collect = sess.appendPair
	status := s.admit(sess)
	if status != wire.StatusOK {
		wire.WriteFrame(bw, byte(status))
		flush()
		return
	}
	defer s.release(sess)
	if err := wire.WriteFrame(bw, wire.StatusOK, wire.U32(maxTxPerSession)); err != nil {
		return
	}
	if err := flush(); err != nil {
		return
	}

	for {
		conn.SetReadDeadline(sess.readDeadline(s.cfg.IdleTimeout))
		op, payload, req, err := wire.ReadFrameInto(br, sess.req)
		if err != nil {
			return // disconnect, idle/drain deadline, or malformed frame
		}
		sess.req = wire.Keep(req)
		if err := s.dispatch(sess, bw, op, payload); err != nil {
			return
		}
		if err := flush(); err != nil {
			return
		}
	}
}

// admit applies admission control to a new session and, on success,
// registers it. A session that finds the server overloaded or full waits
// up to QueueTimeout, polling: load changes are driven by other sessions
// finishing and by the governors' background accounting, neither of which
// has a wakeup hook, so a short poll keeps this simple. It counts as queued
// from its first wait, whatever the outcome.
func (s *Server) admit(sess *session) int {
	deadline := time.Now().Add(s.cfg.QueueTimeout)
	for waited := false; ; waited = true {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.drained.Add(1)
			return wire.StatusDraining
		}
		ok := !s.r.PastSoftWatermark() &&
			len(s.sessions) < s.cfg.MaxSessions &&
			s.tenants[sess.tenant] < s.cfg.MaxSessionsPerTenant
		if ok {
			s.sessions[sess] = struct{}{}
			s.tenants[sess.tenant]++
			s.mu.Unlock()
			s.admitted.Add(1)
			return wire.StatusOK
		}
		s.mu.Unlock()
		if s.cfg.QueueTimeout <= 0 || time.Now().After(deadline) {
			s.rejected.Add(1)
			return wire.StatusAdmission
		}
		if !waited {
			s.queued.Add(1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// release returns the session's slot and aborts any transactions it left
// open.
func (s *Server) release(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.tenants[sess.tenant]--
	if s.tenants[sess.tenant] <= 0 {
		delete(s.tenants, sess.tenant)
	}
	s.mu.Unlock()
	for id, tx := range sess.txs {
		tx.Abort()
		delete(sess.txs, id)
	}
}

// fail writes an error response, mapping a degraded shard to the typed
// StatusReadOnly | u32 shard | text form and a failed/recovering shard
// (or one mid fault storm) to the retriable StatusUnavailable | u32 shard
// | text form.
func fail(bw *bufio.Writer, err error) error {
	var se *shard.ShardError
	if errors.As(err, &se) {
		switch {
		case errors.Is(err, db.ErrReadOnly):
			return wire.WriteFrame(bw, wire.StatusReadOnly, wire.U32(uint32(se.Shard)), []byte(err.Error()))
		case errors.Is(err, shard.ErrShardUnavailable),
			errors.Is(err, storage.ErrIOFault),
			errors.Is(err, db.ErrClosed):
			return wire.WriteFrame(bw, wire.StatusUnavailable, wire.U32(uint32(se.Shard)), []byte(err.Error()))
		}
	}
	return wire.WriteFrame(bw, wire.StatusErr, []byte(err.Error()))
}

// target is what GET, SET, DEL and SCAN run against: the router itself for
// tx 0 (autocommit), the session's open transaction otherwise.
type target interface {
	AppendGet(dst, key []byte) ([]byte, bool, error)
	Put(key, val []byte) error
	Delete(key []byte) error
	Scan(lo []byte, limit int, fn func(key, val []byte) bool) error
}

// dispatch handles one request frame. A returned error kills the
// connection (protocol-level damage); per-operation failures go back to
// the client as status frames.
func (s *Server) dispatch(sess *session, bw *bufio.Writer, op byte, payload []byte) error {
	// GET, SET, DEL and SCAN lead with a transaction id, which picks their
	// target, once for the four; rest is the payload after it.
	var t target = s.r
	var rest []byte
	switch op {
	case wire.OpGet, wire.OpSet, wire.OpDel, wire.OpScan:
		id, p, err := wire.TakeU32(payload)
		if tx, ok := sess.txs[id]; ok {
			t = tx
		} else if err != nil || id != 0 {
			return wire.WriteFrame(bw, wire.StatusNoTx, []byte(fmt.Sprintf("no transaction %d", id)))
		}
		rest = p
	}

	switch op {
	case wire.OpGet:
		// The reply, u8 found | val, is assembled in the session's buffer,
		// which the value is copied into straight from the record.
		body, found, err := t.AppendGet(append(sess.reply[:0], 0), rest)
		sess.reply = wire.Keep(body)
		if err != nil {
			return fail(bw, err)
		}
		if found {
			body[0] = 1
		}
		return wire.WriteFrame(bw, wire.StatusOK, body)

	case wire.OpSet:
		key, val, err := wire.TakeBytes(rest)
		if err != nil {
			return wire.WriteFrame(bw, wire.StatusErr, []byte("malformed SET"))
		}
		if err := t.Put(key, val); err != nil {
			return fail(bw, err)
		}
		return wire.WriteFrame(bw, wire.StatusOK)

	case wire.OpDel:
		if err := t.Delete(rest); err != nil {
			return fail(bw, err)
		}
		return wire.WriteFrame(bw, wire.StatusOK)

	case wire.OpScan:
		limit, lo, err := wire.TakeU32(rest)
		if err != nil {
			return wire.WriteFrame(bw, wire.StatusErr, []byte("malformed SCAN"))
		}
		// The reply, u32 n | n pairs, is assembled in the session's buffer,
		// which keeps its capacity from one request to the next; a session
		// answers one request at a time.
		sess.scanPairs, sess.reply = 0, append(sess.reply[:0], 0, 0, 0, 0)
		err = t.Scan(lo, int(limit), sess.collect)
		body := sess.reply
		sess.reply = wire.Keep(body)
		if err != nil {
			return fail(bw, err)
		}
		binary.BigEndian.PutUint32(body, sess.scanPairs)
		return wire.WriteFrame(bw, wire.StatusOK, body)

	case wire.OpBegin:
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return wire.WriteFrame(bw, wire.StatusDraining, []byte("server draining"))
		}
		var token uint64
		if len(payload) >= 8 {
			token, _, _ = wire.TakeU64(payload)
		}
		if token != 0 && s.tokenCommitted(token) {
			return wire.WriteFrame(bw, wire.StatusAlreadyCommitted,
				[]byte(fmt.Sprintf("commit token %d already applied", token)))
		}
		if len(sess.txs) >= maxTxPerSession {
			return wire.WriteFrame(bw, wire.StatusNoTx, []byte("transaction table full"))
		}
		tx, err := s.r.Begin()
		if err != nil {
			return fail(bw, err)
		}
		sess.nextTx++
		sess.txs[sess.nextTx] = tx
		if token != 0 {
			sess.tokens[sess.nextTx] = token
		}
		return wire.WriteFrame(bw, wire.StatusOK, wire.U32(sess.nextTx))

	case wire.OpCommit, wire.OpAbort:
		id, rest, err := wire.TakeU32(payload)
		if err != nil {
			return wire.WriteFrame(bw, wire.StatusErr, []byte("malformed COMMIT/ABORT"))
		}
		if id == 0 {
			// Token resolution: `Commit | u32 0 | u64 token` asks whether the
			// token's transaction committed — the lost-ack retry path. The
			// dedup table answers; nothing is applied either way.
			token, _, terr := wire.TakeU64(rest)
			if op != wire.OpCommit || terr != nil || token == 0 {
				return wire.WriteFrame(bw, wire.StatusErr, []byte("malformed COMMIT/ABORT"))
			}
			if s.tokenCommitted(token) {
				return wire.WriteFrame(bw, wire.StatusOK)
			}
			return wire.WriteFrame(bw, wire.StatusNotCommitted,
				[]byte(fmt.Sprintf("commit token %d not recorded", token)))
		}
		tx, ok := sess.txs[id]
		if !ok {
			return wire.WriteFrame(bw, wire.StatusNoTx, []byte(fmt.Sprintf("no transaction %d", id)))
		}
		token := sess.tokens[id]
		delete(sess.txs, id)
		delete(sess.tokens, id)
		if op == wire.OpAbort {
			tx.Abort()
			return wire.WriteFrame(bw, wire.StatusOK)
		}
		if token != 0 {
			s.beginCommit(token)
		}
		err = tx.Commit()
		// In doubt, the COMMIT decision is durable and only leg resolution is
		// pending: the transaction WILL commit, and the client confirms the
		// outcome by resolving the token. Either way the token is recorded
		// BEFORE the reply is written: if the connection dies under the
		// response, the client's token retry must find the commit.
		inDoubt := errors.Is(err, shard.ErrTxInDoubt)
		if token != 0 {
			s.endCommit(token, err == nil || inDoubt)
		}
		switch {
		case inDoubt:
			return wire.WriteFrame(bw, wire.StatusInDoubt, []byte(err.Error()))
		case err != nil:
			return fail(bw, err)
		}
		return wire.WriteFrame(bw, wire.StatusOK)

	case wire.OpStats:
		rep, err := json.Marshal(s.r.Report())
		if err != nil {
			return fail(bw, err)
		}
		return wire.WriteFrame(bw, wire.StatusOK, rep)

	default:
		return wire.WriteFrame(bw, wire.StatusErr, []byte(fmt.Sprintf("unknown opcode %d", op)))
	}
}

// appendPair is the SCAN callback: one more pair in the reply, until the
// frame is full.
func (sess *session) appendPair(k, v []byte) bool {
	sess.reply = wire.AppendPair(sess.reply, k, v)
	sess.scanPairs++
	return len(sess.reply) < wire.MaxFrame-64
}
