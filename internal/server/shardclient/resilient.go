// resilient.go: RClient, the self-healing layer over Client — automatic
// reconnect with capped exponential backoff and seeded jitter, retry of
// idempotent operations, and exactly-once commits across connection loss
// via idempotent commit tokens (DESIGN.md §12).
//
// Error taxonomy. Every failure an operation can see falls in one of three
// classes, and the class decides the reaction:
//
//   - transport errors (connection reset, timeout, injected chaos cut):
//     the session is gone — drop the connection, reconnect, and (for
//     idempotent operations) retry on the fresh session;
//   - retriable server statuses (StatusUnavailable — the owning shard is
//     restarting; StatusAdmission — overload): keep or re-establish the
//     connection per status, back off, retry;
//   - everything else (ReadOnlyError, ErrNoTx, validation errors): the
//     server answered; retrying would return the same answer. Fail fast.
//
// GET, SCAN and STATS are naturally idempotent. SET and DEL are
// state-idempotent blind upserts (applying one twice yields the same
// state), so every one of them is retried too — which is why an RClient
// must own the keys it writes: a retry can re-apply over a concurrent
// writer's value of the same key. Transactions are the hard case: the
// commit decision must survive the connection dying at any point,
// including between the server applying COMMIT and the client reading the
// ack. RTx solves it with a client-generated commit token the
// server records atomically with the commit — after any mid-commit
// transport error, ResolveCommit(token) asks the server which side of the
// decision the transaction landed on.
package shardclient

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"mvpbt/internal/util"
)

// RConfig names an RClient's server and seeds it.
type RConfig struct {
	Addr   string
	Tenant string
	// Seed drives backoff jitter and commit-token generation. Two RClients
	// with the same seed and the same logical history make identical
	// decisions — the chaos campaign's determinism hinges on it.
	Seed uint64
}

// The self-healing tuning, one value each.
const (
	// maxAttempts bounds tries per operation, reconnects included.
	maxAttempts = 12
	// baseBackoff is the first retry's sleep, doubled per attempt up to
	// maxBackoff, plus up to 50% jitter.
	baseBackoff = time.Millisecond
	maxBackoff  = 8 * time.Millisecond
	// dialTimeout bounds each connect + handshake.
	dialTimeout = 5 * time.Second
)

// RStats counts the client's self-healing activity.
type RStats struct {
	Dials      uint64 // successful dials (first + reconnects)
	Reconnects uint64 // dials after a lost session
	RetriedOps uint64 // operations re-sent after a failure
	// Commit-token resolutions after mid-commit transport errors:
	Resolves          uint64
	ResolvedCommitted uint64 // resolution: the commit had applied
	ResolvedLost      uint64 // resolution: the commit had not applied
}

// ErrTxLost reports a transaction whose connection died before COMMIT was
// issued: the server aborts the orphaned transaction when it reaps the
// session, so the transaction deterministically did not apply. The caller
// may simply re-run it (with a fresh token).
var ErrTxLost = errors.New("shardclient: transaction lost before commit (not applied)")

// RClient is a self-healing client: one logical session that transparently
// spans physical connections. Not safe for concurrent use (like Client).
// Unlike Client's, the values and pairs it returns are the caller's to keep:
// they are copied out of the connection's reply buffer.
//
// An RClient must be the only writer of the keys it writes: its SET and DEL
// are retried after a transport error, and a retry can land after — and
// overwrite — another writer's value of the same key.
type RClient struct {
	cfg   RConfig
	rng   *util.Rand
	c     *Client // nil when disconnected
	stats RStats
}

// NewRClient returns a disconnected RClient; the first operation dials.
func NewRClient(cfg RConfig) *RClient {
	return &RClient{cfg: cfg, rng: util.NewRand(cfg.Seed | 1)}
}

// Stats snapshots the self-healing counters.
func (r *RClient) Stats() RStats { return r.stats }

// Close drops the current connection, if any.
func (r *RClient) Close() error {
	if r.c != nil {
		err := r.c.Close()
		r.c = nil
		return err
	}
	return nil
}

// transport reports whether err is a connection-level failure (as opposed
// to a server status, which arrived on a healthy connection).
func transport(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrAdmission) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrNoTx) || errors.Is(err, ErrNotCommitted) ||
		errors.Is(err, ErrAlreadyCommitted) {
		return false
	}
	var ro *ReadOnlyError
	var un *UnavailableError
	var vm *VersionMismatchError
	var se *ServerError
	var ind *InDoubtError
	if errors.As(err, &ro) || errors.As(err, &un) || errors.As(err, &vm) ||
		errors.As(err, &se) || errors.As(err, &ind) {
		return false
	}
	return true // net.OpError, io.EOF, deadline, malformed frame, ...
}

// retriable reports whether err is worth another attempt at all.
func retriable(err error) bool {
	if transport(err) {
		return true
	}
	var un *UnavailableError
	return errors.As(err, &un) || errors.Is(err, ErrAdmission)
}

// backoff sleeps for attempt's capped-exponential delay with seeded jitter.
func (r *RClient) backoff(attempt int) {
	d := min(baseBackoff<<attempt, maxBackoff)
	// Up to 50% seeded jitter, so retry storms from many clients decohere
	// while one seed's delays replay exactly.
	d += time.Duration(r.rng.Uint64() % uint64(d/2+1))
	time.Sleep(d)
}

// ensure returns a live connection, dialing if needed.
func (r *RClient) ensure() (*Client, error) {
	if r.c != nil {
		return r.c, nil
	}
	c, err := DialTimeout(r.cfg.Addr, r.cfg.Tenant, dialTimeout)
	if err != nil {
		return nil, err
	}
	r.stats.Dials++
	if r.stats.Dials > 1 {
		r.stats.Reconnects++
	}
	r.c = c
	return c, nil
}

// drop discards the current connection after a transport error.
func (r *RClient) drop() {
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// do runs op with reconnect/retry per the error taxonomy. Every op it runs
// is idempotent or state-idempotent, so it may be re-sent after a transport
// error.
func (r *RClient) do(op func(c *Client) error) error {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.backoff(attempt - 1)
		}
		c, err := r.ensure()
		if err != nil {
			lastErr = err
			if !transport(err) && !errors.Is(err, ErrAdmission) {
				return err // e.g. version mismatch: reconnecting won't help
			}
			continue
		}
		err = op(c)
		if err == nil {
			return nil
		}
		lastErr = err
		if transport(err) {
			r.drop()
		} else if !retriable(err) {
			return err
		}
		r.stats.RetriedOps++
	}
	return fmt.Errorf("shardclient: gave up after %d attempts: %w", maxAttempts, lastErr)
}

// Get reads key (idempotent; always retried).
func (r *RClient) Get(key []byte) (val []byte, ok bool, err error) {
	err = r.do(func(c *Client) error {
		val, ok, err = c.Get(0, key)
		return err
	})
	return bytes.Clone(val), ok, err
}

// Scan reads up to limit pairs with key >= lo (idempotent; always retried).
func (r *RClient) Scan(lo []byte, limit int) (out []KV, err error) {
	err = r.do(func(c *Client) error {
		out, err = c.Scan(0, lo, limit)
		return err
	})
	return clonePairs(out), err
}

// clonePairs copies a Scan's pairs out of the connection's reply buffer.
func clonePairs(kvs []KV) []KV {
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = KV{Key: bytes.Clone(kv.Key), Val: bytes.Clone(kv.Val)}
	}
	return out
}

// Set upserts key (autocommit; retried, see RClient).
func (r *RClient) Set(key, val []byte) error {
	return r.do(func(c *Client) error {
		return c.Set(0, key, val)
	})
}

// Del tombstones key (autocommit). Retried like Set.
func (r *RClient) Del(key []byte) error {
	return r.do(func(c *Client) error {
		return c.Del(0, key)
	})
}

// CommitOutcome is how an RTx ended.
type CommitOutcome int

const (
	// CommitApplied: the commit applied and was acknowledged directly.
	CommitApplied CommitOutcome = iota
	// CommitResolvedApplied: a mid-commit transport error was resolved via
	// the commit token — the commit HAD applied (the ack was lost).
	CommitResolvedApplied
	// CommitNotApplied: the transaction did not apply (lost before commit,
	// or resolution found the token unrecorded).
	CommitNotApplied
)

// RTx is one transaction attempt on an RClient. Unlike reads, a
// transaction cannot transparently span connections: its server-side state
// dies with the session. What survives is the commit DECISION, via the
// token. A transport error before Commit returns ErrTxLost (deterministically
// not applied — the server aborts orphans); a transport error during Commit
// triggers token resolution. There is no Abort: a transaction abandoned
// after a non-transport error (ReadOnlyError, ServerError) stays in its
// session's table, which holds 64, until RClient.Close or a reconnect ends
// the session and the server aborts it.
type RTx struct {
	r     *RClient
	id    uint32
	token uint64
	lost  bool
}

// BeginTx opens a transaction with a fresh seeded commit token.
func (r *RClient) BeginTx() (*RTx, error) {
	token := r.rng.Uint64() | 1 // nonzero
	tx := &RTx{r: r, token: token}
	err := r.do(func(c *Client) (err error) {
		tx.id, err = c.BeginToken(token)
		return err
	})
	if err != nil {
		// ErrAlreadyCommitted among them: possible only if the caller reuses
		// a seed across committed histories; surfaced rather than silently
		// reopening.
		return nil, err
	}
	return tx, nil
}

// on runs one operation of the transaction on the session it was begun on.
// Without that session — gone before the call or dying under it — the
// transaction is lost: the server aborts it with the session, so it is
// guaranteed not to apply.
func (t *RTx) on(op func(c *Client) error) error {
	if t.lost || t.r.c == nil {
		t.lost = true
		return ErrTxLost
	}
	err := op(t.r.c)
	if transport(err) {
		t.r.drop()
		t.lost = true
		return ErrTxLost
	}
	return err
}

// Set buffers an upsert in the transaction (ErrTxLost: see on).
func (t *RTx) Set(key, val []byte) error {
	return t.on(func(c *Client) error { return c.Set(t.id, key, val) })
}

// Get reads key at the transaction's snapshot.
func (t *RTx) Get(key []byte) (v []byte, ok bool, err error) {
	err = t.on(func(c *Client) (err error) {
		v, ok, err = c.Get(t.id, key)
		return err
	})
	return bytes.Clone(v), ok, err
}

// Commit drives the transaction to a definite outcome. On a clean ack the
// outcome is CommitApplied. On a transport error the decision is unknown —
// the COMMIT may or may not have reached the server — so Commit reconnects
// and resolves the token: CommitResolvedApplied if the server recorded it
// (ack-lost ordering), CommitNotApplied if not (request-lost ordering; the
// orphaned transaction was aborted). Resolution itself retries across
// reconnects; only if every attempt fails does Commit return an error with
// outcome CommitNotApplied and the truth unknown.
func (t *RTx) Commit() (CommitOutcome, error) {
	if t.lost || t.r.c == nil {
		t.lost = true
		return CommitNotApplied, ErrTxLost
	}
	err := t.r.c.Commit(t.id)
	if err == nil {
		return CommitApplied, nil
	}
	var ind *InDoubtError
	if errors.As(err, &ind) {
		// The server itself reported the commit in doubt (a 2PC participant
		// failed mid-protocol; the decision is durable and the token is
		// recorded). The connection is healthy — resolve the token on it.
		t.r.stats.Resolves++
		return t.resolveToken()
	}
	if !transport(err) {
		return CommitNotApplied, err
	}
	// In doubt: the connection died somewhere inside COMMIT.
	t.r.drop()
	t.r.stats.Resolves++
	return t.resolveToken()
}

// resolveToken asks the server (reconnecting as needed) whether this
// transaction's commit token was recorded — the shared tail of both
// in-doubt paths (connection death inside COMMIT, and StatusInDoubt from
// a 2PC participant failure).
func (t *RTx) resolveToken() (CommitOutcome, error) {
	var applied bool
	rerr := t.r.do(func(c *Client) (err error) {
		applied, err = c.ResolveCommit(t.token)
		return err
	})
	if rerr != nil {
		return CommitNotApplied, fmt.Errorf("shardclient: commit in doubt, resolution failed: %w", rerr)
	}
	if applied {
		t.r.stats.ResolvedCommitted++
		return CommitResolvedApplied, nil
	}
	t.r.stats.ResolvedLost++
	return CommitNotApplied, nil
}
