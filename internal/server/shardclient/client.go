// Package shardclient is the Go client for mvpbt-server's wire protocol.
// A Client owns one TCP connection and issues requests serially (the
// protocol has no pipelining); use one Client per goroutine.
//
// A Client reads every reply into one buffer it keeps, so the value Get
// returns and the pairs Scan returns, keys and values, alias buffers the
// Client reuses: they are valid until the next call on the same Client. A
// caller that keeps one longer copies it. An RClient does that copy for its
// callers; errors and every other result are the caller's to keep.
package shardclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"mvpbt/internal/server/wire"
)

// Typed errors for the protocol's status codes.
var (
	// ErrAdmission: the server's admission control refused the session
	// (overload or session caps). Back off and retry.
	ErrAdmission = errors.New("shardclient: session refused by admission control")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("shardclient: server draining")
	// ErrNoTx: the named transaction does not exist (or the session's
	// transaction table is full).
	ErrNoTx = errors.New("shardclient: no such transaction")
	// ErrNotCommitted: a commit-token resolution found the token
	// unrecorded — the commit never applied (or its dedup entry expired
	// past the server's TTL).
	ErrNotCommitted = errors.New("shardclient: commit token not recorded")
	// ErrAlreadyCommitted: a Begin reused a token the server has already
	// recorded as committed.
	ErrAlreadyCommitted = errors.New("shardclient: commit token already applied")
)

// ReadOnlyError reports an operation refused because its owning shard is
// degraded read-only.
type ReadOnlyError struct {
	Shard int
	Msg   string
}

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("shardclient: shard %d read-only: %s", e.Shard, e.Msg)
}

// UnavailableError reports an operation refused because its owning shard
// is failed or recovering. Retriable: the server's supervisor is
// restarting the shard, and every other shard keeps serving.
type UnavailableError struct {
	Shard int
	Msg   string
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("shardclient: shard %d unavailable (retriable): %s", e.Shard, e.Msg)
}

// VersionMismatchError reports a HELLO refused over protocol versions.
type VersionMismatchError struct {
	Client, Server uint32
	Msg            string
}

func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("shardclient: protocol version mismatch (client %d, server %d): %s", e.Client, e.Server, e.Msg)
}

// InDoubtError reports a multi-shard commit whose COMMIT decision is
// durable but whose legs are still resolving (StatusInDoubt). The
// transaction WILL commit and the server has already recorded the commit
// token — resolve the token to confirm the outcome (RClient does this
// automatically).
type InDoubtError struct{ Msg string }

func (e *InDoubtError) Error() string {
	return "shardclient: commit in doubt (decision durable, resolution pending): " + e.Msg
}

// ServerError is a generic server-side failure (StatusErr).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "shardclient: server error: " + e.Msg }

// KV is one scan result pair.
type KV = wire.Pair

// Client is one protocol session. Not safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// reply is the buffer every reply frame is read into and pairs the one
	// Scan decodes a reply's pairs into, both kept between calls (wire.Keep).
	reply []byte
	pairs []KV
}

// Dial connects, performs the HELLO handshake as tenant, and returns an
// admitted session. Admission refusals surface as ErrAdmission or
// ErrDraining.
func Dial(addr, tenant string) (*Client, error) {
	return DialTimeout(addr, tenant, 10*time.Second)
}

// DialTimeout is Dial with a connect + handshake deadline.
func DialTimeout(addr, tenant string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	conn.SetDeadline(time.Now().Add(timeout))
	_, err = c.call(wire.OpHello, wire.U32(wire.ProtoVersion), []byte(tenant))
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close tears the session down. Open transactions are aborted server-side.
func (c *Client) Close() error { return c.conn.Close() }

// call is the one request: it sends a frame, reads the response and returns
// the payload of an OK, or the typed error of any other status.
func (c *Client) call(op byte, segs ...[]byte) ([]byte, error) {
	if err := wire.WriteFrame(c.bw, op, segs...); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	status, payload, buf, err := wire.ReadFrameInto(c.br, c.reply)
	c.reply = wire.Keep(buf)
	if err != nil {
		return nil, err
	}
	if status != wire.StatusOK {
		return nil, statusErr(status, payload)
	}
	return payload, nil
}

// statusErr maps a non-OK status frame to a typed error.
func statusErr(status byte, payload []byte) error {
	switch status {
	case wire.StatusAdmission:
		return ErrAdmission
	case wire.StatusDraining:
		return ErrDraining
	case wire.StatusNoTx:
		return fmt.Errorf("%w: %s", ErrNoTx, payload)
	case wire.StatusReadOnly:
		shardNo, rest, err := wire.TakeU32(payload)
		if err != nil {
			return &ReadOnlyError{Shard: -1, Msg: string(payload)}
		}
		return &ReadOnlyError{Shard: int(shardNo), Msg: string(rest)}
	case wire.StatusUnavailable:
		shardNo, rest, err := wire.TakeU32(payload)
		if err != nil {
			return &UnavailableError{Shard: -1, Msg: string(payload)}
		}
		return &UnavailableError{Shard: int(shardNo), Msg: string(rest)}
	case wire.StatusVersionMismatch:
		srv, rest, err := wire.TakeU32(payload)
		if err != nil {
			return &VersionMismatchError{Client: wire.ProtoVersion, Msg: string(payload)}
		}
		return &VersionMismatchError{Client: wire.ProtoVersion, Server: srv, Msg: string(rest)}
	case wire.StatusNotCommitted:
		return fmt.Errorf("%w: %s", ErrNotCommitted, payload)
	case wire.StatusAlreadyCommitted:
		return fmt.Errorf("%w: %s", ErrAlreadyCommitted, payload)
	case wire.StatusInDoubt:
		return &InDoubtError{Msg: string(payload)}
	default:
		return &ServerError{Msg: string(payload)}
	}
}

// Get reads key. tx 0 is an autocommit read of the newest committed
// version; tx > 0 reads at that transaction's cross-shard snapshot. The
// value is valid until the next call on c.
func (c *Client) Get(tx uint32, key []byte) ([]byte, bool, error) {
	payload, err := c.call(wire.OpGet, wire.U32(tx), key)
	if err != nil {
		return nil, false, err
	}
	if len(payload) < 1 {
		return nil, false, fmt.Errorf("shardclient: short GET response")
	}
	if payload[0] == 0 {
		return nil, false, nil
	}
	return payload[1:], true, nil
}

// Set upserts key=val under tx (0 = autocommit through the owning shard's
// durable path).
func (c *Client) Set(tx uint32, key, val []byte) error {
	_, err := c.call(wire.OpSet, wire.U32(tx), wire.U32(uint32(len(key))), key, val)
	return err
}

// Del tombstones key under tx (0 = autocommit).
func (c *Client) Del(tx uint32, key []byte) error {
	_, err := c.call(wire.OpDel, wire.U32(tx), key)
	return err
}

// Scan returns up to limit pairs with key >= lo in global key order, at
// tx's snapshot (tx 0 takes a fresh consistent snapshot for the scan). The
// pairs, keys and values, are valid until the next call on c.
func (c *Client) Scan(tx uint32, lo []byte, limit int) ([]KV, error) {
	payload, err := c.call(wire.OpScan, wire.U32(tx), wire.U32(uint32(limit)), lo)
	if err != nil {
		return nil, err
	}
	kvs, err := wire.TakePairs(payload, c.pairs)
	c.pairs = wire.Keep(kvs)
	return kvs, err
}

// Begin opens a cross-shard transaction and returns its session-local id.
func (c *Client) Begin() (uint32, error) { return c.BeginToken(0) }

// BeginToken is Begin with a client-generated idempotent commit token (0 =
// none). If the server has already recorded token as committed — a previous
// attempt's COMMIT applied but its ack was lost — the error is
// ErrAlreadyCommitted, which the caller should treat as success.
func (c *Client) BeginToken(token uint64) (uint32, error) {
	var tok []byte // absent for token 0, as the protocol has it
	if token != 0 {
		tok = wire.U64(token)
	}
	payload, err := c.call(wire.OpBegin, tok)
	if err != nil {
		return 0, err
	}
	id, _, err := wire.TakeU32(payload)
	return id, err
}

// Commit durably commits tx.
func (c *Client) Commit(tx uint32) error {
	_, err := c.call(wire.OpCommit, wire.U32(tx))
	return err
}

// ResolveCommit asks the server whether the commit identified by token
// applied. Returns (true, nil) if the token is recorded as committed,
// (false, nil) if not (the transaction was aborted server-side or never
// committed — within the server's dedup TTL this is authoritative).
func (c *Client) ResolveCommit(token uint64) (bool, error) {
	_, err := c.call(wire.OpCommit, wire.U32(0), wire.U64(token))
	if errors.Is(err, ErrNotCommitted) {
		return false, nil
	}
	return err == nil, err
}

// Abort discards tx.
func (c *Client) Abort(tx uint32) error {
	_, err := c.call(wire.OpAbort, wire.U32(tx))
	return err
}

// Stats returns the server's per-shard health text.
func (c *Client) Stats() (string, error) {
	payload, err := c.call(wire.OpStats)
	return string(payload), err
}
