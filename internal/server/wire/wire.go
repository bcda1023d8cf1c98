// Package wire defines the length-prefixed binary protocol spoken between
// mvpbt-server and its clients, and the frame codec both sides share
// (DESIGN.md §12).
//
// Every message — request or response — is one frame:
//
//	u32 big-endian length | u8 opcode (or status) | payload
//
// The length counts the opcode byte plus the payload, so an empty message
// is length 1. Integers inside payloads are big-endian; byte strings are
// u32-length-prefixed unless they are the frame's trailing field, in which
// case they run to the end of the frame (the frame length delimits them).
//
// Requests (client → server):
//
//	Hello  | u32 version | tenant…            → OK | u32 maxTx
//	Get    | u32 tx | key…                    → OK | u8 found | val…
//	Set    | u32 tx | u32 klen | key | val…   → OK
//	Del    | u32 tx | key…                    → OK
//	Scan   | u32 tx | u32 limit | lo…         → OK | u32 n | n×(u32 klen|key|u32 vlen|val)  (AppendPair, TakePairs)
//	Begin  | [u64 token]                      → OK | u32 tx
//	Commit | u32 tx | [u64 token]             → OK
//	Abort  | u32 tx                           → OK
//	Stats  |                                  → OK | JSON shard.Report
//
// tx = 0 means autocommit (the single operation commits through the owning
// shard's ordinary durable path); tx > 0 names an entry in the session's
// transaction table created by Begin. The first frame on a connection must
// be Hello — it carries the protocol version (ProtoVersion; a mismatch is
// refused with StatusVersionMismatch naming both versions) and the tenant
// name admission control accounts sessions against.
//
// The optional Begin/Commit token is the idempotent COMMIT protocol for
// self-healing clients: a client-generated 64-bit commit id carried on
// Begin is recorded server-side when (and only when) that transaction
// commits, BEFORE the OK is written — so a COMMIT whose ack was lost to a
// dead connection can be retried as `Commit | u32 0 | u64 token`, which
// resolves against the dedup table: OK if the commit was applied (it is
// NOT applied again), StatusNotCommitted if it never was. A Begin reusing
// a committed token is refused with StatusAlreadyCommitted. Dedup entries
// live for the server's configured TTL (bounded table; see DESIGN.md §12):
// a token older than the TTL may resolve StatusNotCommitted even though
// the commit applied, so clients resolve promptly or re-read.
//
// Error responses replace OK with a status code; the payload carries the
// error text, except StatusReadOnly and StatusUnavailable, whose payloads
// are the shard number (u32) followed by the error text, and
// StatusVersionMismatch, whose payload is the server's version (u32)
// followed by the error text.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"unsafe"
)

// ProtoVersion is the protocol revision both sides must speak. Version 3
// made the Stats reply the router's report as JSON (it was one line of text
// per shard). Version 2 added the Hello version field itself, commit
// tokens, and the Unavailable/VersionMismatch/NotCommitted/AlreadyCommitted
// statuses. (Version 1 had no version field: its Hello payload began
// directly with the tenant name.)
const ProtoVersion = 3

// Request opcodes.
const (
	OpHello  = 1
	OpGet    = 2
	OpSet    = 3
	OpDel    = 4
	OpScan   = 5
	OpBegin  = 6
	OpCommit = 7
	OpAbort  = 8
	OpStats  = 9
)

// Response status codes.
const (
	StatusOK        = 0 // request succeeded
	StatusErr       = 1 // generic failure; payload is the error text
	StatusReadOnly  = 2 // owning shard degraded read-only; payload = u32 shard | text
	StatusAdmission = 3 // session rejected by admission control
	StatusNoTx      = 4 // unknown transaction id (or transaction table full)
	StatusDraining  = 5 // server draining: no new sessions or transactions
	// StatusVersionMismatch refuses a Hello whose protocol version is not
	// the server's; payload = u32 server version | text naming both.
	StatusVersionMismatch = 6
	// StatusUnavailable: the owning shard is failed or recovering (the
	// supervisor is restarting it) — retriable after a short backoff;
	// payload = u32 shard | text.
	StatusUnavailable = 7
	// StatusNotCommitted answers a token-resolution Commit (tx = 0): the
	// token was never recorded as committed.
	StatusNotCommitted = 8
	// StatusAlreadyCommitted refuses a Begin reusing a token the dedup
	// table has recorded as committed.
	StatusAlreadyCommitted = 9
	// StatusInDoubt answers a multi-shard Commit whose COMMIT decision is
	// durable in the coordinator log but whose legs are still being
	// resolved (a participant failed mid-protocol). The transaction WILL
	// commit — the server records the commit token before replying, so the
	// client confirms the outcome with a token-resolution Commit.
	StatusInDoubt = 10
)

// MaxFrame bounds a single frame (opcode + payload). Large scans paginate.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned for frames past MaxFrame in either direction.
var ErrFrameTooLarge = errors.New("wire: frame exceeds 16MiB limit")

// ErrZeroLengthFrame is returned for a declared frame length of zero —
// every frame carries at least its opcode byte, so a zero length is a
// corrupt or malicious header, not an empty message.
var ErrZeroLengthFrame = errors.New("wire: zero-length frame")

// ErrTruncatedFrame is returned when a frame or field ends before its
// declared length: a payload cut short by the peer closing mid-frame, or
// a structured field (u32) extending past the frame end. Both sides treat
// it as a protocol violation and drop the connection; errors.Is
// distinguishes it from transport-level read failures.
var ErrTruncatedFrame = errors.New("wire: truncated frame")

// WriteFrame sends one frame, opcode/status byte plus payload segments,
// into w, the buffered writer both ends keep per connection; the caller
// flushes it.
func WriteFrame(w *bufio.Writer, op byte, segs ...[]byte) error {
	n := 1
	for _, s := range segs {
		n += len(s)
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	// The header is built in w's free space: a local array would escape
	// through w's io.Writer, one allocation per frame.
	hdr := append(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(n)), op)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, s := range segs {
		if _, err := w.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// MaxKeptBuffer bounds the buffers either end keeps between frames (Keep),
// so one large frame does not pin up to MaxFrame per idle connection.
const MaxKeptBuffer = 1 << 20

// Keep returns buf for its owner to reuse for the next frame, or nil if it
// grew past MaxKeptBuffer bytes.
func Keep[T any](buf []T) []T {
	if cap(buf)*int(unsafe.Sizeof(*new(T))) > MaxKeptBuffer {
		return nil
	}
	return buf
}

// ReadFrame reads one frame into a fresh buffer, returning its opcode/status
// byte and payload.
func ReadFrame(r io.Reader) (op byte, payload []byte, err error) {
	op, payload, _, err = ReadFrameInto(r, nil)
	return op, payload, err
}

// ReadFrameInto reads one frame into buf, the caller's buffer, and returns
// its opcode/status byte, its payload and buf grown to hold it; the payload
// aliases the grown buffer. A caller that keeps that buffer allocates only
// for a frame larger than every one before it.
func ReadFrameInto(r io.Reader, buf []byte) (op byte, payload, grown []byte, err error) {
	// The header is read into buf too: a local array would escape through
	// the io.Reader call, one allocation per frame.
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n < 1 {
		return 0, nil, buf, ErrZeroLengthFrame
	}
	if n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("%w (declared %d bytes)", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if got, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			// The header promised n bytes; the stream ended first. A clean
			// EOF here is still a truncation — the frame had begun.
			return 0, nil, buf, fmt.Errorf("%w: payload ended at %d of %d declared bytes", ErrTruncatedFrame, got, n)
		}
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// U32 encodes v as a 4-byte big-endian segment.
func U32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// TakeU32 splits a big-endian u32 off the front of p.
func TakeU32(p []byte) (uint32, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w (need u32, have %d bytes)", ErrTruncatedFrame, len(p))
	}
	return binary.BigEndian.Uint32(p[:4]), p[4:], nil
}

// U64 encodes v as an 8-byte big-endian segment (commit tokens).
func U64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// TakeU64 splits a big-endian u64 off the front of p.
func TakeU64(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w (need u64, have %d bytes)", ErrTruncatedFrame, len(p))
	}
	return binary.BigEndian.Uint64(p[:8]), p[8:], nil
}

// TakeBytes splits a u32-length-prefixed byte string off the front of p.
func TakeBytes(p []byte) (b, rest []byte, err error) {
	n, rest, err := TakeU32(p)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n) > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w (field of %d bytes, %d follow)", ErrTruncatedFrame, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// Pair is one key-value pair of a Scan reply.
type Pair struct {
	Key []byte
	Val []byte
}

// AppendPair appends one pair in the Scan reply's layout, u32 klen | key |
// u32 vlen | val, to body.
func AppendPair(body, key, val []byte) []byte {
	body = append(binary.BigEndian.AppendUint32(body, uint32(len(key))), key...)
	return append(binary.BigEndian.AppendUint32(body, uint32(len(val))), val...)
}

// TakePairs decodes a Scan reply's payload, u32 n | n pairs, into dst's
// storage grown to hold them; the pairs alias p. The count is untrusted: a
// pair takes at least its two length fields, so an n the remaining bytes
// cannot hold is refused before anything is allocated for it.
func TakePairs(p []byte, dst []Pair) ([]Pair, error) {
	n, rest, err := TakeU32(p)
	if err != nil {
		return nil, err
	}
	if uint64(n)*8 > uint64(len(rest)) {
		return nil, fmt.Errorf("%w (%d pairs declared, %d bytes follow)", ErrTruncatedFrame, n, len(rest))
	}
	out := slices.Grow(dst[:0], int(n))[:n]
	for i := range out {
		if out[i].Key, rest, err = TakeBytes(rest); err != nil {
			return nil, err
		}
		if out[i].Val, rest, err = TakeBytes(rest); err != nil {
			return nil, err
		}
	}
	return out, nil
}
