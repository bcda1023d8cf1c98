package shardclient

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"

	"mvpbt/internal/server/wire"
)

// TestScanReplyCountIsUntrusted: a SCAN reply claiming 2³²−1 pairs over an
// empty body is refused as a truncated frame, before anything is allocated
// for the pairs it claims.
func TestScanReplyCountIsUntrusted(t *testing.T) {
	conn, peer := net.Pipe()
	defer peer.Close()
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	defer c.Close()
	go func() {
		wire.ReadFrame(peer)
		bw := bufio.NewWriter(peer)
		wire.WriteFrame(bw, wire.StatusOK, wire.U32(0xFFFFFFFF))
		bw.Flush()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kvs, err := c.Scan(0, nil, 10)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncatedFrame) || kvs != nil || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Fatalf("Scan = %d pairs, %v, %d bytes allocated; want ErrTruncatedFrame for a reply of 4 bytes",
			len(kvs), err, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestReplyBufferBounded: the client reads every reply into one buffer it
// keeps, and a reply past wire.MaxKeptBuffer does not stay behind in it: after
// a GET whose 2 MiB value arrives whole, the next, small GET leaves a kept
// buffer under the cap and reads its own value.
func TestReplyBufferBounded(t *testing.T) {
	conn, peer := net.Pipe()
	defer peer.Close()
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	defer c.Close()
	big := bytes.Repeat([]byte("b"), 2<<20)
	go func() {
		br, bw := bufio.NewReader(peer), bufio.NewWriter(peer)
		for _, val := range [][]byte{big, []byte("small")} {
			if _, _, err := wire.ReadFrame(br); err != nil {
				return
			}
			wire.WriteFrame(bw, wire.StatusOK, []byte{1}, val)
			bw.Flush()
		}
	}()
	if v, ok, err := c.Get(0, []byte("big")); err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big GET: %d bytes, %v, %v", len(v), ok, err)
	}
	if c.reply != nil {
		t.Fatalf("a %d-byte reply buffer was kept, cap %d", cap(c.reply), wire.MaxKeptBuffer)
	}
	if v, ok, err := c.Get(0, []byte("small")); err != nil || !ok || string(v) != "small" {
		t.Fatalf("small GET: %q, %v, %v", v, ok, err)
	}
	if n := cap(c.reply); n == 0 || n > wire.MaxKeptBuffer {
		t.Fatalf("kept reply buffer of %d bytes after a small reply, want 1 to %d", n, wire.MaxKeptBuffer)
	}
}
