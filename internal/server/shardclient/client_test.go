package shardclient

import (
	"bufio"
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
		wire.WriteFrame(peer, wire.StatusOK, wire.U32(0xFFFFFFFF))
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
