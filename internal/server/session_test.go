package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/server/wire"
	"mvpbt/internal/shard"
)

// TestSessionBuffersBounded: a session reads requests into one buffer and
// builds GET and SCAN replies in another, both kept between requests, and
// neither keeps a frame past wire.MaxKeptBuffer: after a SET carrying a
// 2 MiB value (refused: no partition leaf holds it) and a SCAN whose reply
// is larger still, the next small request leaves both under the cap and is
// answered from them. The session
// is served over net.Pipe, whose synchronous hand-off orders the session's
// writes of its buffers before the test reads them.
func TestSessionBuffersBounded(t *testing.T) {
	// P_N holds all of it.
	r, err := shard.New(shard.Config{Shards: 1, Engine: db.Config{BufferPages: 256, PartitionBufferBytes: 8 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	val := bytes.Repeat([]byte("v"), 7000)
	const keys = 640 // a SCAN of all of them replies with over 4 MiB
	for i := 0; i < keys; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	s := New(r, Config{})
	conn, peer := net.Pipe()
	s.wg.Add(1)
	go s.handleConn(&session{conn: conn})
	defer s.wg.Wait()
	defer peer.Close()
	br, bw := bufio.NewReader(peer), bufio.NewWriter(peer)
	callWant := func(want, op byte, segs ...[]byte) []byte {
		t.Helper()
		if err := wire.WriteFrame(bw, op, segs...); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		status, payload, err := wire.ReadFrame(br)
		if err != nil || status != want {
			t.Fatalf("op %d: status %d %q, %v; want status %d", op, status, payload, err, want)
		}
		return payload
	}
	call := func(op byte, segs ...[]byte) []byte {
		t.Helper()
		return callWant(wire.StatusOK, op, segs...)
	}
	session := func() *session {
		s.mu.Lock()
		defer s.mu.Unlock()
		for sess := range s.sessions {
			return sess
		}
		t.Fatal("no session")
		return nil
	}
	small := func(what string) {
		t.Helper()
		if got := call(wire.OpGet, wire.U32(0), []byte("k0007")); got[0] != 1 || !bytes.Equal(got[1:], val) {
			t.Fatalf("%s: small GET answered %d bytes", what, len(got))
		}
		sess := session()
		if n, m := cap(sess.req), cap(sess.reply); n == 0 || m == 0 || n > wire.MaxKeptBuffer || m > wire.MaxKeptBuffer {
			t.Fatalf("%s: kept request buffer %d bytes, reply buffer %d; want 1 to %d each", what, n, m, wire.MaxKeptBuffer)
		}
	}

	call(wire.OpHello, wire.U32(wire.ProtoVersion), []byte("t"))
	callWant(wire.StatusErr, wire.OpSet, wire.U32(0), wire.U32(4), []byte("huge"), bytes.Repeat([]byte("h"), 2<<20))
	if sess := session(); sess.req != nil {
		t.Fatalf("a %d-byte request buffer was kept after a 2 MiB SET", cap(sess.req))
	}
	small("after the SET")
	if got := call(wire.OpScan, wire.U32(0), wire.U32(keys+1), nil); len(got) < 4<<20 {
		t.Fatalf("SCAN replied %d bytes, want over 4 MiB", len(got))
	}
	if sess := session(); sess.reply != nil {
		t.Fatalf("a %d-byte reply buffer was kept after a SCAN past the cap", cap(sess.reply))
	}
	small("after the SCAN")
}
