package server

import (
	"context"
	"testing"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
)

// TestCommitTokenEvictionAmortized: a full dedup table with nothing expired
// sheds an eighth of the cap at once. Recording a token scans the table
// exactly when it finds it full, so N commits past the cap cost N/(cap/8)
// scans of the table — O(N) entry visits, where evicting one entry a commit
// cost N scans — and the newest 7/8 of the cap still resolve.
func TestCommitTokenEvictionAmortized(t *testing.T) {
	const limit, n = 64, 640
	s := New(nil, Config{})
	s.tokenCap = limit
	scans := 0
	for tok := uint64(1); tok <= limit+n; tok++ {
		if len(s.tokens) >= s.tokenCap {
			scans++
		}
		s.beginCommit(tok)
		s.endCommit(tok, true)
		if len(s.tokens) > limit {
			t.Fatalf("token %d: table holds %d entries, cap %d", tok, len(s.tokens), limit)
		}
	}
	if max := n/(limit/8) + 1; scans > max {
		t.Fatalf("%d commits past a cap of %d scanned the table %d times, want at most %d", n, limit, scans, max)
	}
	for tok := uint64(limit + n); tok > limit+n-limit*7/8; tok-- {
		if !s.tokenCommitted(tok) {
			t.Fatalf("token %d, among the newest %d, no longer resolves", tok, limit*7/8)
		}
	}
	if s.tokenCommitted(1) {
		t.Fatal("the oldest token outlived the cap")
	}
}

// TestResolveWaitsForEveryCommitOfToken: two COMMITs carrying one token can
// overlap (a retry on a second connection); the first to end must not lift
// the fence for the second.
func TestResolveWaitsForEveryCommitOfToken(t *testing.T) {
	s := New(nil, Config{})
	s.beginCommit(7)
	s.beginCommit(7)
	resolved := make(chan bool, 1)
	go func() { resolved <- s.tokenCommitted(7) }()
	s.endCommit(7, false)
	select {
	case got := <-resolved:
		t.Fatalf("resolved %v with a COMMIT of the token still executing", got)
	case <-time.After(20 * time.Millisecond):
	}
	s.endCommit(7, true)
	if !<-resolved {
		t.Fatal("token not applied after its second COMMIT applied")
	}
	if len(s.committing) != 0 {
		t.Fatalf("committing keeps %d entries with no COMMIT executing", len(s.committing))
	}
}

// TestCommitTokenTTLExpiry: past the token TTL the dedup table forgets a
// token, so resolution honestly reports not-committed (the documented
// staleness bound) rather than pretending to remember.
func TestCommitTokenTTLExpiry(t *testing.T) {
	r, err := shard.New(shard.Config{Engine: db.Config{
		BufferPages:          256,
		PartitionBufferBytes: 64 << 10,
		EnableWAL:            true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := New(r, Config{})
	s.tokenTTL = 30 * time.Millisecond
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	}()
	c, err := shardclient.Dial(addr.String(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const token = 0xABCD
	tx, err := c.BeginToken(token)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("ttl-k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if applied, err := c.ResolveCommit(token); err != nil || !applied {
		t.Fatalf("fresh token: ResolveCommit = %v, %v", applied, err)
	}
	time.Sleep(60 * time.Millisecond)
	if applied, err := c.ResolveCommit(token); err != nil || applied {
		t.Fatalf("expired token: ResolveCommit = %v, %v; want false", applied, err)
	}
}
