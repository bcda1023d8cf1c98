package wal

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// commitLoop is the log's share of n autocommitted 1 KiB writes: one
// insert record and its commit record appended to a bare Log on a private
// default device, then Flush. It returns the device bytes and the virtual
// device time the flushes cost — counts, so they repeat exactly.
func commitLoop(tb testing.TB, n int) (devBytes int64, virtual time.Duration) {
	l, _, dev := newTestLog()
	row := bytes.Repeat([]byte("v"), 1<<10)
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		l.Append(&Record{Op: OpInsert, TxID: id, Table: "shard-0/kv", Key: []byte(fmt.Sprintf("user%012d", i)), Row: row})
		l.Append(&Record{Op: OpCommit, TxID: id})
		if err := l.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Flushes != int64(n) || st.FlushedBytes != dev.Stats().BytesWritten {
		tb.Fatalf("log counted %d flushes of %d B; %d flushes wrote the device %d B", st.Flushes, st.FlushedBytes, n, dev.Stats().BytesWritten)
	}
	return st.FlushedBytes, dev.Stats().WriteTime
}

// TestFlushCostGate pins what one un-batched durable 1 KiB commit costs at
// the device: the sectors its ~1.1 KB of records dirtied (three, sometimes
// four: 1 591 B and 26.4 µs on the default device), not its 8 KiB tail page
// (the whole-page flush: 9 273 B and 151.1 µs for the same loop). The
// limits leave room for a record-format change, none for a return to
// page-granular flushing.
func TestFlushCostGate(t *testing.T) {
	const n = 1000
	devBytes, virtual := commitLoop(t, n)
	if perFlush := devBytes / n; perFlush > 2<<10 {
		t.Errorf("%d device bytes per flush, want <= 2 KiB", perFlush)
	}
	if perFlush := virtual / n; perFlush > 40*time.Microsecond {
		t.Errorf("%v of virtual device time per flush, want <= 40µs", perFlush)
	}
}

func BenchmarkWriterFlush(b *testing.B) {
	devBytes, virtual := commitLoop(b, b.N)
	b.ReportMetric(float64(devBytes)/float64(b.N), "dev-B/flush")
	b.ReportMetric(float64(virtual)/float64(b.N)/1e3, "virtual-us/flush")
}
