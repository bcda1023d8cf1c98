package storage

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestPageIDComposeDecompose(t *testing.T) {
	f := func(file uint32, pageNo uint64) bool {
		f24 := FileID(file & 0xFFFFFF)
		no := pageNo & (1<<40 - 1)
		pid := NewPageID(f24, no)
		return pid.File() == f24 && pid.PageNo() == no
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPageID(t *testing.T) {
	if InvalidPageID.Valid() {
		t.Fatal("invalid page id reports valid")
	}
	if !NewPageID(1, 0).Valid() {
		t.Fatal("file 1 page 0 should be valid")
	}
	var r RecordID
	if r.Valid() {
		t.Fatal("zero record id reports valid")
	}
}

func TestRecordIDCodec(t *testing.T) {
	f := func(file uint32, pageNo uint64, slot uint16) bool {
		rid := RecordID{Page: NewPageID(FileID(file&0xFFFFFF), pageNo&(1<<40-1)), Slot: slot}
		enc := EncodeRecordID(nil, rid)
		if len(enc) != RecordIDLen {
			return false
		}
		return DecodeRecordID(enc) == rid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRetryRule: one device I/O is re-issued only while its error is
// Transient, and at most IOAttempts times. A write to a freed page — the
// log's, a partition builder's or the pool's, they all go through Retry — is
// attempted once.
func TestRetryRule(t *testing.T) {
	for _, c := range []struct {
		name      string
		errs      []error // what successive attempts return; the last repeats
		wantCalls int
		wantErr   error
	}{
		{"success", []error{nil}, 1, nil},
		{"freed page", []error{fmt.Errorf("sfile: page 7: %w", ErrFreedPage)}, 1, ErrFreedPage},
		{"corrupt page", []error{ErrCorruptPage}, 1, ErrCorruptPage},
		{"no space", []error{ErrNoSpace}, 1, ErrNoSpace},
		{"fault that clears", []error{fmt.Errorf("ssd: %w", ErrIOFault), nil}, 2, nil},
		{"fault that stays", []error{ErrIOFault}, IOAttempts, ErrIOFault},
		{"fault, then freed", []error{ErrIOFault, ErrFreedPage}, 2, ErrFreedPage},
	} {
		calls := 0
		retries, err := Retry(func() error {
			e := c.errs[min(calls, len(c.errs)-1)]
			calls++
			return e
		})
		if calls != c.wantCalls || retries != calls-1 || !errors.Is(err, c.wantErr) {
			t.Errorf("%s: %d attempts, %d retries, err %v; want %d attempts and %v", c.name, calls, retries, err, c.wantCalls, c.wantErr)
		}
		if Transient(err) != (c.wantErr == ErrIOFault) {
			t.Errorf("%s: Transient(%v) = %v", c.name, err, Transient(err))
		}
	}
}
