package page

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

func newPage() Page {
	p := Wrap(make([]byte, storage.PageSize))
	p.Init()
	return p
}

func TestInsertGet(t *testing.T) {
	p := newPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, ok := p.Insert(r)
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		slots[i] = s
	}
	for i, r := range recs {
		if got := p.Get(slots[i]); !bytes.Equal(got, r) {
			t.Fatalf("slot %d: got %q want %q", slots[i], got, r)
		}
	}
	if p.NumSlots() != 3 || p.LiveCount() != 3 {
		t.Fatalf("counts wrong: slots=%d live=%d", p.NumSlots(), p.LiveCount())
	}
}

func TestGetOutOfRange(t *testing.T) {
	p := newPage()
	if p.Get(-1) != nil || p.Get(0) != nil || p.Get(100) != nil {
		t.Fatal("out-of-range Get should return nil")
	}
}

func TestDeleteAndReuse(t *testing.T) {
	p := newPage()
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	p.Delete(s0)
	if p.Live(s0) || p.Get(s0) != nil {
		t.Fatal("deleted slot still live")
	}
	if !bytes.Equal(p.Get(s1), []byte("two")) {
		t.Fatal("delete disturbed neighbor")
	}
	s2, ok := p.Insert([]byte("three"))
	if !ok || s2 != s0 {
		t.Fatalf("dead slot not reused: got %d want %d", s2, s0)
	}
}

func TestInsertUntilFullThenCompact(t *testing.T) {
	p := newPage()
	rec := make([]byte, 100)
	var slots []int
	for {
		s, ok := p.Insert(rec)
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 70 {
		t.Fatalf("page held only %d 100-byte records", len(slots))
	}
	// Delete every other record, then verify the space is reusable.
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	inserted := 0
	for {
		if _, ok := p.Insert(rec); !ok {
			break
		}
		inserted++
	}
	if inserted < len(slots)/2 {
		t.Fatalf("reclaimed space allowed only %d inserts", inserted)
	}
}

func TestReplaceInPlaceAndRelocate(t *testing.T) {
	p := newPage()
	s, _ := p.Insert([]byte("abcdef"))
	other, _ := p.Insert([]byte("neighbor"))
	if !p.Replace(s, []byte("xyz")) {
		t.Fatal("shrink replace failed")
	}
	if !bytes.Equal(p.Get(s), []byte("xyz")) {
		t.Fatal("shrunk record wrong")
	}
	big := make([]byte, 500)
	for i := range big {
		big[i] = 0x42
	}
	if !p.Replace(s, big) {
		t.Fatal("grow replace failed")
	}
	if !bytes.Equal(p.Get(s), big) {
		t.Fatal("grown record wrong")
	}
	if !bytes.Equal(p.Get(other), []byte("neighbor")) {
		t.Fatal("replace disturbed neighbor")
	}
}

func TestReplaceDeadOrOversized(t *testing.T) {
	p := newPage()
	s, _ := p.Insert([]byte("x"))
	p.Delete(s)
	if p.Replace(s, []byte("y")) {
		t.Fatal("replace of dead slot should fail")
	}
	s2, _ := p.Insert([]byte("z"))
	if p.Replace(s2, make([]byte, MaxRecordLen+1)) {
		t.Fatal("oversized replace should fail")
	}
}

func TestInsertRejectsOversized(t *testing.T) {
	p := newPage()
	if _, ok := p.Insert(make([]byte, MaxRecordLen+1)); ok {
		t.Fatal("oversized insert should fail")
	}
	if _, ok := p.Insert(nil); ok {
		t.Fatal("empty insert should fail")
	}
	if _, ok := p.Insert(make([]byte, MaxRecordLen)); !ok {
		t.Fatal("max-size insert into empty page should succeed")
	}
}

func TestClientHeaderPersists(t *testing.T) {
	p := newPage()
	copy(p.Client(), "btree-node-header")
	s, _ := p.Insert(bytes.Repeat([]byte("r"), 64))
	p.Delete(s)
	p.Compact()
	if !bytes.HasPrefix(p.Client(), []byte("btree-node-header")) {
		t.Fatal("client header lost")
	}
}

func TestCompactPreservesRecords(t *testing.T) {
	p := newPage()
	var keep []int
	for i := 0; i < 40; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte("x"), i)))
		s, ok := p.Insert(rec)
		if !ok {
			t.Fatal("insert failed")
		}
		if i%3 == 0 {
			p.Delete(s)
		} else {
			keep = append(keep, s)
		}
	}
	p.Compact()
	for _, s := range keep {
		got := p.Get(s)
		want := fmt.Sprintf("record-%03d-", s) // slot numbers == insert order here
		_ = want
		if got == nil {
			t.Fatalf("slot %d lost after compact", s)
		}
	}
}

// TestPageModelProperty runs a random op sequence against the page and a
// map-based model, checking they agree.
func TestPageModelProperty(t *testing.T) {
	r := util.NewRand(12345)
	p := newPage()
	model := map[int][]byte{}
	for step := 0; step < 20000; step++ {
		switch r.Intn(3) {
		case 0: // insert
			rec := make([]byte, 1+r.Intn(300))
			r.Letters(rec)
			s, ok := p.Insert(rec)
			if ok {
				if _, exists := model[s]; exists {
					t.Fatalf("step %d: insert reused live slot %d", step, s)
				}
				model[s] = append([]byte(nil), rec...)
			}
		case 1: // delete a random live slot
			if len(model) == 0 {
				continue
			}
			for s := range model {
				p.Delete(s)
				delete(model, s)
				break
			}
		case 2: // replace a random live slot
			if len(model) == 0 {
				continue
			}
			for s := range model {
				rec := make([]byte, 1+r.Intn(300))
				r.Letters(rec)
				if p.Replace(s, rec) {
					model[s] = append([]byte(nil), rec...)
				}
				break
			}
		}
		if step%500 == 0 {
			for s, want := range model {
				if got := p.Get(s); !bytes.Equal(got, want) {
					t.Fatalf("step %d slot %d: got %q want %q", step, s, got, want)
				}
			}
			if p.LiveCount() != len(model) {
				t.Fatalf("step %d: live=%d model=%d", step, p.LiveCount(), len(model))
			}
		}
	}
}

func TestFreeSpaceAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := newPage()
		for _, sz := range sizes {
			n := int(sz)%400 + 1
			before := p.FreeSpace()
			_, ok := p.Insert(make([]byte, n))
			after := p.FreeSpace()
			if ok && after > before {
				return false // free space must not grow on insert
			}
			if !ok && before >= n+4 {
				return false // insert failed despite room
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumStampVerify(t *testing.T) {
	p := newPage()
	p.Insert([]byte("some record"))
	b := p.Bytes()
	StampChecksum(b)
	if !VerifyChecksum(b) {
		t.Fatal("freshly stamped page should verify")
	}
	// Any single-bit flip outside the checksum field must be detected.
	for _, pos := range []int{0, 5, 100, storage.PageSize - 1} {
		b[pos] ^= 0x40
		if VerifyChecksum(b) {
			t.Fatalf("bit flip at %d not detected", pos)
		}
		b[pos] ^= 0x40
	}
	// A flip inside the stored checksum itself must be detected too.
	b[9] ^= 0x01
	if VerifyChecksum(b) {
		t.Fatal("checksum-field flip not detected")
	}
	b[9] ^= 0x01
	if !VerifyChecksum(b) {
		t.Fatal("restored page should verify again")
	}
}

func TestChecksumAllZeroPageAccepted(t *testing.T) {
	b := make([]byte, storage.PageSize)
	if !VerifyChecksum(b) {
		t.Fatal("all-zero (never written) page should be accepted")
	}
	b[17] = 1
	if VerifyChecksum(b) {
		t.Fatal("non-zero unstamped page should be rejected")
	}
}

func TestChecksumContentChangeDetected(t *testing.T) {
	p := newPage()
	slot, _ := p.Insert([]byte("v1"))
	StampChecksum(p.Bytes())
	p.Replace(slot, []byte("v2"))
	if VerifyChecksum(p.Bytes()) {
		t.Fatal("modified page with stale stamp should fail verification")
	}
	StampChecksum(p.Bytes())
	if !VerifyChecksum(p.Bytes()) {
		t.Fatal("restamped page should verify")
	}
}

// FuzzPageSlots reads arbitrary page bytes — a page's two ends, head and
// tail, with zeros between, as a device might return them damaged — through
// the slot directory: Get, Live and LiveCount never panic, whatever slot
// count and entries the bytes declare, and LiveCount counts the slots Live
// reports.
func FuzzPageSlots(f *testing.F) {
	p := newPage()
	p.Insert([]byte("alpha"))
	p.Insert([]byte("beta"))
	f.Add(p.b[:64], p.b[storage.PageSize-64:])
	f.Add([]byte{0xFF, 0xFF}, []byte(nil))                     // 65535 slots, most past the page
	f.Add(append([]byte{0x10, 0x08}, p.b[2:64]...), []byte{1}) // 2064 slots: the last ones straddle the end
	f.Fuzz(func(t *testing.T, head, tail []byte) {
		b := make([]byte, storage.PageSize)
		copy(b[storage.PageSize-min(len(tail), storage.PageSize):], tail)
		copy(b, head)
		p := Wrap(b)
		live := 0
		for i := -1; i <= p.NumSlots(); i++ {
			if rec := p.Get(i); rec != nil && !p.Live(i) {
				t.Fatalf("slot %d: Get returns %d bytes of a slot Live calls dead", i, len(rec))
			}
			if p.Live(i) {
				live++
			}
		}
		if n := p.LiveCount(); n != live {
			t.Fatalf("LiveCount = %d, Live holds for %d slots", n, live)
		}
	})
}
