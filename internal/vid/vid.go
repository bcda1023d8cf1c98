// Package vid implements the logical indirection layer of §3.5: a mapping
// from Virtual tuple IDentifiers to the physical entry-point of the
// tuple's version chain. Indexes storing VIDs instead of recordIDs avoid
// maintenance when the entry-point moves (every update under SIAS); the
// mapping table itself is memory-resident, as in the paper's systems.
package vid

import (
	"sync"

	"mvpbt/internal/storage"
)

// VID is a virtual tuple identifier. 0 is never allocated.
type VID = uint64

// Table is the indirection mapping VID → entry-point RecordID. It is safe
// for concurrent use.
type Table struct {
	mu   sync.RWMutex
	m    map[VID]storage.RecordID
	next VID
}

// NewTable returns an empty indirection table.
func NewTable() *Table {
	return &Table{m: make(map[VID]storage.RecordID), next: 1}
}

// Alloc reserves a fresh VID (with no mapping yet).
func (t *Table) Alloc() VID {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.next
	t.next++
	return v
}

// Set points vid at the new chain entry-point.
func (t *Table) Set(v VID, rid storage.RecordID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[v] = rid
}

// Get resolves vid to the current chain entry-point.
func (t *Table) Get(v VID) (storage.RecordID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rid, ok := t.m[v]
	return rid, ok
}

// Entry is one VID mapping.
type Entry struct {
	VID VID
	RID storage.RecordID
}

// Entries returns a snapshot of all mappings (unordered).
func (t *Table) Entries() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, len(t.m))
	for v, r := range t.m {
		out = append(out, Entry{VID: v, RID: r})
	}
	return out
}
