package db

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestConfigIsPureValue enforces the Config copy contract (see the type
// comment): a Config assignment must be a deep copy, so the struct may
// contain no reference-typed fields — no slices, maps, pointers, funcs,
// channels or interfaces, recursively through embedded structs. Multi-engine
// instantiation (one Config templating N shard engines) depends on this; a
// new reference field must either be deep-copied in withDefaults and
// allowlisted here, or reworked into a value type.
func TestConfigIsPureValue(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Slice, reflect.Map, reflect.Ptr, reflect.Func,
			reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: reference-typed Config fields alias state "+
				"across engines built from one Config; deep-copy it in "+
				"withDefaults and allowlist it here", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Config", reflect.TypeOf(Config{}))
}

// TestTwoEnginesFromOneConfig opens two engines from the same Config value
// and checks full independence: separate devices, WALs, transaction-id
// spaces and governor state, with writes to one invisible to the other.
// This is the regression test for the copy-sharing hazards multi-engine
// instantiation would surface if Config (or NewEngine) ever started
// sharing backing state between engines.
func TestTwoEnginesFromOneConfig(t *testing.T) {
	cfg := Config{
		BufferPages:          256,
		PartitionBufferBytes: 64 << 10,
		EnableWAL:            true,
		DeviceCapacityBytes:  32 << 20,
	}
	a := NewEngine(cfg)
	defer a.Close()
	b := NewEngine(cfg)
	defer b.Close()

	if a.Dev == b.Dev || a.FM == b.FM || a.Pool == b.Pool || a.Mgr == b.Mgr ||
		a.PBuf == b.PBuf || a.Clock == b.Clock {
		t.Fatal("engines built from one Config share substrate components")
	}

	ka, err := NewMVPBTKV(a, "kv", MVPBTKVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := NewMVPBTKV(b, "kv", MVPBTKVOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("a-key-%04d", i))
		if err := ka.Put(key, bytes.Repeat([]byte{'a'}, 64)); err != nil {
			t.Fatalf("put a: %v", err)
		}
	}
	// Engine B saw no writes: nothing visible, no WAL commits, no live-byte
	// growth beyond its own metadata files.
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("a-key-%04d", i))
		if _, ok, err := kb.Get(key); err != nil || ok {
			t.Fatalf("engine B sees engine A's key %s (ok=%v err=%v)", key, ok, err)
		}
	}
	wa, wb := a.WALStatsSnapshot(), b.WALStatsSnapshot()
	if wa.Commits != n {
		t.Fatalf("engine A logged %d commits, want %d", wa.Commits, n)
	}
	if wb.Commits != 0 || wb.Flushes != 0 {
		t.Fatalf("engine B's WAL moved without writes: %+v", wb)
	}

	// Degrading one engine must not poison the other.
	a.ForceReadOnly(true)
	if err := ka.Put([]byte("blocked"), []byte("x")); err != ErrReadOnly {
		t.Fatalf("degraded engine A accepted a write: %v", err)
	}
	if err := kb.Put([]byte("fine"), []byte("x")); err != nil {
		t.Fatalf("healthy engine B rejected a write: %v", err)
	}
	a.ForceReadOnly(false)
	if err := ka.Put([]byte("unblocked"), []byte("x")); err != nil {
		t.Fatalf("restored engine A rejected a write: %v", err)
	}

	// Transaction-id spaces are per-engine (independent managers).
	ta, tb := a.Begin(), b.Begin()
	a.Commit(ta)
	b.Commit(tb)
	if a.Mgr == b.Mgr {
		t.Fatal("shared transaction manager")
	}
}
