package hostile

import (
	"testing"

	"mvpbt/internal/ssd"
)

// Every hostile scenario must replay byte-identically from its seed on
// every device in the zoo: run twice, demand fingerprint equality. The
// workloads are deterministic functions of (kind, device, seed), so any
// divergence is a nondeterminism bug in the engine, the device model, or
// the generator itself.
func TestScenariosReplayOnZoo(t *testing.T) {
	for _, spec := range ssd.Zoo() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, kind := range Kinds() {
				kind := kind
				t.Run(kind.String(), func(t *testing.T) {
					cfg := Config{Device: spec, Seed: 1}
					a, err := Run(kind, cfg)
					if err != nil {
						t.Fatalf("run 1: %v", err)
					}
					b, err := Run(kind, cfg)
					if err != nil {
						t.Fatalf("run 2: %v", err)
					}
					if a != b {
						t.Fatalf("replay diverged:\n  run1: %+v\n  run2: %+v", a, b)
					}
					if a.Committed == 0 {
						t.Fatal("scenario committed nothing")
					}
					if a.StateHash == 0 {
						t.Fatal("scenario produced no state hash")
					}
				})
			}
		})
	}
}

// Different seeds must drive genuinely different runs — a generator that
// ignores its seed would make every "campaign over seeds" vacuous.
func TestSeedsDiverge(t *testing.T) {
	for _, kind := range Kinds() {
		a, err := Run(kind, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%v seed 1: %v", kind, err)
		}
		b, err := Run(kind, Config{Seed: 2})
		if err != nil {
			t.Fatalf("%v seed 2: %v", kind, err)
		}
		// Compare whole fingerprints, not just the final state hash:
		// sawtooth deliberately ends at a near-empty trough whose
		// contents are seed-independent, but the trajectory (I/O mix,
		// virtual time) must still differ.
		if a == b {
			t.Fatalf("%v: seeds 1 and 2 produced identical fingerprints", kind)
		}
	}
}

// The registry names every scenario.
func TestKindRegistry(t *testing.T) {
	want := []string{"hot-key-storm", "sawtooth", "snapshot-pin", "tenant-skew"}
	kinds := Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("got %d kinds, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

// The scenarios must exercise their device's distinguishing machinery:
// the ZNS device sees appends (and shim redirects from in-place page
// rewrites), the throttled cloud device accumulates token-bucket stalls
// under the tenant-skew bursts.
func TestScenariosExerciseDeviceModel(t *testing.T) {
	fp, err := Run(Sawtooth, Config{Device: ssd.ZNSAppend, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fp.ZNSAppends == 0 || fp.ZNSRedirects == 0 {
		t.Fatalf("sawtooth on zns: no zone activity: %+v", fp)
	}
	fp, err = Run(TenantSkew, Config{Device: ssd.CloudBlock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fp.CloudOps == 0 {
		t.Fatalf("tenant-skew on cloud-block: no metered ops: %+v", fp)
	}
}
