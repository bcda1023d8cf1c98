// Package leakcheck tells whether goroutines outlived the code that started
// them: a test package's, or a fixture's teardown.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Wait returns once no more than before goroutines run, or after 5 s an
// error listing every goroutine's stack. The deadline only bounds a
// failure: a clean teardown returns at once.
func Wait(before int) error {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			return fmt.Errorf("leaked goroutines: %d before, %d after:\n%s", before, runtime.NumGoroutine(), stacks)
		}
	}
	return nil
}

// Main runs m's tests and exits, failing them when goroutines outlive them:
// every engine, shard, server or pool a test starts must be closed or
// crashed by the time the test returns. A fuzzing run (-test.fuzz) is not
// checked: the fuzzing engine's own signal handler outlives it.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		if err := Wait(before); err != nil {
			fmt.Fprintln(os.Stderr, "tests", err)
			code = 1
		}
	}
	os.Exit(code)
}
