package db

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive its tests: every
// engine a test opens must be closed or crashed by the time the test
// returns (only group-commit leaders start goroutines here), the rule
// check's served fixture applies to a whole server. The deadline only
// bounds a failure; a clean run returns at once.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0 && runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			fmt.Fprintf(os.Stderr, "internal/db tests leaked goroutines: %d before, %d after:\n%s",
				before, runtime.NumGoroutine(), stacks)
			code = 1
		}
	}
	os.Exit(code)
}
