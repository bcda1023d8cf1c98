package db

import (
	"testing"

	"mvpbt/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive its tests (only
// group-commit leaders start goroutines here); the rule check's served
// fixture applies to a whole server.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
