package db

import (
	"testing"

	"mvpbt/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive its tests (only the
// tests' own concurrent committers start goroutines here); the rule check's
// served fixture applies to a whole server.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
