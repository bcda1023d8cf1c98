package shard

import (
	"testing"

	"mvpbt/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
