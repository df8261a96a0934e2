package transport

import (
	"os"
	"testing"

	"yosompc/internal/leakcheck"
)

// TestMain fails the run if a test leaves a goroutine executing the
// module's non-test code behind.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Check(m.Run()))
}
