package wirecodec

import (
	"testing"

	"yosompc/internal/analysis/analysistest"
)

// TestFixtures runs the analyzer over the wire fixtures (pair
// completeness, size model, fuzz coverage, size pins, in-package and
// external test variants) and the board fixtures (codec-less payloads at
// publication calls, the //yosolint:wireok escape hatch).
func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), Analyzer, "wire", "board")
}
