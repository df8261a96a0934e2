// Package suite aggregates the yosolint analyzers. The cmd/yosolint
// driver and any future in-process callers (CI helpers, tests) get the
// full, ordered suite from one place.
package suite

import (
	"yosompc/internal/analysis"
	"yosompc/internal/analysis/cryptorand"
	"yosompc/internal/analysis/postcheck"
	"yosompc/internal/analysis/secretflow"
	"yosompc/internal/analysis/zeroize"
)

// Analyzers returns the yosolint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		cryptorand.Analyzer,
		postcheck.Analyzer,
		secretflow.Analyzer,
		secretflow.SideChannel,
		zeroize.Analyzer,
	}
}
