// Package suite aggregates the yosolint analyzers. The cmd/yosolint
// driver and any future in-process callers (CI helpers, tests) get the
// full, ordered suite from one place.
package suite

import (
	"yosompc/internal/analysis"
	"yosompc/internal/analysis/cryptorand"
	"yosompc/internal/analysis/goroleak"
	"yosompc/internal/analysis/lockscope"
	"yosompc/internal/analysis/postcheck"
	"yosompc/internal/analysis/secretflow"
	"yosompc/internal/analysis/sidechannel"
	"yosompc/internal/analysis/wirecodec"
	"yosompc/internal/analysis/zeroize"
)

// Analyzers returns the yosolint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		cryptorand.Analyzer,
		goroleak.Analyzer,
		lockscope.Analyzer,
		postcheck.Analyzer,
		secretflow.Analyzer,
		sidechannel.Analyzer,
		wirecodec.Analyzer,
		zeroize.Analyzer,
	}
}
