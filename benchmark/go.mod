// The benchmark is a module of its own so that it builds from its own
// directory and nothing in the measured module's `go build ./...` or
// `go test ./...` depends on it. The module path sits under the measured
// module's, which is what lets it import yosompc/internal/... packages.
module yosompc/benchmark

go 1.22

require yosompc v0.0.0

replace yosompc => ../
