package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"yosompc/internal/analysis"
)

// runYosolint runs the driver from the module root and returns combined
// output and exit code (-1 for non-exit errors).
func runYosolint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/yosolint"}, args...)...)
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if exit, ok := err.(*exec.ExitError); ok {
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running yosolint %v: %v\noutput:\n%s", args, err, out)
	return "", -1
}

// suiteNames is the full analyzer roster the driver must run; the e2e
// fixture violates every one of them.
var suiteNames = []string{
	"cryptorand", "postcheck", "secretflow",
	"sidechannel", "zeroize",
}

// TestDriverFlagsFixture is the end-to-end regression test for the whole
// driver: yosolint run against a fixture package containing one violation
// of each analyzer must exit non-zero and report all five.
func TestDriverFlagsFixture(t *testing.T) {
	out, code := runYosolint(t, "./cmd/yosolint/testdata/e2e/sharing")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\noutput:\n%s", code, out)
	}
	for _, analyzer := range suiteNames {
		if !strings.Contains(out, "("+analyzer+")") {
			t.Errorf("output missing a %s finding:\n%s", analyzer, out)
		}
	}
}

// TestDriverMalformedDirectives asserts that an unknown directive name,
// the directives of retired analyzers (lockscope's blocking, wirecodec's
// wireok) and a justification-less suppression each fail the run on their
// own.
func TestDriverMalformedDirectives(t *testing.T) {
	out, code := runYosolint(t, "./cmd/yosolint/testdata/e2e/baddirective")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (malformed directives)\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown //yosolint: directive") {
		t.Errorf("output missing unknown-directive finding:\n%s", out)
	}
	if !strings.Contains(out, `directive "blocking"`) {
		t.Errorf("output missing the retired blocking directive:\n%s", out)
	}
	if !strings.Contains(out, `directive "wireok"`) {
		t.Errorf("output missing the retired wireok directive:\n%s", out)
	}
	if !strings.Contains(out, "requires a justifying comment") {
		t.Errorf("output missing missing-justification finding:\n%s", out)
	}
}

// TestDriverDeclassified asserts the suppression path end to end: a
// justified declassify keeps the run clean, and -json preserves the
// suppression with its justification.
func TestDriverDeclassified(t *testing.T) {
	target := "./cmd/yosolint/testdata/e2e/declassified"

	out, code := runYosolint(t, target)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (declassified finding)\noutput:\n%s", code, out)
	}

	out, code = runYosolint(t, "-json", target)
	if code != 0 {
		t.Fatalf("-json exit code = %d, want 0\noutput:\n%s", code, out)
	}
	var found bool
	sc := bufio.NewScanner(bytes.NewReader([]byte(out)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			File          string `json:"file"`
			Line          int    `json:"line"`
			Analyzer      string `json:"analyzer"`
			Message       string `json:"message"`
			Suppressed    bool   `json:"suppressed"`
			Justification string `json:"justification"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("-json produced a non-JSON line %q: %v", line, err)
		}
		if rec.Analyzer == "secretflow" && rec.Suppressed {
			found = true
			if rec.Justification == "" {
				t.Error("-json suppressed record carries no justification")
			}
			if rec.File == "" || rec.Line == 0 {
				t.Errorf("-json record missing position: %+v", rec)
			}
		}
	}
	if !found {
		t.Errorf("-json output contains no suppressed secretflow record:\n%s", out)
	}
}

// TestDriverSARIF asserts the -sarif flag end to end: the written log
// passes the structural SARIF 2.1.0 validator, names every analyzer as a
// rule, locates the fixture's findings, and carries suppressed findings
// as inSource suppressions.
func TestDriverSARIF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.sarif")
	out, code := runYosolint(t, "-sarif="+path, "./cmd/yosolint/testdata/e2e/sharing")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\noutput:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-sarif wrote no log: %v", err)
	}
	if err := analysis.ValidateSARIF(data); err != nil {
		t.Fatalf("emitted SARIF log fails 2.1.0 validation: %v\nlog:\n%s", err, data)
	}
	var log analysis.SARIFLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("decoding SARIF log: %v", err)
	}
	if log.Version != analysis.SARIFVersion {
		t.Errorf("version = %q, want %q", log.Version, analysis.SARIFVersion)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "yosolint" {
		t.Errorf("driver name = %q, want yosolint", run.Tool.Driver.Name)
	}
	rules := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, analyzer := range suiteNames {
		if !rules[analyzer] {
			t.Errorf("rules missing analyzer %s", analyzer)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("SARIF log carries no results for the violating fixture")
	}
	for _, res := range run.Results {
		if len(res.Locations) == 0 {
			t.Errorf("result %q has no location", res.Message.Text)
			continue
		}
		uri := res.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if !strings.Contains(uri, "testdata/e2e/sharing/bad.go") {
			t.Errorf("result located at %q, want the fixture file", uri)
		}
		if res.PartialFingerprints["yosolintFingerprint/v1"] == "" {
			t.Errorf("result %q missing a partial fingerprint", res.Message.Text)
		}
	}

	// The declassified fixture exercises the suppression leg: its one
	// finding must appear with an inSource suppression, and the run must
	// stay clean (exit 0).
	out, code = runYosolint(t, "-sarif="+path, "./cmd/yosolint/testdata/e2e/declassified")
	if code != 0 {
		t.Fatalf("declassified -sarif exit code = %d, want 0\noutput:\n%s", code, out)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading declassified SARIF log: %v", err)
	}
	if err := analysis.ValidateSARIF(data); err != nil {
		t.Fatalf("declassified SARIF log fails validation: %v", err)
	}
	log = analysis.SARIFLog{}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("decoding declassified SARIF log: %v", err)
	}
	var suppressed bool
	for _, res := range log.Runs[0].Results {
		for _, sup := range res.Suppressions {
			if sup.Kind == "inSource" && sup.Justification != "" {
				suppressed = true
			}
		}
	}
	if !suppressed {
		t.Errorf("declassified SARIF log carries no inSource suppression with a justification:\n%s", data)
	}
}

// TestDriverCleanOnRepo asserts the acceptance criterion that the full
// repository lints clean.
func TestDriverCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint walk skipped in -short mode")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/yosolint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("yosolint ./... failed: %v\noutput:\n%s", err, out)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal(fmt.Errorf("no go.mod above %s", dir))
		}
		dir = parent
	}
}
