package leakcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"yosompc/internal/parallel"
)

// parkWorkers starts a two-worker parallel.For whose tasks block until
// release closes: its goroutines are then executing parallel.go, a
// non-test file of the module. It returns once both workers are parked;
// the returned channel yields For's result.
func parkWorkers(release <-chan struct{}) <-chan error {
	parked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- parallel.For(nil, 2, 2, func(int) error {
			parked <- struct{}{}
			<-release
			return nil
		})
	}()
	<-parked
	<-parked
	return done
}

// checkCapturingStderr runs Check(0) and returns its result together with
// what it wrote to os.Stderr.
func checkCapturingStderr(t *testing.T) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	got := Check(0)
	os.Stderr = stderr
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got, string(out)
}

func TestParkedGoroutineIsReported(t *testing.T) {
	release := make(chan struct{})
	done := parkWorkers(release)
	defer func() { close(release); <-done }()

	code, out := checkCapturingStderr(t)
	if code != 1 {
		t.Errorf("Check(0) = %d with parked workers, want 1", code)
	}
	if !strings.Contains(out, "still running non-test code") || !strings.Contains(out, "parallel.ForWorker") {
		t.Errorf("report does not carry the parked worker's stack:\n%s", out)
	}
}

func TestExitingGoroutineIsNotReported(t *testing.T) {
	release := make(chan struct{})
	done := parkWorkers(release)
	time.AfterFunc(50*time.Millisecond, func() { close(release) })

	code, out := checkCapturingStderr(t)
	if code != 0 || out != "" {
		t.Errorf("Check(0) = %d, stderr %q for workers that exit within the grace period", code, out)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
