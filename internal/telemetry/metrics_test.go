package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("posts")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("posts") != c {
		t.Fatal("second lookup must return the same handle")
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	g.Max(3)
	if g.Value() != 5 {
		t.Fatal("Max must not lower the gauge")
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Fatal("Max must raise the gauge")
	}

	h := reg.Histogram("lat", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	snap := reg.Snapshot()
	hs := snap.Histograms["lat"]
	if hs.Count != 3 || hs.Sum != 5055 {
		t.Fatalf("hist count/sum = %d/%v", hs.Count, hs.Sum)
	}
	want := []int64{1, 1, 1}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", hs.Counts, want)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		reg := NewRegistry()
		reg.Counter("b").Add(2)
		reg.Counter("a").Add(1)
		reg.Gauge("z").Set(3)
		reg.Histogram("h", []float64{1}).Observe(0.5)
		return reg.Snapshot()
	}
	j1, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
}

func TestRegistryConcurrentRace(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Set(int64(i))
				reg.Histogram("h", DurationBuckets).Observe(float64(i))
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := reg.Snapshot().Histograms["h"].Count; got != 8*500 {
		t.Fatalf("hist count = %d, want %d", got, 8*500)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	g := reg.Gauge("y")
	g.Set(1)
	g.Max(2)
	h := reg.Histogram("z", DurationBuckets)
	h.Observe(1)
	s := reg.Snapshot()
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot not zero: %+v", s)
	}
	if NewPoolStats(reg, "p", 4) != nil {
		t.Fatal("NewPoolStats on nil registry must be nil")
	}
}

func TestPoolStats(t *testing.T) {
	reg := NewRegistry()
	ps := NewPoolStats(reg, "pool", 2)
	ps.TaskDone(0, 0, 3*time.Millisecond, 5)
	ps.TaskDone(1, 1, time.Millisecond, 4)
	ps.TaskDone(0, 2, time.Millisecond, 0)
	s := reg.Snapshot()
	if s.Counters["pool.tasks"] != 3 {
		t.Fatalf("tasks = %d", s.Counters["pool.tasks"])
	}
	if s.Counters["pool.busy_ns"] != 5e6 {
		t.Fatalf("busy = %d", s.Counters["pool.busy_ns"])
	}
	if s.Counters["pool.busy_ns.w0"] != 4e6 || s.Counters["pool.busy_ns.w1"] != 1e6 {
		t.Fatalf("per-worker busy = %v", s.Counters)
	}
	if s.Gauges["pool.queue_depth"] != 0 || s.Gauges["pool.workers"] != 2 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["pool.task_ns"].Count != 3 {
		t.Fatalf("task_ns count = %d", s.Histograms["pool.task_ns"].Count)
	}
	// Out-of-range worker must not panic.
	ps.TaskDone(99, 3, time.Millisecond, 0)
	var nilPS *PoolStats
	nilPS.TaskDone(0, 0, time.Millisecond, 0)
}

// Add adjusts the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}
