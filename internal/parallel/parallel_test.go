package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(0); got != runtime.NumCPU() {
		t.Errorf("Normalize(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Normalize(-3); got != runtime.NumCPU() {
		t.Errorf("Normalize(-3) = %d", got)
	}
	if got := Normalize(7); got != 7 {
		t.Errorf("Normalize(7) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		counts := make([]int32, n)
		err := For(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForSerialOrder(t *testing.T) {
	var seen []int
	err := For(nil, 1, 5, func(i int) error {
		seen = append(seen, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial path out of order: %v", seen)
		}
	}
}

func TestForFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := For(context.Background(), 4, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("error did not cancel remaining work: ran %d of 1000", n)
	}
}

// TestForNoGoroutineLeak drives the error-cancel path with many workers
// failing at once; TestMain's leak check fails the run if any of them
// outlives For.
func TestForNoGoroutineLeak(t *testing.T) {
	err := For(context.Background(), 16, 64, func(i int) error {
		if i%5 == 0 {
			return errors.New("spurious")
		}
		return nil
	})
	if err == nil {
		t.Fatal("For returned nil although tasks failed")
	}
}

func TestForParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 4, 100, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Serial path honours the context too.
	err = For(ctx, 1, 100, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

func TestForZeroItems(t *testing.T) {
	if err := For(context.Background(), 4, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
