package work

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapSliceOrderedAtAnyProcs(t *testing.T) {
	for _, procs := range []int{1, 2, 8, 100} {
		got, err := MapSlice(context.Background(), 50, procs, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const procs = 3
	var inFlight, peak atomic.Int64
	err := Map(context.Background(), 40, procs, func(context.Context, int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("observed %d concurrent calls, cap is %d", p, procs)
	}
}

func TestMapFirstErrorPropagation(t *testing.T) {
	const procs = 4
	boom := errors.New("boom")
	// Items after 7 block until item 7's failure cancels the run (or a
	// generous timeout, so a regression fails instead of hanging). Each
	// surviving worker can then have picked up at most one such item.
	stuck, unstick := context.WithTimeout(context.Background(), 10*time.Second)
	defer unstick()
	var calls atomic.Int64
	err := Map(context.Background(), 1000, procs, func(ctx context.Context, i int) error {
		calls.Add(1)
		switch {
		case i == 7:
			return fmt.Errorf("item %d: %w", i, boom)
		case i > 7:
			select {
			case <-ctx.Done():
			case <-stuck.Done():
			}
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := calls.Load(); n > 8+procs-1 {
		t.Fatalf("%d calls after the item-7 failure, want at most %d", n, 8+procs-1)
	}
}

func TestMapGenuineErrorBeatsSiblingCancellation(t *testing.T) {
	boom := errors.New("boom")
	// Item 0 blocks until item 5 has failed, then reports the internal
	// cancellation; the genuine error must still win.
	failed := make(chan struct{})
	err := Map(context.Background(), 6, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-failed
			<-ctx.Done()
			return ctx.Err()
		}
		if i == 5 {
			close(failed)
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapHonoursContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	start := time.Now()
	err := Map(ctx, 10_000, 2, func(context.Context, int) error {
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestMapSerialPathChecksContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Map(ctx, 100, 1, func(context.Context, int) error {
		calls++
		if calls == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Fatalf("serial map ran %d items after cancel, want 3", calls)
	}
}

func TestMapEmptyAndNilContext(t *testing.T) {
	if err := Map(nil, 0, 4, func(context.Context, int) error { return nil }); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
	got, err := MapSlice(context.Background(), 0, 4, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty MapSlice = %v, %v", got, err)
	}
}

func TestProcs(t *testing.T) {
	if Procs(5) != 5 {
		t.Fatal("positive procs must pass through")
	}
	if Procs(0) < 1 || Procs(-3) < 1 {
		t.Fatal("non-positive procs must resolve to at least 1")
	}
}

func TestSplitSeedDeterministicAndSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		a := SplitSeed(42, i)
		if a != SplitSeed(42, i) {
			t.Fatal("SplitSeed not deterministic")
		}
		if a < 0 {
			t.Fatalf("SplitSeed(42,%d) = %d, want non-negative", i, a)
		}
		if seen[a] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[a] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different roots should give different seeds")
	}
}
