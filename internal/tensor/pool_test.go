package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolNestedConcurrentCallers drives nested fan-outs from more
// concurrent callers than the pool has workers, so every worker can be
// inside a task that fans out again while its own helper is still queued.
// Each call must still run every task exactly once and return.
func TestPoolNestedConcurrentCallers(t *testing.T) {
	p := NewPool(2)
	const callers, iters, outer, inner = 8, 200, 2, 4
	var ran atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p.ParallelN(outer, func(int) {
					p.ParallelN(inner, func(int) { ran.Add(1) })
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("nested ParallelN calls from concurrent callers did not return")
	}
	if want := int64(callers * iters * outer * inner); ran.Load() != want {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), want)
	}
}
