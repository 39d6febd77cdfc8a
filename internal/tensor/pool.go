package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Pool is a fixed-size pool of long-lived worker goroutines shared by the
// compute kernels (GEMM, the sparse ODQ executor, batch fan-out). One
// process-wide pool sized by runtime.NumCPU serves every kernel, so the
// parallelism of nested calls (a sparse conv whose predictor GEMM also
// fans out) is bounded by the machine, not multiplied by it.
//
// ParallelN is deadlock-free under nesting because the caller always
// participates in the work and waits only for tasks already claimed: if
// every pooled worker is busy, the calling goroutine drains its own task
// set inline.
type Pool struct {
	queue chan func()
	size  int
}

// NewPool builds a pool with the given number of workers (minimum 1).
// A pool of size 1 spawns no goroutines and runs everything inline.
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size}
	if size > 1 {
		p.queue = make(chan func(), 8*size)
		for i := 0; i < size; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for f := range p.queue {
		f()
	}
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the shared process-wide pool, sized by
// runtime.NumCPU and created on first use.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(runtime.NumCPU())
	})
	return defaultPool
}

// ParallelN runs fn(0) .. fn(n-1), blocking until all complete. Tasks are
// distributed dynamically (an atomic cursor), so uneven task costs
// balance across workers.
func (p *Pool) ParallelN(n int, fn func(i int)) {
	p.ParallelLimited(p.size, n, fn)
}

// ParallelLimited is ParallelN with concurrency capped at limit (<=0 or
// >size means the full pool). The calling goroutine always executes tasks
// itself; pooled workers only help, which keeps nested calls deadlock-free.
// The caller waits only for tasks some goroutine has claimed, never for a
// queued helper to start: when every worker is busy inside a nested call
// of its own (concurrent callers fanning out, each task fanning out
// again), the caller finishes the work alone and a helper that starts
// late finds nothing left and returns at once.
func (p *Pool) ParallelLimited(limit, n int, fn func(i int)) {
	if limit <= 0 || limit > p.size {
		limit = p.size
	}
	if telemetry.Enabled() {
		mPoolCalls.Inc()
		mPoolTasks.Add(int64(n))
		mPoolFanout.Observe(float64(n))
	}
	if n <= 1 || limit <= 1 || p.queue == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
			wg.Done()
		}
	}
	helpers := limit - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	for h := 0; h < helpers; h++ {
		select {
		case p.queue <- drain:
		default:
			// Queue saturated (deeply nested parallelism): the caller's
			// own drain below covers the work.
			mPoolSaturated.Inc()
		}
	}
	drain()
	wg.Wait()
}

// ---- Scratch buffer pools ----
//
// The quantized conv hot path needs three kinds of scratch: int32 im2col
// matrices, int64 accumulators and float32 im2col matrices. Pooling them
// takes steady-state inference to near-zero allocation. Buffers come back
// DIRTY: callers must fully overwrite (im2col and GemmInt do).

var (
	i32Pool = sync.Pool{}
	i64Pool = sync.Pool{}
	f32Pool = sync.Pool{}
	u64Pool = sync.Pool{}
	u8Pool  = sync.Pool{}
)

// GetInt32 returns a length-n int32 scratch buffer with arbitrary contents.
func GetInt32(n int) []int32 {
	if v := i32Pool.Get(); v != nil {
		s := *(v.(*[]int32))
		if cap(s) >= n {
			mScratchHits.Inc()
			return s[:n]
		}
	}
	mScratchMisses.Inc()
	return make([]int32, n)
}

// PutInt32 recycles a buffer obtained from GetInt32.
func PutInt32(s []int32) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	i32Pool.Put(&s)
}

// GetInt64 returns a length-n int64 scratch buffer with arbitrary contents.
func GetInt64(n int) []int64 {
	if v := i64Pool.Get(); v != nil {
		s := *(v.(*[]int64))
		if cap(s) >= n {
			mScratchHits.Inc()
			return s[:n]
		}
	}
	mScratchMisses.Inc()
	return make([]int64, n)
}

// PutInt64 recycles a buffer obtained from GetInt64.
func PutInt64(s []int64) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	i64Pool.Put(&s)
}

// GetFloat32 returns a length-n float32 scratch buffer with arbitrary
// contents.
func GetFloat32(n int) []float32 {
	if v := f32Pool.Get(); v != nil {
		s := *(v.(*[]float32))
		if cap(s) >= n {
			mScratchHits.Inc()
			return s[:n]
		}
	}
	mScratchMisses.Inc()
	return make([]float32, n)
}

// PutFloat32 recycles a buffer obtained from GetFloat32.
func PutFloat32(s []float32) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	f32Pool.Put(&s)
}

// GetUint64 returns a length-n uint64 scratch buffer with arbitrary
// contents (bitplane word storage; the bitplane packers overwrite every
// word they own).
func GetUint64(n int) []uint64 {
	if v := u64Pool.Get(); v != nil {
		s := *(v.(*[]uint64))
		if cap(s) >= n {
			mScratchHits.Inc()
			return s[:n]
		}
	}
	mScratchMisses.Inc()
	return make([]uint64, n)
}

// PutUint64 recycles a buffer obtained from GetUint64.
func PutUint64(s []uint64) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	u64Pool.Put(&s)
}

// GetUint8 returns a length-n uint8 scratch buffer with arbitrary
// contents (per-element activation codes before nibble packing).
func GetUint8(n int) []uint8 {
	if v := u8Pool.Get(); v != nil {
		s := *(v.(*[]uint8))
		if cap(s) >= n {
			mScratchHits.Inc()
			return s[:n]
		}
	}
	mScratchMisses.Inc()
	return make([]uint8, n)
}

// PutUint8 recycles a buffer obtained from GetUint8.
func PutUint8(s []uint8) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	u8Pool.Put(&s)
}
