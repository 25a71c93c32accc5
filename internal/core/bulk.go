package core

import (
	"runtime"
	"sync"
)

// minRectsPerWorker is the smallest per-worker share for which spawning a
// goroutine (plus its private counter shard) pays for itself.
const minRectsPerWorker = 16

// bulkWorkers decides the fan-out for a bulk load of n objects. It is a
// variable so tests can pin a multi-worker run regardless of host CPUs.
var bulkWorkers = func(n int) int {
	workers := runtime.GOMAXPROCS(0)
	// The kernel is CPU-bound: more workers than physical cores only adds
	// scheduling thrash and duplicated scratch in cache.
	if c := runtime.NumCPU(); c < workers {
		workers = c
	}
	if w := n / minRectsPerWorker; w < workers {
		workers = w
	}
	return workers
}

// shardBulk runs a bulk load of n objects split across GOMAXPROCS workers.
// Each worker folds its contiguous share of objects into a private counter
// shard via work(start, end, dst); shards are then merged into counters by
// addition. Sketches are linear projections of their input, so the sharded
// result is bit-identical to a sequential load - the same linearity that
// makes Merge exact.
//
// work must be safe to run concurrently against the shared plan and
// must take any per-worker scratch itself. The first worker writes
// straight into counters; small loads skip the fan-out entirely.
func shardBulk(n int, counters []int64, work func(start, end int, dst []int64)) {
	workers := bulkWorkers(n)
	if workers <= 1 {
		work(0, n, counters)
		return
	}
	chunk := (n + workers - 1) / workers
	shards := make([][]int64, 0, workers-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := min(start+chunk, n)
		if start >= end {
			break
		}
		dst := counters
		if w > 0 {
			dst = make([]int64, len(counters))
			shards = append(shards, dst)
		}
		wg.Add(1)
		go func(start, end int, dst []int64) {
			defer wg.Done()
			work(start, end, dst)
		}(start, end, dst)
	}
	wg.Wait()
	for _, sh := range shards {
		for i, v := range sh {
			counters[i] += v
		}
	}
}
