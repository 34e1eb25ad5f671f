package core

import (
	"runtime"
	"sync"
)

// forEach runs fn(i) for every i in [0, n) and blocks until all calls
// return. It uses up to parallelism goroutines — 0 or negative means
// GOMAXPROCS, and never more than n (spawning more goroutines than items
// buys nothing). One worker runs inline with no goroutines, so the serial
// path stays allocation- and scheduler-free.
//
// fn must be safe for concurrent invocation on distinct indices; forEach
// itself adds no synchronization around fn's side effects beyond the
// happens-before edge of its own return, which is what lets callers write
// results into disjoint slots of a shared slice without locks.
func forEach(parallelism, n int, fn func(i int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
