package classify

import "sync"

// workerPool is a persistent pool of n goroutines executing barrier-style
// passes: run(fn) hands fn exactly one index in [0, n) per worker slot
// and returns when all n invocations have finished. The semi-stage
// fixpoint (LiveSemi) makes one pass per propagation round; reusing one
// pool across rounds, and across epochs on a live collector, avoids
// re-spawning n goroutines per pass.
type workerPool struct {
	n    int
	work chan poolTask
}

type poolTask struct {
	fn func(w int)
	w  int
	wg *sync.WaitGroup
}

// newWorkerPool starts n pool goroutines. Close must be called to release
// them.
func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{n: n, work: make(chan poolTask)}
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.work {
				t.fn(t.w)
				t.wg.Done()
			}
		}()
	}
	return p
}

// run executes fn(0..n-1) across the pool and returns when every
// invocation is done. Which goroutine runs which index is unspecified;
// every index runs exactly once per call.
func (p *workerPool) run(fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(p.n)
	for w := 0; w < p.n; w++ {
		p.work <- poolTask{fn: fn, w: w, wg: &wg}
	}
	wg.Wait()
}

// Close releases the pool goroutines. The pool must not be used
// afterwards.
func (p *workerPool) Close() { close(p.work) }
