package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func mkTCBs(n int) []*TCB {
	out := make([]*TCB, n)
	for i := range out {
		out[i] = &TCB{id: uint64(i + 1)}
	}
	return out
}

func TestSharedQueueFIFO(t *testing.T) {
	q := newSharedQueue()
	tcbs := mkTCBs(5)
	for _, tcb := range tcbs {
		q.push(tcb)
	}
	for i := 0; i < 5; i++ {
		got, _, ok := q.pop(0)
		if !ok || got.id != uint64(i+1) {
			t.Fatalf("pop %d = %v, %v", i, got, ok)
		}
	}
	if q.size() != 0 {
		t.Fatalf("size = %d", q.size())
	}
}

func TestSharedQueueGrowsAcrossWrap(t *testing.T) {
	// Fill past the initial ring capacity with the head displaced, so
	// growth must relocate a wrapped ring correctly.
	q := newSharedQueue()
	tcbs := mkTCBs(200)
	for i := 0; i < 40; i++ {
		q.push(tcbs[i])
	}
	for i := 0; i < 30; i++ {
		got, _, _ := q.pop(0)
		if got.id != uint64(i+1) {
			t.Fatalf("warmup pop got %d", got.id)
		}
	}
	for i := 40; i < 200; i++ {
		q.push(tcbs[i])
	}
	for i := 30; i < 200; i++ {
		got, _, ok := q.pop(0)
		if !ok || got.id != uint64(i+1) {
			t.Fatalf("pop %d = id %d, ok %v", i, got.id, ok)
		}
	}
}

func TestSharedQueueCloseReleasesPoppers(t *testing.T) {
	q := newSharedQueue()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, ok := q.pop(0); ok {
				t.Error("pop returned ok after close with empty queue")
			}
		}()
	}
	q.close()
	wg.Wait()
	// Pushes after close are dropped.
	q.push(&TCB{id: 1})
	if q.size() != 0 {
		t.Fatal("push after close retained a thread")
	}
}

func TestStealingQueueDeliversEverything(t *testing.T) {
	q := newStealingQueue(3)
	const n = 300
	for _, tcb := range mkTCBs(n) {
		q.push(tcb)
	}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		got, _, ok := q.pop(i % 3)
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if seen[got.id] {
			t.Fatalf("duplicate delivery of %d", got.id)
		}
		seen[got.id] = true
	}
	if q.size() != 0 {
		t.Fatalf("size = %d", q.size())
	}
}

func TestStealingQueueStealsFromBusyVictim(t *testing.T) {
	q := newStealingQueue(2)
	// Round-robin placement: ids 1,3,5 land on deque 0; 2,4,6 on deque 1.
	for _, tcb := range mkTCBs(6) {
		q.push(tcb)
	}
	// Worker 0 drains its own deque first…
	for i := 0; i < 3; i++ {
		got, _, _ := q.pop(0)
		if got.id%2 != 1 {
			t.Fatalf("worker 0 popped foreign thread %d first", got.id)
		}
	}
	// …then steals the rest from worker 1's deque.
	for i := 0; i < 3; i++ {
		got, _, ok := q.pop(0)
		if !ok || got.id%2 != 0 {
			t.Fatalf("steal %d = id %d, ok %v", i, got.id, ok)
		}
	}
}

func TestStealingQueueClose(t *testing.T) {
	q := newStealingQueue(2)
	done := make(chan bool, 1)
	go func() {
		_, _, ok := q.pop(0)
		done <- ok
	}()
	q.close()
	if <-done {
		t.Fatal("pop returned ok after close")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 1 || o.BatchSteps != 128 || o.BlioWorkers != 2 || o.Clock == nil {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{BlioWorkers: -1}.withDefaults()
	if o2.BlioWorkers != 0 {
		t.Fatalf("negative BlioWorkers should disable the pool, got %d", o2.BlioWorkers)
	}
}

func TestQueueDepthVisible(t *testing.T) {
	rt := NewRuntime(Options{Workers: 1, BatchSteps: 1})
	defer rt.Shutdown()
	gate := NewMVar[Unit]()
	// One thread holds the single worker hostage; others pile up.
	rt.Spawn(Bind(gate.Take(), func(Unit) M[Unit] { return Skip }))
	waitFor(t, func() bool { return rt.Live() == 1 })
	for i := 0; i < 5; i++ {
		rt.Spawn(Bind(gate.Take(), func(Unit) M[Unit] { return Skip }))
	}
	waitFor(t, func() bool { return rt.QueueDepth() == 0 }) // all parked
	for i := 0; i < 6; i++ {
		rt.Spawn(gate.Put(Unit{}))
	}
	rt.WaitIdle()
}

// ---------------------------------------------------------------------------
// Parallel stress (run with -race; `make stress` picks these up by name)
// ---------------------------------------------------------------------------

// Eight workers pop and re-push locally while producers push from
// outside: every path into the stealing queue — push, pushLocal (owner
// slot and slow path), pop, steal — runs concurrently. The invariant is conservation: every produced thread is
// eventually consumed exactly once (re-pushed threads once more).
func TestStealingQueueParallelStress(t *testing.T) {
	const (
		workers     = 8
		producers   = 5
		perProducer = 500
	)
	total := producers * perProducer
	q := newStealingQueue(workers)

	repushed := make([]atomic.Bool, total+1)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tcb, _, ok := q.pop(w)
				if !ok {
					return
				}
				// A third of the threads go around once more via the
				// owner-local path (the batch-exhausted hand-back).
				if tcb.id%3 == 0 && repushed[tcb.id].CompareAndSwap(false, true) {
					if q.pushLocal(w, tcb) {
						continue
					}
				}
				consumed.Add(1)
			}
		}()
	}

	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		prod.Add(1)
		go func() {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				q.push(&TCB{id: uint64(p*perProducer + i + 1)})
			}
		}()
	}
	prod.Wait()
	waitFor(t, func() bool { return consumed.Load() == int64(total) })
	q.close()
	wg.Wait()
	if got := consumed.Load(); got != int64(total) {
		t.Fatalf("consumed %d threads, want %d", got, total)
	}
}

// The shared queue under the same parallel load: eight poppers, one
// producer, every thread consumed exactly once.
func TestSharedQueueParallelStress(t *testing.T) {
	const (
		workers = 8
		total   = 3200
	)
	q := newSharedQueue()
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, _, ok := q.pop(0)
				if !ok {
					return
				}
				consumed.Add(1)
			}
		}()
	}
	for _, tcb := range mkTCBs(total) {
		if !q.push(tcb) {
			t.Fatal("push rejected while open")
		}
	}
	waitFor(t, func() bool { return consumed.Load() == int64(total) })
	q.close()
	wg.Wait()
}
