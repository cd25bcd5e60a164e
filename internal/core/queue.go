package core

import (
	"sync"
	"sync/atomic"

	"hybrid/internal/vclock"
)

// readyQueue abstracts the scheduler's task queue (Figure 14's arrows).
// The default sharedQueue is the paper's single ready_queue; stealingQueue
// implements the per-scheduler queues with work stealing that §4.4
// sketches as an improvement.
//
// When the runtime runs in the virtual timing domain, the ready queue is
// bound to the clock (bindClock) and becomes the clock's quiescer: it
// tracks which workers are parked in per-worker cache-line-padded flags,
// and virtual time advances only when every worker is parked and no
// thread is queued anywhere. Workers entering pop also stage behind the
// clock's dispatch gate, so a timestamp's event batch is fully fanned out
// before any worker consumes the threads it made runnable.
type readyQueue interface {
	// push appends a runnable thread. It reports whether the thread was
	// accepted: a closed queue rejects, and the caller must then account
	// for the thread itself (mark it done, release any deferred-completion
	// ticket) — silently dropping a TCB wedges WaitIdle and virtual-clock
	// quiescence.
	push(t *TCB) bool
	// pushLocal appends a runnable thread with affinity to the given
	// worker: a work-stealing queue puts it on that worker's own deque
	// (locality for batch-exhausted threads); the shared queue ignores
	// the hint. Same rejection contract as push.
	pushLocal(worker int, t *TCB) bool
	// pop removes a thread for the given worker, blocking until one is
	// available. stolen reports that the thread came from another
	// worker's deque. It returns ok=false once the queue is closed and
	// there is nothing further to do.
	pop(worker int) (t *TCB, stolen bool, ok bool)
	// close releases all blocked workers and returns the threads still
	// queued, so the caller can account for each discarded one.
	close() []*TCB
	// size reports the number of queued threads (diagnostics).
	size() int
	// bindClock makes the queue the virtual clock's quiescer for the
	// given number of workers. Must be called before any worker pops.
	bindClock(vc *vclock.VirtualClock, workers int)
}

// parkFlag is one worker's parked indicator, padded out to its own cache
// line so adjacent workers' flags do not false-share. The flags (and the
// nparked aggregate) are maintained under the queue lock: a worker is
// "parked" from the moment it finds the queue dry until it takes work or
// exits, including the window where it is driving the clock's dispatch
// loop — it holds no threads then, so it does not obstruct quiescence.
type parkFlag struct {
	parked bool
	_      [63]byte
}

// ---------------------------------------------------------------------------
// sharedQueue: one global FIFO ring, the paper's ready_queue (a Chan in
// the Haskell implementation).
// ---------------------------------------------------------------------------

type sharedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*TCB
	head   int
	count  int
	closed bool

	// Virtual-clock binding (nil for the blio pool and real-clock runs).
	vc      *vclock.VirtualClock
	workers int
	parked  []parkFlag
	nparked int
	exited  int // workers gone after close; they count as parked forever
}

func newSharedQueue() *sharedQueue {
	q := &sharedQueue{ring: make([]*TCB, 64)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *sharedQueue) bindClock(vc *vclock.VirtualClock, workers int) {
	q.vc = vc
	q.workers = workers
	q.parked = make([]parkFlag, workers)
	vc.RegisterQuiescer(q.idle)
}

// idle is the clock's quiescer: no queued threads and every worker parked
// (or exited). Any activity that could make new work runnable while all
// workers are parked must hold the clock (Enter before publishing), so
// once this reports true under the clock lock, it stays true until the
// clock dispatches.
func (q *sharedQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count == 0 && q.nparked+q.exited == q.workers
}

func (q *sharedQueue) push(t *TCB) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.grow()
	q.ring[(q.head+q.count)%len(q.ring)] = t
	q.count++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pushLocal ignores the affinity hint: there is only one queue.
func (q *sharedQueue) pushLocal(_ int, t *TCB) bool { return q.push(t) }

// grow doubles the ring when full. Called with q.mu held.
func (q *sharedQueue) grow() {
	if q.count < len(q.ring) {
		return
	}
	bigger := make([]*TCB, len(q.ring)*2)
	for i := 0; i < q.count; i++ {
		bigger[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring = bigger
	q.head = 0
}

func (q *sharedQueue) pop(worker int) (*TCB, bool, bool) {
	q.mu.Lock()
	if q.vc == nil {
		// Classic path: blio pool and real-clock runtimes.
		for q.count == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.count == 0 {
			q.mu.Unlock()
			return nil, false, false
		}
		t := q.take()
		q.mu.Unlock()
		return t, false, true
	}
	// Clock-bound path: the worker is one leg of the epoch barrier.
	for {
		if q.count == 0 && q.closed {
			q.exited++
			q.mu.Unlock()
			// Final advance: pending timers may still fire; their resumes
			// hit the closed queue and are discarded with full accounting.
			q.vc.Advance()
			return nil, false, false
		}
		if q.vc.GateClosed() {
			// A timestamp's event batch is mid-flight: stage until the
			// whole batch has fanned out.
			q.mu.Unlock()
			q.vc.Gate()
			q.mu.Lock()
			continue
		}
		if q.count > 0 {
			t := q.take()
			q.mu.Unlock()
			return t, false, true
		}
		// Dry: park and offer to drive the clock. While inside Advance the
		// worker stays counted as parked — it holds no work.
		q.parked[worker].parked = true
		q.nparked++
		q.mu.Unlock()
		q.vc.Advance()
		q.mu.Lock()
		if q.count > 0 || q.closed || q.vc.GateClosed() {
			q.parked[worker].parked = false
			q.nparked--
			continue
		}
		q.cond.Wait()
		q.parked[worker].parked = false
		q.nparked--
	}
}

// take removes the oldest thread. Called with q.mu held and count > 0.
func (q *sharedQueue) take() *TCB {
	t := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	return t
}

func (q *sharedQueue) close() []*TCB {
	q.mu.Lock()
	q.closed = true
	var drained []*TCB
	for q.count > 0 {
		drained = append(drained, q.take())
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return drained
}

func (q *sharedQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// ---------------------------------------------------------------------------
// stealingQueue: one deque per worker; a worker drains its own deque and
// steals from the others when it runs dry. Pushes from outside any worker
// are distributed round-robin; pushLocal targets the calling worker's own
// deque. A single lock guards all deques — adequate at this repository's
// scale and keeps the stealing logic obviously correct; the ablation
// benchmark compares queue disciplines, not lock implementations.
// ---------------------------------------------------------------------------

type stealingQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]*TCB
	rr     int
	total  int
	closed bool

	// Virtual-clock binding (nil on real-clock runs).
	vc      *vclock.VirtualClock
	parked  []parkFlag
	nparked int
	exited  int

	// slots[w] is worker w's one-thread buffer, the pushLocal fast path:
	// pushLocal(w) is called only from worker w's goroutine (batch
	// exhaustion), and pop(w) drains the slot first, so the common
	// re-enqueue→dispatch cycle never touches the lock. The pointer is
	// atomic because idle foreign workers and close() may still steal from
	// a slot when every deque is dry. closedMirror and slotCount shadow
	// closed/total so the lock-free paths can consult them.
	//
	// The slot fast path needs no dispatch-gate check: the gate closes
	// only when every worker is parked, and a worker with a loaded slot
	// was running an instant ago — the quiescer cannot have reported idle
	// (slotCount was nonzero and the worker unparked), so no batch starts
	// while any slot is in play.
	slots        []ownerSlot
	slotCount    atomic.Int64
	closedMirror atomic.Bool
}

// ownerSlot is one worker's buffer, padded out to its own cache line so
// adjacent workers' slots do not false-share. streak is owner-private.
type ownerSlot struct {
	t      atomic.Pointer[TCB]
	streak int // consecutive slot dispatches, for fairness
	_      [40]byte
}

func newStealingQueue(workers int) *stealingQueue {
	q := &stealingQueue{
		deques: make([][]*TCB, workers),
		slots:  make([]ownerSlot, workers),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *stealingQueue) bindClock(vc *vclock.VirtualClock, workers int) {
	q.vc = vc
	q.parked = make([]parkFlag, len(q.deques))
	vc.RegisterQuiescer(q.idle)
}

// idle is the clock's quiescer; see sharedQueue.idle.
func (q *stealingQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total == 0 && q.slotCount.Load() == 0 && q.nparked+q.exited == len(q.deques)
}

func (q *stealingQueue) push(t *TCB) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	i := q.rr % len(q.deques)
	q.rr++
	q.deques[i] = append(q.deques[i], t)
	q.total++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pushLocal hands a batch-exhausted thread back to the worker that was
// just running it. Fast path: the worker's own slot, an atomic CAS with
// no lock acquisition — the thread resumes on the core whose cache it
// just warmed. If a Shutdown races the closedMirror read, the thread
// lands in the slot anyway; close() and the owner's next pop both drain
// slots, so it is either discarded or executes once more and is then
// accounted normally — nothing leaks.
func (q *stealingQueue) pushLocal(worker int, t *TCB) bool {
	w := worker % len(q.deques)
	if !q.closedMirror.Load() && q.slots[w].t.CompareAndSwap(nil, t) {
		q.slotCount.Add(1)
		q.cond.Signal() // an idle foreign worker may steal from the slot
		return true
	}
	return q.pushLocalSlow(w, t)
}

// pushLocalSlow appends to the worker's deque under the lock: the slot was
// occupied or being flushed for fairness. Reports false when closed.
func (q *stealingQueue) pushLocalSlow(w int, t *TCB) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.deques[w] = append(q.deques[w], t)
	q.total++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

func (q *stealingQueue) pop(worker int) (*TCB, bool, bool) {
	w := worker % len(q.deques)
	s := &q.slots[w]
	// Owner slot first (lock-free). A thread could monopolize its worker
	// by exhausting every batch straight back into the slot, so only one
	// consecutive dispatch comes from it; the next one flushes the slot
	// into the shared deque and fetches FIFO, restoring round-robin at a
	// granularity of two batches.
	if t := s.t.Swap(nil); t != nil {
		q.slotCount.Add(-1)
		if s.streak == 0 {
			s.streak = 1
			return t, false, true
		}
		s.streak = 0
		if !q.pushLocalSlow(w, t) {
			// Closed: nobody will drain the deque, so run the thread this
			// one last time; its completion accounts for it.
			return t, false, true
		}
	} else {
		s.streak = 0
	}
	q.mu.Lock()
	for {
		if q.vc != nil && q.vc.GateClosed() {
			q.mu.Unlock()
			q.vc.Gate()
			q.mu.Lock()
			continue
		}
		if q.total == 0 && q.slotCount.Load() == 0 {
			if q.closed {
				if q.vc == nil {
					q.mu.Unlock()
					return nil, false, false
				}
				q.exited++
				q.mu.Unlock()
				q.vc.Advance()
				return nil, false, false
			}
			// Dry: park, and with a clock bound, offer to drive it.
			if q.vc != nil {
				q.parked[w].parked = true
				q.nparked++
				q.mu.Unlock()
				q.vc.Advance()
				q.mu.Lock()
				if q.total > 0 || q.slotCount.Load() != 0 || q.closed || q.vc.GateClosed() {
					q.parked[w].parked = false
					q.nparked--
					continue
				}
				q.cond.Wait()
				q.parked[w].parked = false
				q.nparked--
				continue
			}
			q.cond.Wait()
			continue
		}
		// Own deque first (FIFO for round-robin fairness within a worker)…
		if len(q.deques[w]) > 0 {
			t := q.popFrom(w)
			q.mu.Unlock()
			return t, false, true
		}
		// …then steal from the victim with the most queued work.
		victim, best := -1, 0
		for i, d := range q.deques {
			if len(d) > best {
				victim, best = i, len(d)
			}
		}
		if victim >= 0 {
			t := q.popFrom(victim)
			q.mu.Unlock()
			return t, true, true
		}
		if q.total > 0 {
			// total says there is work but every deque is empty: the
			// counter drifted. Resynchronize and re-check under the wait
			// loop instead of panicking inside popFrom(-1).
			q.total = 0
			for _, d := range q.deques {
				q.total += len(d)
			}
			continue
		}
		// Deques dry but a slot holds a thread: take our own (not a
		// steal), else raid another worker's.
		if t := s.t.Swap(nil); t != nil {
			q.slotCount.Add(-1)
			q.mu.Unlock()
			return t, false, true
		}
		for i := range q.slots {
			if i == w {
				continue
			}
			if t := q.slots[i].t.Swap(nil); t != nil {
				q.slotCount.Add(-1)
				q.mu.Unlock()
				return t, true, true
			}
		}
		// Raced with another popper for the slot contents; loop back to
		// the dry branch and wait.
	}
}

// popFrom removes the oldest thread from deque i. Called with q.mu held
// and the deque known non-empty.
func (q *stealingQueue) popFrom(i int) *TCB {
	d := q.deques[i]
	t := d[0]
	d[0] = nil
	q.deques[i] = d[1:]
	if len(q.deques[i]) == 0 {
		q.deques[i] = nil // let the backing array be collected
	}
	q.total--
	return t
}

func (q *stealingQueue) close() []*TCB {
	q.mu.Lock()
	q.closed = true
	q.closedMirror.Store(true)
	var drained []*TCB
	for i, d := range q.deques {
		drained = append(drained, d...)
		q.deques[i] = nil
	}
	for i := range q.slots {
		if t := q.slots[i].t.Swap(nil); t != nil {
			q.slotCount.Add(-1)
			drained = append(drained, t)
		}
	}
	q.total = 0
	q.mu.Unlock()
	q.cond.Broadcast()
	return drained
}

func (q *stealingQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total + int(q.slotCount.Load())
}
