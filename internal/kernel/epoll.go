package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/faults"
)

// This file implements the kernel's readiness-notification device, the
// stand-in for Linux epoll (§4.5). Registration is one-shot and
// level-triggered: if the descriptor already satisfies the mask, the event
// fires immediately; otherwise it fires on the state change that first
// satisfies it. One-shot registration matches how the paper uses epoll —
// each sys_epoll_wait registers the waiting thread's continuation and the
// event carries it back to the scheduler.

// ReadyEvent is one harvested readiness notification. Data is whatever
// the registrant attached — in the hybrid runtime, the parked thread's
// resume hook, "a reference to c, the child node that is the continuation
// of the application thread".
type ReadyEvent struct {
	FD     FD
	Events Event
	Data   any
}

// watch is a registered one-shot readiness subscription. A watch may be
// parked on more than one wait list (a socket watching both directions);
// claim arbitrates so it fires exactly once.
type watch struct {
	ep   *Epoll
	fd   FD
	mask Event
	data any
	dead atomic.Bool // claimed (fired) or cancelled
}

// claim marks the watch fired; it reports whether the caller won the
// right to deliver it.
func (w *watch) claim() bool { return w.dead.CompareAndSwap(false, true) }

// Epoll is an epoll instance: a queue of ready events harvested by an
// event loop (the paper's worker_epoll, Figure 16), or — in immediate
// mode — dispatched synchronously at the point of readiness.
type Epoll struct {
	k       *Kernel
	mu      sync.Mutex
	cond    *sync.Cond
	ready   []ReadyEvent
	waiting int // waiters blocked in cond.Wait, for targeted signaling
	closed  bool

	// immediate switches delivery from the harvested queue to a
	// synchronous callback: deliver invokes the watch's data (which must
	// be a func(Event)) inline instead of queueing a ReadyEvent for Wait.
	// Virtual-time runs use this so readiness resumes happen at a
	// deterministic point in the instruction stream — either inside the
	// thread action that caused the readiness or inside the clock's
	// (when, seq)-ordered dispatch batch — with no harvest goroutine's
	// host scheduling in between.
	immediate bool
}

// NewEpoll creates an epoll instance on the kernel.
func (k *Kernel) NewEpoll() *Epoll {
	ep := &Epoll{k: k}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// SetImmediate switches the instance to immediate (synchronous) delivery.
// Call before the first Register; watches registered afterwards must
// carry a func(Event) as their data.
func (ep *Epoll) SetImmediate() { ep.immediate = true }

// Register subscribes for a one-shot readiness event on fd. If fd is
// already ready for mask, the event is queued immediately. data rides
// along on the delivered ReadyEvent.
func (ep *Epoll) Register(fd FD, mask Event, data any) error {
	e, err := ep.k.lookup(fd)
	if err != nil {
		return err
	}
	w := &watch{ep: ep, fd: fd, mask: mask | EventHup, data: data}
	if ep.immediate {
		// Immediate mode never calls Wait: each registration is one
		// thread's epoll wait, delivered by callback instead of harvest.
		ep.k.counters.epollWaits.Add(1)
	}
	// The object checks current readiness under its own lock and either
	// fires the watch now or parks it on its wait list.
	e.addWatch(w)
	return nil
}

// maxEpollDelay bounds an injected readiness delay: long enough to
// reorder wakeups against I/O completions, short enough that workloads
// still make progress.
const maxEpollDelay = time.Millisecond

// fire queues the event and wakes a waiter. Called by kernel objects when
// a watch's mask becomes satisfied; the caller has already removed the
// watch from its wait list (one-shot).
func (w *watch) fire(ev Event) {
	ep := w.ep
	// An injected delay postpones delivery on the clock. No busy hold is
	// taken for the interim: the pending timer is what keeps virtual time
	// from idling past the wakeup, and the hold is taken in deliver as
	// usual (the timer callback runs with its own hold, so the transfer
	// is seamless).
	if d := ep.k.faults.Latency(faults.EpollDelay, maxEpollDelay); d > 0 {
		ep.k.clock.After(d, func() { ep.deliver(w, ev) })
		return
	}
	ep.deliver(w, ev)
}

// deliver hands the (possibly delayed) event over: synchronously in
// immediate mode, else queued with one waiter woken.
func (ep *Epoll) deliver(w *watch, ev Event) {
	if ep.immediate {
		ep.k.counters.wakeups.Add(1)
		if fn, ok := w.data.(func(Event)); ok {
			fn(ev)
		}
		return
	}
	// Every undelivered ready event holds the clock busy: in the virtual
	// domain time must not advance past a wakeup that has been earned but
	// not yet delivered to the scheduler.
	ep.k.clock.Enter()
	ep.mu.Lock()
	ep.ready = append(ep.ready, ReadyEvent{FD: w.fd, Events: ev, Data: w.data})
	ep.mu.Unlock()
	ep.cond.Signal()
	ep.k.counters.wakeups.Add(1)
}

// deliverAll queues a batch of coalesced events under one lock acquisition
// and wakes at most one waiter per event — a targeted Signal per pending
// event instead of a Broadcast, so no waiter wakes to find nothing.
func (ep *Epoll) deliverAll(evs []ReadyEvent) {
	for range evs {
		ep.k.clock.Enter()
	}
	ep.mu.Lock()
	ep.ready = append(ep.ready, evs...)
	sig := len(evs)
	if ep.waiting < sig {
		sig = ep.waiting
	}
	ep.mu.Unlock()
	for i := 0; i < sig; i++ {
		ep.cond.Signal()
	}
	ep.k.counters.wakeups.Add(uint64(len(evs)))
}

// DefaultWaitBatch bounds how many events one Wait returns, like the
// maxevents argument of epoll_wait. Leftovers stay queued and re-signal
// another waiter.
const DefaultWaitBatch = 512

// Wait blocks until at least one event is ready (or the instance is
// closed, in which case ok is false) and returns up to DefaultWaitBatch
// pending events.
//
// Each returned event carries a busy hold on the kernel's clock; the
// caller must call Done once per event after dispatching it.
func (ep *Epoll) Wait() (events []ReadyEvent, ok bool) {
	ep.mu.Lock()
	for len(ep.ready) == 0 && !ep.closed {
		ep.waiting++
		ep.cond.Wait()
		ep.waiting--
		if len(ep.ready) == 0 && !ep.closed {
			// Woke to an empty queue: the thundering-herd symptom the
			// targeted Signal exists to eliminate. Counted so tests can
			// pin its absence.
			ep.k.counters.spuriousWakeups.Add(1)
		}
	}
	if len(ep.ready) > DefaultWaitBatch {
		events = ep.ready[:DefaultWaitBatch:DefaultWaitBatch]
		ep.ready = ep.ready[DefaultWaitBatch:]
	} else {
		events = ep.ready
		ep.ready = nil
	}
	closed := ep.closed
	resignal := len(ep.ready) > 0 && ep.waiting > 0
	ep.mu.Unlock()
	if resignal {
		ep.cond.Signal()
	}
	ep.k.counters.epollWaits.Add(1)
	if len(events) > 0 {
		ep.k.readySet.Observe(int64(len(events)))
	}
	return events, !closed || len(events) > 0
}

// TryWait returns pending events without blocking.
func (ep *Epoll) TryWait() []ReadyEvent {
	ep.mu.Lock()
	events := ep.ready
	ep.ready = nil
	ep.mu.Unlock()
	return events
}

// Done releases the busy hold carried by one delivered event. Call it
// after the event's thread has been re-enqueued (or otherwise disposed of).
func (ep *Epoll) Done() { ep.k.clock.Exit() }

// Close wakes all waiters; subsequent Waits return ok=false once drained.
// Each blocked waiter gets exactly one targeted Signal — new arrivals see
// the closed flag before sleeping, so a Broadcast would only add
// thundering-herd wakeups.
func (ep *Epoll) Close() {
	ep.mu.Lock()
	ep.closed = true
	n := ep.waiting
	ep.mu.Unlock()
	for i := 0; i < n; i++ {
		ep.cond.Signal()
	}
}

// waitList is the per-object list of parked watches, embedded in every
// pollable kernel object. Methods must be called with the object's lock
// held; fire-outs are returned so the caller can invoke them after
// unlocking (watch.fire takes the epoll lock, and lock ordering is always
// object → epoll).
type waitList struct{ watches []*watch }

// add parks a watch.
func (wl *waitList) add(w *watch) { wl.watches = append(wl.watches, w) }

// collect removes and returns the watches whose mask intersects ev,
// claiming each so a copy parked on another list cannot also fire. Stale
// (already-claimed) watches encountered along the way are dropped.
func (wl *waitList) collect(ev Event) []*watch {
	if len(wl.watches) == 0 {
		return nil
	}
	var fired []*watch
	kept := wl.watches[:0]
	for _, w := range wl.watches {
		switch {
		case w.dead.Load():
			// stale: drop
		case ev != 0 && w.mask&ev != 0 && w.claim():
			fired = append(fired, w)
		default:
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(wl.watches); i++ {
		wl.watches[i] = nil
	}
	wl.watches = kept
	return fired
}

// fireAll dispatches ev to each collected watch. Call without holding the
// object lock. Contiguous runs of watches on the same epoll instance are
// delivered as one batch — one lock acquisition and one coalesced signal
// round instead of a lock+signal per watch — which is the edge-coalescing
// half of batched epoll dispatch. Injected latency draws happen per watch
// in list order, so fault plans replay identically to one-at-a-time fire.
func fireAll(watches []*watch, ev Event) {
	for i := 0; i < len(watches); {
		ep := watches[i].ep
		j := i + 1
		for j < len(watches) && watches[j].ep == ep {
			j++
		}
		ep.fireBatch(watches[i:j], ev)
		i = j
	}
}

// fireBatch delivers ev to a run of watches that share this epoll
// instance. Watches with an injected readiness delay peel off onto clock
// timers; the rest land in the ready queue in one deliverAll.
func (ep *Epoll) fireBatch(ws []*watch, ev Event) {
	if ep.immediate {
		// Synchronous dispatch in list order; each watch still takes its
		// latency draw (inside fire), so fault plans replay identically.
		// Delayed watches peel onto clock timers and fire in (when, seq)
		// order at their due timestamps.
		for _, w := range ws {
			w.fire(ev)
		}
		return
	}
	if len(ws) == 1 {
		ws[0].fire(ev)
		return
	}
	var now []ReadyEvent
	for _, w := range ws {
		if d := ep.k.faults.Latency(faults.EpollDelay, maxEpollDelay); d > 0 {
			w := w
			ep.k.clock.After(d, func() { ep.deliver(w, ev) })
			continue
		}
		now = append(now, ReadyEvent{FD: w.fd, Events: ev, Data: w.data})
	}
	if len(now) > 0 {
		ep.deliverAll(now)
	}
}
