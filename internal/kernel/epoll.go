package kernel

import (
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
//
// Delivery is a callback invoked at the point of readiness: inside the
// thread action or clock callback whose state change made the descriptor
// ready, or later from a clock timer when an injected delay applies. The
// paper instead queues events for a worker_epoll loop (Figure 16) that
// harvests them and writes the threads to the ready queue; here the
// registered callback is that write, so no harvesting goroutine, ready
// list, or wakeup signalling exists.

// watch is a registered one-shot readiness subscription. A watch may be
// parked on more than one wait list (a socket watching both directions);
// claim arbitrates so it fires exactly once.
type watch struct {
	k    *Kernel
	mask Event
	fn   func(Event)
	dead atomic.Bool // claimed (fired) or cancelled
}

// claim marks the watch fired; it reports whether the caller won the
// right to deliver it.
func (w *watch) claim() bool { return w.dead.CompareAndSwap(false, true) }

// Epoll is an epoll instance: the device through which threads wait for
// descriptor readiness.
type Epoll struct{ k *Kernel }

// NewEpoll creates an epoll instance on the kernel.
func (k *Kernel) NewEpoll() *Epoll { return &Epoll{k: k} }

// Register subscribes fn to a one-shot readiness event on fd: fn is
// called once with the events that fired when fd becomes ready for mask
// (EventHup is always included). If fd is already ready, fn runs before
// Register returns. fn must not block: it runs inside whatever made the
// descriptor ready. Each registration counts as one epoll wait.
func (ep *Epoll) Register(fd FD, mask Event, fn func(Event)) error {
	e, err := ep.k.lookup(fd)
	if err != nil {
		return err
	}
	ep.k.counters.epollWaits.Add(1)
	// The object checks current readiness under its own lock and either
	// fires the watch now or parks it on its wait list.
	e.addWatch(&watch{k: ep.k, mask: mask | EventHup, fn: fn})
	return nil
}

// maxEpollDelay bounds an injected readiness delay: long enough to
// reorder wakeups against I/O completions, short enough that workloads
// still make progress.
const maxEpollDelay = time.Millisecond

// fire delivers the event. Called by kernel objects when a watch's mask
// becomes satisfied; the caller has already claimed the watch and removed
// it from its wait list (one-shot).
func (w *watch) fire(ev Event) {
	// An injected delay postpones delivery on the clock. No busy hold is
	// taken for the interim: on a virtual clock the pending timer is what
	// keeps time from idling past the wakeup, and the timer callback runs
	// with its own hold, which the callback transfers onward as usual.
	if d := w.k.faults.Latency(faults.EpollDelay, maxEpollDelay); d > 0 {
		w.k.clock.After(d, func() { w.deliver(ev) })
		return
	}
	w.deliver(ev)
}

func (w *watch) deliver(ev Event) {
	w.k.counters.wakeups.Add(1)
	w.fn(ev)
}

// waitList is the per-object list of parked watches, embedded in every
// pollable kernel object. Methods must be called with the object's lock
// held; fire-outs are returned so the caller can invoke them after
// unlocking (a watch's callback may re-enter the kernel).
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

// fireAll delivers ev to each collected watch in list order. Call without
// holding the object lock. Each watch takes its own injected-latency draw,
// so fault plans replay identically; delayed watches fire from clock
// timers in (when, seq) order at their due timestamps.
func fireAll(watches []*watch, ev Event) {
	for _, w := range watches {
		w.fire(ev)
	}
}
