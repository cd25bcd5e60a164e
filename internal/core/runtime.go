package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// TCB is a thread control block: everything the runtime keeps per monadic
// thread. As in the paper (§5.1), the entire thread-local state is the
// trace (a chain of closures standing in for the lazy thunk) and the
// exception-handler stack; this is why the threads are so light.
type TCB struct {
	id         uint64
	trace      Trace
	handlers   []func(error) Trace
	cleanups   []func()        // Ensure frames, run LIFO on abnormal death
	blioEffect func() Trace    // set while the thread is queued for the blio pool
	blioTicket *vclock.Pending // virtual-clock completion ticket for the queued effect
}

// ID reports the thread's identifier, unique within its runtime.
func (t *TCB) ID() uint64 { return t.id }

// BlioInline disables the blocking-I/O pool when assigned to
// Options.BlioWorkers: blocking effects run inline on the worker event
// loop. Only safe when nothing actually blocks (deterministic tests,
// workloads with no sys_blio calls) — an inline blocking call stalls one
// of the scheduler's event loops.
const BlioInline = -1

// Options configures a Runtime.
type Options struct {
	// Workers is the number of worker_main event loops (§4.4). Each runs
	// on its own goroutine (the stand-in for the paper's OS threads), so
	// more than one exploits SMP. Default 1.
	Workers int
	// BatchSteps is how many trace nodes a worker interprets before
	// putting a thread back on the ready queue, the paper's "a thread is
	// executed for a large number of steps before switching to another
	// thread to improve locality" (§4.2). Default 128.
	BatchSteps int
	// BlioWorkers is the size of the blocking-I/O thread pool (§4.6).
	// Zero selects the default of 2; BlioInline (-1) disables the pool so
	// blocking effects run inline on the worker loop.
	BlioWorkers int
	// WorkStealing enables one ready deque per worker with stealing, the
	// load-balancing improvement the paper sketches at the end of §4.4.
	// Default off: one shared queue, as in the paper's implementation.
	WorkStealing bool
	// Clock is the timing domain the runtime participates in. Default a
	// fresh real (wall-clock) clock.
	Clock vclock.Clock
	// Uncaught is invoked when an exception propagates off the top of a
	// thread; the thread terminates either way. Default: collect the
	// error (see Runtime.UncaughtErrors).
	Uncaught func(threadID uint64, err error)
	// TrapPanics converts Go panics inside NBIO/Blio effects into monadic
	// exceptions of type *PanicError instead of crashing the worker.
	TrapPanics bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.BatchSteps <= 0 {
		o.BatchSteps = 128
	}
	if o.BlioWorkers < 0 {
		o.BlioWorkers = 0 // BlioInline (or any negative): no pool
	} else if o.BlioWorkers == 0 {
		o.BlioWorkers = 2
	}
	if o.Clock == nil {
		o.Clock = vclock.NewReal()
	}
	return o
}

// PanicError wraps a Go panic recovered from a thread's effect when
// Options.TrapPanics is set.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic in thread effect: %v", e.Value) }

// schedMetrics caches the scheduler's metric instruments so hot paths
// touch atomics directly instead of looking names up in the registry.
type schedMetrics struct {
	dispatches *stats.Counter   // TCBs handed to a worker (== Switches)
	steals     *stats.Counter   // dispatches that came from another worker's deque
	yields     *stats.Counter   // sys_yield reschedules
	parks      *stats.Counter   // threads parked by sys_suspend
	resumes    *stats.Counter   // parked threads made runnable again
	forks      *stats.Counter   // sys_fork children created
	completed  *stats.Counter   // threads that terminated
	uncaught   *stats.Counter   // exceptions that reached the top of a thread
	rejected   *stats.Counter   // enqueues refused by a closed queue (Spawn vs Shutdown)
	cleanups   *stats.Counter   // Ensure cleanups run on the abort path
	panicKills *stats.Counter   // panics that escaped a trace and killed only their thread
	batchFull  *stats.Counter   // dispatches that exhausted their step budget
	batchUsed  *stats.Histogram // trace nodes interpreted per dispatch
	readyDepth *stats.Histogram // ready-queue depth sampled every 16th dispatch
	blioSubmit *stats.Counter   // effects handed to the blocking-I/O pool
	blioInline *stats.Counter   // blio effects run inline (no pool)
	blioDepth  *stats.Histogram // blio queue depth sampled at submit

	workerDispatches []*stats.Counter // per worker_main loop
	workerSteals     []*stats.Counter
}

func newSchedMetrics(r *stats.Registry, workers int) *schedMetrics {
	m := &schedMetrics{
		dispatches: r.Counter("dispatches"),
		steals:     r.Counter("steals"),
		yields:     r.Counter("yields"),
		parks:      r.Counter("parks"),
		resumes:    r.Counter("resumes"),
		forks:      r.Counter("forks"),
		completed:  r.Counter("completed"),
		uncaught:   r.Counter("uncaught"),
		rejected:   r.Counter("enqueue_rejected"),
		cleanups:   r.Counter("abort_cleanups"),
		panicKills: r.Counter("panic_kills"),
		batchFull:  r.Counter("batch_full"),
		batchUsed:  r.Histogram("batch_used", stats.PowersOfTwo(1024)...),
		readyDepth: r.Histogram("ready_depth", stats.PowersOfTwo(1<<20)...),
		blioSubmit: r.Counter("blio_submits"),
		blioInline: r.Counter("blio_inline"),
		blioDepth:  r.Histogram("blio_depth", stats.PowersOfTwo(1<<16)...),
	}
	for i := 0; i < workers; i++ {
		m.workerDispatches = append(m.workerDispatches,
			r.Counter(fmt.Sprintf("worker%02d.dispatches", i)))
		m.workerSteals = append(m.workerSteals,
			r.Counter(fmt.Sprintf("worker%02d.steals", i)))
	}
	return m
}

// Runtime is the event-driven system of the paper's Figure 14: worker
// event loops draining a ready queue of traces, plus a blocking-I/O pool.
// Event sources (epoll, AIO, timers, TCP) are plugged in from outside via
// Suspend; the runtime itself is I/O-agnostic.
type Runtime struct {
	opts  Options
	clock vclock.Clock
	vc    *vclock.VirtualClock // non-nil when clock is virtual: tickets, quiescer binding

	ready readyQueue
	blio  *sharedQueue // unbounded queue feeding the blocking-I/O pool

	nextID  atomic.Uint64
	live    atomic.Int64
	spawned atomic.Uint64

	metrics *stats.Registry
	m       *schedMetrics

	idleMu      sync.Mutex
	idleCond    *sync.Cond
	idleWaiters atomic.Int64 // WaitLive waiters needing a broadcast per retirement

	uncaughtMu   sync.Mutex
	uncaught     []uncaughtRecord
	uncaughtSeen map[uint64]struct{}

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewRuntime starts a runtime: Options.Workers worker event loops and a
// blocking-I/O pool, all waiting for threads.
func NewRuntime(opts Options) *Runtime {
	opts = opts.withDefaults()
	rt := &Runtime{opts: opts, clock: opts.Clock, metrics: stats.NewRegistry()}
	rt.m = newSchedMetrics(rt.metrics, opts.Workers)
	rt.metrics.GaugeFunc("live", rt.Live)
	rt.metrics.CounterFunc("spawned", rt.spawned.Load)
	rt.idleCond = sync.NewCond(&rt.idleMu)
	rt.vc, _ = opts.Clock.(*vclock.VirtualClock)
	if opts.WorkStealing {
		rt.ready = newStealingQueue(opts.Workers)
	} else {
		rt.ready = newSharedQueue()
	}
	if rt.vc != nil {
		// The ready queue becomes the clock's quiescer: virtual time
		// advances only when every worker is parked with nothing queued.
		// The blio queue is deliberately unbound — pending blocking
		// effects pin the clock through their completion tickets instead.
		rt.ready.bindClock(rt.vc, opts.Workers)
	}
	for i := 0; i < opts.Workers; i++ {
		rt.wg.Add(1)
		go rt.workerMain(i)
	}
	if opts.BlioWorkers > 0 {
		rt.blio = newSharedQueue()
		for i := 0; i < opts.BlioWorkers; i++ {
			rt.wg.Add(1)
			go rt.workerBlio()
		}
	}
	return rt
}

// Clock reports the runtime's timing domain.
func (rt *Runtime) Clock() vclock.Clock { return rt.clock }

// Stats reports the scheduler's metrics registry: dispatch, steal, park,
// and batch counters plus queue-depth histograms. Snapshot it (or merge
// it with other subsystems' registries) to explain a benchmark curve.
func (rt *Runtime) Stats() *stats.Registry { return rt.metrics }

// Spawn creates a new monadic thread running m. It may be called from
// outside the runtime or from effects within it.
func (rt *Runtime) Spawn(m M[Unit]) {
	rt.spawnTrace(BuildTrace(m))
}

// tcbPool recycles thread control blocks through thread death and spawn,
// so the dominant spawn/exit churn of short-lived threads (one per
// request, per timer, per fork) stops allocating. A recycled TCB gets a
// fresh id; the pool holds only fully-dead blocks whose trace, handler,
// and cleanup state were cleared by threadDone.
var tcbPool = sync.Pool{New: func() any { return new(TCB) }}

// newTCB allocates or recycles a control block for a fresh thread.
func (rt *Runtime) newTCB(tr Trace) *TCB {
	tcb := tcbPool.Get().(*TCB)
	tcb.id = rt.nextID.Add(1)
	tcb.trace = tr
	return tcb
}

func (rt *Runtime) spawnTrace(tr Trace) {
	tcb := rt.newTCB(tr)
	rt.live.Add(1)
	rt.spawned.Add(1)
	// Spawn may come from outside any worker or event callback (main
	// goroutine, an NPTL thread): hold the clock across the publish so a
	// concurrently-quiescing system cannot advance or report idle while
	// the thread is in flight to the queue.
	rt.clock.Enter()
	rt.enqueue(tcb)
	rt.clock.Exit()
}

// enqueue makes a thread runnable. The clock is not touched: queued
// threads pin virtual time through the ready queue's quiescer (the clock
// cannot advance while anything is queued or any worker is unparked), so
// the per-enqueue Enter/Exit pair the old design paid on every dispatch
// is gone from the hot path. Callers pushing from outside the runtime's
// workers and event callbacks (external Spawn) must bracket the push with
// their own clock hold so quiescence cannot be declared mid-publish. If
// the queue rejects the thread (Shutdown racing a Spawn or a resume), the
// thread is accounted as done here — the rejection path must leave the
// clock and the live count exactly as a completed thread would.
func (rt *Runtime) enqueue(tcb *TCB) {
	if !rt.ready.push(tcb) {
		rt.discard(tcb)
	}
}

// enqueueLocal is enqueue with worker affinity, used when a worker
// re-queues the thread it was just executing (batch exhaustion): on a
// work-stealing queue the thread lands on that worker's own deque.
func (rt *Runtime) enqueueLocal(worker int, tcb *TCB) {
	if !rt.ready.pushLocal(worker, tcb) {
		rt.discard(tcb)
	}
}

// discard accounts for a thread rejected by a closed queue: any
// deferred-completion ticket it carried is cancelled (releasing its clock
// hold) and the thread counted as done, so WaitIdle and virtual-clock
// quiescence see the same state as if the thread had completed.
func (rt *Runtime) discard(tcb *TCB) {
	rt.m.rejected.Inc()
	tcb.blioEffect = nil
	if tk := tcb.blioTicket; tk != nil {
		tcb.blioTicket = nil
		tk.Cancel()
	}
	rt.threadDone(tcb)
}

// Live reports the number of threads that have been spawned and not yet
// terminated (including parked threads).
func (rt *Runtime) Live() int64 { return rt.live.Load() }

// Spawned reports the total number of threads ever spawned.
func (rt *Runtime) Spawned() uint64 { return rt.spawned.Load() }

// Switches reports how many times a worker dispatched a thread; the
// difference between two readings measures context-switch traffic.
func (rt *Runtime) Switches() uint64 { return rt.m.dispatches.Load() }

// QueueDepth reports the number of threads currently runnable but not
// being executed (diagnostics; the paper's event-loop queues made
// visible).
func (rt *Runtime) QueueDepth() int { return rt.ready.size() }

// uncaughtRecord ties an uncaught exception to the thread that raised
// it, so the collection can deduplicate and order deterministically.
type uncaughtRecord struct {
	thread uint64
	err    error
}

// UncaughtErrors returns the exceptions that reached the top of a thread,
// when no Options.Uncaught hook was installed. Each thread appears at
// most once, and the slice is ordered by thread id — spawn order — so
// concurrent workers reporting panics produce a deterministic result.
func (rt *Runtime) UncaughtErrors() []error {
	rt.uncaughtMu.Lock()
	recs := make([]uncaughtRecord, len(rt.uncaught))
	copy(recs, rt.uncaught)
	rt.uncaughtMu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].thread < recs[j].thread })
	out := make([]error, len(recs))
	for i, r := range recs {
		out[i] = r.err
	}
	return out
}

// WaitIdle blocks until no live threads remain. Parked threads count as
// live, so a system that deadlocks never becomes idle (use the virtual
// clock's OnIdle hook to detect that in tests).
func (rt *Runtime) WaitIdle() {
	rt.idleMu.Lock()
	for rt.live.Load() != 0 {
		rt.idleCond.Wait()
	}
	rt.idleMu.Unlock()
}

// WaitLive blocks until at most n live threads remain. A harness whose
// system keeps permanent threads (a server's accept loop) uses this to
// quiesce before reading metrics: a workload signalling completion from
// inside a thread's trace returns to the host before the worker has
// retired that thread, so counters like completed and live are still
// moving — under parallel workers the host would snapshot mid-retirement.
func (rt *Runtime) WaitLive(n int64) {
	rt.idleMu.Lock()
	rt.idleWaiters.Add(1)
	for rt.live.Load() > n {
		rt.idleCond.Wait()
	}
	rt.idleWaiters.Add(-1)
	rt.idleMu.Unlock()
}

// Run spawns m and waits until every thread in the runtime (m and
// anything it forked) has terminated.
func (rt *Runtime) Run(m M[Unit]) {
	rt.Spawn(m)
	rt.WaitIdle()
}

// Shutdown stops the worker loops. Threads still queued are discarded —
// with their completion tickets cancelled and the live count decremented,
// so a post-Shutdown WaitIdle cannot wedge on them — but call WaitIdle
// first for a clean drain. Parked threads whose resume never fires remain
// live. Shutdown is idempotent.
func (rt *Runtime) Shutdown() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	for _, tcb := range rt.ready.close() {
		rt.discard(tcb)
	}
	if rt.blio != nil {
		for _, tcb := range rt.blio.close() {
			rt.discard(tcb)
		}
	}
	rt.wg.Wait()
}

func (rt *Runtime) threadDone(tcb *TCB) {
	// Whatever killed the thread — RetNode, uncaught exception, trapped
	// panic, or a Shutdown discard — its still-registered Ensure cleanups
	// run now, LIFO, so descriptors and admission slots held by a dead
	// thread are always given back. A balanced thread reaches here with an
	// empty stack; the loop costs nothing then.
	for i := len(tcb.cleanups) - 1; i >= 0; i-- {
		fn := tcb.cleanups[i]
		tcb.cleanups[i] = nil
		rt.m.cleanups.Inc()
		func() {
			defer func() { recover() }() // a broken cleanup must not block the rest
			fn()
		}()
	}
	tcb.cleanups = nil
	rt.m.completed.Inc()
	if rt.live.Add(-1) == 0 || rt.idleWaiters.Load() != 0 {
		rt.idleMu.Lock()
		rt.idleCond.Broadcast()
		rt.idleMu.Unlock()
	}
	// The block is fully dead: no caller touches it after threadDone.
	// Clear every reference (a discarded thread can die mid-Catch with
	// handlers still pushed) and recycle it for the next spawn.
	tcb.trace = nil
	tcb.handlers = nil
	tcb.blioEffect = nil
	tcb.blioTicket = nil
	tcbPool.Put(tcb)
}

func (rt *Runtime) reportUncaught(tcb *TCB, err error) {
	rt.m.uncaught.Inc()
	if rt.opts.Uncaught != nil {
		rt.opts.Uncaught(tcb.id, err)
		return
	}
	rt.uncaughtMu.Lock()
	// A thread terminates when its exception reaches the top, so it can
	// report at most once; the guard keeps that invariant even if a buggy
	// event source resumes a dead thread into a second throw.
	if _, dup := rt.uncaughtSeen[tcb.id]; !dup {
		if rt.uncaughtSeen == nil {
			rt.uncaughtSeen = make(map[uint64]struct{})
		}
		rt.uncaughtSeen[tcb.id] = struct{}{}
		rt.uncaught = append(rt.uncaught, uncaughtRecord{thread: tcb.id, err: err})
	}
	rt.uncaughtMu.Unlock()
}

// workerMain is the scheduler event loop (the paper's Figure 11): fetch a
// trace from the ready queue, force nodes to execute the thread, perform
// the requested system calls, and put continuations back on queues.
func (rt *Runtime) workerMain(id int) {
	defer rt.wg.Done()
	for {
		tcb, stolen, ok := rt.ready.pop(id)
		if !ok {
			return
		}
		rt.m.workerDispatches[id].Inc()
		if stolen {
			rt.m.steals.Inc()
			rt.m.workerSteals[id].Inc()
		}
		if n := rt.m.dispatches.Inc(); n&0xF == 0 {
			// Sampled, not per-dispatch: size() takes the queue lock.
			rt.m.readyDepth.Observe(int64(rt.ready.size()))
		}
		rt.step(id, tcb)
	}
}

// step interprets up to BatchSteps nodes of tcb's trace and records how
// much of the budget the dispatch used. On return the thread has been
// re-enqueued, parked, or terminated. The clock is untouched: an
// executing worker is unparked, which by itself keeps virtual time from
// advancing.
//
// With TrapPanics set, step is also the runtime's last line of defense:
// runEffect traps panics inside NBIO/Blio effects, but a panic raised
// while building a trace — in a Catch handler, a continuation, or a
// Suspend registration — escapes interpret. Seed behaviour was to let it
// kill the worker goroutine (and with it the process); now the panic
// kills only the offending thread: its Ensure cleanups run, the panic is
// reported as an uncaught *PanicError, and the live count is released
// exactly as for a completed thread.
func (rt *Runtime) step(worker int, tcb *TCB) {
	if rt.opts.TrapPanics {
		defer func() {
			if v := recover(); v != nil {
				rt.m.panicKills.Inc()
				rt.reportUncaught(tcb, &PanicError{Value: v})
				rt.threadDone(tcb)
			}
		}()
	}
	used, retired := rt.interpret(worker, tcb)
	rt.m.batchUsed.Observe(int64(used))
	// Retirement happens after the dispatch's own accounting: threadDone
	// releases WaitIdle/WaitLive, and a waiter snapshotting metrics must
	// not observe the final dispatch half-recorded (counted in dispatches
	// but missing from batch_used).
	if retired {
		rt.threadDone(tcb)
	}
}

// interpret is the case analysis at the heart of the hybrid model: each
// arm is one system call. It returns the number of trace nodes executed,
// and whether the thread terminated (the caller runs threadDone after
// recording the dispatch, so retirement is the last observable effect).
func (rt *Runtime) interpret(worker int, tcb *TCB) (used int, retired bool) {
	tr := tcb.trace
	tcb.trace = nil
	for budget := rt.opts.BatchSteps; budget > 0; budget-- {
		used++
		switch n := tr.(type) {
		case *NBIONode:
			tr = rt.runEffect(n.Effect)

		case *ForkNode:
			child := rt.newTCB(n.Child)
			rt.live.Add(1)
			rt.spawned.Add(1)
			rt.m.forks.Inc()
			rt.enqueue(child)
			tr = n.Cont

		case *YieldNode:
			rt.m.yields.Inc()
			tcb.trace = n.Cont
			rt.enqueue(tcb)
			return used, false

		case *RetNode:
			return used, true

		case *ThrowNode:
			if len(tcb.handlers) == 0 {
				rt.reportUncaught(tcb, n.Err)
				return used, true
			}
			h := tcb.handlers[len(tcb.handlers)-1]
			tcb.handlers = tcb.handlers[:len(tcb.handlers)-1]
			tr = h(n.Err)

		case *CatchNode:
			tcb.handlers = append(tcb.handlers, n.Handler)
			tr = n.Body

		case *PopCatchNode:
			if len(tcb.handlers) == 0 {
				panic("core: PopCatchNode with empty handler stack")
			}
			tcb.handlers = tcb.handlers[:len(tcb.handlers)-1]
			tr = n.Cont

		case *CleanupNode:
			tcb.cleanups = append(tcb.cleanups, n.Fn)
			tr = n.Cont

		case *PopCleanupNode:
			if len(tcb.cleanups) == 0 {
				panic("core: PopCleanupNode with empty cleanup stack")
			}
			fn := tcb.cleanups[len(tcb.cleanups)-1]
			tcb.cleanups = tcb.cleanups[:len(tcb.cleanups)-1]
			if n.Run {
				fn()
			}
			tr = n.Cont

		case *SuspendNode:
			// Park the thread. The resume closure re-enqueues it; while we
			// are inside Park this worker is unparked, so virtual time
			// cannot slip even if resume runs synchronously. A resume
			// firing later runs inside an event callback (dispatch batch),
			// which equally pins the clock.
			rt.m.parks.Inc()
			id := tcb.id
			n.Park(func(next Trace) {
				if tcb.id != id {
					// Stale resume from a buggy event source: the thread
					// already died and its TCB was recycled for another.
					return
				}
				rt.m.resumes.Inc()
				tcb.trace = next
				rt.enqueue(tcb)
			})
			return used, false

		case *BlioNode:
			if rt.blio == nil {
				// No pool configured (BlioInline): run on the worker loop.
				rt.m.blioInline.Inc()
				tr = rt.runEffect(n.Effect)
				continue
			}
			tcb.blioEffect = n.Effect
			// In the virtual domain the queued effect carries a
			// deferred-completion ticket: a clock hold plus a reserved
			// event sequence number, so pool workers finishing in host
			// order still surface their resumes in submission order at the
			// next epoch barrier. A rejected push (Shutdown already closed
			// the pool) must not leak the ticket — discard cancels it.
			if rt.vc != nil {
				tcb.blioTicket = rt.vc.Defer()
			}
			rt.m.blioSubmit.Inc()
			rt.m.blioDepth.Observe(int64(rt.blio.size()))
			if !rt.blio.push(tcb) {
				rt.discard(tcb)
			}
			return used, false

		case nil:
			panic("core: nil trace node (thread resumed without a continuation?)")

		default:
			panic(fmt.Sprintf("core: unknown trace node %T", tr))
		}
	}
	// Batch exhausted: requeue behind other ready threads, on this
	// worker's own deque when stealing is enabled (cache locality — the
	// thread's working set is hot right here).
	rt.m.batchFull.Inc()
	tcb.trace = tr
	rt.enqueueLocal(worker, tcb)
	return used, false
}

// runEffect performs a nonblocking effect, optionally trapping panics into
// monadic exceptions.
func (rt *Runtime) runEffect(effect func() Trace) (tr Trace) {
	if !rt.opts.TrapPanics {
		return effect()
	}
	defer func() {
		if v := recover(); v != nil {
			tr = &ThrowNode{Err: &PanicError{Value: v}}
		}
	}()
	return effect()
}

// workerBlio is one thread of the blocking-I/O pool (§4.6): it repeatedly
// fetches blocking requests and performs them, so the main event loops
// never stall.
func (rt *Runtime) workerBlio() {
	defer rt.wg.Done()
	for {
		tcb, _, ok := rt.blio.pop(0)
		if !ok {
			return
		}
		effect := tcb.blioEffect
		tcb.blioEffect = nil
		tk := tcb.blioTicket
		tcb.blioTicket = nil
		tcb.trace = rt.runEffect(effect)
		if tk != nil {
			// Virtual domain: surface the completion through the ticket so
			// the resume fires at the next epoch barrier in submission
			// order, independent of which pool worker finished first.
			tk.Complete(func() { rt.enqueue(tcb) })
		} else {
			rt.enqueue(tcb)
		}
	}
}
