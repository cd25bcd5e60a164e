// Package core implements the paper's primary contribution: application-level
// concurrency primitives built from a continuation-passing-style (CPS)
// concurrency monad whose side effect is a *trace* of system calls, plus an
// event-driven runtime that schedules threads by interpreting their traces.
//
// A monadic thread is written with the combinators in monad.go and the
// system calls in syscalls.go; the runtime in runtime.go plays the role of
// the paper's worker_main event loops. The duality at the heart of the
// paper is visible in the types: a thread is a value of type M[Unit], and
// BuildTrace converts it into a Trace — a data structure that an event loop
// can traverse, suspend, store in queues, and resume like any other event.
//
// Haskell's lazy evaluation is modelled explicitly: wherever the paper's
// trace contains an unevaluated sub-trace, ours contains a closure that
// produces the next node when called. "Forcing the node" is calling the
// closure; each call runs the thread up to its next system call.
package core

// Trace is the run-time representation of (the rest of) a thread's
// execution: a list of system calls, one node per call, terminated by
// RetNode. Each node type corresponds to one of the paper's SYS_*
// constructors. A Trace is the event abstraction of the hybrid model: the
// scheduler plays the active role by examining nodes, and examining a node
// runs the suspended thread up to its next system call.
type Trace interface{ traceNode() }

// Unit is the result type of computations run purely for effect, standing
// in for Haskell's (). Threads have type M[Unit].
type Unit struct{}

// RetNode ends a trace: the thread has terminated (the paper's SYS_RET).
type RetNode struct{}

// NBIONode requests a nonblocking effect (the paper's SYS_NBIO). The
// scheduler performs Effect on a worker event loop; the returned Trace is
// the thread's continuation. Effect must not block: a blocking effect
// stalls the entire event loop it runs on (use BlioNode for those).
type NBIONode struct{ Effect func() Trace }

// ForkNode spawns a new thread (the paper's SYS_FORK). Child is the trace
// of the new thread, Cont the continuation of the parent.
type ForkNode struct {
	Child Trace
	Cont  Trace
}

// YieldNode asks the scheduler to switch to another thread (the paper's
// SYS_YIELD). The current thread is placed at the back of the ready queue.
type YieldNode struct{ Cont Trace }

// ThrowNode raises an exception (the paper's SYS_THROW). The scheduler
// unwinds the thread's handler stack; if it is empty the thread dies and
// the runtime's Uncaught hook is invoked.
type ThrowNode struct{ Err error }

// CatchNode installs an exception handler (the paper's SYS_CATCH). The
// scheduler pushes Handler on the thread's handler stack and continues
// with Body. Body's success path ends in a PopCatchNode that removes the
// frame again.
type CatchNode struct {
	Body    Trace
	Handler func(error) Trace
}

// PopCatchNode removes the most recent handler frame and continues. The
// paper reuses SYS_RET for this purpose; we need a distinct node because
// our Catch threads a typed result value through the continuation.
type PopCatchNode struct{ Cont Trace }

// SuspendNode parks the thread until an external event resumes it. It is
// the generic scheduling hook from which all blocking system calls —
// sys_epoll_wait, sys_aio_read, sys_mutex, timers, TCP operations — are
// built. The scheduler calls Park with a resume function; whichever event
// loop or callback owns the event calls resume exactly once with the
// thread's continuation, which re-enqueues the thread. Calling resume more
// than once panics: it would duplicate the thread.
//
// Park may invoke resume synchronously (the "already ready" fast path).
type SuspendNode struct{ Park func(resume func(Trace)) }

// BlioNode requests a blocking effect (the paper's SYS_BLIO, §4.6). The
// scheduler hands Effect to the blocking-I/O thread pool so worker event
// loops are never stalled; the returned Trace is enqueued when it
// completes.
type BlioNode struct{ Effect func() Trace }

// CleanupNode pushes Fn onto the thread's cleanup stack: the runtime runs
// every still-registered cleanup, LIFO, when the thread dies abnormally —
// an uncaught exception, a trapped panic, or a discard at Shutdown. It is
// the resource-release half of Ensure; Finally cannot cover those paths
// because its cleanup is itself part of the trace, which abnormal death
// never resumes.
type CleanupNode struct {
	Fn   func()
	Cont Trace
}

// PopCleanupNode removes the most recent cleanup frame and, when Run is
// set, executes it. Ensure's success and exception paths both pop-and-run,
// so a cleanup fires exactly once whichever way the region exits.
type PopCleanupNode struct {
	Run  bool
	Cont Trace
}

func (*RetNode) traceNode()        {}
func (*NBIONode) traceNode()       {}
func (*ForkNode) traceNode()       {}
func (*YieldNode) traceNode()      {}
func (*ThrowNode) traceNode()      {}
func (*CatchNode) traceNode()      {}
func (*PopCatchNode) traceNode()   {}
func (*SuspendNode) traceNode()    {}
func (*BlioNode) traceNode()       {}
func (*CleanupNode) traceNode()    {}
func (*PopCleanupNode) traceNode() {}

// ret is the shared terminal node; threads never inspect it, so one value
// suffices and keeps per-thread allocation minimal.
var ret = &RetNode{}
