// Package hio (hybrid I/O) plugs the simulated kernel's asynchronous I/O
// interfaces into the monadic runtime, following §4.5 of the paper: the
// sys_epoll_wait and sys_aio_read system calls, and the library of
// blocking-style wrappers (sock_accept, sock_send, …, Figure 10) that hide
// the nonblocking retry loops from application threads.
//
// Those wrappers share one retry machine, opState: read-some, read-full,
// send and accept are its modes, and it alone decides what EAGAIN, EINTR
// and other errors do. Each wrapper is a one-shot application of it; the
// *Cell entries return a computation whose trace a flattened caller
// re-forces per message without allocating.
//
// The paper's worker_epoll loop (Figure 16) harvests readiness events and
// writes each parked thread to the scheduler's ready queue. Here the epoll
// device calls the parked thread's resume at the point of readiness, so
// the thread reaches the ready queue directly and no event-loop goroutine
// exists, on virtual and real clocks alike.
package hio

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// IO binds a monadic runtime to a kernel instance. One IO owns one epoll
// device; a program may create several to partition event sources, as the
// paper's Figure 14 shows multiple event loops around the scheduler.
type IO struct {
	rt *core.Runtime
	k  *kernel.Kernel
	fs *kernel.FS
	ep *kernel.Epoll
}

// New creates an IO layer with its own epoll device on k. fs may be nil
// if no file I/O is used.
func New(rt *core.Runtime, k *kernel.Kernel, fs *kernel.FS) *IO {
	return &IO{rt: rt, k: k, fs: fs, ep: k.NewEpoll()}
}

// Close does nothing: the IO layer holds no goroutine or queue of its own.
// It is kept for callers that close what they create. Threads still parked
// in EpollWait stay parked until their descriptor becomes ready.
func (io *IO) Close() {}

// Kernel reports the bound kernel.
func (io *IO) Kernel() *kernel.Kernel { return io.k }

// FS reports the bound filesystem (nil if none).
func (io *IO) FS() *kernel.FS { return io.fs }

// Runtime reports the bound runtime.
func (io *IO) Runtime() *core.Runtime { return io.rt }

// Clock reports the kernel's timing domain.
func (io *IO) Clock() vclock.Clock { return io.k.Clock() }

// result pairs a value with an error for transport through Suspend, which
// carries a single type.
type result[A any] struct {
	val A
	err error
}

// throwResult raises the carried error as a monadic exception, or yields
// the value.
func throwResult[A any](r result[A]) core.M[A] {
	if r.err != nil {
		return core.Throw[A](r.err)
	}
	return core.Return(r.val)
}

// EpollWait blocks the thread until fd is ready for one of the events in
// mask, returning the events that fired (the paper's sys_epoll_wait). The
// epoll device resumes the thread at readiness, so it lands on the ready
// queue in the order readiness arose (or, for delayed events, in the
// clock's (when, seq) order).
func (io *IO) EpollWait(fd kernel.FD, mask kernel.Event) core.M[kernel.Event] {
	return core.Bind(
		core.Suspend(func(resume func(result[kernel.Event])) {
			err := io.ep.Register(fd, mask, func(ev kernel.Event) {
				resume(result[kernel.Event]{val: ev})
			})
			if err != nil {
				resume(result[kernel.Event]{err: err})
			}
		}),
		throwResult,
	)
}

// CloseFD closes a descriptor.
func (io *IO) CloseFD(fd kernel.FD) core.M[core.Unit] {
	return core.Do(func() { _ = io.k.Close(fd) })
}

// ---------------------------------------------------------------------------
// Blocking-style wrappers (Figure 10)
// ---------------------------------------------------------------------------

// SockAccept accepts a connection on a listening descriptor, waiting for
// readiness when none is pending (the paper's sock_accept).
func (io *IO) SockAccept(listenFD kernel.FD) core.M[kernel.FD] {
	accept := io.op(opAccept, listenFD, nil, nil)
	return core.Map(accept, func(fd int) kernel.FD { return kernel.FD(fd) })
}

// SockRead reads at least one byte into p, waiting for readiness as
// needed. It returns 0 at end of stream. It is a one-shot SockReadCell.
func (io *IO) SockRead(fd kernel.FD, p []byte) core.M[int] {
	return io.op(opRead, fd, nil, p)
}

// SockReadCell returns a computation that, each time its trace is
// forced, reads at least one byte into the buffer *cell holds at that
// moment (0 at end of stream) and delivers the count. Flattened callers
// (the loadgen request pump) build the M once and re-force its trace per
// read, pointing *cell at the buffer to fill before each entry.
func (io *IO) SockReadCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return io.op(opRead, fd, cell, nil)
}

// SockReadFull reads exactly len(p) bytes unless the stream ends first;
// it returns the number read. It is a one-shot SockReadFullCell.
func (io *IO) SockReadFull(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.op(opReadFull, fd, nil, p)
}

// SockReadFullCell returns a computation that, each time its trace is
// forced, reads exactly len(*cell) bytes into *cell (fewer at end of
// stream) and delivers the total read. Flattened callers (the fig18 FIFO
// pump) build the M once and re-force its trace per message.
func (io *IO) SockReadFullCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return io.op(opReadFull, fd, cell, nil)
}

// SockSend writes all of p, waiting for buffer space as needed (the
// paper's sock_send). It is a one-shot SockSendCell.
func (io *IO) SockSend(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.op(opSend, fd, nil, p)
}

// SockSendCell returns a computation that, each time its trace is
// forced, writes all of the buffer *cell holds at that moment and
// delivers the total written. Flattened callers (the httpd request
// machine, the loadgen request pump) build the M once per connection and
// re-enter its trace once per message. *cell must be non-empty at entry
// and must not be mutated until the count is delivered.
func (io *IO) SockSendCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return io.op(opSend, fd, cell, nil)
}

// opMode selects what one attempt of the retry machine does.
type opMode uint8

const (
	opRead     opMode = iota // one read into *cell; delivers the count, 0 at end of stream
	opReadFull               // reads until *cell is full or the stream ends
	opSend                   // writes all of *cell
	opAccept                 // accepts on a listener; delivers the new descriptor
)

// op applies the retry machine in the given mode; a nil cell transfers p.
func (io *IO) op(mode opMode, fd kernel.FD, cell *[]byte, p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		s := &opState{io: io, fd: fd, mode: mode, cell: cell, one: p, k: k}
		if cell == nil {
			s.cell = &s.one
		}
		s.node.Effect = s.try
		return &s.node
	}
}

// opState is the hybrid I/O layer's one retry machine: Figure 10's rule
// as a state struct. Each forcing of its node makes one nonblocking
// attempt. EAGAIN parks on the descriptor's epoll event and retries at
// readiness; EINTR (and, for accept, ECONNABORTED: the pending connection
// died in the backlog) retries at once; any other error is thrown. A
// partial read-full or send continues at once, and a completed attempt
// calls the continuation inside the same node. The node sequence is thus
// one NBIO per attempt plus a Suspend per EAGAIN. The park trace is built
// at the first EAGAIN and kept, and the state resets on completion, so a
// caller that applies the machine once and re-forces its trace per
// message allocates nothing in steady state.
type opState struct {
	io     *IO
	fd     kernel.FD
	mode   opMode
	active bool // rest holds this entry's untransferred bytes
	cell   *[]byte
	one    []byte // a one-shot caller's buffer; cell points here
	rest   []byte // the untransferred suffix of *cell
	k      func(int) core.Trace
	node   core.NBIONode
	park   core.Trace // EpollWait resuming into node, built at first EAGAIN
}

func (s *opState) retry(kernel.Event) core.Trace { return &s.node }

func (s *opState) try() core.Trace {
	if !s.active {
		s.active, s.rest = true, *s.cell
	}
	var n int
	var err error
	switch s.mode {
	case opSend:
		n, err = s.io.k.Write(s.fd, s.rest)
	case opAccept:
		var fd kernel.FD
		fd, err = s.io.k.Accept(s.fd)
		n = int(fd)
	default:
		n, err = s.io.k.Read(s.fd, s.rest)
	}
	if err != nil {
		if errors.Is(err, kernel.ErrAgain) {
			if s.park == nil {
				ev := kernel.EventRead
				if s.mode == opSend {
					ev = kernel.EventWrite
				}
				s.park = s.io.EpollWait(s.fd, ev)(s.retry)
			}
			return s.park
		}
		if errors.Is(err, kernel.ErrIntr) || s.mode == opAccept && errors.Is(err, kernel.ErrConnAborted) {
			return &s.node // interrupted before the transfer; retry now
		}
		s.active, s.rest = false, nil
		return &core.ThrowNode{Err: err}
	}
	switch s.mode {
	case opReadFull:
		s.rest = s.rest[n:]
		if n > 0 && len(s.rest) > 0 {
			return &s.node
		}
		n = len(*s.cell) - len(s.rest) // short at end of stream
	case opSend:
		s.rest = s.rest[n:]
		if len(s.rest) > 0 {
			return &s.node
		}
		n = len(*s.cell)
	}
	s.active, s.rest = false, nil // reset: the trace re-enters per message
	return s.k(n)
}

// SockConnect opens a connection to a listener address.
func (io *IO) SockConnect(addr string) core.M[kernel.FD] {
	return core.NBIOe(func() (kernel.FD, error) { return io.k.Connect(addr) })
}

// Listen binds a listening socket.
func (io *IO) Listen(addr string, backlog int) core.M[kernel.FD] {
	return core.NBIOe(func() (kernel.FD, error) { return io.k.Listen(addr, backlog) })
}

// ---------------------------------------------------------------------------
// AIO (§4.5)
// ---------------------------------------------------------------------------

// AIORead submits an asynchronous disk read and parks the thread until it
// completes, returning the byte count (the paper's sys_aio_read).
// Completions are delivered straight to the scheduler's ready queue; the
// paper harvests them with a separate worker loop, but the observable
// behaviour — the thread resumes when the disk finishes — is identical.
func (io *IO) AIORead(f *kernel.File, off int64, p []byte) core.M[int] {
	return core.Bind(
		core.Suspend(func(resume func(result[int])) {
			io.fs.AIORead(f, off, p, func(n int, err error) {
				resume(result[int]{val: n, err: err})
			})
		}),
		throwResult,
	)
}

// AIOWrite submits an asynchronous disk write and parks the thread until
// it completes.
func (io *IO) AIOWrite(f *kernel.File, off int64, p []byte) core.M[int] {
	return core.Bind(
		core.Suspend(func(resume func(result[int])) {
			io.fs.AIOWrite(f, off, p, func(n int, err error) {
				resume(result[int]{val: n, err: err})
			})
		}),
		throwResult,
	)
}

// FileOpen resolves a file by name. Metadata operations are synchronous
// blocking interfaces in the OS (§4.6), so this goes through the
// blocking-I/O pool like the paper's sys_blio.
func (io *IO) FileOpen(name string) core.M[*kernel.File] {
	return core.Blioe(func() (*kernel.File, error) { return io.fs.Open(name) })
}

// Sleep suspends the thread for d in the kernel's timing domain.
func (io *IO) Sleep(d vclock.Duration) core.M[core.Unit] {
	return core.Sleep(io.k.Clock(), d)
}
