// Package hio (hybrid I/O) plugs the simulated kernel's asynchronous I/O
// interfaces into the monadic runtime, following §4.5 of the paper: the
// sys_epoll_wait and sys_aio_read system calls, and the library of
// blocking-style wrappers (sock_accept, sock_send, …, Figure 10) that hide
// the nonblocking retry loops from application threads.
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

// ---------------------------------------------------------------------------
// Nonblocking system calls lifted into the monad
// ---------------------------------------------------------------------------

// Read performs one nonblocking read; EAGAIN is returned as an error value
// (not thrown) because retry loops are the normal path.
func (io *IO) Read(fd kernel.FD, p []byte) core.M[ReadResult] {
	return core.NBIO(func() ReadResult {
		n, err := io.k.Read(fd, p)
		return ReadResult{N: n, Err: err}
	})
}

// ReadResult carries a nonblocking transfer count and error.
type ReadResult struct {
	N   int
	Err error
}

// CloseFD closes a descriptor.
func (io *IO) CloseFD(fd kernel.FD) core.M[core.Unit] {
	return core.Do(func() { _ = io.k.Close(fd) })
}

// ---------------------------------------------------------------------------
// Blocking-style wrappers (Figure 10)
// ---------------------------------------------------------------------------

// SockAccept accepts a connection on a listening descriptor, waiting for
// readiness when none is pending — the paper's Figure 10, verbatim logic:
// try the nonblocking accept; on EAGAIN wait for EPOLL_READ and retry.
func (io *IO) SockAccept(listenFD kernel.FD) core.M[kernel.FD] {
	var try func() core.M[kernel.FD]
	try = func() core.M[kernel.FD] {
		return core.Bind(
			core.NBIO(func() result[kernel.FD] {
				fd, err := io.k.Accept(listenFD)
				return result[kernel.FD]{val: fd, err: err}
			}),
			func(r result[kernel.FD]) core.M[kernel.FD] {
				if errors.Is(r.err, kernel.ErrAgain) {
					return core.Then(io.EpollWait(listenFD, kernel.EventRead), try())
				}
				// EINTR and ECONNABORTED retry immediately: the signal
				// landed before the accept, or the pending connection
				// died in the backlog — neither is the listener's end.
				if errors.Is(r.err, kernel.ErrIntr) || errors.Is(r.err, kernel.ErrConnAborted) {
					return try()
				}
				return throwResult(r)
			},
		)
	}
	return try()
}

// SockRead reads at least one byte into p, waiting for readiness as
// needed. It returns 0 at end of stream.
func (io *IO) SockRead(fd kernel.FD, p []byte) core.M[int] {
	var try func() core.M[int]
	try = func() core.M[int] {
		return core.Bind(io.Read(fd, p), func(r ReadResult) core.M[int] {
			if errors.Is(r.Err, kernel.ErrAgain) {
				return core.Then(io.EpollWait(fd, kernel.EventRead), try())
			}
			if errors.Is(r.Err, kernel.ErrIntr) {
				return try() // interrupted before the transfer; retry now
			}
			if r.Err != nil {
				return core.Throw[int](r.Err)
			}
			return core.Return(r.N)
		})
	}
	return try()
}

// SockReadFull reads exactly len(p) bytes unless the stream ends first;
// it returns the number read. It is a one-shot SockReadFullCell.
func (io *IO) SockReadFull(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.readFullCell(fd, nil, p)
}

// SockReadFullCell returns a computation that, each time its trace is
// forced, reads exactly len(*cell) bytes into *cell (fewer at end of
// stream) and delivers the total read. Flattened callers (the fig18 FIFO
// pump) build the M once and re-force its trace per message, so
// steady-state receives allocate no nodes: the retry loop lives in one
// state struct with an embedded NBIONode. The node sequence is one NBIO
// attempt per partial transfer and a park plus a retry attempt per
// EAGAIN.
func (io *IO) SockReadFullCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return io.readFullCell(fd, cell, nil)
}

// readFullCell applies the read state machine; a nil cell reads into p.
func (io *IO) readFullCell(fd kernel.FD, cell *[]byte, p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		s := &readFullCellState{io: io, fd: fd, cell: cell, one: p, k: k}
		if cell == nil {
			s.cell = &s.one
		}
		s.node.Effect = s.try
		return &s.node
	}
}

type readFullCellState struct {
	io   *IO
	fd   kernel.FD
	cell *[]byte
	one  []byte // a one-shot caller's buffer; cell points here
	k    func(int) core.Trace
	got  int
	node core.NBIONode
	park core.Trace // EpollWait(EventRead) resuming into node, built at first EAGAIN
}

func (s *readFullCellState) retry(kernel.Event) core.Trace { return &s.node }

func (s *readFullCellState) try() core.Trace {
	p := *s.cell
	n, err := s.io.k.Read(s.fd, p[s.got:])
	if err != nil {
		if errors.Is(err, kernel.ErrAgain) {
			if s.park == nil {
				s.park = s.io.EpollWait(s.fd, kernel.EventRead)(s.retry)
			}
			return s.park
		}
		if errors.Is(err, kernel.ErrIntr) {
			return &s.node // interrupted before the transfer; retry now
		}
		s.got = 0
		return &core.ThrowNode{Err: err}
	}
	s.got += n
	if n > 0 && s.got < len(p) {
		return &s.node
	}
	got := s.got
	s.got = 0 // reset: the trace re-enters per message
	return s.k(got)
}

// SockSend writes all of p, waiting for buffer space as needed (the
// paper's sock_send). It is a one-shot SockSendCell.
func (io *IO) SockSend(fd kernel.FD, p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return io.sendCell(fd, nil, p)
}

// SockSendCell returns a computation that, each time its trace is
// forced, writes all of the buffer *cell holds at that moment and
// delivers the total written. It is the hybrid I/O layer's one send
// retry loop: flattened callers (the httpd request machine) build the M
// once per connection and re-enter its trace once per response, so
// steady-state sends allocate no nodes. The node sequence is one NBIO
// attempt per partial transfer and a park plus a retry attempt per
// EAGAIN. *cell must be non-empty at entry and must not be mutated until
// the count is delivered.
func (io *IO) SockSendCell(fd kernel.FD, cell *[]byte) core.M[int] {
	return io.sendCell(fd, cell, nil)
}

// sendCell applies the send state machine; a nil cell sends p.
func (io *IO) sendCell(fd kernel.FD, cell *[]byte, p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		s := &sendCellState{io: io, fd: fd, cell: cell, one: p, k: k}
		if cell == nil {
			s.cell = &s.one
		}
		s.node.Effect = s.try
		return &s.node
	}
}

type sendCellState struct {
	io     *IO
	fd     kernel.FD
	cell   *[]byte
	one    []byte // a one-shot caller's buffer; cell points here
	k      func(int) core.Trace
	rest   []byte
	total  int
	active bool
	node   core.NBIONode
	park   core.Trace // EpollWait(EventWrite) resuming into node, built at first EAGAIN
}

func (s *sendCellState) retry(kernel.Event) core.Trace { return &s.node }

func (s *sendCellState) try() core.Trace {
	if !s.active {
		s.active = true
		s.rest = *s.cell
		s.total = len(s.rest)
	}
	n, err := s.io.k.Write(s.fd, s.rest)
	if err != nil {
		if errors.Is(err, kernel.ErrAgain) {
			if s.park == nil {
				s.park = s.io.EpollWait(s.fd, kernel.EventWrite)(s.retry)
			}
			return s.park
		}
		if errors.Is(err, kernel.ErrIntr) {
			return &s.node // interrupted before the transfer; retry now
		}
		s.active, s.rest = false, nil
		return &core.ThrowNode{Err: err}
	}
	s.rest = s.rest[n:]
	if len(s.rest) > 0 {
		return &s.node
	}
	total := s.total
	s.active, s.rest = false, nil // reset: the trace re-enters per response
	return s.k(total)
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
