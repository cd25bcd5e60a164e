package tcp

import (
	"errors"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
)

// This file is the user interface of the TCP stack for monadic threads —
// the paper's sys_tcp system call dressed as "the same high-level
// programming interfaces as standard socket operations" (§4.8), plus
// blocking variants for ordinary goroutines (used by tests and the
// baseline servers).
//
// Every blocking operation follows the Figure 10 pattern: try the
// nonblocking form; on ErrWouldBlock, park on the ready hook and retry.
// On the monadic side one retry machine, opState, holds that rule: read,
// read-full, the copying and by-reference writes, and accept are its
// modes, and ReadM, ReadFullM, WriteM, WriteVM, WriteCellVM and AcceptM
// apply it. The goroutine variants below keep plain loops.

// await adapts a one-shot ready hook to the scheduler's Suspend.
func await(register func(cb func())) core.M[core.Unit] {
	return core.Suspend(func(resume func(core.Unit)) {
		register(func() { resume(core.Unit{}) })
	})
}

// AcceptM accepts a connection, parking the thread until one is pending.
func (l *Listener) AcceptM() core.M[*Conn] {
	return func(k func(*Conn) core.Trace) core.Trace {
		s := &opState{l: l, mode: opAccept}
		s.k = func(int) core.Trace { return k(s.accepted) }
		return s.start()
	}
}

// ConnectM opens a connection to addr:port and parks the thread until the
// handshake completes (or fails, raising the error as an exception).
func (s *Stack) ConnectM(addr string, port uint16) core.M[*Conn] {
	return core.Bind(
		core.NBIOe(func() (*Conn, error) { return s.Connect(addr, port) }),
		func(c *Conn) core.M[*Conn] {
			return core.Then(
				await(c.OnEstablished),
				core.NBIOe(func() (*Conn, error) {
					if err := c.Err(); err != nil {
						return nil, err
					}
					return c, nil
				}),
			)
		},
	)
}

// ReadM reads at least one byte into p, parking the thread while no data
// is available. It returns 0 at end of stream.
func (c *Conn) ReadM(p []byte) core.M[int] {
	return c.op(opRead, nil, p, iovec.Vec{})
}

// ReadFullM reads exactly len(p) bytes unless the stream ends first,
// returning the count read.
func (c *Conn) ReadFullM(p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return c.op(opReadFull, nil, p, iovec.Vec{})
}

// WriteM writes all of p, parking the thread while the send buffer is
// full, and returns len(p). The stack copies what it accepts, so the
// caller may reuse p as soon as the count is delivered.
func (c *Conn) WriteM(p []byte) core.M[int] {
	if len(p) == 0 {
		return core.Return(0)
	}
	return c.op(opWriteCopy, nil, p, iovec.Vec{})
}

// CloseM closes the send direction from a monadic thread.
func (c *Conn) CloseM() core.M[core.Unit] {
	return core.Do(c.Close)
}

// WriteVM writes an I/O vector from a monadic thread without copying,
// parking while the send buffer is full. The vector's storage transfers
// to the stack and must not be mutated afterwards.
func (c *Conn) WriteVM(v iovec.Vec) core.M[core.Unit] {
	if v.Empty() {
		return core.Skip
	}
	return core.Then(c.op(opWrite, nil, nil, v), core.Skip)
}

// WriteCellVM returns a computation that, each time its trace is forced,
// queues all of the buffer *cell holds at that moment by reference and
// delivers the total queued. Flattened callers (the httpd request
// machine) build the M once per connection and re-enter its trace once
// per response, so steady-state sends allocate no nodes. *cell must be
// non-empty at entry, and its storage transfers to the stack (never
// mutate it afterwards).
func (c *Conn) WriteCellVM(cell *[]byte) core.M[int] {
	return c.op(opWrite, cell, nil, iovec.Vec{})
}

// opMode selects what one attempt of the retry machine does.
type opMode uint8

const (
	opRead      opMode = iota // one read into *cell; delivers the count, 0 at end of stream
	opReadFull                // reads until *cell is full or the stream ends
	opWrite                   // queues *cell, or vec, by reference (TryWriteV)
	opWriteCopy               // queues a copy of *cell (TryWrite)
	opAccept                  // accepts on l; the continuation reads accepted
)

// op applies the retry machine in the given mode. A nil cell transfers
// p; a non-empty v is written instead of either.
func (c *Conn) op(mode opMode, cell *[]byte, p []byte, v iovec.Vec) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		s := &opState{c: c, mode: mode, cell: cell, one: p, vec: v, k: k}
		if cell == nil {
			s.cell = &s.one
		}
		return s.start()
	}
}

// opState is the stack's one monadic retry machine. Each forcing of its
// node makes one nonblocking attempt. ErrWouldBlock parks on the mode's
// ready hook (OnRecvReady, OnSendReady or OnAcceptable) and retries when
// it fires; any other error is thrown. A partial read-full or write
// continues at once, and a completed attempt calls the continuation
// inside the same node. The node sequence is thus one NBIO per attempt
// plus a Suspend per would-block. The park trace is built at the first
// would-block and kept, and the state resets on completion, so a caller
// that applies the machine once and re-forces its trace per message
// allocates nothing in steady state.
type opState struct {
	c        *Conn
	l        *Listener // opAccept's listener
	accepted *Conn     // opAccept's result, read by the continuation
	mode     opMode
	active   bool // rest holds this entry's unsent bytes
	cell     *[]byte
	one      []byte    // a one-shot caller's buffer; cell points here
	vec      iovec.Vec // WriteVM's vector, sent instead of *cell
	rest     iovec.Vec // writes: the unsent suffix
	total    int       // writes: the entry's length; read-full: bytes read
	k        func(int) core.Trace
	node     core.NBIONode
	park     core.Trace // await(hook) resuming into node, built at first would-block
}

func (s *opState) start() core.Trace {
	s.node.Effect = s.try
	return &s.node
}

func (s *opState) retry(core.Unit) core.Trace { return &s.node }

func (s *opState) try() core.Trace {
	var n int
	var err error
	switch s.mode {
	case opRead, opReadFull:
		n, err = s.c.TryRead((*s.cell)[s.total:])
	case opAccept:
		s.accepted, err = s.l.TryAccept()
	default:
		if !s.active {
			s.active, s.rest = true, s.vec
			if s.rest.Empty() {
				s.rest = iovec.FromBytes(*s.cell)
			}
			s.total = s.rest.Len()
		}
		n, err = s.c.tryWrite(s.rest, s.mode == opWriteCopy)
	}
	if errors.Is(err, ErrWouldBlock) {
		if s.park == nil {
			s.park = await(s.hook())(s.retry)
		}
		return s.park
	}
	if err != nil {
		s.active, s.rest, s.total = false, iovec.Vec{}, 0
		return &core.ThrowNode{Err: err}
	}
	switch s.mode {
	case opReadFull:
		s.total += n
		if n > 0 && s.total < len(*s.cell) {
			return &s.node
		}
		n = s.total // short at end of stream
	case opWrite, opWriteCopy:
		s.rest = s.rest.Drop(n)
		if !s.rest.Empty() {
			return &s.node
		}
		n = s.total
	}
	s.active, s.rest, s.total = false, iovec.Vec{}, 0 // reset: the trace re-enters per message
	return s.k(n)
}

// hook reports the ready hook a would-block in this mode parks on.
func (s *opState) hook() func(cb func()) {
	switch s.mode {
	case opRead, opReadFull:
		return s.c.OnRecvReady
	case opAccept:
		return s.l.OnAcceptable
	}
	return s.c.OnSendReady
}

// ---------------------------------------------------------------------------
// Blocking (goroutine) variants, used by tests and the thread-per-
// connection baseline servers.
//
// Contract: on a virtual clock, the calling goroutine must hold exactly
// one busy count on the stack's clock (spawn it with Stack.Go, which
// arranges this). Otherwise virtual time races ahead between two blocking
// calls — retransmission timers across the network fire "instantly" from
// the goroutine's point of view and connections appear to time out. On a
// real clock the holds are no-ops and any goroutine may call these.
// ---------------------------------------------------------------------------

// Go runs fn on a new goroutine registered as a runnable activity with
// the stack's clock, so fn may use the blocking API under virtual time.
func (s *Stack) Go(fn func()) {
	s.clock.Enter()
	go func() {
		defer s.clock.Exit()
		fn()
	}()
}

// blockOn parks the goroutine on a one-shot ready hook, releasing its
// busy hold while parked; the waker's hold transfers back on wake.
func (s *Stack) blockOn(register func(cb func())) {
	ch := make(chan struct{})
	register(func() {
		s.clock.Enter() // transfer a hold to the woken goroutine
		close(ch)
	})
	s.clock.Exit() // release this goroutine's hold while parked
	<-ch
}

// Accept blocks until a connection is pending.
func (l *Listener) Accept() (*Conn, error) {
	for {
		c, err := l.TryAccept()
		if !errors.Is(err, ErrWouldBlock) {
			return c, err
		}
		l.s.blockOn(l.OnAcceptable)
	}
}

// ConnectBlocking opens a connection and waits for the handshake.
func (s *Stack) ConnectBlocking(addr string, port uint16) (*Conn, error) {
	c, err := s.Connect(addr, port)
	if err != nil {
		return nil, err
	}
	s.blockOn(c.OnEstablished)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Read blocks until at least one byte is available (0 at EOF).
func (c *Conn) Read(p []byte) (int, error) {
	for {
		n, err := c.TryRead(p)
		if !errors.Is(err, ErrWouldBlock) {
			return n, err
		}
		c.s.blockOn(c.OnRecvReady)
	}
}

// Write blocks until all of p is queued.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := c.TryWrite(p[total:])
		if errors.Is(err, ErrWouldBlock) {
			c.s.blockOn(c.OnSendReady)
			continue
		}
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// ReadFull blocks until len(p) bytes arrive or the stream ends.
func (c *Conn) ReadFull(p []byte) (int, error) {
	got := 0
	for got < len(p) {
		n, err := c.Read(p[got:])
		if err != nil {
			return got, err
		}
		if n == 0 {
			break
		}
		got += n
	}
	return got, nil
}

// WriteV is the blocking variant of WriteVM (Stack.Go discipline applies
// on a virtual clock).
func (c *Conn) WriteV(v iovec.Vec) error {
	for !v.Empty() {
		n, err := c.TryWriteV(v)
		if errors.Is(err, ErrWouldBlock) {
			c.s.blockOn(c.OnSendReady)
			continue
		}
		if err != nil {
			return err
		}
		v = v.Drop(n)
	}
	return nil
}
