// Package nptl is the reproduction's baseline: a kernel-thread runtime in
// the style of the Native POSIX Thread Library, against which the paper
// compares its hybrid implementation in every I/O benchmark.
//
// Each NPTL thread is a goroutine making *blocking* calls into the same
// simulated kernel the hybrid runtime uses, with the costs that
// distinguished 2006 kernel threads from application-level threads modelled
// explicitly:
//
//   - Stack reservation. The paper configures NPTL with 32 KB stacks so it
//     can reach 16 K threads in 512 MB; each Thread here reserves (and, on
//     wall-clock benchmarks, touches) a stack-sized buffer, and a memory
//     budget makes spawning fail beyond the same limit — the reason the
//     NPTL curves in Figures 17 and 18 stop at 16 K.
//   - Context-switch cost. In the virtual-time domain each blocking
//     operation charges SwitchCost to the request's service time; in the
//     wall-clock domain each block/wake touches StackTouch bytes of the
//     thread's stack buffer, modelling the cache pollution of switching
//     between kernel-thread stacks.
package nptl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/disk"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// ErrNoMemory reports that spawning would exceed the stack memory budget
// (the 2006 equivalent: pthread_create failing with EAGAIN/ENOMEM).
var ErrNoMemory = errors.New("nptl: thread stack memory budget exhausted")

// Config parameterizes the baseline runtime.
type Config struct {
	// StackSize is the reserved stack per thread. Default 32 KB, the
	// paper's NPTL configuration.
	StackSize int
	// MemoryBudget caps total reserved stack memory; 0 means the paper's
	// 512 MB test machine. Negative means unlimited.
	MemoryBudget int64
	// SwitchCost is charged (in virtual time) per blocking operation.
	// Default 5µs, a 2006-era kernel context switch.
	SwitchCost time.Duration
	// StackTouch is how many bytes of the thread's stack are written on
	// every block/wake in the wall-clock domain, modelling the cache
	// pollution of kernel-thread switching. Default: the full stack.
	StackTouch int
}

func (c Config) withDefaults() Config {
	if c.StackSize <= 0 {
		c.StackSize = 32 * 1024
	}
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 512 * 1024 * 1024
	}
	if c.SwitchCost == 0 {
		c.SwitchCost = 5 * time.Microsecond
	}
	if c.StackTouch == 0 {
		c.StackTouch = c.StackSize
	} else if c.StackTouch < 0 {
		c.StackTouch = 0
	}
	if c.StackTouch > c.StackSize {
		c.StackTouch = c.StackSize
	}
	return c
}

// Runtime is an NPTL-style kernel-thread runtime over a simulated kernel.
type Runtime struct {
	cfg   Config
	k     *kernel.Kernel
	fs    *kernel.FS
	clock vclock.Clock

	stackMem atomic.Int64
	threads  atomic.Int64
	switches atomic.Uint64
	wg       sync.WaitGroup

	virtual bool // clock is a virtual clock: charge SwitchCost, skip StackTouch
}

// New creates a baseline runtime over the given kernel and filesystem
// (fs may be nil).
func New(k *kernel.Kernel, fs *kernel.FS, cfg Config) *Runtime {
	_, virtual := k.Clock().(*vclock.VirtualClock)
	return &Runtime{cfg: cfg.withDefaults(), k: k, fs: fs, clock: k.Clock(), virtual: virtual}
}

// Threads reports the number of live threads.
func (r *Runtime) Threads() int64 { return r.threads.Load() }

// StackMemory reports total reserved stack bytes.
func (r *Runtime) StackMemory() int64 { return r.stackMem.Load() }

// Switches reports the number of blocking context switches performed.
func (r *Runtime) Switches() uint64 { return r.switches.Load() }

// Spawn starts a kernel thread running fn. It fails with ErrNoMemory when
// the stack budget is exhausted, which is how the baseline's thread count
// is capped in the figures.
func (r *Runtime) Spawn(fn func(t *Thread)) error {
	need := int64(r.cfg.StackSize)
	for {
		cur := r.stackMem.Load()
		if r.cfg.MemoryBudget > 0 && cur+need > r.cfg.MemoryBudget {
			return fmt.Errorf("%w: %d threads, %d MB reserved",
				ErrNoMemory, r.threads.Load(), cur>>20)
		}
		if r.stackMem.CompareAndSwap(cur, cur+need) {
			break
		}
	}
	t := &Thread{r: r}
	if r.cfg.StackTouch > 0 && !r.virtual {
		t.stack = make([]byte, r.cfg.StackSize)
	}
	r.threads.Add(1)
	r.wg.Add(1)
	r.clock.Enter() // a running kernel thread is a runnable activity
	go func() {
		defer func() {
			r.clock.Exit()
			r.threads.Add(-1)
			r.stackMem.Add(-need)
			r.wg.Done()
		}()
		fn(t)
	}()
	return nil
}

// Wait blocks until all spawned threads have finished.
func (r *Runtime) Wait() { r.wg.Wait() }

// Thread is one kernel thread's handle; all methods block the calling
// goroutine the way the corresponding Linux system calls block an NPTL
// thread.
type Thread struct {
	r     *Runtime
	stack []byte
}

// contextSwitch models one block/wake pair's cost in the wall-clock
// domain by touching the thread's reserved stack.
func (t *Thread) contextSwitch() {
	t.r.switches.Add(1)
	if t.stack == nil {
		return
	}
	n := t.r.cfg.StackTouch
	for i := 0; i < n; i += 64 {
		t.stack[i]++
	}
}

// block parks the calling goroutine until wake is invoked, correctly
// releasing the virtual clock while parked. register runs before the park
// and must arrange for wake to be called exactly once; the waker's busy
// hold (event callbacks hold the clock) transfers to this thread.
func (t *Thread) block(register func(wake func())) {
	ch := make(chan struct{})
	wake := func() {
		// Transfer a hold to the woken thread before signalling, so the
		// clock cannot advance between the wake event and the thread
		// resuming.
		t.r.clock.Enter()
		close(ch)
	}
	register(wake)
	t.r.clock.Exit() // release this thread's hold while parked
	<-ch
	t.contextSwitch()
}

// waitReady blocks until fd is ready for mask.
func (t *Thread) waitReady(fd kernel.FD, mask kernel.Event) error {
	var regErr error
	t.block(func(wake func()) {
		regErr = t.r.k.NewEpoll().Register(fd, mask, func(kernel.Event) { wake() })
		if regErr != nil {
			wake()
		}
	})
	return regErr
}

// Read blocks until data is available (or EOF) and reads it.
func (t *Thread) Read(fd kernel.FD, p []byte) (int, error) {
	for {
		n, err := t.r.k.Read(fd, p)
		if !errors.Is(err, kernel.ErrAgain) {
			return n, err
		}
		if err := t.waitReady(fd, kernel.EventRead); err != nil {
			return 0, err
		}
	}
}

// Write blocks until at least one byte is written.
func (t *Thread) Write(fd kernel.FD, p []byte) (int, error) {
	for {
		n, err := t.r.k.Write(fd, p)
		if !errors.Is(err, kernel.ErrAgain) {
			return n, err
		}
		if err := t.waitReady(fd, kernel.EventWrite); err != nil {
			return 0, err
		}
	}
}

// WriteAll blocks until all of p is written.
func (t *Thread) WriteAll(fd kernel.FD, p []byte) error {
	for len(p) > 0 {
		n, err := t.Write(fd, p)
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// ReadFull blocks until len(p) bytes are read or the stream ends,
// returning the count.
func (t *Thread) ReadFull(fd kernel.FD, p []byte) (int, error) {
	got := 0
	for got < len(p) {
		n, err := t.Read(fd, p[got:])
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

// Accept blocks until a connection is pending and accepts it.
func (t *Thread) Accept(listenFD kernel.FD) (kernel.FD, error) {
	for {
		fd, err := t.r.k.Accept(listenFD)
		if !errors.Is(err, kernel.ErrAgain) {
			return fd, err
		}
		if err := t.waitReady(listenFD, kernel.EventRead); err != nil {
			return 0, err
		}
	}
}

// Connect opens a connection.
func (t *Thread) Connect(addr string) (kernel.FD, error) { return t.r.k.Connect(addr) }

// Close closes a descriptor.
func (t *Thread) Close(fd kernel.FD) error { return t.r.k.Close(fd) }

// Pread reads from a file at an offset, blocking for the disk — the
// baseline's synchronous counterpart of the hybrid runtime's sys_aio_read.
// In the virtual domain the request is charged SwitchCost extra service
// time, modelling the kernel-thread wakeup on completion.
func (t *Thread) Pread(f *kernel.File, p []byte, off int64) (int, error) {
	var (
		gotN   int
		gotErr error
	)
	t.block(func(wake func()) {
		extra := time.Duration(0)
		if t.r.virtual {
			extra = t.r.cfg.SwitchCost
		}
		t.r.fs.AIOReadExtra(f, off, p, extra, func(n int, err error) {
			gotN, gotErr = n, err
			wake()
		})
	})
	return gotN, gotErr
}

// Sleep blocks the thread for d in the kernel's timing domain.
func (t *Thread) Sleep(d time.Duration) {
	t.block(func(wake func()) {
		t.r.clock.After(d, wake)
	})
}

// Disk exposes the underlying device (for benchmarks that verify queue
// behaviour).
func (r *Runtime) Disk() *disk.Disk {
	if r.fs == nil {
		return nil
	}
	return r.fs.Disk()
}
