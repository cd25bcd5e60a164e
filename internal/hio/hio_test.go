package hio

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// rig is a full hybrid stack: runtime + kernel + fs + IO layer.
type rig struct {
	rt *core.Runtime
	k  *kernel.Kernel
	fs *kernel.FS
	io *IO
}

func newRig(t *testing.T, clk vclock.Clock, workers int) *rig {
	t.Helper()
	if clk == nil {
		clk = vclock.NewReal()
	}
	k := kernel.New(clk)
	d := disk.New(clk, disk.DefaultGeometry())
	fs := kernel.NewFS(d)
	rt := core.NewRuntime(core.Options{Workers: workers, Clock: clk})
	io := New(rt, k, fs)
	t.Cleanup(rt.Shutdown)
	return &rig{rt: rt, k: k, fs: fs, io: io}
}

func TestEpollWaitWakesOnData(t *testing.T) {
	r := newRig(t, nil, 1)
	rfd, wfd := r.k.NewPipe(0)
	var got atomic.Int64
	r.rt.Spawn(core.Seq(
		core.Bind(r.io.EpollWait(rfd, kernel.EventRead), func(kernel.Event) core.M[core.Unit] {
			return core.Do(func() { got.Store(1) })
		}),
	))
	// Let the thread park, then make the pipe readable.
	deadline := time.Now().Add(5 * time.Second)
	for r.rt.Live() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("thread did not park")
		}
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 0 {
		t.Fatal("EpollWait returned before readiness")
	}
	if _, err := r.k.Write(wfd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.rt.WaitIdle()
	if got.Load() != 1 {
		t.Fatal("thread did not wake on readiness")
	}
}

// An injected epoll.delay postpones a parked EpollWait's resume by the
// drawn delay, and the thread still resumes exactly once. On a virtual
// clock the resume lands exactly that much virtual time after the write;
// on a real clock it comes from the clock's timer goroutine.
func TestEpollWaitDelayedReadinessResumesOnce(t *testing.T) {
	cfg := faults.Config{Seed: 7, OneShots: map[faults.Op][]uint64{faults.EpollDelay: {1}}}
	run := func(t *testing.T, clk vclock.Clock) (resumedAt vclock.Time) {
		r := newRig(t, clk, 1)
		in := faults.New(cfg, clk)
		r.k.SetFaults(in)
		rfd, wfd := r.k.NewPipe(0)
		var resumes atomic.Int64
		var at atomic.Int64
		r.rt.Spawn(core.Bind(r.io.EpollWait(rfd, kernel.EventRead), func(kernel.Event) core.M[core.Unit] {
			return core.Do(func() {
				resumes.Add(1)
				at.Store(int64(clk.Now()))
			})
		}))
		r.rt.Spawn(core.Do(func() {
			if _, err := r.k.Write(wfd, []byte("x")); err != nil {
				t.Error(err)
			}
		}))
		r.rt.WaitIdle()
		time.Sleep(2 * time.Millisecond) // past the largest delay: no second resume
		if n := resumes.Load(); n != 1 {
			t.Fatalf("thread resumed %d times, want 1", n)
		}
		if n := in.Injected(faults.EpollDelay); n != 1 {
			t.Fatalf("epoll delays injected = %d, want 1", n)
		}
		if n := r.rt.Stats().Snapshot().Counter("resumes"); n != 1 {
			t.Fatalf("scheduler resumes = %d, want 1", n)
		}
		return vclock.Time(at.Load())
	}
	t.Run("virtual", func(t *testing.T) {
		// The kernel draws the delay at the write, at virtual time zero,
		// bounded by its 1ms maximum; an injector with no clock reads time
		// zero too, so it draws the same delay.
		want := faults.New(cfg, nil).Latency(faults.EpollDelay, time.Millisecond)
		if got := run(t, vclock.NewVirtual()); time.Duration(got) != want || want <= 0 {
			t.Fatalf("resumed at virtual %v, want the injected delay %v", time.Duration(got), want)
		}
	})
	t.Run("real", func(t *testing.T) {
		clk := vclock.NewReal()
		start := clk.Now()
		if got := run(t, clk); got <= start {
			t.Fatalf("resumed at %d, not after the start %d", got, start)
		}
	})
}

func TestEpollWaitBadFDThrows(t *testing.T) {
	r := newRig(t, nil, 1)
	var caught atomic.Bool
	r.rt.Run(core.Catch(
		core.Then(r.io.EpollWait(kernel.FD(999), kernel.EventRead), core.Skip),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(true) })
		},
	))
	if !caught.Load() {
		t.Fatal("bad-fd EpollWait did not throw")
	}
}

func TestSockSendAndReadAcrossPipe(t *testing.T) {
	// A writer thread pushes 64 KB through a 4 KB pipe to a reader thread:
	// both must repeatedly block and wake via epoll.
	r := newRig(t, nil, 2)
	rfd, wfd := r.k.NewPipe(4096)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	received := make([]byte, 0, len(payload))
	var done atomic.Bool
	r.rt.Run(core.Seq(
		core.Fork(core.Bind(r.io.SockSend(wfd, payload), func(int) core.M[core.Unit] {
			return r.io.CloseFD(wfd)
		})),
		core.Fork(func() core.M[core.Unit] {
			buf := make([]byte, 1500)
			var loop func() core.M[core.Unit]
			loop = func() core.M[core.Unit] {
				return core.Bind(r.io.SockRead(rfd, buf), func(n int) core.M[core.Unit] {
					if n == 0 {
						return core.Do(func() { done.Store(true) })
					}
					received = append(received, buf[:n]...)
					return loop()
				})
			}
			return loop()
		}()),
	))
	if !done.Load() {
		t.Fatal("reader did not see EOF")
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d; content mismatch", len(received), len(payload))
	}
}

func TestAcceptConnectEcho(t *testing.T) {
	r := newRig(t, nil, 2)
	var echoed atomic.Value
	serve := func(lfd kernel.FD) core.M[core.Unit] {
		return core.Bind(r.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
			buf := make([]byte, 128)
			return core.Bind(r.io.SockRead(conn, buf), func(n int) core.M[core.Unit] {
				return core.Then(
					core.Bind(r.io.SockSend(conn, buf[:n]), func(int) core.M[core.Unit] { return core.Skip }),
					r.io.CloseFD(conn),
				)
			})
		})
	}
	client := core.Bind(r.io.SockConnect("echo:1"), func(fd kernel.FD) core.M[core.Unit] {
		return core.Then(
			core.Bind(r.io.SockSend(fd, []byte("hello hybrid")), func(int) core.M[core.Unit] { return core.Skip }),
			core.Bind(func() core.M[int] {
				buf := make([]byte, 128)
				return core.Bind(r.io.SockReadFull(fd, buf[:12]), func(n int) core.M[int] {
					echoed.Store(string(buf[:n]))
					return core.Return(n)
				})
			}(), func(int) core.M[core.Unit] { return r.io.CloseFD(fd) }),
		)
	})
	// Listen before the client can connect, then serve concurrently.
	r.rt.Run(core.Bind(r.io.Listen("echo:1", 16), func(lfd kernel.FD) core.M[core.Unit] {
		return core.Seq(core.Fork(serve(lfd)), client)
	}))
	if echoed.Load() != "hello hybrid" {
		t.Fatalf("echoed = %v", echoed.Load())
	}
}

// On a virtual clock epoll delivers by callback and never calls Wait;
// the wait counter must still see the threads that parked for readiness.
func TestVirtualSocketRoundTripCountsEpollWaits(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	var echoed []byte
	serve := func(lfd kernel.FD) core.M[core.Unit] {
		return core.Bind(r.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
			buf := make([]byte, 4)
			return core.Bind(r.io.SockReadFull(conn, buf), func(n int) core.M[core.Unit] {
				return core.Then(r.io.SockSend(conn, buf[:n]), r.io.CloseFD(conn))
			})
		})
	}
	client := core.Bind(r.io.SockConnect("echo:1"), func(fd kernel.FD) core.M[core.Unit] {
		buf := make([]byte, 4)
		return core.Seq(
			r.io.Sleep(time.Millisecond), // the server parks in accept, then in read
			core.Then(r.io.SockSend(fd, []byte("ping")), core.Skip),
			core.Bind(r.io.SockReadFull(fd, buf), func(n int) core.M[core.Unit] {
				echoed = buf[:n]
				return r.io.CloseFD(fd)
			}),
		)
	})
	r.rt.Run(core.Bind(r.io.Listen("echo:1", 4), func(lfd kernel.FD) core.M[core.Unit] {
		return core.Seq(core.Fork(serve(lfd)), client)
	}))
	if string(echoed) != "ping" {
		t.Fatalf("echoed %q", echoed)
	}
	if got := r.k.Snapshot().EpollWaits; got == 0 {
		t.Fatal("epoll_waits = 0 after a round trip that parked for readiness")
	}
	if got := r.k.Metrics().Snapshot().Counter("epoll_waits"); got == 0 {
		t.Fatal("exported epoll_waits metric reads 0")
	}
}

func TestSockAcceptWaitsForConnection(t *testing.T) {
	r := newRig(t, nil, 1)
	var accepted atomic.Bool
	r.rt.Spawn(core.Bind(r.io.Listen("late:1", 4), func(lfd kernel.FD) core.M[core.Unit] {
		return core.Bind(r.io.SockAccept(lfd), func(kernel.FD) core.M[core.Unit] {
			return core.Do(func() { accepted.Store(true) })
		})
	}))
	if accepted.Load() {
		t.Fatal("accept returned without a connection")
	}
	// Retry until the spawned thread has bound the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := r.k.Connect("late:1"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	r.rt.WaitIdle()
	if !accepted.Load() {
		t.Fatal("acceptor did not wake")
	}
}

func TestSockSendToClosedPeerThrows(t *testing.T) {
	r := newRig(t, nil, 1)
	a, b := r.k.SocketPair()
	if err := r.k.Close(b); err != nil {
		t.Fatal(err)
	}
	var caught atomic.Bool
	r.rt.Run(core.Catch(
		core.Bind(r.io.SockSend(a, []byte("x")), func(int) core.M[core.Unit] { return core.Skip }),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(true) })
		},
	))
	if !caught.Load() {
		t.Fatal("EPIPE not thrown as exception")
	}
}

func TestAIOReadFromThread(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	f, err := r.fs.Create("blob", 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var n atomic.Int64
	var at atomic.Int64
	r.rt.Run(core.Bind(r.io.AIORead(f, 8192, buf), func(got int) core.M[core.Unit] {
		return core.Do(func() {
			n.Store(int64(got))
			at.Store(int64(clk.Now()))
		})
	}))
	if n.Load() != 4096 {
		t.Fatalf("AIORead = %d", n.Load())
	}
	if at.Load() == 0 {
		t.Fatal("AIO read took no virtual time")
	}
	// Contents must match the pattern.
	for i := range buf {
		if buf[i] != kernel.PatternByte("blob", 8192+int64(i)) {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}

func TestConcurrentAIOBenefitsFromElevator(t *testing.T) {
	// Many threads reading random blocks concurrently must finish sooner
	// (in virtual time) per request than a single sequential reader — the
	// disk-head-scheduling effect the hybrid model exploits in Figure 17.
	perRequest := func(threads, reads int) time.Duration {
		clk := vclock.NewVirtual()
		r := newRig(t, clk, 1)
		f, err := r.fs.Create("f", 1<<30, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint64(12345)
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int64(rng % uint64(1<<30-4096))
		}
		offsets := make([]int64, threads*reads)
		for i := range offsets {
			offsets[i] = next()
		}
		buf := make([]byte, 4096)
		var prog core.M[core.Unit] = core.Skip
		for ti := 0; ti < threads; ti++ {
			ti := ti
			prog = core.Then(prog, core.Fork(core.ForN(reads, func(i int) core.M[core.Unit] {
				off := offsets[ti*reads+i]
				return core.Bind(r.io.AIORead(f, off, buf), func(int) core.M[core.Unit] { return core.Skip })
			})))
		}
		r.rt.Run(prog)
		total := threads * reads
		return time.Duration(int64(clk.Now()) / int64(total))
	}
	seq := perRequest(1, 64)
	conc := perRequest(64, 1)
	if !(conc < seq) {
		t.Fatalf("no elevator benefit: sequential %v/req, concurrent %v/req", seq, conc)
	}
}

func TestFileOpenViaBlio(t *testing.T) {
	r := newRig(t, nil, 1)
	if _, err := r.fs.Create("exists", 10, true); err != nil {
		t.Fatal(err)
	}
	var ok, missing atomic.Bool
	r.rt.Run(core.Seq(
		core.Bind(r.io.FileOpen("exists"), func(f *kernel.File) core.M[core.Unit] {
			return core.Do(func() { ok.Store(f != nil) })
		}),
		core.Catch(
			core.Bind(r.io.FileOpen("missing"), func(*kernel.File) core.M[core.Unit] { return core.Skip }),
			func(err error) core.M[core.Unit] {
				return core.Do(func() { missing.Store(true) })
			},
		),
	))
	if !ok.Load() || !missing.Load() {
		t.Fatalf("ok=%v missing=%v", ok.Load(), missing.Load())
	}
}

func TestManyIdleEpollWaiters(t *testing.T) {
	// The Figure 18 shape in miniature: thousands of threads parked in
	// EpollWait on idle pipes while two active threads exchange data.
	r := newRig(t, nil, 2)
	const idle = 2000
	for i := 0; i < idle; i++ {
		rfd, _ := r.k.NewPipe(0)
		r.rt.Spawn(core.Then(r.io.EpollWait(rfd, kernel.EventRead), core.Skip))
	}
	rfd, wfd := r.k.NewPipe(4096)
	payload := make([]byte, 32*1024)
	var got atomic.Int64
	r.rt.Spawn(core.Bind(r.io.SockSend(wfd, payload), func(int) core.M[core.Unit] {
		return r.io.CloseFD(wfd)
	}))
	r.rt.Spawn(func() core.M[core.Unit] {
		buf := make([]byte, 4096)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(r.io.SockRead(rfd, buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return core.Skip
				}
				got.Add(int64(n))
				return loop()
			})
		}
		return loop()
	}())
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() != int64(len(payload)) {
		if time.Now().After(deadline) {
			t.Fatalf("transferred %d of %d with %d idle threads", got.Load(), len(payload), idle)
		}
		time.Sleep(time.Millisecond)
	}
	if live := r.rt.Live(); live != idle {
		t.Fatalf("Live = %d, want %d idle threads still parked", live, idle)
	}
}

func TestAIOWriteFromThread(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	f, err := r.fs.Create("w", 8192, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("written through sys_aio_write")
	var wrote atomic.Int64
	r.rt.Run(core.Bind(r.io.AIOWrite(f, 100, payload), func(n int) core.M[core.Unit] {
		return core.Do(func() { wrote.Store(int64(n)) })
	}))
	if int(wrote.Load()) != len(payload) {
		t.Fatalf("AIOWrite = %d", wrote.Load())
	}
	back := make([]byte, len(payload))
	var read atomic.Int64
	r.rt.Run(core.Bind(r.io.AIORead(f, 100, back), func(n int) core.M[core.Unit] {
		return core.Do(func() { read.Store(int64(n)) })
	}))
	if string(back) != string(payload) {
		t.Fatalf("read back %q", back)
	}
	if clk.Now() == 0 {
		t.Fatal("writes consumed no virtual time")
	}
}

func TestAIOWriteToPatternFileThrows(t *testing.T) {
	r := newRig(t, vclock.NewVirtual(), 1)
	f, _ := r.fs.Create("ro", 4096, false)
	var caught atomic.Bool
	r.rt.Run(core.Catch(
		core.Bind(r.io.AIOWrite(f, 0, []byte("x")), func(int) core.M[core.Unit] { return core.Skip }),
		func(error) core.M[core.Unit] { return core.Do(func() { caught.Store(true) }) },
	))
	if !caught.Load() {
		t.Fatal("write to read-only file did not throw")
	}
}

func TestIOSleepAdvancesKernelClock(t *testing.T) {
	clk := vclock.NewVirtual()
	r := newRig(t, clk, 1)
	r.rt.Run(r.io.Sleep(7 * time.Millisecond))
	if clk.Now() != vclock.Time(7*time.Millisecond) {
		t.Fatalf("now = %v", clk.Now())
	}
}

func TestEpollWaitWriteReadiness(t *testing.T) {
	// A thread waiting for EventWrite on a full pipe wakes when the
	// reader drains it.
	r := newRig(t, nil, 1)
	rfd, wfd := r.k.NewPipe(4)
	if _, err := r.k.Write(wfd, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	var woke atomic.Bool
	r.rt.Spawn(core.Then(
		r.io.EpollWait(wfd, kernel.EventWrite),
		core.Do(func() { woke.Store(true) }),
	))
	deadline := time.Now().Add(5 * time.Second)
	for r.rt.Live() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("thread did not park")
		}
		time.Sleep(time.Millisecond)
	}
	if woke.Load() {
		t.Fatal("woke while pipe still full")
	}
	if _, err := r.k.Read(rfd, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	r.rt.WaitIdle()
	if !woke.Load() {
		t.Fatal("thread did not wake on writability")
	}
}

func TestSockReadFullStopsAtEOF(t *testing.T) {
	r := newRig(t, nil, 1)
	a, b := r.k.SocketPair()
	if _, err := r.k.Write(a, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Close(a); err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	buf := make([]byte, 10)
	r.rt.Run(core.Bind(r.io.SockReadFull(b, buf), func(n int) core.M[core.Unit] {
		return core.Do(func() { got.Store(int64(n)) })
	}))
	if got.Load() != 3 {
		t.Fatalf("ReadFull at EOF = %d, want 3", got.Load())
	}
}

func TestMultipleEventLoopsPartitionSources(t *testing.T) {
	// Figure 14 shows several event loops around one scheduler. Two IO
	// layers on the same kernel each run their own epoll device; threads
	// waiting through either are woken independently.
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 2, Clock: clk})
	defer rt.Shutdown()
	io1 := New(rt, k, nil)
	io2 := New(rt, k, nil)

	r1, w1 := k.NewPipe(0)
	r2, w2 := k.NewPipe(0)
	var woke1, woke2 atomic.Bool
	rt.Spawn(core.Then(io1.EpollWait(r1, kernel.EventRead), core.Do(func() { woke1.Store(true) })))
	rt.Spawn(core.Then(io2.EpollWait(r2, kernel.EventRead), core.Do(func() { woke2.Store(true) })))
	deadline := time.Now().Add(5 * time.Second)
	for rt.Live() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("threads did not park")
		}
		time.Sleep(time.Millisecond)
	}
	k.Write(w2, []byte("x"))
	for !woke2.Load() {
		if time.Now().After(deadline) {
			t.Fatal("loop 2 did not deliver")
		}
		time.Sleep(time.Millisecond)
	}
	if woke1.Load() {
		t.Fatal("loop 1 woke without an event")
	}
	k.Write(w1, []byte("y"))
	rt.WaitIdle()
	if !woke1.Load() {
		t.Fatal("loop 1 did not deliver")
	}
}

// Re-entering a pre-applied read-some trace allocates nothing per
// message: neither a read that finds data nor one that first hits
// EAGAIN, returns the kept park trace, and is re-forced after the data
// arrives (the park resumes into the same entry node).
func TestSockReadCellReentryAllocs(t *testing.T) {
	r := newRig(t, nil, 1)
	rfd, wfd := r.k.NewPipe(0)
	cell := make([]byte, 1)
	msg := []byte("x")
	var got int
	done := &core.RetNode{}
	entry := r.io.SockReadCell(rfd, &cell)(func(n int) core.Trace { got = n; return done })
	node := entry.(*core.NBIONode)

	park := node.Effect()
	sn, ok := park.(*core.SuspendNode)
	if !ok {
		t.Fatalf("read of an empty pipe returned %T, want a park", park)
	}
	if _, err := r.k.Write(wfd, msg); err != nil {
		t.Fatal(err)
	}
	var resumed core.Trace
	sn.Park(func(next core.Trace) { resumed = next })
	if resumed != entry {
		t.Fatalf("park resumed into %v, want the entry node", resumed)
	}
	if tr := node.Effect(); tr != done || got != 1 {
		t.Fatalf("read delivered %d via %v", got, tr)
	}

	var bad bool
	check := func(tr core.Trace, want core.Trace) {
		if tr != want {
			bad = true
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		_, _ = r.k.Write(wfd, msg)
		check(node.Effect(), done)
	}); n != 0 || bad {
		t.Errorf("ready read re-entry: %v allocs per message (bad trace: %v)", n, bad)
	}
	if n := testing.AllocsPerRun(500, func() {
		check(node.Effect(), park)
		_, _ = r.k.Write(wfd, msg)
		check(node.Effect(), done)
	}); n != 0 || bad {
		t.Errorf("park/resume re-entry: %v allocs per message (bad trace: %v)", n, bad)
	}
}
