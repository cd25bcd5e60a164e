package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/iovec"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/tcp"
	"hybrid/internal/timerwheel"
	"hybrid/internal/vclock"
)

// The layer ladder times direct calls into one layer's public functions
// with inputs shaped like the workloads', so that a layer's unit cost
// times its count per request can be set against its CPU share. Each rung
// is an ordinary benchmark function run by testing.Benchmark.

// rung is one step of the ladder; name is the metric it reports, in ns
// per op. One iteration of fn's b.N loop is per ops.
type rung struct {
	name string
	fn   func(b *testing.B)
	per  int
}

var ladder = []rung{
	{"core.step_ns", benchStep, 2},
	{"core.park_resume_ns", benchParkResume, 1},
	{"hio.eagain_park_resume_ns", benchEAGAINParkResume, 1},
	{"kernel.sock_write_read_16k_ns", benchSockWriteRead, 1},
	{"fs.fill_16k_ns", benchFSFill, 1},
	{"disk.submit_ns", benchDiskSubmit, 1},
	{"vclock.after_advance_ns", benchAfterAdvance, 1},
	{"httpd.parse_ns", benchParse, 1},
	{"tcp.segment_roundtrip_ns", benchSegmentRoundtrip, 1},
	{"timerwheel.rearm_ns", benchRearm, 1},
}

// runThread runs m as the only thread of a fresh one-worker runtime and
// returns once it has finished; the timer covers only m.
func runThread(b *testing.B, m core.M[core.Unit]) {
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: vclock.NewVirtual()})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	rt.Run(m)
	b.StopTimer()
}

// benchStep is one trampoline step: a loop iteration of the fused Loop
// spine is an NBIO probe plus the loop's bounce, two steps.
func benchStep(b *testing.B) {
	n := 0
	body := core.NBIO(func() bool { n++; return n < b.N })
	runThread(b, core.Loop(body))
}

// benchParkResume parks a thread in Suspend and resumes it at once: the
// scheduler's park, enqueue and dispatch.
func benchParkResume(b *testing.B) {
	n := 0
	park := core.Suspend(func(resume func(core.Unit)) { resume(core.Unit{}) })
	runThread(b, core.Loop(core.Then(park, core.NBIO(func() bool { n++; return n < b.N }))))
}

// benchEAGAINParkResume passes one request-sized message over a kernel
// socket pair between two threads. Each op is one message: the reader
// finds the socket empty (EAGAIN), parks on epoll, and is resumed by the
// writer's send.
func benchEAGAINParkResume(b *testing.B) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)
	defer io.Close()
	x, y := k.SocketPair()
	msg := []byte(requestHead)
	bx, by := make([]byte, len(msg)), make([]byte, len(msg))
	rounds := (b.N + 1) / 2
	echo := core.RepeatN(rounds, core.Then(
		core.Bind(io.SockReadFull(y, by), func(int) core.M[core.Unit] { return core.Skip }),
		core.Bind(io.SockSend(y, by), func(int) core.M[core.Unit] { return core.Skip })))
	ping := core.RepeatN(rounds, core.Then(
		core.Bind(io.SockSend(x, msg), func(int) core.M[core.Unit] { return core.Skip }),
		core.Bind(io.SockReadFull(x, bx), func(int) core.M[core.Unit] { return core.Skip })))
	b.ReportAllocs()
	b.ResetTimer()
	rt.Spawn(echo)
	rt.Run(ping)
	b.StopTimer()
}

// benchSockWriteRead moves one 16 KB response through a kernel socket:
// Kernel.Write on one end, Kernel.Read on the other until drained.
func benchSockWriteRead(b *testing.B) {
	k := kernel.New(vclock.NewVirtual())
	x, y := k.SocketPair()
	out, in := make([]byte, 16<<10), make([]byte, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := out; len(p) > 0; {
			n, err := k.Write(x, p)
			if err != nil {
				b.Fatal(err)
			}
			p = p[n:]
		}
		for got := 0; got < len(out); {
			n, err := k.Read(y, in)
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
}

// benchFSFill is one uncached 16 KB file read through FS.AIORead: disk
// submission, completion on an otherwise idle virtual clock, and the fill
// of the buffer with the file's pattern bytes.
func benchFSFill(b *testing.B) {
	fs := kernel.NewFS(disk.New(vclock.NewVirtual(), disk.BenchGeometry()))
	if err := loadgen.MakeFileset(fs, 64, 16<<10); err != nil {
		b.Fatal(err)
	}
	files := make([]*kernel.File, 64)
	for i := range files {
		f, err := fs.Open(loadgen.FileName(i))
		if err != nil {
			b.Fatal(err)
		}
		files[i] = f
	}
	buf := make([]byte, 16<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.AIORead(files[i%len(files)], 0, buf, func(n int, err error) {
			if err != nil || n != len(buf) {
				b.Errorf("AIORead: %d bytes, %v", n, err)
			}
		})
	}
}

// benchDiskSubmit submits one 16 KB request to the disk and lets it
// complete on an otherwise idle virtual clock.
func benchDiskSubmit(b *testing.B) {
	d := disk.New(vclock.NewVirtual(), disk.BenchGeometry())
	blocks := d.Geometry().Blocks
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := int64(i) * 7919 % (blocks - 4)
		if err := d.Submit(&disk.Request{Block: block, Count: 4, Done: done}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAfterAdvance schedules one event on an idle virtual clock, which
// advances to it and fires it at once.
func benchAfterAdvance(b *testing.B) {
	clk := vclock.NewVirtual()
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.After(linkRTT, fn)
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("%d of %d events fired", fired, b.N)
	}
}

// requestHead is the head loadgen sends for one GET.
const requestHead = "GET /file-42 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

func benchParse(b *testing.B) {
	var req httpd.Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := httpd.ParseRequestInto(&req, requestHead); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSegmentRoundtrip encodes one full-sized data segment into a pooled
// wire buffer and decodes it again, as the sending and receiving stacks
// do.
func benchSegmentRoundtrip(b *testing.B) {
	payload := iovec.FromBytes(make([]byte, 1460))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := &tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: uint32(i), Ack: 1,
			Flags: tcp.FlagACK, Window: 1 << 16, Payload: payload}
		wire := bufpool.Get(seg.WireLen())
		seg.EncodeTo(wire)
		d, err := tcp.Decode(wire)
		if err != nil || d.Seq != uint32(i) {
			b.Fatalf("decode: %v", err)
		}
		bufpool.Put(wire)
	}
}

// benchRearm cancels a retransmission timer and arms a fresh one, as a
// sender does on every ACK, among the pending timers of web-tcp's 128
// connection ends.
func benchRearm(b *testing.B) {
	clk := vclock.NewVirtual()
	clk.Enter() // Schedule and Stop need the clock held; time stays frozen
	defer clk.Exit()
	w := timerwheel.New(clk)
	nop := func() {}
	for i := 0; i < 128; i++ {
		w.Schedule(vclock.Duration(200+i)*1e6, nop)
	}
	rto := vclock.Duration(200 * 1e6)
	t := w.Schedule(rto, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Stop()
		t = w.Schedule(rto+vclock.Duration(i%64)*1e6, nop)
	}
}

// runLadder runs every rung for about rungTime and returns its ns/op and,
// as <layer>.<rung>_allocs, its allocs/op.
func runLadder(rungTime time.Duration) map[string]metric {
	testing.Init()
	if err := flag.Set("test.benchtime", rungTime.String()); err != nil {
		panic(err) // registered by testing.Init
	}
	out := map[string]metric{}
	for _, r := range ladder {
		res := testing.Benchmark(r.fn)
		ops := float64(res.N * r.per)
		out[r.name] = metric{float64(res.T.Nanoseconds()) / ops, "ns"}
		out[strings.TrimSuffix(r.name, "_ns")+"_allocs"] = metric{float64(res.MemAllocs) / ops, "count"}
	}
	return out
}
