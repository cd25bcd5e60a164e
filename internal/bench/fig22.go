package bench

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// Fig22Config parameterizes the million-connection capacity figure: a
// fleet of parked keep-alive connections (each established, served one
// request, and left idle with an armed timer-wheel deadline) while a
// small background population trickles requests over the same server.
// The figure reports bytes per parked connection and the background
// mix's p99 — the paper's scalability claim pushed to the CPC regime
// where per-connection memory, not scheduling, is the binding
// constraint.
type Fig22Config struct {
	// Conns is the sweep of parked-fleet sizes (the x axis).
	Conns []int
	// ActiveClients and RequestsPerClient shape the background mix: a
	// closed-loop population issuing its budget over persistent
	// connections while the fleet sits parked.
	ActiveClients     int
	RequestsPerClient int
	// Files and FileBytes shape the (fully cached) fileset.
	Files     int
	FileBytes int64
	// CacheBytes comfortably holds the fileset: the figure is about
	// connection state, not disk contention.
	CacheBytes int64
	// RTT and Bandwidth model the client-server link for the background
	// mix (the parked fleet pays them once, at establishment).
	RTT       time.Duration
	Bandwidth int64
	// Seed drives the background mix's request stream.
	Seed uint64
	// MeasureMemory controls the host-side heap measurement. The
	// parked-bytes figure is read from the Go runtime's allocator, so it
	// is not virtual-time deterministic; the determinism gate runs with
	// it off and compares only the virtual-time columns.
	MeasureMemory bool
}

// DefaultFig22 sweeps 10k → 1M parked connections — the capstone scale.
// 64 background clients × 32 requests keep the trickle light: the
// point is that a million parked connections neither crowd them out of
// memory nor stretch their tail.
func DefaultFig22() Fig22Config {
	return Fig22Config{
		Conns:             []int{10_000, 100_000, 1_000_000},
		ActiveClients:     64,
		RequestsPerClient: 32,
		Files:             16,
		FileBytes:         4096,
		CacheBytes:        1 << 20,
		RTT:               300 * time.Microsecond,
		Bandwidth:         100_000_000 / 8,
		Seed:              22,
		MeasureMemory:     true,
	}
}

// Fig22Quick is reduced for tests and the determinism gate.
func Fig22Quick() Fig22Config {
	c := DefaultFig22()
	c.Conns = []int{1000, 4000}
	c.ActiveClients = 16
	c.RequestsPerClient = 8
	return c
}

// NPTLModelStackBytes is the NPTL baseline's per-connection memory at
// this scale: one kernel thread per parked connection at the paper's
// 32 KB configured stack (internal/nptl's default). Unlike figures 17
// and 18 the baseline here is reservation arithmetic, not a run — the
// nptl runtime refuses fleets past its 512 MB budget (16 K threads),
// which is itself the point: the sweep's upper rows are two orders of
// magnitude beyond where a thread-per-connection server stops
// admitting connections at all.
const NPTLModelStackBytes = 32 * 1024

// Fig22Point is one sweep cell: the cost and service quality of one
// parked-fleet size.
type Fig22Point struct {
	// Conns is the parked-fleet size.
	Conns int
	// ParkedBytesPerConn is the live-heap cost of one parked keep-alive
	// connection, measured after the fleet is fully established and
	// before the background mix starts. NaN when MeasureMemory is off.
	ParkedBytesPerConn float64
	// NPTLModelBytesPerConn is the modelled thread-per-connection
	// baseline cost: NPTLModelStackBytes, constant in the fleet size.
	// Reported next to the measured column in the non-deterministic
	// figure output only (it is a memory-model column, like
	// ParkedBytesPerConn, not a virtual-time result).
	NPTLModelBytesPerConn float64
	// P99Us is the background mix's p99 request latency (µs, virtual).
	P99Us int64
	// Requests and Errors are the background mix's totals.
	Requests uint64
	Errors   uint64
	// GoodputMBps is the background mix's delivered 2xx bytes per second
	// of virtual time over its own window.
	GoodputMBps float64
}

// Fig22Run measures one sweep cell. The phase structure mirrors
// bench.ConnMemTest: the host freezes virtual time, establishes the
// fleet (connect, one fully drained keep-alive request, park in a
// Suspend that never resumes), measures the parked heap, then releases
// the clock for the background mix. The mix's completion effect
// re-freezes the clock from inside the worker — deterministically, at
// the virtual instant the last response lands — so the fleet's
// hour-scale idle deadlines are pinned wheel state throughout rather
// than a reaping storm the moment the mix stops holding time back.
func Fig22Run(cfg Fig22Config, conns int) Fig22Point {
	clk := vclock.NewVirtual()
	// Freeze virtual time for establishment. The hold is released once
	// the background mix is spawned, and re-taken by the mix's
	// completion effect — so exactly one hold is this function's at any
	// point, and the single deferred Exit balances it. Registered first,
	// it runs after the teardown defers below: shutdown happens under a
	// frozen clock and the fleet's idle deadlines never fire.
	clk.Enter()
	defer clk.Exit()

	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(fs, cfg.Files, cfg.FileBytes); err != nil {
		panic(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)

	srv := httpd.NewServer(io, httpd.ServerConfig{
		CacheBytes: cfg.CacheBytes,
		ChunkBytes: int(cfg.FileBytes),
		// The backlog must hold the whole fleet: every connect lands
		// before the accept loop's first dispatch turn, and with virtual
		// time frozen a refused connect cannot back off and retry.
		Overload: &httpd.OverloadConfig{Backlog: conns + cfg.ActiveClients + 64},
		Lifecycle: &httpd.LifecycleConfig{
			IdleTimeout:       time.Hour,
			HeaderTimeout:     time.Hour,
			WriteStallTimeout: time.Hour,
		},
	})
	serve, err := srv.BindAndServe("web:80")
	if err != nil {
		panic(err)
	}
	rt.Spawn(serve)
	for i := 0; i < cfg.Files; i++ {
		name := loadgen.FileName(i)
		data := make([]byte, cfg.FileBytes)
		for j := range data {
			data[j] = kernel.PatternByte(name, int64(j))
		}
		srv.Cache().Put(name, data)
	}

	runtime.GC()
	var before runtime.MemStats
	if cfg.MeasureMemory {
		runtime.ReadMemStats(&before)
	}

	// The fleet launches from a single root thread (launch discipline:
	// forking inside the worker keeps every (when, seq) assignment
	// deterministic at any GOMAXPROCS). Each client issues one fully
	// drained keep-alive request, then parks in a Suspend whose retained
	// resume hook pins the client half, exactly as MemTest pins threads.
	var mu sync.Mutex
	holders := make([]func(core.Unit), 0, conns)
	park := core.Suspend(func(resume func(core.Unit)) {
		mu.Lock()
		holders = append(holders, resume)
		mu.Unlock()
	})
	fleetClient := func(i int) core.M[core.Unit] {
		name := loadgen.FileName(i % cfg.Files)
		return core.Bind(io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
			return core.Then(fig22Request(io, fd, name), park)
		})
	}
	rt.Spawn(core.ForN(conns, func(i int) core.M[core.Unit] {
		return core.Fork(fleetClient(i))
	}))
	for {
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		n := len(holders)
		mu.Unlock()
		if n >= conns {
			break
		}
	}
	time.Sleep(50 * time.Millisecond)

	parked := math.NaN()
	if cfg.MeasureMemory {
		runtime.GC()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		parked = float64(after.HeapAlloc-before.HeapAlloc) / float64(conns)
	}

	// Background mix: a plain-mode generator (every client one
	// persistent connection, a fixed request budget, no horizon) so Run
	// returns exactly when the budget is delivered — no straggler
	// threads to drain. Its completion effect re-freezes the clock
	// before the host observes completion.
	gen := loadgen.New(io, loadgen.Config{
		Addr:              "web:80",
		Clients:           cfg.ActiveClients,
		Files:             cfg.Files,
		RequestsPerClient: cfg.RequestsPerClient,
		Seed:              cfg.Seed,
		RTT:               cfg.RTT,
		Bandwidth:         cfg.Bandwidth,
		MeasureLatency:    true,
	})
	start := clk.Now()
	var end vclock.Time
	genDone := make(chan struct{})
	rt.Spawn(core.Then(gen.Run(), core.Do(func() {
		end = clk.Now()
		clk.Enter()
		close(genDone)
	})))
	clk.Exit()
	<-genDone

	elapsed := time.Duration(end - start)
	goodput := math.NaN()
	if elapsed > 0 {
		goodput = float64(gen.Goodput.Load()) / float64(MB) / elapsed.Seconds()
	}
	runtime.KeepAlive(holders)
	return Fig22Point{
		Conns:                 conns,
		ParkedBytesPerConn:    parked,
		NPTLModelBytesPerConn: NPTLModelStackBytes,
		P99Us:                 gen.Latency().Quantile(0.99),
		Requests:              gen.Requests.Load(),
		Errors:                gen.Errors.Load(),
		GoodputMBps:           goodput,
	}
}

// fig22Request issues one GET and drains the response exactly — head
// parse, Content-Length, full body — so the parked connection's receive
// ring is empty and holds no segments. (Draining "enough" bytes instead
// would strand the response tail in the ring and charge every parked
// connection one 4 KB segment it never reads.)
func fig22Request(io *hio.IO, fd kernel.FD, name string) core.M[core.Unit] {
	req := []byte("GET /" + name + " HTTP/1.1\r\nHost: fig22\r\nConnection: keep-alive\r\n\r\n")
	hb := &httpd.HeadBuffer{}
	buf := make([]byte, 2048)
	var readHead func() core.M[string]
	readHead = func() core.M[string] {
		return core.Bind(io.SockRead(fd, buf), func(n int) core.M[string] {
			if n == 0 {
				return core.Throw[string](fmt.Errorf("fig22: connection closed mid-response"))
			}
			return core.Bind(
				core.NBIOe(func() (string, error) { return hb.Feed(buf[:n]) }),
				func(head string) core.M[string] {
					if head == "" {
						return readHead()
					}
					return core.Return(head)
				},
			)
		})
	}
	var drain func(remaining int64) core.M[core.Unit]
	drain = func(remaining int64) core.M[core.Unit] {
		if remaining <= 0 {
			return core.Skip
		}
		want := int64(len(buf))
		if want > remaining {
			want = remaining
		}
		return core.Bind(io.SockRead(fd, buf[:want]), func(n int) core.M[core.Unit] {
			if n == 0 {
				return core.Throw[core.Unit](fmt.Errorf("fig22: truncated body"))
			}
			return drain(remaining - int64(n))
		})
	}
	send := core.Bind(io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip })
	return core.Bind(core.Then(send, readHead()), func(head string) core.M[core.Unit] {
		return core.Bind(
			core.NBIOe(func() (int64, error) {
				_, length, err := httpd.ParseResponseHead(head)
				return length, err
			}),
			func(length int64) core.M[core.Unit] {
				buffered := int64(hb.Buffered())
				hb.Reset()
				return drain(length - buffered)
			},
		)
	})
}

// Fig22 runs the full sweep.
func Fig22(cfg Fig22Config) []Fig22Point {
	out := make([]Fig22Point, 0, len(cfg.Conns))
	for _, n := range cfg.Conns {
		out = append(out, Fig22Run(cfg, n))
	}
	return out
}
