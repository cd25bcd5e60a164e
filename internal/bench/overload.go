package bench

import (
	"time"

	"hybrid/internal/core"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/overload"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// This file is the overload companion to Figure 19: instead of sweeping
// connection counts at a matched load, it holds the server's capacity
// fixed and multiplies the offered load past it — the regime the paper's
// figure stops short of, where a robust server must degrade gracefully
// rather than collapse. The "protected" runs enable the httpd overload
// machinery (admission bound at the capacity point plus a circuit
// breaker armed on the disk path); the unprotected runs are the plain
// server from Fig19Hybrid. The headline numbers are goodput (bytes from
// 2xx responses over virtual elapsed time) and client-observed p99
// latency.

// OverloadRun is one cell of the overload table.
type OverloadRun struct {
	// Conns is the capacity point: the admission bound (protected runs)
	// and the 1× client count.
	Conns int
	// OfferedX multiplies the offered load: Conns*OfferedX concurrent
	// clients, each with the same per-client request budget.
	OfferedX int
	// Protected reports whether the overload machinery was on.
	Protected bool

	GoodputMBps float64
	P99         time.Duration
	Requests    uint64
	Errors      uint64
	Shed        uint64 // fast 503s from the tripped breaker
	Snapshot    stats.Snapshot
}

// Fig19Overload runs the web-server workload at OfferedX times the
// capacity point. Clients retry refused connects with backoff (an
// overloaded listener's backlog fills by design), so every client
// eventually gets its requests in or fails for a real reason.
func Fig19Overload(cfg Fig19Config, conns, offeredX int, protected bool) OverloadRun {
	clk, k, fs, rt, io := fig19Site(cfg)
	defer rt.Shutdown()
	scfg := httpd.ServerConfig{
		CacheBytes: cfg.CacheBytes,
		ChunkBytes: int(cfg.FileBytes),
	}
	if protected {
		scfg.Overload = &httpd.OverloadConfig{
			MaxConns: conns,
			// A shallow backlog keeps excess load out of the building:
			// a connection the server cannot serve soon is refused (the
			// client backs off and retries) instead of queueing with an
			// unanswered request — that queue wait is exactly what blows
			// up the unprotected p99.
			Backlog: 2,
			// The breaker guards the blocking-disk path: under pure
			// overload admission keeps disk latency in budget and the
			// breaker stays closed; with faults injected it trips and
			// sheds uncached GETs as fast 503s.
			Breaker: &overload.BreakerConfig{
				FailureThreshold: 8,
				Cooldown:         10 * time.Millisecond,
				ProbeSuccesses:   2,
			},
		}
	}
	var in *faults.Injector
	if cfg.Faults.Active() {
		in = faults.New(*cfg.Faults, clk)
		k.SetFaults(in)
		fs.Disk().SetFaults(in)
		scfg.DiskRetries = 2
	}
	srv := httpd.NewServer(io, scfg)
	serve, err := srv.BindAndServe("web:80")
	if err != nil {
		panic(err)
	}
	rt.Spawn(serve)

	per := cfg.TotalRequests / conns
	if per < 1 {
		per = 1
	}
	gen := loadgen.New(io, loadgen.Config{
		Addr:              "web:80",
		Clients:           conns * offeredX,
		Files:             cfg.effectiveFiles(),
		RequestsPerClient: per,
		Seed:              cfg.Seed,
		RTT:               cfg.RTT,
		Bandwidth:         cfg.Bandwidth,
		MeasureLatency:    true,
		// Refused connects retry for a long time (the schedule caps at
		// 100× the base): under admission control the whole excess wave
		// must eventually fit through the capacity point.
		ConnectRetries: 400,
		ConnectBackoff: time.Millisecond,
	})
	start := clk.Now()
	done := make(chan struct{})
	var end vclock.Time
	rt.Spawn(core.Then(gen.Run(), core.Do(func() {
		end = clk.Now() // capture before the idle clock races ahead
		close(done)
	})))
	<-done
	elapsed := time.Duration(end - start)
	// Quiesce to the accept-loop thread before reading counters: handler
	// retirements may still be in flight on other workers.
	rt.WaitLive(1)

	run := OverloadRun{
		Conns:     conns,
		OfferedX:  offeredX,
		Protected: protected,
		Requests:  gen.Requests.Load(),
		Errors:    gen.Errors.Load(),
		P99:       time.Duration(gen.Latency().Quantile(0.99)) * time.Microsecond,
	}
	if elapsed > 0 {
		run.GoodputMBps = float64(gen.Goodput.Load()) / float64(MB) / elapsed.Seconds()
	}
	snap := stats.Snapshot{}
	snap.Merge("sched", rt.Stats().Snapshot())
	snap.Merge("kernel", k.Metrics().Snapshot())
	snap.Merge("disk", fs.Disk().Metrics().Snapshot())
	snap.Merge("httpd", srv.Metrics().Snapshot())
	if lim := srv.Limiter(); lim != nil {
		snap.Merge("admission", lim.Metrics().Snapshot())
	}
	if b := srv.Breaker(); b != nil {
		snap.Merge("breaker", b.Metrics().Snapshot())
	}
	if in != nil {
		snap.Merge("faults", in.Metrics().Snapshot())
	}
	run.Shed = uint64(snap.Counter("httpd.shed_fast"))
	run.Snapshot = snap
	return run
}

// Fig19OverloadTable runs the full grid: each offered-load factor with
// protection off and on.
func Fig19OverloadTable(cfg Fig19Config, conns int, factors []int) []OverloadRun {
	out := make([]OverloadRun, 0, 2*len(factors))
	for _, x := range factors {
		out = append(out, Fig19Overload(cfg, conns, x, false))
		out = append(out, Fig19Overload(cfg, conns, x, true))
	}
	return out
}
