package bench

import (
	"math"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// Fig21Config parameterizes the adversarial-robustness figure: a fixed
// population of well-behaved closed-loop clients shares a
// connection-limited server with a fleet of hostile clients, and the
// figure contrasts the good clients' goodput with the connection-
// lifecycle defenses off versus on. The server is sized so the attack
// decides the outcome: attackers alone can pin every connection slot,
// and only the timer-wheel deadlines give the slots back.
type Fig21Config struct {
	// Files and FileBytes shape the (fully cached) fileset.
	Files     int
	FileBytes int64
	// CacheBytes comfortably holds the whole fileset: the figure is
	// about connection slots, not disk contention.
	CacheBytes int64
	// GoodClients run closed-loop sessions of SessionRequests requests
	// each for the whole horizon.
	GoodClients     int
	SessionRequests int
	// Attackers is the hostile client population — enough to occupy
	// MaxConns entirely when nothing evicts them.
	Attackers int
	// AttackInterval paces each attacker (byte trickle, reconnect gap).
	AttackInterval vclock.Duration
	// Horizon is the measured virtual-time window.
	Horizon vclock.Duration
	// MaxConns and Backlog bound the server: MaxConns in-flight
	// connections, Backlog connects parked behind them.
	MaxConns int
	Backlog  int
	// RTT and Bandwidth model the client-server link.
	RTT       time.Duration
	Bandwidth int64
	// Seed drives both populations' request streams and pacing jitter.
	Seed uint64
	// Lifecycle is the defended configuration (the "on" rows).
	Lifecycle httpd.LifecycleConfig
}

// DefaultFig21 sizes the contest so defenses are decisive: 64 attackers
// against 64 connection slots pin the server solid when left alone,
// while 10ms phase deadlines against a 20ms reconnect pace cap each
// hostile connection's slot duty-cycle near one quarter — leaving the
// 32 good clients slack to run near full speed.
func DefaultFig21() Fig21Config {
	return Fig21Config{
		Files:           64,
		FileBytes:       16 * 1024,
		CacheBytes:      4 << 20,
		GoodClients:     32,
		SessionRequests: 8,
		Attackers:       64,
		AttackInterval:  20 * time.Millisecond,
		Horizon:         time.Second,
		MaxConns:        64,
		Backlog:         32,
		RTT:             300 * time.Microsecond,
		Bandwidth:       100_000_000 / 8,
		Seed:            11,
		Lifecycle: httpd.LifecycleConfig{
			IdleTimeout:       10 * time.Millisecond,
			HeaderTimeout:     10 * time.Millisecond,
			BodyTimeout:       10 * time.Millisecond,
			WriteStallTimeout: 10 * time.Millisecond,
		},
	}
}

// Fig21Quick is reduced for tests and the determinism gate.
func Fig21Quick() Fig21Config {
	c := DefaultFig21()
	c.GoodClients = 16
	c.Attackers = 32
	c.MaxConns = 32
	c.Horizon = 250 * time.Millisecond
	return c
}

// Fig21Modes are the attack columns, in figure order. "none" is the
// no-attack baseline every other row is judged against.
var Fig21Modes = []string{"none", "slowloris", "idle", "read-stall", "churn"}

func fig21Mode(name string) (loadgen.AttackMode, bool) {
	switch name {
	case "slowloris":
		return loadgen.AttackSlowloris, true
	case "idle":
		return loadgen.AttackIdle, true
	case "read-stall":
		return loadgen.AttackReadStall, true
	case "churn":
		return loadgen.AttackChurn, true
	}
	return 0, false
}

// Fig21Point is one cell: an attack mode against one defense setting.
type Fig21Point struct {
	// Mode is the attack ("none" for the baseline).
	Mode string
	// Defended reports whether the lifecycle deadlines were armed.
	Defended bool
	// GoodputMBps is the well-behaved clients' delivered 2xx bytes per
	// second of virtual time across the horizon.
	GoodputMBps float64
	// GoodRequests and GoodErrors are the good clients' totals.
	GoodRequests uint64
	GoodErrors   uint64
	// P99Us is the good clients' p99 request latency (µs, virtual).
	P99Us int64
	// AttackConns and Torndown count hostile connections opened and torn
	// down by the server.
	AttackConns uint64
	Torndown    uint64
	// Sheds breaks the server's defense firings down by phase.
	Sheds httpd.LifecycleStats
}

// Fig21Run measures one cell.
func Fig21Run(cfg Fig21Config, mode string, defended bool) Fig21Point {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(fs, cfg.Files, cfg.FileBytes); err != nil {
		panic(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)

	scfg := httpd.ServerConfig{
		CacheBytes: cfg.CacheBytes,
		ChunkBytes: int(cfg.FileBytes),
		Overload: &httpd.OverloadConfig{
			MaxConns: cfg.MaxConns,
			Backlog:  cfg.Backlog,
		},
	}
	if defended {
		lc := cfg.Lifecycle
		scfg.Lifecycle = &lc
	}
	srv := httpd.NewServer(io, scfg)
	serve, err := srv.BindAndServe("web:80")
	if err != nil {
		panic(err)
	}
	rt.Spawn(serve)

	// Warm the cache: the figure measures connection-slot contention
	// under attack, not cold-start disk behavior, so every request in
	// the horizon is a cache hit.
	for i := 0; i < cfg.Files; i++ {
		name := loadgen.FileName(i)
		data := make([]byte, cfg.FileBytes)
		for j := range data {
			data[j] = kernel.PatternByte(name, int64(j))
		}
		srv.Cache().Put(name, data)
	}

	gen := loadgen.New(io, loadgen.Config{
		Addr:            "web:80",
		Clients:         cfg.GoodClients,
		Files:           cfg.Files,
		Seed:            cfg.Seed,
		RTT:             cfg.RTT,
		Bandwidth:       cfg.Bandwidth,
		MeasureLatency:  true,
		Horizon:         cfg.Horizon,
		SessionRequests: cfg.SessionRequests,
		ConnectBackoff:  2 * time.Millisecond,
		// A session wedged behind attacker-held slots is abandoned fast:
		// healthy sessions finish in ~10ms, so 50ms is generous for them
		// and cheap for the stuck.
		SessionTimeout: 50 * time.Millisecond,
	})

	var adv *loadgen.Adversary
	if am, ok := fig21Mode(mode); ok {
		adv = loadgen.NewAdversary(io, loadgen.AttackConfig{
			Addr:      "web:80",
			Attackers: cfg.Attackers,
			Mode:      am,
			Seed:      cfg.Seed * 1_000_003,
			Interval:  cfg.AttackInterval,
			Duration:  cfg.Horizon,
			Files:     cfg.Files,
		})
	}

	start := clk.Now()
	var end vclock.Time
	genDone := make(chan struct{})
	advDone := make(chan struct{})
	// Goodput is measured over the generator's own window — the
	// adversary's wind-down past the horizon must not dilute it.
	genBody := core.Then(gen.Run(), core.Do(func() {
		end = clk.Now()
		close(genDone)
	}))
	// Both populations launch from a single root thread, not separate
	// Spawns: a second Spawn from the host goroutine races the worker,
	// which can drain the first population to quiescence — arming timers
	// and advancing virtual time — before the second is published. Forking
	// inside the worker keeps the launch order (and so every (when, seq)
	// assignment) deterministic at any GOMAXPROCS.
	if adv != nil {
		advBody := core.Then(adv.Run(), core.Do(func() { close(advDone) }))
		rt.Spawn(core.Then(core.Fork(advBody), genBody))
	} else {
		close(advDone)
		rt.Spawn(genBody)
	}
	<-genDone
	<-advDone
	// Drain to the accept loop before snapshotting: sessions abandoned by
	// the generator's SessionTimeout leave their racer threads running
	// (FirstOf has no cancellation), and those stragglers are still
	// bumping the error and goodput counters when the done channels close.
	// The measurement window is unaffected — end was captured inside the
	// generator's own completion effect.
	rt.WaitLive(1)

	elapsed := time.Duration(end - start)
	goodput := math.NaN()
	if elapsed > 0 {
		goodput = float64(gen.Goodput.Load()) / float64(MB) / elapsed.Seconds()
	}
	p := Fig21Point{
		Mode:         mode,
		Defended:     defended,
		GoodputMBps:  goodput,
		GoodRequests: gen.Requests.Load(),
		GoodErrors:   gen.Errors.Load(),
		P99Us:        gen.Latency().Quantile(0.99),
		Sheds:        srv.LifecycleStats(),
	}
	if adv != nil {
		p.AttackConns = adv.Conns.Load()
		p.Torndown = adv.Torndown.Load()
	}
	return p
}

// Fig21 runs the full grid: the no-attack baseline and every attack
// mode, each with defenses off and on.
func Fig21(cfg Fig21Config) []Fig21Point {
	out := make([]Fig21Point, 0, 2*len(Fig21Modes))
	for _, mode := range Fig21Modes {
		for _, defended := range []bool{false, true} {
			out = append(out, Fig21Run(cfg, mode, defended))
		}
	}
	return out
}
