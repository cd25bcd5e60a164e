package main

import (
	"fmt"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// The paper's client network (§5.2): 300 µs round trip, 100 Mbps.
const (
	linkRTT       = 300 * time.Microsecond
	linkBandwidth = 100_000_000 / 8
	serverAddr    = "web:80"
)

// spec describes one workload: the world to build and the closed-loop
// load to drive through it. Every round of a run builds a fresh world
// from the same spec and seed, so every round replays the same virtual
// history.
type spec struct {
	name       string
	files      int   // fileset size
	workingSet int   // files the clients draw from
	fileBytes  int64 // size of every file
	cacheBytes int64 // server cache
	clients    int
	perClient  int // requests per client
	overTCP    bool
	// subSeeds is the number of request streams a run cycles through,
	// each derived from the workload seed. Rounds take them in turn, so
	// the virtual metrics of one seed always pool the same subSeeds
	// histories, however many rounds the time budget allows.
	subSeeds int
	// load returns the client program and the tally it fills.
	load func(w *world, seed uint64) (core.M[core.Unit], *tally)
}

func (s spec) planned() uint64 { return uint64(s.clients * s.perClient) }

var specs = []spec{
	{
		name: "web-cached", files: 2048, workingSet: 64, fileBytes: 16 << 10,
		cacheBytes: 2 << 20, clients: 64, perClient: 512, subSeeds: 8, load: loadPersistent,
	},
	{
		name: "web-disk", files: 128 << 10, workingSet: 128 << 10, fileBytes: 16 << 10,
		cacheBytes: 100 << 20, clients: 64, perClient: 96, subSeeds: 8, load: loadPersistent,
	},
	{
		name: "web-churn", files: 64, workingSet: 64, fileBytes: 512,
		cacheBytes: 2 << 20, clients: 64, perClient: 4 * 96, subSeeds: 8, load: loadSessions,
	},
	{
		name: "web-tcp", files: 64, workingSet: 64, fileBytes: 16 << 10,
		cacheBytes: 2 << 20, clients: 64, perClient: 64, overTCP: true, subSeeds: 16, load: loadTCP,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// world is one simulated system built only from the packages' public
// constructors: clock, kernel, fileset, runtime, I/O layer, and a
// listening server — over kernel sockets, or over TCP on netsim.
type world struct {
	spec spec
	clk  *vclock.VirtualClock
	k    *kernel.Kernel
	fs   *kernel.FS
	rt   *core.Runtime
	io   *hio.IO
	srv  *httpd.Server

	net            *netsim.Network // web-tcp only
	server, client *tcp.Stack      // web-tcp only

	baseFDs int // open descriptors once the server listens
}

func buildWorld(s spec) (*world, error) {
	w := &world{spec: s, clk: vclock.NewVirtual()}
	w.k = kernel.New(w.clk)
	w.fs = kernel.NewFS(disk.New(w.clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(w.fs, s.files, s.fileBytes); err != nil {
		return nil, fmt.Errorf("fileset: %w", err)
	}
	w.rt = core.NewRuntime(core.Options{Workers: 1, Clock: w.clk})
	w.io = hio.New(w.rt, w.k, w.fs)
	w.srv = httpd.NewServer(w.io, httpd.ServerConfig{CacheBytes: s.cacheBytes, ChunkBytes: int(s.fileBytes)})
	if s.overTCP {
		w.net = netsim.New(w.clk, 1)
		hs, err := w.net.Host("server", netsim.Ethernet100())
		if err != nil {
			w.close()
			return nil, err
		}
		hc, err := w.net.Host("client", netsim.Ethernet100())
		if err != nil {
			w.close()
			return nil, err
		}
		w.server = tcp.NewStack(hs, tcp.Config{})
		w.client = tcp.NewStack(hc, tcp.Config{})
		l, err := w.server.Listen(80)
		if err != nil {
			w.close()
			return nil, err
		}
		w.rt.Spawn(w.srv.ServeTCP(l))
	} else {
		serve, err := w.srv.BindAndServe(serverAddr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.rt.Spawn(serve)
	}
	w.baseFDs = w.k.OpenFDs()
	return w, nil
}

// close stops the worker loops. The accept loop stays parked; the world
// is garbage once the caller drops it.
func (w *world) close() {
	w.rt.Shutdown()
	w.io.Close()
}

// tally is what the clients of one round observed. Fields are updated
// from client threads, so they are guarded by mu.
type tally struct {
	mu        sync.Mutex
	responses uint64 // responses read in full
	ok        uint64 // 2xx responses
	goodBytes uint64 // body bytes of 2xx responses
	clientErr uint64 // clients or sessions that died on an error
	reg       *stats.Registry
	lat       *stats.Histogram
}

func newTally() *tally {
	reg := stats.NewRegistry()
	return &tally{reg: reg, lat: reg.Histogram("latency_us", latencyBounds...)}
}

// latencyBounds are loadgen's latency buckets: powers of two microseconds
// up to about 67 s of virtual time.
var latencyBounds = stats.PowersOfTwo(1 << 26)

// addGenerator folds one finished loadgen generator into the tally. The
// generator's histogram is copied sample by sample: Quantile(i/n) is the
// bucket bound of the i-th smallest sample, which lands in the same bucket
// of the identically bounded tally histogram.
func (t *tally) addGenerator(g *loadgen.Generator) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.responses += g.Requests.Load()
	t.ok += g.Statuses[2].Load()
	t.goodBytes += g.Goodput.Load()
	t.clientErr += g.Errors.Load()
	h := g.Latency()
	n := h.Count()
	for i := uint64(1); i <= n; i++ {
		t.lat.Observe(h.Quantile(float64(i) / float64(n)))
	}
}

func (s spec) loadgenConfig(clients, perClient int, seed uint64) loadgen.Config {
	return loadgen.Config{
		Addr:              serverAddr,
		Clients:           clients,
		Files:             s.workingSet,
		RequestsPerClient: perClient,
		Seed:              seed,
		RTT:               linkRTT,
		Bandwidth:         linkBandwidth,
		MeasureLatency:    true,
	}
}

// loadPersistent is the paper's §5.2 client: every client thread holds
// one keep-alive connection and issues its requests back to back.
func loadPersistent(w *world, seed uint64) (core.M[core.Unit], *tally) {
	t := newTally()
	g := loadgen.New(w.io, w.spec.loadgenConfig(w.spec.clients, w.spec.perClient, seed))
	return core.Then(g.Run(), core.Do(func() { t.addGenerator(g) })), t
}

// sessionRequests is the number of GETs per web-churn connection.
const sessionRequests = 4

// loadSessions is web-churn: every client thread runs fixed-count
// sessions one after another, each its own one-client generator that
// connects, issues sessionRequests GETs and closes. The clients are
// forked from inside the load's own thread, so the virtual clock cannot
// advance between their spawns.
func loadSessions(w *world, seed uint64) (core.M[core.Unit], *tally) {
	t := newTally()
	s := w.spec
	sessions := s.perClient / sessionRequests
	wg := core.NewWaitGroup(s.clients)
	client := func(i int) core.M[core.Unit] {
		return core.ForN(sessions, func(j int) core.M[core.Unit] {
			g := loadgen.New(w.io, s.loadgenConfig(1, sessionRequests, mix(seed, uint64(i), uint64(j))))
			return core.Then(g.Run(), core.Do(func() { t.addGenerator(g) }))
		})
	}
	return core.Then(
		core.ForN(s.clients, func(i int) core.M[core.Unit] {
			return core.Fork(core.Finally(client(i), wg.Done()))
		}),
		wg.Wait(),
	), t
}

// loadTCP is web-tcp: keep-alive clients on the client host's TCP stack,
// each issuing its GETs over one connection to the server host across
// the simulated Ethernet. Latency is recorded, like loadgen's, from the
// send to the last body byte.
func loadTCP(w *world, seed uint64) (core.M[core.Unit], *tally) {
	t := newTally()
	s := w.spec
	wg := core.NewWaitGroup(s.clients)
	client := func(i int) core.M[core.Unit] {
		rng := mix(seed, uint64(i), 0)
		buf := make([]byte, 8192)
		hb := &httpd.HeadBuffer{}
		return core.Bind(w.client.ConnectM("server", 80), func(c *tcp.Conn) core.M[core.Unit] {
			request := func(int) core.M[core.Unit] {
				rng = xorshift(rng)
				req := []byte("GET /" + loadgen.FileName(int(rng%uint64(s.workingSet))) +
					" HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n")
				var start vclock.Time
				var status int
				var length int64
				var drain func(remaining int64) core.M[core.Unit]
				drain = func(remaining int64) core.M[core.Unit] {
					if remaining <= 0 {
						return core.Do(func() {
							us := int64(time.Duration(w.clk.Now()-start) / time.Microsecond)
							t.mu.Lock()
							t.responses++
							if status/100 == 2 {
								t.ok++
								t.goodBytes += uint64(length)
							}
							t.lat.Observe(us)
							t.mu.Unlock()
						})
					}
					want := min(int64(len(buf)), remaining)
					return core.Bind(c.ReadM(buf[:want]), func(n int) core.M[core.Unit] {
						if n == 0 {
							return core.Throw[core.Unit](fmt.Errorf("truncated body"))
						}
						return drain(remaining - int64(n))
					})
				}
				var head func() core.M[core.Unit]
				head = func() core.M[core.Unit] {
					return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
						if n == 0 {
							return core.Throw[core.Unit](fmt.Errorf("closed mid-response"))
						}
						h, err := hb.Feed(buf[:n])
						if err != nil {
							return core.Throw[core.Unit](err)
						}
						if h == "" {
							return head()
						}
						st, cl, err := httpd.ParseResponseHead(h)
						if err != nil {
							return core.Throw[core.Unit](err)
						}
						status, length = st, cl
						rest := int64(hb.Buffered())
						hb.Reset()
						return drain(cl - rest)
					})
				}
				return core.Seq(
					core.Do(func() { start = w.clk.Now() }),
					core.Bind(c.WriteM(req), func(int) core.M[core.Unit] { return core.Skip }),
					head(),
				)
			}
			return core.Finally(core.ForN(s.perClient, request), c.CloseM())
		})
	}
	return core.Then(
		core.ForN(s.clients, func(i int) core.M[core.Unit] {
			return core.Fork(core.Finally(
				core.Catch(client(i), func(error) core.M[core.Unit] {
					t.mu.Lock()
					t.clientErr++
					t.mu.Unlock()
					return core.Skip
				}),
				wg.Done()))
		}),
		wg.Wait(),
	), t
}

// mix derives an independent stream seed from the workload seed.
func mix(seed, a, b uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(a+1) + 0xBF58476D1CE4E5B9*(b+1)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31 | 1
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
