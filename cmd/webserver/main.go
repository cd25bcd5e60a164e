// webserver runs the paper's case-study web server (§5.2) on the
// simulated stack and drives it with the load generator, printing a
// summary — a self-contained demonstration of the whole system: monadic
// threads, epoll and AIO event loops, the disk elevator, the cache, and
// the client workload. With -tcp the server is re-plugged onto the
// application-level TCP stack (the paper's one-line transport switch).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/faults"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/netsim"
	"hybrid/internal/overload"
	"hybrid/internal/prof"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

func main() {
	files := flag.Int("files", 4096, "fileset size")
	fileKB := flag.Int("file-kb", 16, "file size in KB")
	cacheMB := flag.Int64("cache-mb", 100, "server cache in MB")
	conns := flag.Int("conns", 128, "concurrent client connections")
	requests := flag.Int("requests", 4096, "total requests")
	useTCP := flag.Bool("tcp", false, "serve over the application-level TCP stack")
	emitStats := flag.Bool("stats", false, "dump the merged metrics snapshot as JSON")
	faultSpec := flag.String("faults", "",
		"deterministic fault plan: seed=N,rate=R[,<op>=R,oneshot:<op>=K]; empty disables")
	admit := flag.Int("admit", 0,
		"admission control: bound on in-flight connections (0 disables the overload machinery)")
	shed := flag.Bool("shed", false,
		"arm a circuit breaker on the disk path: uncached GETs shed with fast 503s while it is open (requires -admit)")
	workers := flag.Int("workers", 0,
		"runtime worker count (0 keeps the default of 2)")
	stealing := flag.Bool("stealing", false, "use per-worker deques with work stealing")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *mutexProfile, *blockProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webserver:", err)
		os.Exit(2)
	}
	defer stopProf()

	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webserver:", err)
		os.Exit(2)
	}

	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(fs, *files, int64(*fileKB)*1024); err != nil {
		panic(err)
	}
	nw := *workers
	if nw <= 0 {
		nw = 2
	}
	rt := core.NewRuntime(core.Options{Workers: nw, WorkStealing: *stealing, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)

	scfg := httpd.ServerConfig{CacheBytes: *cacheMB << 20}
	if *admit > 0 {
		ocfg := &httpd.OverloadConfig{MaxConns: *admit}
		if *shed {
			ocfg.Breaker = &overload.BreakerConfig{
				FailureThreshold: 5,
				Cooldown:         10 * time.Millisecond,
			}
		}
		scfg.Overload = ocfg
	} else if *shed {
		fmt.Fprintln(os.Stderr, "webserver: -shed requires -admit")
		os.Exit(2)
	}
	var in *faults.Injector
	if fcfg.Active() {
		// An active plan also arms the server's graceful-degradation
		// path: bounded retries on disk faults, 503 on a dead file.
		in = faults.New(*fcfg, clk)
		k.SetFaults(in)
		fs.Disk().SetFaults(in)
		scfg.DiskRetries = 2
	}
	srv := httpd.NewServer(io, scfg)

	if *useTCP {
		// One-line transport switch: the same server over TCP/netsim,
		// driven by monadic clients speaking HTTP over the same stack.
		runOverTCP(clk, rt, srv, in, *files, *conns, *requests, *emitStats)
		return
	}

	rt.Spawn(srv.ListenAndServe("web:80"))
	gen := loadgen.New(io, loadgen.Config{
		Addr: "web:80", Clients: *conns, Files: *files,
		RequestsPerClient: max(1, *requests / *conns),
		Seed:              1, RTT: 300 * time.Microsecond, Bandwidth: 100_000_000 / 8,
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

	hits, misses, _ := srv.Cache().Stats()
	d := fs.Disk().Snapshot()
	fmt.Printf("requests:        %d (errors %d)\n", gen.Requests.Load(), gen.Errors.Load())
	fmt.Printf("bytes served:    %.1f MB\n", float64(gen.Bytes.Load())/(1<<20))
	fmt.Printf("virtual elapsed: %v\n", elapsed)
	fmt.Printf("throughput:      %.3f MB/s\n",
		float64(gen.Bytes.Load())/(1<<20)/elapsed.Seconds())
	fmt.Printf("cache:           %d hits / %d misses (%.1f%% hit rate)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))
	fmt.Printf("disk:            %d requests, mean queue %.1f, head moved %d blocks\n",
		d.Requests, float64(d.TotalQueue)/float64(max64(1, d.Dispatches)), d.SeekBlocks)
	if lim := srv.Limiter(); lim != nil {
		ls := lim.Metrics().Snapshot()
		fmt.Printf("overload:        admitted %d (high-water %d/%d), shed %d, backlog rejects %d\n",
			ls.Counter("admitted"), ls["inflight"].Max, *admit,
			srv.Metrics().Snapshot().Counter("shed_fast"),
			k.Metrics().Snapshot().Counter("backlog_rejects"))
	}
	if in != nil {
		fmt.Printf("%s\n", in.Summary())
	}
	if *emitStats {
		snap := stats.Snapshot{}
		snap.Merge("sched", rt.Stats().Snapshot())
		snap.Merge("kernel", k.Metrics().Snapshot())
		snap.Merge("disk", fs.Disk().Metrics().Snapshot())
		snap.Merge("httpd", srv.Metrics().Snapshot())
		snap.Merge("bufpool", bufpool.Metrics().Snapshot())
		if lim := srv.Limiter(); lim != nil {
			snap.Merge("admission", lim.Metrics().Snapshot())
		}
		if b := srv.Breaker(); b != nil {
			snap.Merge("breaker", b.Metrics().Snapshot())
		}
		if in != nil {
			snap.Merge("faults", in.Metrics().Snapshot())
		}
		fmt.Println()
		if err := snap.WriteJSON(os.Stdout); err != nil {
			panic(err)
		}
	}
}

// runOverTCP serves and loads the same HTTP workload across the
// application-level TCP stack on a simulated Ethernet.
func runOverTCP(clk *vclock.VirtualClock, rt *core.Runtime, srv *httpd.Server, in *faults.Injector, files, conns, requests int, emitStats bool) {
	net := netsim.New(clk, 1)
	// In TCP mode the plan also reaches the wire: packet drop/dup/delay
	// on the simulated Ethernet and segment drop/reset in the stack.
	net.SetFaults(in)
	hostS, err := net.Host("server", netsim.Ethernet100())
	if err != nil {
		panic(err)
	}
	hostC, err := net.Host("client", netsim.Ethernet100())
	if err != nil {
		panic(err)
	}
	stackS := tcp.NewStack(hostS, tcp.Config{Faults: in})
	stackC := tcp.NewStack(hostC, tcp.Config{})
	l, err := stackS.Listen(80)
	if err != nil {
		panic(err)
	}
	rt.Spawn(srv.ServeTCP(l))

	per := max(1, requests/conns)
	var served, bytes, errors int64
	var mu sync.Mutex
	wg := core.NewWaitGroup(conns)
	start := clk.Now()
	for ci := 0; ci < conns; ci++ {
		ci := ci
		client := core.Bind(stackC.ConnectM("server", 80), func(c *tcp.Conn) core.M[core.Unit] {
			rng := uint64(ci)*0x9E3779B97F4A7C15 + 7
			buf := make([]byte, 8192)
			return core.Seq(
				core.ForN(per, func(int) core.M[core.Unit] {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					name := loadgen.FileName(int(rng % uint64(files)))
					req := []byte("GET /" + name + " HTTP/1.1\r\nHost: s\r\n\r\n")
					hb := &httpd.HeadBuffer{}
					readResp := func() core.M[core.Unit] {
						var loop func(remaining int64) core.M[core.Unit]
						var waitHead func() core.M[core.Unit]
						waitHead = func() core.M[core.Unit] {
							return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
								if n == 0 {
									return core.Throw[core.Unit](fmt.Errorf("closed mid-response"))
								}
								return core.Bind(
									core.NBIOe(func() (string, error) { return hb.Feed(buf[:n]) }),
									func(head string) core.M[core.Unit] {
										if head == "" {
											return waitHead()
										}
										_, cl, err := httpd.ParseResponseHead(head)
										if err != nil {
											return core.Throw[core.Unit](err)
										}
										rest := int64(hb.Buffered())
										hb.Reset()
										mu.Lock()
										served++
										bytes += cl
										mu.Unlock()
										return loop(cl - rest)
									},
								)
							})
						}
						loop = func(remaining int64) core.M[core.Unit] {
							if remaining <= 0 {
								return core.Skip
							}
							want := int64(len(buf))
							if want > remaining {
								want = remaining
							}
							return core.Bind(c.ReadM(buf[:want]), func(n int) core.M[core.Unit] {
								if n == 0 {
									return core.Throw[core.Unit](fmt.Errorf("truncated body"))
								}
								return loop(remaining - int64(n))
							})
						}
						return waitHead()
					}
					return core.Then(
						core.Bind(c.WriteM(req), func(int) core.M[core.Unit] { return core.Skip }),
						readResp(),
					)
				}),
				c.CloseM(),
			)
		})
		rt.Spawn(core.Finally(
			core.Catch(client, func(error) core.M[core.Unit] {
				mu.Lock()
				errors++
				mu.Unlock()
				return core.Skip
			}),
			wg.Done(),
		))
	}
	done := make(chan struct{})
	var end vclock.Time
	// The end time must be captured inside the workload: once nothing
	// holds the virtual clock busy, it races ahead through pending
	// timers (TIME_WAIT's 2*MSL) before the main goroutine can look.
	rt.Spawn(core.Then(wg.Wait(), core.Do(func() {
		end = clk.Now()
		close(done)
	})))
	<-done
	elapsed := time.Duration(end - start)
	ss := stackS.Snapshot()
	fmt.Println("transport:       application-level TCP over simulated Ethernet")
	fmt.Printf("requests:        %d (errors %d)\n", served, errors)
	fmt.Printf("bytes served:    %.1f MB in %v virtual = %.3f MB/s\n",
		float64(bytes)/(1<<20), elapsed.Round(time.Millisecond),
		float64(bytes)/(1<<20)/elapsed.Seconds())
	fmt.Printf("tcp (server):    %d segs out, %d retransmits, %d conns\n",
		ss.SegsOut, ss.Retransmits+ss.FastRetransmits, ss.ConnsOpened)
	if in != nil {
		fmt.Printf("%s\n", in.Summary())
	}
	if emitStats {
		snap := stats.Snapshot{}
		snap.Merge("sched", rt.Stats().Snapshot())
		snap.Merge("tcp", stackS.Metrics().Snapshot())
		snap.Merge("httpd", srv.Metrics().Snapshot())
		snap.Merge("bufpool", bufpool.Metrics().Snapshot())
		if in != nil {
			snap.Merge("faults", in.Metrics().Snapshot())
		}
		fmt.Println()
		if err := snap.WriteJSON(os.Stdout); err != nil {
			panic(err)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
