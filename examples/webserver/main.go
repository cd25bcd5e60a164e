// Static-file web server (the paper's §5.2 case study), scaled for a
// quick run: the hybrid server (monadic threads + epoll + AIO + cache)
// serves a fileset from the simulated disk to a multithreaded load
// generator, and the same run is repeated against the Apache-like
// thread-per-connection baseline for comparison.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/nptl"
	"hybrid/internal/vclock"
)

const (
	files    = 2048
	fileSize = 16 * 1024
	cacheSz  = 8 << 20
	conns    = 64
	requests = 1024
)

// run serves one full workload and returns MB/s of virtual time.
func run(name string, useApache bool) float64 {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	if err := loadgen.MakeFileset(fs, files, fileSize); err != nil {
		panic(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)

	if useApache {
		nrt := nptl.New(k, fs, nptl.Config{StackTouch: -1})
		ap := httpd.NewApacheLike(nrt, k, fs, httpd.ApacheConfig{PageCacheBytes: cacheSz})
		if err := ap.ListenAndServe("web:80"); err != nil {
			panic(err)
		}
	} else {
		srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: cacheSz})
		rt.Spawn(srv.ListenAndServe("web:80"))
	}

	gen := loadgen.New(io, loadgen.Config{
		Addr: "web:80", Clients: conns, Files: files,
		RequestsPerClient: requests / conns, Seed: 7,
		RTT: 300 * time.Microsecond, Bandwidth: 100_000_000 / 8,
	})
	start := clk.Now()
	done := make(chan struct{})
	var end vclock.Time
	rt.Spawn(core.Then(gen.Run(), core.Do(func() {
		end = clk.Now() // before the idle clock races through pending timers
		close(done)
	})))
	<-done
	elapsed := time.Duration(end - start)
	mbps := float64(gen.Bytes.Load()) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("%-22s %6d requests  %8v virtual  %.3f MB/s\n",
		name, gen.Requests.Load(), elapsed.Round(time.Millisecond), mbps)
	return mbps
}

func main() {
	fmt.Printf("disk-bound web workload: %d files × %d KB, %d MB cache, %d connections\n\n",
		files, fileSize/1024, cacheSz>>20, conns)
	h := run("hybrid server", false)
	a := run("apache-like baseline", true)
	fmt.Printf("\nhybrid/apache throughput ratio: %.2fx\n", h/a)
}
