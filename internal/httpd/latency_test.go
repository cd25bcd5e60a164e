package httpd_test

import (
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

// TestServerOverTCPLatencyTrace guards end-to-end latency through the
// full stack (HTTP server + AIO disk + TCP + Ethernet): cold requests are
// disk-bound (~6ms), cached ones network-bound (~1.5ms). A stray
// retransmission timeout or lost wakeup shows up as a huge jump.
func TestServerOverTCPLatencyTrace(t *testing.T) {
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 5)
	hostS, _ := net.Host("server", netsim.Ethernet100())
	hostC, _ := net.Host("client", netsim.Ethernet100())
	stackS := tcp.NewStack(hostS, tcp.Config{})
	stackC := tcp.NewStack(hostC, tcp.Config{})
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.BenchGeometry()))
	for i := 0; i < 4; i++ {
		fs.Create(loadgenName(i), 16384, false)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20})
	l, _ := stackS.Listen(80)
	rt.Spawn(srv.ServeTCP(l))

	var marks []string
	var lastDone time.Duration
	done := make(chan struct{})
	client := core.Bind(stackC.ConnectM("server", 80), func(c *tcp.Conn) core.M[core.Unit] {
		buf := make([]byte, 8192)
		oneReq := func(i int) core.M[core.Unit] {
			req := []byte("GET /" + loadgenName(i%4) + " HTTP/1.1\r\nHost: s\r\n\r\n")
			var drain func(got int) core.M[core.Unit]
			drain = func(got int) core.M[core.Unit] {
				if got >= 16384 { // head+body roughly; just drain enough
					return core.Skip
				}
				return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
					return drain(got + n)
				})
			}
			return core.Seq(
				core.Bind(c.WriteM(req), func(int) core.M[core.Unit] { return core.Skip }),
				drain(0),
				core.Do(func() {
					lastDone = time.Duration(clk.Now())
					marks = append(marks, lastDone.String())
				}),
			)
		}
		return core.Seq(
			oneReq(0), oneReq(1), oneReq(2), oneReq(3),
			oneReq(0), oneReq(1),
			c.CloseM(),
			core.Do(func() { close(done) }),
		)
	})
	rt.Spawn(client)
	<-done
	for i, m := range marks {
		t.Logf("request %d done at %s", i, m)
	}
	// Assert on a time captured inside the workload: after the workload
	// parks, the quiescent clock races through TIME_WAIT timers.
	if lastDone > 100*time.Millisecond {
		t.Fatalf("6 requests took %v of virtual time", lastDone)
	}
}

func loadgenName(i int) string {
	return "file-" + string(rune('0'+i))
}
