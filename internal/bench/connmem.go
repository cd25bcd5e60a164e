package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// ConnMemPoint is one measurement of per-connection memory: the live heap
// cost of N established server connections, parked versus active.
type ConnMemPoint struct {
	Conns int
	// ParkedBytesPerConn is the cost of an idle keep-alive connection:
	// one served request behind it, the handler parked on the next head,
	// and (lifecycle mode) one armed timer-wheel idle deadline.
	ParkedBytesPerConn float64
	// ActiveBytesPerConn is the cost of a connection mid-response: the
	// peer is not reading, so the handler is blocked in a write with the
	// socket buffer full and a response chunk in flight.
	ActiveBytesPerConn float64
}

// ConnMemTest measures per-connection live heap for parked and active
// connections — the first capacity measurement for the C10M target. Each
// phase builds a fresh lifecycle-enabled server, establishes conns
// connections into the target state, freezes virtual time (so armed
// wheel deadlines are pinned state, not events), and measures major-GC
// live heap against the empty-server baseline.
//
// The figure includes both halves of each connection — the kernel-sim
// socket rings plus the client thread — so it measures the whole
// simulated connection. The rings are elastic chunked buffers
// (internal/kernel/pipe.go): logical capacity 64 KB per direction, but
// segments are pooled and released on drain, so a parked keep-alive
// connection holds no ring memory at all and the figure is dominated by
// what remains — the handler's pooled read buffer, the client's drain
// buffer, two monadic threads, the FD table entries, and an armed wheel
// timer. (The old flat rings allocated 2 × 64 KB eagerly at connect and
// put the parked figure at 137.7 KB/conn; elastic rings put it under
// 8 KB, which is what makes the Figure 22 million-connection sweep fit
// in memory.) An active connection still pays for the buffered bytes
// actually in flight: a stalled 256 KB response fills the server's send
// ring to its logical capacity.
func ConnMemTest(conns int) ConnMemPoint {
	return ConnMemPoint{
		Conns:              conns,
		ParkedBytesPerConn: connMemPhase(conns, false),
		ActiveBytesPerConn: connMemPhase(conns, true),
	}
}

func connMemPhase(conns int, active bool) float64 {
	clk := vclock.NewVirtual()
	// Freeze virtual time for the whole phase: connection setup and
	// cache-hit serving need no clock, and the hold keeps every armed
	// lifecycle deadline parked on the wheel instead of firing while the
	// heap is being measured.
	clk.Enter()
	defer clk.Exit()

	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)

	// Parked connections finish one small response; active ones stall
	// inside a response bigger than the socket buffer's logical capacity.
	size := int64(512)
	if active {
		size = 256 * 1024
	}
	if _, err := fs.Create("conn-mem", size, false); err != nil {
		panic(err)
	}
	srv := httpd.NewServer(io, httpd.ServerConfig{
		CacheBytes: 1 << 20,
		// The listen backlog must hold every client: all conns connect
		// before the accept loop gets a dispatch turn, and with virtual
		// time frozen a refused connect cannot back off and retry.
		Overload: &httpd.OverloadConfig{Backlog: conns + 16},
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
	data := make([]byte, size)
	for j := range data {
		data[j] = kernel.PatternByte("conn-mem", int64(j))
	}
	srv.Cache().Put("conn-mem", data)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Each client drives its connection into the target state, then parks
	// in a Suspend that never resumes; the retained resume hooks pin the
	// client half exactly as MemTest pins its threads.
	holders := make([]func(core.Unit), 0, conns)
	var mu sync.Mutex
	park := core.Suspend(func(resume func(core.Unit)) {
		mu.Lock()
		holders = append(holders, resume)
		mu.Unlock()
	})
	req := []byte("GET /conn-mem HTTP/1.1\r\nHost: mem\r\nConnection: keep-alive\r\n\r\n")
	client := func() core.M[core.Unit] {
		return core.Bind(io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
			send := core.Bind(io.SockSend(fd, req), func(int) core.M[core.Unit] { return core.Skip })
			if active {
				// Send and never read: the server blocks mid-response.
				return core.Then(send, park)
			}
			// Consume the full response, then idle on the keep-alive
			// connection. The response head is ~130 bytes; draining
			// size+64 guarantees the whole body arrived without parsing.
			buf := make([]byte, 2048)
			want := int(size) + 64
			var drain func(got int) core.M[core.Unit]
			drain = func(got int) core.M[core.Unit] {
				if got >= want {
					return park
				}
				return core.Bind(io.SockRead(fd, buf), func(n int) core.M[core.Unit] {
					if n == 0 {
						return core.Throw[core.Unit](fmt.Errorf("connmem: response truncated at %d bytes", got))
					}
					return drain(got + n)
				})
			}
			return core.Then(send, drain(0))
		})
	}
	for i := 0; i < conns; i++ {
		rt.Spawn(client())
	}

	// Quiesce: virtual time is frozen, so the system is done when the
	// workers drain — every client parked (or blocked sending) and every
	// handler parked on its next read or stalled write.
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

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	live := after.HeapAlloc - before.HeapAlloc
	runtime.KeepAlive(holders)
	return float64(live) / float64(conns)
}
