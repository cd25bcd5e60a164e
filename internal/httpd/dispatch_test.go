package httpd_test

import (
	"bytes"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// The serve loop's node sequence is what the figures' virtual outcomes
// are made of: a node added, dropped, or moved changes when each thread
// parks and resumes. These pins serve one kernel-socket connection per
// request kind on a runtime that dispatches exactly one trace node per
// turn (BatchSteps 1, inline blocking pool, one worker), so the dispatch
// count is the number of nodes both threads executed. The wanted counts
// were recorded before the serve paths were merged into one request
// machine; a change that moves a node fails here, not only in the
// figure-determinism gate.

const closeHdr = "Host: t\r\nConnection: close\r\n\r\n"

// dispatchCase is one connection's client script: each part is sent
// whole, with a virtual-time pause between parts so the server reads them
// separately.
type dispatchCase struct {
	name   string
	parts  []string
	cfg    httpd.ServerConfig
	status string // first status line the client must see
	want   uint64 // dispatches for the whole connection, both threads
}

func dispatchCases() []dispatchCase {
	lc := &httpd.LifecycleConfig{
		IdleTimeout:       time.Second,
		HeaderTimeout:     time.Second,
		BodyTimeout:       time.Second,
		WriteStallTimeout: time.Second,
	}
	return []dispatchCase{
		{name: "cached GET", status: "HTTP/1.1 200", want: 30, parts: []string{
			"GET /file-0 HTTP/1.1\r\nHost: t\r\n\r\nGET /file-0 HTTP/1.1\r\n" + closeHdr}},
		{name: "miss", status: "HTTP/1.1 200", want: 43, parts: []string{
			"GET /file-1 HTTP/1.1\r\n" + closeHdr}},
		{name: "HEAD", status: "HTTP/1.1 200", want: 23, parts: []string{
			"HEAD /file-1 HTTP/1.1\r\n" + closeHdr}},
		{name: "404", status: "HTTP/1.1 404", want: 25, parts: []string{
			"GET /missing HTTP/1.1\r\n" + closeHdr}},
		{name: "405", status: "HTTP/1.1 405", want: 22, parts: []string{
			"POST /file-0 HTTP/1.1\r\n" + closeHdr}},
		{name: "HTTP/1.0 close", status: "HTTP/1.1 200", want: 22, parts: []string{
			"GET /file-0 HTTP/1.0\r\n\r\n"}},
		{name: "fragmented head", status: "HTTP/1.1 200", want: 29, parts: []string{
			"GET /file-0 HT", "TP/1.1\r\n" + closeHdr}},
		{name: "lifecycle cached GET", status: "HTTP/1.1 200", want: 30,
			cfg: httpd.ServerConfig{Lifecycle: lc}, parts: []string{
				"GET /file-0 HTTP/1.1\r\nHost: t\r\n\r\nGET /file-0 HTTP/1.1\r\n" + closeHdr}},
	}
}

// serveOneConn serves one scripted connection and returns the runtime's
// dispatch count and everything the client read.
func serveOneConn(t *testing.T, dc dispatchCase) (uint64, []byte) {
	t.Helper()
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	for i, size := range []int64{4096, 20000} {
		if _, err := fs.Create(loadgen.FileName(i), size, false); err != nil {
			t.Fatal(err)
		}
	}
	rt := core.NewRuntime(core.Options{Workers: 1, BatchSteps: 1, BlioWorkers: core.BlioInline, Clock: clk})
	io := hio.New(rt, k, fs)
	defer rt.Shutdown()
	cfg := dc.cfg
	cfg.CacheBytes = 1 << 20
	cfg.ChunkBytes = 8192
	srv := httpd.NewServer(io, cfg)
	srv.Cache().Put("file-0", bytes.Repeat([]byte{'x'}, 4096))

	lfd, err := k.Listen("web:80", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := k.Connect("web:80")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := k.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}

	var out []byte
	send := core.Skip
	for i, p := range dc.parts {
		if i > 0 {
			send = core.Then(send, io.Sleep(time.Millisecond))
		}
		send = core.Then(send, core.Bind(io.SockSend(cfd, []byte(p)),
			func(int) core.M[core.Unit] { return core.Skip }))
	}
	client := core.Seq(send, readUntilClosed(io, cfd, &out), io.CloseFD(cfd))

	// One root thread forks both sides, so their start order does not
	// depend on when the worker goroutine first runs. The clock is held
	// while the connection starts: a lifecycle server arms its idle
	// deadline there, and time must not pass before the threads run.
	clk.Enter()
	rt.Spawn(core.Seq(core.Fork(srv.ServeTransport(httpd.SockTransport{IO: io, FD: sfd})), core.Fork(client)))
	clk.Exit()
	rt.WaitIdle()
	return rt.Switches(), out
}

func TestServeDispatchCountsPinned(t *testing.T) {
	for _, dc := range dispatchCases() {
		t.Run(dc.name, func(t *testing.T) {
			got, out := serveOneConn(t, dc)
			if !bytes.HasPrefix(out, []byte(dc.status)) {
				t.Fatalf("response starts %q, want %q", out[:min(len(out), 16)], dc.status)
			}
			if got != dc.want {
				t.Fatalf("%d dispatches, want %d: a serve-path node moved", got, dc.want)
			}
		})
	}
}
