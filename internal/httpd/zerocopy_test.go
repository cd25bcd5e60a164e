package httpd_test

import (
	"bytes"
	"fmt"
	"strings"
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

// Transcript oracle for the request machine: whatever mix of requests a
// connection carries — cache hits (written by reference), disk misses,
// HEADs, 404s, 405s, HTTP/1.0 closes, heads split across reads — the
// server must write exactly the bytes a model built from ResponseHead
// and the files' contents predicts. The files have different sizes,
// because pattern contents depend only on the offset: serving the wrong
// file would otherwise go unnoticed.

// transcriptFiles are the served files' sizes, by name.
var transcriptFiles = map[string]int64{"file-0": 1024, "file-1": 3000}

// replayTransport feeds scripted read chunks and records everything
// written. Chunks must fit the server's read buffer.
type replayTransport struct {
	chunks [][]byte
	i      int
	out    bytes.Buffer
}

func (r *replayTransport) Read(p []byte) core.M[int] {
	return core.NBIO(func() int {
		if r.i >= len(r.chunks) {
			return 0
		}
		c := r.chunks[r.i]
		r.i++
		return copy(p, c)
	})
}

func (r *replayTransport) Write(cell *[]byte) core.M[int] {
	return core.NBIO(func() int {
		r.out.Write(*cell)
		return len(*cell)
	})
}

func (r *replayTransport) Close() core.M[core.Unit] { return core.Skip }
func (r *replayTransport) Shed()                    {}

// requestTemplates is the request mix the oracle draws from.
var requestTemplates = []string{
	"GET /file-0 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /file-1 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /missing HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"HEAD /file-1 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"POST /file-0 HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
	"GET /file-1 HTTP/1.0\r\n\r\n", // no keep-alive: closes the connection
}

// fileBytes is a pattern-backed file's whole contents.
func fileBytes(name string, size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = kernel.PatternByte(name, int64(i))
	}
	return b
}

// expectTranscript models the server: the bytes it must write for the
// template sequence sel, given that every file fits the cache.
func expectTranscript(sel []byte) []byte {
	var out []byte
	cached := map[string]bool{}
	errorResp := func(status int, reason string, keep bool) {
		body := fmt.Sprintf("%d %s\n", status, reason)
		out = append(out, httpd.ResponseHead(status, int64(len(body)), keep)...)
		out = append(out, body...)
	}
	for _, b := range sel {
		req := requestTemplates[int(b)%len(requestTemplates)]
		line := req[:strings.Index(req, "\r\n")]
		f := strings.Fields(line)
		method, name, keep := f[0], strings.TrimPrefix(f[1], "/"), f[2] == "HTTP/1.1"
		size, exists := transcriptFiles[name]
		switch {
		case method != "GET" && method != "HEAD":
			errorResp(405, "Method Not Allowed", keep)
		case !exists:
			errorResp(404, "Not Found", keep)
		case method == "HEAD":
			out = append(out, httpd.ResponseHead(200, size, keep)...)
		case cached[name]:
			out = append(out, httpd.ResponseHead(200, size, keep)...)
			out = append(out, fileBytes(name, size)...)
		default:
			// A miss commits its head before it knows the connection's
			// fate, so it always announces keep-alive.
			out = append(out, httpd.ResponseHead(200, size, true)...)
			out = append(out, fileBytes(name, size)...)
			cached[name] = true
		}
		if !keep {
			break
		}
	}
	return out
}

// serveScript runs one request stream through a fresh server over the
// replay transport and returns the bytes the server wrote.
func serveScript(t *testing.T, chunks [][]byte) []byte {
	t.Helper()
	s := newSite(t, 0, 0)
	for name, size := range transcriptFiles {
		if _, err := s.fs.Create(name, size, false); err != nil {
			t.Fatal(err)
		}
	}
	srv := httpd.NewServer(s.io, httpd.ServerConfig{CacheBytes: 1 << 20, ChunkBytes: 1000})
	tr := &replayTransport{chunks: chunks}
	runAndWait(s.rt, srv.ServeTransport(tr))
	return tr.out.Bytes()
}

// script turns fuzz bytes into a chunked request stream: each byte picks
// a template, and the low bits pick a split point so heads arrive both
// whole and fragmented.
func script(sel []byte) [][]byte {
	var chunks [][]byte
	for _, b := range sel {
		req := requestTemplates[int(b)%len(requestTemplates)]
		if cut := int(b) % len(req); b%3 == 0 && cut > 0 {
			chunks = append(chunks, []byte(req[:cut]), []byte(req[cut:]))
		} else {
			chunks = append(chunks, []byte(req))
		}
	}
	return chunks
}

func checkTranscript(t *testing.T, sel []byte) {
	t.Helper()
	got, want := serveScript(t, script(sel)), expectTranscript(sel)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("transcript for %v: %d bytes, want %d; first difference at byte %d",
			sel, len(got), len(want), i)
	}
}

func TestServeTranscriptMatchesOracle(t *testing.T) {
	checkTranscript(t, []byte{0, 0, 1, 2, 3, 4, 0, 1, 3, 6, 9, 12, 1, 0, 5, 0})
}

func FuzzServeTranscript(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{5, 0})
	f.Add([]byte{3, 3, 3, 0, 0, 0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, sel []byte) {
		if len(sel) == 0 || len(sel) > 32 {
			t.Skip()
		}
		checkTranscript(t, sel)
	})
}

// The TCP transport sends by reference, so a body chunk it is handed
// must never be reused while the stack may still transmit it. A file
// larger than CacheBytes streams through per-read chunks smaller than
// the file. The server's link is slow and drops one data segment, so
// accepted bytes wait in the send buffer, and one is retransmitted from
// it, long after the next chunk has been read from disk. Every body
// byte the client receives, on two keep-alive requests, must be the
// file's.
func TestTCPTransportStreamsLargeFileIntact(t *testing.T) {
	const size = 40000
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 5)
	hostS, err := net.Host("server", netsim.LinkParams{Bandwidth: 1 << 20, Latency: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hostC, err := net.Host("client", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	net.SetPath("server", "client", netsim.PathSpec{DropSeq: []uint64{6}})
	stackS := tcp.NewStack(hostS, tcp.Config{})
	stackC := tcp.NewStack(hostC, tcp.Config{})
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	if _, err := fs.Create("big", size, false); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	io := hio.New(rt, k, fs)
	defer rt.Shutdown()
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: size / 2, ChunkBytes: 4096})
	l, err := stackS.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(srv.ServeTCP(l))

	var got []byte
	client := core.Bind(stackC.ConnectM("server", 80), func(c *tcp.Conn) core.M[core.Unit] {
		req := []byte("GET /big HTTP/1.1\r\nHost: s\r\n\r\nGET /big HTTP/1.1\r\n" + closeHdr)
		buf := make([]byte, 4096)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return c.CloseM()
				}
				got = append(got, buf[:n]...)
				return loop()
			})
		}
		return core.Then(c.WriteM(req), loop())
	})
	runAndWait(rt, client)

	body := fileBytes("big", size)
	want := append(append([]byte(nil), httpd.ResponseHead(200, size, true)...), body...)
	want = append(append(want, httpd.ResponseHead(200, size, true)...), body...)
	if len(got) != len(want) {
		t.Fatalf("received %d bytes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x: a sent chunk was reused", i, got[i], want[i])
		}
	}
	if hits, _, _ := srv.Cache().Stats(); hits != 0 {
		t.Fatalf("%d cache hits: the file must stream from disk each time", hits)
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("uncaught: %v", errs)
	}
}
