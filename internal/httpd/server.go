package httpd

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/timerwheel"
	"hybrid/internal/vclock"
)

// Transport abstracts a byte-stream connection for the monadic server, so
// the same server code runs over kernel stream sockets or the
// application-level TCP stack — the paper's "by editing one line of code
// in the web server, the programmer can choose between the standard
// socket library and the customized TCP library" (§5.2).
type Transport interface {
	// Read yields at least one byte, or 0 at end of stream.
	Read(p []byte) core.M[int]
	// Write returns a computation that, each time its trace is forced,
	// sends all of the buffer *cell holds at that moment and delivers the
	// count. The server applies it once per connection and re-enters the
	// trace for every write, so steady-state responses allocate no write
	// nodes. The server never mutates a buffer it has written, so a
	// transport may keep a reference instead of copying.
	Write(cell *[]byte) core.M[int]
	// Close ends the connection.
	Close() core.M[core.Unit]
	// Shed tears the connection down immediately, synchronously, from
	// outside its handler thread — the lever a lifecycle deadline pulls
	// on expiry. The handler's blocked I/O fails and it unwinds through
	// the server's exception path.
	Shed()
}

// SockTransport is a Transport over a kernel stream socket. Writes copy
// into the socket buffer.
type SockTransport struct {
	IO *hio.IO
	FD kernel.FD
}

func (s SockTransport) Read(p []byte) core.M[int]      { return s.IO.SockRead(s.FD, p) }
func (s SockTransport) Write(cell *[]byte) core.M[int] { return s.IO.SockSendCell(s.FD, cell) }
func (s SockTransport) Close() core.M[core.Unit]       { return s.IO.CloseFD(s.FD) }

// Shed closes the kernel socket out from under the handler.
func (s SockTransport) Shed() { _ = s.IO.Kernel().Close(s.FD) }

// TCPTransport is a Transport over the application-level TCP stack.
// Writes queue the buffer by reference on the stack's vectored send path
// — segments carry the response payload in place, the zero-copy half of
// §4.3's "avoiding unnecessary copies".
type TCPTransport struct{ Conn *tcp.Conn }

func (t TCPTransport) Read(p []byte) core.M[int]      { return t.Conn.ReadM(p) }
func (t TCPTransport) Write(cell *[]byte) core.M[int] { return t.Conn.WriteCellVM(cell) }
func (t TCPTransport) Close() core.M[core.Unit]       { return t.Conn.CloseM() }

// Shed aborts the TCP connection (RST path): pending reads and writes
// fail immediately and no TIME_WAIT state lingers for the attacker.
func (t TCPTransport) Shed() { t.Conn.Abort() }

// ServerConfig tunes the hybrid server.
type ServerConfig struct {
	// CacheBytes is the application-level cache size; the paper's server
	// used a fixed 100 MB.
	CacheBytes int64
	// ChunkBytes is the AIO read granularity for uncached files.
	// Default 16 KB (the benchmark's file size, so one read per file).
	ChunkBytes int
	// MaxDiskReaders, when positive, bounds how many handler threads may
	// be in the disk path at once; the rest park on a semaphore. This is
	// the paper's future-work item — "implement more advanced scheduling
	// algorithms, such as resource aware scheduling used in Capriccio"
	// (§5.2) — in its simplest admission-control form: cached requests
	// never queue behind a saturated disk. Zero disables the bound.
	MaxDiskReaders int
	// DiskRetries, when positive, enables graceful degradation of the
	// disk path: each AIO read gets up to DiskRetries retries (with
	// RetryBackoff between them) before the request fails, and a file
	// whose first read fails after all retries is answered with a 503
	// instead of a wedged or torn connection. Zero keeps the original
	// fail-fast path byte-for-byte.
	DiskRetries int
	// RetryBackoff is the base delay between disk retries (doubling each
	// attempt). Default 500 µs when DiskRetries is set.
	RetryBackoff vclock.Duration
	// Overload, when non-nil, enables admission control, circuit-broken
	// load shedding, connection supervision, and graceful drain (see
	// OverloadConfig). Nil keeps the server byte-identical to the plain
	// implementation.
	Overload *OverloadConfig
	// Lifecycle, when non-nil, arms per-connection phase deadlines on the
	// server's timer wheel: idle reaping, header and body read budgets,
	// and write-stall detection (see LifecycleConfig). Nil keeps the
	// server byte-identical to the plain implementation.
	Lifecycle *LifecycleConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 100 * 1024 * 1024
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 16 * 1024
	}
	if c.DiskRetries > 0 && c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Microsecond
	}
	return c
}

// Server is the hybrid web server: one monadic thread per connection,
// asynchronous disk I/O, and an application-level cache. Its structure is
// the paper's 370-line server: an accept loop forking per-client threads
// whose control flow reads like sequential code, with failures handled by
// monadic exceptions.
type Server struct {
	io    *hio.IO
	cfg   ServerConfig
	cache *Cache
	disk  *core.Semaphore // nil unless MaxDiskReaders > 0

	requests     atomic.Uint64
	bytesOut     atomic.Uint64
	errors       atomic.Uint64
	conns        atomic.Int64
	diskWaits    atomic.Uint64
	cachedServes atomic.Uint64 // GETs answered from the cache
	aioServes    atomic.Uint64 // GETs streamed from disk via AIO

	// Degradation counters (registered only when DiskRetries > 0 — the
	// default server's stats snapshot is unchanged).
	diskRetries atomic.Uint64 // disk reads retried after a fault
	diskErrors  atomic.Uint64 // disk reads that failed after all retries
	unavailable atomic.Uint64 // 503 responses sent

	// Lifecycle state and counters (nil / registered only when
	// cfg.Lifecycle arms at least one deadline).
	wheel      *timerwheel.Wheel
	reapedIdle atomic.Uint64 // idle keep-alive connections reaped
	shedHeader atomic.Uint64 // slow-loris header sheds
	shedBody   atomic.Uint64 // slow body-drain sheds
	shedWrite  atomic.Uint64 // write-stall sheds

	// Overload state and counters (nil / registered only when
	// cfg.Overload is set).
	ovl          *overloadState
	shedFast     atomic.Uint64 // uncached GETs shed by the open breaker
	connPanics   atomic.Uint64 // supervised connection threads that panicked
	forcedCloses atomic.Uint64 // connections force-closed by Drain
	classCached  atomic.Uint64 // requests in the cached cost class
	classDisk    atomic.Uint64 // requests in the blocking-disk cost class
	classMeta    atomic.Uint64 // metadata-only requests (HEAD)

	metrics *stats.Registry
}

// NewServer creates a server over the given I/O layer (whose FS holds the
// document tree).
func NewServer(io *hio.IO, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{io: io, cfg: cfg, cache: NewCache(cfg.CacheBytes)}
	if cfg.MaxDiskReaders > 0 {
		s.disk = core.NewSemaphore(cfg.MaxDiskReaders)
	}
	s.metrics = stats.NewRegistry()
	s.metrics.CounterFunc("requests", s.requests.Load)
	s.metrics.CounterFunc("bytes_out", s.bytesOut.Load)
	s.metrics.CounterFunc("errors", s.errors.Load)
	s.metrics.CounterFunc("cached_serves", s.cachedServes.Load)
	s.metrics.CounterFunc("aio_serves", s.aioServes.Load)
	s.metrics.CounterFunc("disk_admissions", s.diskWaits.Load)
	s.metrics.GaugeFunc("active_conns", s.conns.Load)
	s.metrics.CounterFunc("cache_hits", func() uint64 { h, _, _ := s.cache.Stats(); return h })
	s.metrics.CounterFunc("cache_misses", func() uint64 { _, m, _ := s.cache.Stats(); return m })
	s.metrics.CounterFunc("cache_evictions", func() uint64 { _, _, e := s.cache.Stats(); return e })
	s.metrics.GaugeFunc("cache_bytes", s.cache.Used)
	if cfg.DiskRetries > 0 {
		s.metrics.CounterFunc("disk_retries", s.diskRetries.Load)
		s.metrics.CounterFunc("disk_errors", s.diskErrors.Load)
		s.metrics.CounterFunc("resp_503", s.unavailable.Load)
	}
	if cfg.Lifecycle.enabled() {
		s.wheel = timerwheel.New(io.Clock())
		s.metrics.CounterFunc("reaped_idle", s.reapedIdle.Load)
		s.metrics.CounterFunc("shed_header", s.shedHeader.Load)
		s.metrics.CounterFunc("shed_body", s.shedBody.Load)
		s.metrics.CounterFunc("shed_write", s.shedWrite.Load)
	}
	if cfg.Overload != nil {
		s.ovl = newOverloadState(io.Clock(), cfg.Overload.withDefaults())
		s.metrics.CounterFunc("shed_fast", s.shedFast.Load)
		s.metrics.CounterFunc("conn_panics", s.connPanics.Load)
		s.metrics.CounterFunc("forced_closes", s.forcedCloses.Load)
		s.metrics.CounterFunc("class_cached", s.classCached.Load)
		s.metrics.CounterFunc("class_disk", s.classDisk.Load)
		s.metrics.CounterFunc("class_meta", s.classMeta.Load)
	}
	return s
}

// Metrics exposes the server's registry for the observability layer.
func (s *Server) Metrics() *stats.Registry { return s.metrics }

// Cache exposes the server's cache (for benchmarks and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Requests reports the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// BytesOut reports response body bytes written.
func (s *Server) BytesOut() uint64 { return s.bytesOut.Load() }

// Errors reports connections that ended with an I/O exception.
func (s *Server) Errors() uint64 { return s.errors.Load() }

// ActiveConns reports currently served connections.
func (s *Server) ActiveConns() int64 { return s.conns.Load() }

// ListenAndServe binds addr on the kernel socket layer and serves
// forever. Run it in its own monadic thread.
func (s *Server) ListenAndServe(addr string) core.M[core.Unit] {
	backlog := 1024
	if s.ovl != nil && s.ovl.cfg.Backlog > 0 {
		backlog = s.ovl.cfg.Backlog
	}
	return core.Bind(s.io.Listen(addr, backlog), func(lfd kernel.FD) core.M[core.Unit] {
		return s.serveListener(lfd)
	})
}

// BindAndServe binds addr synchronously and returns the serving program
// to spawn. Unlike ListenAndServe — which binds inside the spawned
// thread — the listener exists before this returns, so a harness may
// start client threads on other workers without racing the bind: their
// connects queue in the kernel backlog until the accept loop runs. With
// ListenAndServe under parallel workers, a client thread scheduled ahead
// of the server thread finds no listener and every connect is refused.
func (s *Server) BindAndServe(addr string) (core.M[core.Unit], error) {
	backlog := 1024
	if s.ovl != nil && s.ovl.cfg.Backlog > 0 {
		backlog = s.ovl.cfg.Backlog
	}
	lfd, err := s.io.Kernel().Listen(addr, backlog)
	if err != nil {
		return nil, err
	}
	return s.serveListener(lfd), nil
}

// serveListener records the listener for overload drain and returns the
// accept loop.
func (s *Server) serveListener(lfd kernel.FD) core.M[core.Unit] {
	if s.ovl != nil {
		s.ovl.mu.Lock()
		s.ovl.lfd = lfd
		s.ovl.haveLFD = true
		s.ovl.mu.Unlock()
	}
	return s.AcceptLoop(lfd)
}

// AcceptLoop accepts connections forever, forking a handler thread per
// client — the server function of the paper's Figure 4. In overload mode
// the loop first passes the admission gate (in-flight bound plus accept
// pacing), so a saturated server stops accepting and the kernel backlog
// carries the back-pressure; when Drain closes the listener, the loop
// ends cleanly instead of raising.
func (s *Server) AcceptLoop(lfd kernel.FD) core.M[core.Unit] {
	if s.ovl == nil {
		return core.Forever(
			core.Bind(s.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
				return core.Fork(s.ServeTransport(SockTransport{IO: s.io, FD: conn}))
			}),
		)
	}
	loop := core.Forever(
		core.Then(s.acquireSlot(),
			core.OnException(
				core.Bind(s.io.SockAccept(lfd), func(conn kernel.FD) core.M[core.Unit] {
					return core.Fork(s.serveAdmitted(SockTransport{IO: s.io, FD: conn}))
				}),
				core.Do(s.releaseSlot),
			)),
	)
	return core.Catch(loop, func(err error) core.M[core.Unit] {
		if s.Draining() {
			return core.Skip
		}
		return core.Throw[core.Unit](err)
	})
}

// ServeTCP accepts connections from an application-level TCP listener
// forever — the one-line transport switch. Overload mode applies the
// same admission gate as the socket accept loop.
func (s *Server) ServeTCP(l *tcp.Listener) core.M[core.Unit] {
	if s.ovl == nil {
		return core.Forever(
			core.Bind(l.AcceptM(), func(conn *tcp.Conn) core.M[core.Unit] {
				return core.Fork(s.ServeTransport(TCPTransport{Conn: conn}))
			}),
		)
	}
	return core.Forever(
		core.Then(s.acquireSlot(),
			core.OnException(
				core.Bind(l.AcceptM(), func(conn *tcp.Conn) core.M[core.Unit] {
					return core.Fork(s.serveAdmitted(TCPTransport{Conn: conn}))
				}),
				core.Do(s.releaseSlot),
			)),
	)
}

// connReadBytes is the per-connection input buffer size (a bufpool
// class, so the buffer recycles across connections).
const connReadBytes = 4096

// conn is one connection's request machine: parse requests, serve files,
// repeat while keep-alive, and on any I/O exception close cleanly. Every
// request kind — cached GET, cache miss, HEAD, 4xx/405 and the breaker's
// 503 — is a state of this one machine, and all of them write through
// the same two pre-applied head and body write traces.
//
// The machine is written in direct trace style: its nodes and
// continuations are allocated once per connection and re-entered for
// every keep-alive request, instead of rebuilding an equivalent closure
// graph per request. Trace nodes are immutable to the scheduler (forcing
// one only calls its Effect), so re-entering the pending node IS serving
// the next request. Values that vary between requests thread through the
// struct's fields, which earlier nodes set before later nodes read. A
// cached GET is two trace re-entries and allocates nothing; the other
// states are monadic programs over the same write traces.
type conn struct {
	s   *Server
	t   Transport
	w   *connWatch // nil unless lifecycle deadlines are armed
	buf []byte     // the connection's read buffer
	hb  HeadBuffer
	req Request // reused per request: no state retains it past its response

	nRead   int    // set by the read step, consumed by the feed node
	headStr string // set when a full head is extracted, consumed by parse
	keep    bool   // the cached response's keep-alive decision

	// The write cells and their pre-applied write traces. When k is nil a
	// completed write continues the cached-GET sequence (head, body, next
	// request); the monadic states set k to their own continuation.
	head, data   []byte
	k            func(int) core.Trace
	headW, dataW core.Trace

	pending, feed, parse core.NBIONode
	read, close          core.Trace
	next                 func(keep bool) core.Trace // after a response
}

// ServeTransport handles one connection with the request machine.
func (s *Server) ServeTransport(t Transport) core.M[core.Unit] {
	s.conns.Add(1)
	c := &conn{s: s, t: t, buf: bufpool.Get(connReadBytes)}
	if s.cfg.Lifecycle.enabled() {
		c.w = &connWatch{s: s, t: t, lc: s.cfg.Lifecycle}
		c.w.expire = c.w.fire
		c.w.toIdle() // budget for the first request's first byte
	}
	// Any exception (EPIPE, reset, malformed request) ends the
	// connection gracefully — the paper's "I/O errors are handled
	// gracefully using exceptions".
	return core.Catch(c.start, c.fail)
}

// start builds the machine's traces and enters the pending state. The
// connection ends at most once, so its close trace is built up front
// (building an M is pure; only forcing it acts).
func (c *conn) start(k func(core.Unit) core.Trace) core.Trace {
	c.close = core.Then(c.t.Close(), core.Do(c.closed))(k)
	c.next = c.afterResponse
	c.headW = c.t.Write(&c.head)(c.headDone)
	c.dataW = c.t.Write(&c.data)(c.dataDone)
	c.read = c.t.Read(c.buf)(c.onRead)
	c.pending.Effect = c.onPending
	c.feed.Effect = c.onFeed
	c.parse.Effect = c.onParse
	return &c.pending
}

// onPending serves a head already buffered (pipelining), else reads.
func (c *conn) onPending() core.Trace {
	head, err := c.hb.Pending()
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if head != "" {
		c.headStr = head
		return &c.parse
	}
	return c.read
}

func (c *conn) onRead(n int) core.Trace {
	if n == 0 {
		return c.close // clean EOF
	}
	if c.w != nil {
		c.w.onBytes() // first bytes of a head: idle -> header budget
	}
	c.nRead = n
	return &c.feed
}

func (c *conn) onFeed() core.Trace {
	head, err := c.hb.Feed(c.buf[:c.nRead])
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if head == "" {
		return &c.pending // need more input for this head
	}
	c.headStr = head
	return &c.parse
}

func (c *conn) onParse() core.Trace {
	if err := ParseRequestInto(&c.req, c.headStr); err != nil {
		return &core.ThrowNode{Err: err}
	}
	if c.w != nil {
		if drain := c.drainBody(); drain != nil {
			return drain(func(core.Unit) core.Trace {
				c.w.toWrite()
				return c.respond()
			})
		}
		c.w.toWrite()
	}
	return c.respond()
}

// respond dispatches one parsed request to its state.
func (c *conn) respond() core.Trace {
	s, req := c.s, &c.req
	s.requests.Add(1)
	keep := req.KeepAlive()
	if req.Method != "GET" && req.Method != "HEAD" {
		return c.sendError(405, keep)(c.next)
	}
	name := strings.TrimPrefix(req.Path, "/")
	if name == "" || strings.Contains(name, "..") {
		return c.sendError(400, keep)(c.next)
	}
	if req.Method == "HEAD" {
		return c.respondHead(name, keep)(c.next)
	}
	// Cache hit: purely nonblocking. Cache entries and memoized response
	// heads are immutable, so a by-reference transport serves the hit
	// zero-copy: the bytes the client receives were written exactly once,
	// at cache fill.
	if data, ok := s.cache.Get(name); ok {
		s.cachedServes.Add(1)
		if s.ovl != nil {
			s.classCached.Add(1)
		}
		c.keep, c.head, c.data = keep, ResponseHead(200, int64(len(data)), keep), data
		return c.headW
	}
	return c.respondMiss(name, keep)(c.next)
}

// afterResponse continues with the next request on this connection, or
// closes it.
func (c *conn) afterResponse(keep bool) core.Trace {
	if !keep {
		return c.close
	}
	if c.w != nil {
		c.w.toIdle() // response done: next deadline is the idle reap
	}
	return &c.pending
}

// headDone and dataDone continue a completed write. Each completion
// renews the lifecycle write-stall deadline, and the cell drops its
// buffer so a parked connection pins no response bytes.
func (c *conn) headDone(n int) core.Trace {
	c.head = nil
	if c.w != nil {
		c.w.progress()
	}
	if k := c.k; k != nil {
		c.k = nil
		return k(n)
	}
	return c.dataW
}

func (c *conn) dataDone(n int) core.Trace {
	c.data = nil
	if c.w != nil {
		c.w.progress()
	}
	if k := c.k; k != nil {
		c.k = nil
		return k(n)
	}
	c.s.bytesOut.Add(uint64(n))
	return c.next(c.keep)
}

// writeHead and writeData send p through the head or body write trace
// from a monadic state.
func (c *conn) writeHead(p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		c.head, c.k = p, k
		return c.headW
	}
}

func (c *conn) writeData(p []byte) core.M[int] {
	return func(k func(int) core.Trace) core.Trace {
		c.data, c.k = p, k
		return c.dataW
	}
}

// closed is the close trace's accounting step.
func (c *conn) closed() {
	if c.w != nil {
		c.w.cancel()
	}
	c.s.conns.Add(-1)
	bufpool.Put(c.buf)
}

// fail is the connection's exception handler. The exception path never
// reached the close trace's accounting node, so it accounts here.
func (c *conn) fail(err error) core.M[core.Unit] {
	s := c.s
	closeQuietly := core.Catch(
		core.Then(c.t.Close(), core.Skip),
		func(error) core.M[core.Unit] { return core.Skip },
	)
	if c.w != nil {
		c.w.cancel()
	}
	s.conns.Add(-1)
	if s.ovl != nil && s.ovl.cfg.SuperviseConns {
		var pe *core.PanicError
		if errors.As(err, &pe) {
			// A trapped panic is a handler bug, not an I/O error: close
			// the transport and re-raise for the supervisor in
			// serveAdmitted to account for it. The buffer is left to the
			// garbage collector — after a panic mid-handler its state is
			// not worth reasoning about.
			return core.Then(closeQuietly, core.Throw[core.Unit](err))
		}
	}
	s.errors.Add(1)
	bufpool.Put(c.buf)
	return closeQuietly
}

// respondHead serves HEAD: metadata only; the blocking open runs on the
// blio pool.
func (c *conn) respondHead(name string, keep bool) core.M[bool] {
	if c.s.ovl != nil {
		c.s.classMeta.Add(1)
	}
	return core.Bind(
		core.Catch(
			core.Map(c.s.io.FileOpen(name), func(f *kernel.File) int64 { return f.Size() }),
			func(error) core.M[int64] { return core.Return(int64(-1)) },
		),
		func(size int64) core.M[bool] {
			if size < 0 {
				return c.sendError(404, keep)
			}
			return core.Then(c.writeHead(ResponseHead(200, size, keep)), core.Return(keep))
		},
	)
}

// respondMiss serves a cache-missing GET: the blocking-disk cost class.
// Under an open breaker the request is shed with an immediate 503 —
// cached requests never reach this point, so shedding protects exactly
// the expensive path.
func (c *conn) respondMiss(name string, keep bool) core.M[bool] {
	s := c.s
	if s.ovl != nil {
		s.classDisk.Add(1)
		if s.ovl.breaker != nil {
			if admit, _ := s.shedDisk(); !admit {
				return c.sendError(503, keep)
			}
			return s.observeDisk(c.respondDisk(name, keep))
		}
	}
	return c.respondDisk(name, keep)
}

// respondDisk serves a cache-missing GET: open (blocking pool) and
// stream via AIO, exactly the paper's send_file (Figure 13) with cleanup
// handled by Catch in the caller.
func (c *conn) respondDisk(name string, keep bool) core.M[bool] {
	s := c.s
	return core.Bind(
		core.Catch(
			core.Map(s.io.FileOpen(name), func(f *kernel.File) *kernel.File { return f }),
			func(err error) core.M[*kernel.File] {
				return core.Return[*kernel.File](nil) // 404 below
			},
		),
		func(f *kernel.File) core.M[bool] {
			if f == nil {
				return c.sendError(404, keep)
			}
			s.aioServes.Add(1)
			var send core.M[bool]
			if s.cfg.DiskRetries > 0 {
				// Degrading path: bounded retries, 503 on a dead file.
				send = c.sendFileDegraded(f, name, keep)
			} else {
				send = core.Then(c.sendFile(f, name), core.Return(keep))
			}
			if s.disk != nil {
				// Resource-aware admission: bound concurrent disk-path
				// handlers so the disk queue cannot absorb every thread.
				s.diskWaits.Add(1)
				send = core.Then(s.disk.Acquire(), core.Finally(send, s.disk.Release()))
			}
			return send
		},
	)
}

// DiskAdmissions reports how many requests entered the bounded disk path.
func (s *Server) DiskAdmissions() uint64 { return s.diskWaits.Load() }

// sendFile streams a file: header first, then AIO reads landing directly
// in the chunker's destination buffer (one write per byte — no
// assemble-by-append second copy); small files' destinations become
// their cache entries afterwards.
func (c *conn) sendFile(f *kernel.File, name string) core.M[core.Unit] {
	size := f.Size()
	ck := newChunker(size, c.s.cfg.CacheBytes, c.s.cfg.ChunkBytes)
	readAt := func(off int64) core.M[int] { return c.s.io.AIORead(f, off, ck.window(off)) }
	_, stream := c.streamBody(ck, name, readAt)
	return core.Then(c.writeHead(ResponseHead(200, size, true)), stream(0))
}

// sendFileDegraded is sendFile with the recovery combinators threaded
// in: every AIO read gets bounded retries with backoff, and — crucially
// — the FIRST chunk is read before the status line is committed, so a
// file the disk cannot deliver degrades to a clean 503 instead of a
// torn 200. A read that exhausts its retries mid-stream can only abort
// the connection (the head already promised size bytes); the caller's
// Catch closes it.
func (c *conn) sendFileDegraded(f *kernel.File, name string, keep bool) core.M[bool] {
	s := c.s
	size := f.Size()
	ck := newChunker(size, s.cfg.CacheBytes, s.cfg.ChunkBytes)
	bo := core.Backoff{Attempts: s.cfg.DiskRetries + 1, Base: s.cfg.RetryBackoff, Factor: 2}
	readAt := func(off int64) core.M[int] {
		// The retry predicate runs once per failed attempt that will be
		// retried; the OnException hook fires only when retries are
		// exhausted and the failure escapes.
		return core.OnException(
			core.RetryIf(s.io.Clock(), bo,
				func(error) bool { s.diskRetries.Add(1); return true },
				s.io.AIORead(f, off, ck.window(off))),
			core.Do(func() { s.diskErrors.Add(1) }),
		)
	}
	ship, _ := c.streamBody(ck, name, readAt)

	return core.Bind(
		core.Catch(readAt(0), func(error) core.M[int] { return core.Return(-1) }),
		func(n0 int) core.M[bool] {
			if n0 < 0 {
				return c.sendError(503, false) // degrade: shed this connection
			}
			body := core.Skip
			if n0 > 0 {
				body = ship(n0, 0)
			}
			return core.Then(c.writeHead(ResponseHead(200, size, true)),
				core.Then(body, core.Return(keep)))
		},
	)
}

func (c *conn) sendError(status int, keep bool) core.M[bool] {
	if status == 503 {
		c.s.unavailable.Add(1)
	}
	body := []byte(fmt.Sprintf("%d %s\n", status, statusText[status]))
	head := ResponseHead(status, int64(len(body)), keep)
	return core.Then(
		core.Then(c.writeHead(head), c.writeData(body)),
		core.Return(keep),
	)
}
