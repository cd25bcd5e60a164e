package loadgen

import (
	"fmt"
	"strconv"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// requestSeq is the flattened client request loop: issue count GETs for
// randomly chosen files over conn, consuming each response in full. It
// replaces the closure spelling ForN(count, oneRequest) — which rebuilt
// the request bytes, the head-read recursion, the body-drain recursion,
// and every Bind/NBIO closure per request — with one pump state struct
// allocated at M-application time. A steady-state request reuses the
// pump's embedded trace nodes, its request-byte buffer, and two
// pre-applied hio cell traces — a send cell over the request bytes and a
// read-some cell the pump points at the buffer (or, while draining a
// body, at no more than its remainder) before each entry — so the only
// per-request allocations left are the modelled network Sleep (when
// RTT/Bandwidth are set) and the error path. The retry policy (park on
// EAGAIN, retry on EINTR) is hio's.
//
// The emitted node sequence is exactly the naive spelling's — per
// request: [clock read when latency is measured], one NBIO per send
// attempt with an epoll park per EAGAIN, one NBIO read (likewise
// retried) plus one NBIO feed per head chunk, one NBIO parse, one NBIO
// read per body chunk, the Sleep's nodes when a delay is charged, one
// NBIO account, [one NBIO latency observe], and one loop-bounce NBIO
// (ForN's trailing bounce included) — so virtual-time figure outputs
// are unchanged.
func (g *Generator) requestSeq(conn kernel.FD, count int, next func() uint64, hb *httpd.HeadBuffer, buf []byte) core.M[core.Unit] {
	if count <= 0 {
		return core.Skip
	}
	return func(k func(core.Unit) core.Trace) core.Trace {
		s := &requestPump{
			g: g, clk: g.io.Clock(),
			count: count, next: next, hb: hb, buf: buf, k: k,
		}
		s.latNode.Effect = s.latEffect
		s.feedNode.Effect = s.feedEffect
		s.parseNode.Effect = s.parseEffect
		s.accountNode.Effect = s.accountEffect
		s.observeNode.Effect = s.observeEffect
		s.bounceNode.Effect = s.bounceEffect
		s.delayCont = s.afterDelay
		s.send = g.io.SockSendCell(conn, &s.req)(s.afterSend)
		s.read = g.io.SockReadCell(conn, &s.into)(s.afterRead)
		s.begin()
		return s.entry()
	}
}

const requestTail = " HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

type requestPump struct {
	g   *Generator
	clk vclock.Clock

	count int
	next  func() uint64
	hb    *httpd.HeadBuffer
	buf   []byte
	k     func(core.Unit) core.Trace

	i         int
	req       []byte // rendered request bytes, reused across requests
	into      []byte // the read cell: buf, or a body remainder's prefix of it
	readN     int    // bytes from the last head-phase read
	head      string
	draining  bool
	remaining int64
	length    int64
	status    int
	start     vclock.Time

	latNode     core.NBIONode
	feedNode    core.NBIONode
	parseNode   core.NBIONode
	accountNode core.NBIONode
	observeNode core.NBIONode
	bounceNode  core.NBIONode

	send      core.Trace // SockSendCell over req
	read      core.Trace // SockReadCell over into
	delayCont func(core.Unit) core.Trace
}

// begin renders the next request into the reusable buffer.
func (s *requestPump) begin() {
	name := s.next() % uint64(s.g.cfg.Files)
	s.req = append(s.req[:0], "GET /file-"...)
	s.req = strconv.AppendUint(s.req, name, 10)
	s.req = append(s.req, requestTail...)
	s.draining = false
}

// entry is the first node of one request.
func (s *requestPump) entry() core.Trace {
	if s.g.lat != nil {
		return &s.latNode
	}
	return s.send
}

func (s *requestPump) latEffect() core.Trace {
	s.start = s.clk.Now()
	return s.send
}

func (s *requestPump) afterSend(int) core.Trace { return s.readNext() }

// readNext points the read cell at the whole buffer or, while draining a
// body, at no more of it than the body has left, and enters the read.
func (s *requestPump) readNext() core.Trace {
	s.into = s.buf
	if s.draining && int64(len(s.into)) > s.remaining {
		s.into = s.into[:s.remaining]
	}
	return s.read
}

// afterRead runs inside the read's completing node with its count.
func (s *requestPump) afterRead(n int) core.Trace {
	if s.draining {
		if n == 0 {
			return &core.ThrowNode{Err: fmt.Errorf("loadgen: truncated body")}
		}
		s.remaining -= int64(n)
		if s.remaining > 0 {
			return s.readNext()
		}
		return s.afterBody()
	}
	if n == 0 {
		return &core.ThrowNode{Err: fmt.Errorf("loadgen: connection closed mid-response")}
	}
	s.readN = n
	return &s.feedNode
}

func (s *requestPump) feedEffect() core.Trace {
	head, err := s.hb.Feed(s.buf[:s.readN])
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if head == "" {
		return s.readNext()
	}
	s.head = head
	return &s.parseNode
}

func (s *requestPump) parseEffect() core.Trace {
	st, length, err := httpd.ParseResponseHead(s.head)
	s.head = ""
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	s.status = st
	if st >= 100 && st < 600 {
		s.g.Statuses[st/100].Add(1)
	}
	s.length = length
	// Part of the body may already be buffered past the head.
	buffered := int64(s.hb.Buffered())
	s.hb.Reset()
	s.remaining = length - buffered
	if s.remaining > 0 {
		s.draining = true
		return s.readNext()
	}
	return s.afterBody()
}

// afterBody charges the modelled network time, then accounts. netDelay
// is applied per request — its duration depends on the response length —
// but resolves to the allocation-free Skip when no delay is configured.
func (s *requestPump) afterBody() core.Trace {
	return s.g.netDelay(s.length)(s.delayCont)
}

func (s *requestPump) afterDelay(core.Unit) core.Trace { return &s.accountNode }

func (s *requestPump) accountEffect() core.Trace {
	g := s.g
	g.Requests.Add(1)
	g.Bytes.Add(uint64(s.length))
	if s.status/100 == 2 {
		g.Goodput.Add(uint64(s.length))
	}
	if g.lat != nil {
		return &s.observeNode
	}
	return &s.bounceNode
}

func (s *requestPump) observeEffect() core.Trace {
	s.g.lat.Observe(int64(time.Duration(s.clk.Now()-s.start) / time.Microsecond))
	return &s.bounceNode
}

func (s *requestPump) bounceEffect() core.Trace {
	i := s.i + 1
	if i >= s.count {
		s.i = 0 // reset: a retained trace may replay this pump
		return s.k(core.Unit{})
	}
	s.i = i
	s.begin()
	return s.entry()
}
