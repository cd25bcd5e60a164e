package bench

import "testing"

// The stats layer's counters must agree with each other once a run has
// quiesced to the accept loop alone: every park but the accept loop's own
// was resumed, every epoll wait but that one was woken, every ring
// segment drawn was returned, and every request was answered by exactly
// one of the serve paths.
func TestFig19StatsConserve(t *testing.T) {
	for _, cached := range []bool{false, true} {
		cfg := Fig19Quick()
		cfg.Cached = cached
		_, snap := Fig19HybridStats(cfg, 16)
		c := snap.Counter
		checks := []struct {
			name        string
			left, right int64
		}{
			{"sched.parks == sched.resumes + 1", c("sched.parks"), c("sched.resumes") + 1},
			{"kernel.epoll_waits == kernel.wakeups + 1", c("kernel.epoll_waits"), c("kernel.wakeups") + 1},
			{"kernel.segment_gets == kernel.segment_puts", c("kernel.segment_gets"), c("kernel.segment_puts")},
			{"kernel.segment_outstanding == 0", c("kernel.segment_outstanding"), 0},
			{"httpd.requests == cached_serves + aio_serves + errors", c("httpd.requests"),
				c("httpd.cached_serves") + c("httpd.aio_serves") + c("httpd.errors")},
		}
		for _, ck := range checks {
			if ck.left != ck.right {
				t.Errorf("cached=%v: %s: %d != %d", cached, ck.name, ck.left, ck.right)
			}
		}
		if c("httpd.requests") == 0 {
			t.Errorf("cached=%v: no requests served", cached)
		}
	}
}
