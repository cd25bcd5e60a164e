package bench

import (
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/httpd"
	"hybrid/internal/iovec"
	"hybrid/internal/tcp"
)

// Allocation budgets for the hot paths this package benchmarks. The
// bounds carry headroom over the measured numbers (recorded in
// EXPERIMENTS.md) so scheduler noise does not flake them, while still
// failing loudly if a change reverts the zero-copy or
// continuation-flattening work: the cached-serve path cost 59 allocs/op
// before the zero-copy PR, 15 before the flattened serve loop, and 1
// after it; the segment roundtrip allocated a fresh wire buffer and
// payload copy per segment.

func TestServeCachedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget check")
	}
	lifecycle := &httpd.LifecycleConfig{
		IdleTimeout:       time.Second,
		HeaderTimeout:     time.Second,
		WriteStallTimeout: time.Second,
	}
	for _, tc := range []struct {
		name                string
		bench               func(*testing.B)
		maxAllocs, maxBytes int64
	}{
		{"cached", BenchServeCached, 10, 512},
		// Lifecycle deadlines ride the same request machine; the extra
		// cost is the wheel's: four timer re-arms per request at three
		// allocations each (measured 13 allocs, 640 B; 38 and 1696 when
		// lifecycle servers fell back to the allocating serve path).
		{"cached lifecycle", func(b *testing.B) {
			benchServe(b, httpd.ServerConfig{CacheBytes: 1 << 20, Lifecycle: lifecycle}, 1)
		}, 16, 768},
		// A miss opens the file, reads it from disk into a fresh 16 KB
		// cache entry through the monadic combinators, and evicts the
		// other file: two files, a cache that holds one (measured 60
		// allocs, 18396 B).
		{"miss", func(b *testing.B) {
			benchServe(b, httpd.ServerConfig{CacheBytes: MicroFileBytes}, 2)
		}, 64, 20 << 10},
	} {
		r := testing.Benchmark(tc.bench)
		if a := r.AllocsPerOp(); a > tc.maxAllocs {
			t.Errorf("%s serve: %d allocs/op, budget %d", tc.name, a, tc.maxAllocs)
		}
		if b := r.AllocedBytesPerOp(); b > tc.maxBytes {
			t.Errorf("%s serve: %d B/op, budget %d", tc.name, b, tc.maxBytes)
		}
		t.Logf("%s serve: %d allocs/op, %d B/op", tc.name, r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
}

func TestSegmentRoundtripAllocs(t *testing.T) {
	payload := make([]byte, 1024)
	v := iovec.FromBytes(payload)
	// One allocation per roundtrip: the decoded *Segment. The wire
	// buffer is pooled and the payload is a borrowed view on both sides.
	const maxAllocs = 2
	n := testing.AllocsPerRun(500, func() {
		seg := &tcp.Segment{
			SrcPort: 4242, DstPort: 80, Seq: 7, Ack: 8,
			Flags: tcp.FlagACK, Window: 1 << 16, Payload: v,
		}
		wire := bufpool.Get(seg.WireLen())
		seg.EncodeTo(wire)
		d, err := tcp.Decode(wire)
		if err != nil || d.Payload.Len() != len(payload) {
			t.Fatal("roundtrip failed")
		}
		bufpool.Put(wire)
	})
	if n > maxAllocs {
		t.Fatalf("segment roundtrip allocates %v per run, want <= %d", n, maxAllocs)
	}
}
