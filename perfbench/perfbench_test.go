package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"hybrid/internal/kernel"
	"hybrid/internal/stats"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hybrid/internal/core.(*Runtime).interpret":            "core",
		"hybrid/internal/kernel.(*Kernel).Write":               "kernel",
		"hybrid/internal/kernel.(*File).contentsAt":            "fs",
		"hybrid/internal/kernel.PatternByte":                   "fs",
		"hybrid/internal/tcp.(*Conn).output":                   "tcp",
		"hybrid/internal/tcp/tracecheck.Check":                 "",
		"hybrid/internal/stats.(*Histogram).Observe":           "",
		"main.loadTCP.func1.1":                                 "loadgen",
		"main.runRound":                                        "",
		"runtime.memmove":                                      "",
		"hybrid/internal/timerwheel.(*Wheel).Schedule":         "timerwheel",
		"hybrid/internal/httpd.(*Server).ServeTransport.func2": "httpd",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeProfile profiles a loop over kernel.PatternByte and checks
// that the decoder finds the samples and gives most of them to layer fs.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	var sink byte
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for off := int64(0); off < 1<<16; off++ {
			sink ^= kernel.PatternByte("file-42", off)
		}
	}
	pprof.StopCPUProfile()
	samples := map[string]int64{}
	if err := attribute(buf.Bytes(), samples); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range samples {
		n += c
	}
	if n < 5 {
		t.Skipf("only %d samples (sink %d)", n, sink)
	}
	if samples["fs"]*2 < n {
		t.Errorf("fs got %d of %d samples: %v", samples["fs"], n, samples)
	}
}

func TestPoolVirtualInterpolates(t *testing.T) {
	// Two rounds: 50 samples in (512, 1024] and 50 in (1024, 2048].
	lat := stats.NewRegistry()
	h := lat.Histogram("latency_us", latencyBounds...)
	for i := 0; i < 25; i++ {
		h.Observe(1000)
		h.Observe(2000)
	}
	r := round{virt: virtual{elapsed: time.Second, goodBytes: 1 << 20, latency: lat.Snapshot()["latency_us"]}}
	p := poolVirtual([]round{r, r})
	if p.samples != 100 || p.mbPerSec != 1 {
		t.Fatalf("pooled %d samples at %v MiB/s, want 100 at 1", p.samples, p.mbPerSec)
	}
	if p.b50 != 1024 || p.p50 != 1024 {
		t.Errorf("p50 = %v (bucket %d), want 1024 (bucket 1024)", p.p50, p.b50)
	}
	// Rank 99 is the 49th of the 50 samples in (1024, 2048].
	if want := 1024 + 1024*49.0/50; p.b99 != 2048 || math.Abs(p.p99-want) > 1e-9 {
		t.Errorf("p99 = %v (bucket %d), want %v (bucket 2048)", p.p99, p.b99, want)
	}
}
