package bench

import (
	"runtime"
	"testing"
)

// The scaling table must (a) produce finite wall throughput at every
// worker count, and (b) anchor Speedup at 1.0 for the Workers=1 baseline.
// Virtual throughput at Workers>1 is allowed to drift — worker
// interleaving reorders requests through the shared-bandwidth link model —
// which is exactly why the figures pin Workers=1; see the determinism
// test below.
func TestFig19ScalingSmoke(t *testing.T) {
	cfg := Fig19Quick()
	cfg.TotalRequests = 256
	pts := Fig19Scaling(cfg, 16, []int{1, 2}, false)
	if len(pts) != 2 {
		t.Fatalf("points: %+v", pts)
	}
	if pts[0].Workers != 1 || pts[1].Workers != 2 {
		t.Fatalf("worker counts: %d, %d", pts[0].Workers, pts[1].Workers)
	}
	for _, p := range pts {
		if !(p.WallMBps > 0) {
			t.Fatalf("workers=%d: wall throughput %.3f not positive", p.Workers, p.WallMBps)
		}
		if !(p.VirtMBps > 0) {
			t.Fatalf("workers=%d: virtual throughput %.3f not positive", p.Workers, p.VirtMBps)
		}
	}
	if pts[0].Speedup != 1.0 {
		t.Fatalf("baseline speedup = %.3f, want 1.0", pts[0].Speedup)
	}
}

// The determinism canary: two Workers=1 runs of the same workload must
// land on bit-identical virtual throughput — the invariant every figure
// in the repository depends on.
//
// The test deliberately runs at GOMAXPROCS=4. Determinism used to be
// conditioned on a single P (the worker, the epoll harvester, and the
// clock's timer goroutine raced their enqueue order); the epoch-barrier
// clock removed every host-scheduled actor from the virtual domain —
// readiness resumes dispatch synchronously, timers fire in (when, seq)
// order behind the dispatch gate — so Workers=1 runs must now reproduce
// under real parallelism. This is the same property the CI determinism
// gate checks end to end on the figure CLIs.
func TestFig19ScalingWorker1Deterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Fig19Quick()
	cfg.TotalRequests = 256
	a := Fig19Scaling(cfg, 16, []int{1}, false)
	b := Fig19Scaling(cfg, 16, []int{1}, false)
	if a[0].VirtMBps != b[0].VirtMBps {
		t.Fatalf("Workers=1 virtual throughput not reproducible at GOMAXPROCS=4: %.9f vs %.9f",
			a[0].VirtMBps, b[0].VirtMBps)
	}
}

// Stealing mode exercises the per-worker deques end to end.
func TestFig19ScalingStealingSmoke(t *testing.T) {
	cfg := Fig19Quick()
	cfg.TotalRequests = 128
	pts := Fig19Scaling(cfg, 8, []int{2}, true)
	if len(pts) != 1 || !pts[0].Stealing {
		t.Fatalf("points: %+v", pts)
	}
	if !(pts[0].WallMBps > 0) {
		t.Fatalf("wall throughput %.3f not positive", pts[0].WallMBps)
	}
}
