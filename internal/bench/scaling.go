package bench

import (
	"time"

	"hybrid/internal/httpd"
	"hybrid/internal/stats"
)

// This file measures what the rest of the figure suite deliberately holds
// fixed: how the hybrid runtime's wall-clock throughput moves with the
// worker count. The scaling figure is a *wall-time* measurement of the
// simulator itself: the cached (disk-free) workload, where the ready
// queue, kernel FD table, and epoll dispatch are the contended structures.
// Virtual throughput (MBps) is pinned at Workers=1 — the epoch-barrier
// clock makes that configuration byte-reproducible at any GOMAXPROCS. At
// Workers>1 it may drift slightly: all events sharing a timestamp fire in
// (when, seq) order, but which worker drains which runnable thread within
// the timestamp is host-scheduled, and that interleaving feeds back into
// request ordering through the shared-bandwidth link model.

// ScalingPoint is one run of the worker-scaling benchmark.
type ScalingPoint struct {
	// Workers is the worker_main count for this run.
	Workers int
	// Stealing reports whether per-worker deques with stealing were used.
	Stealing bool
	// VirtMBps is throughput in virtual time — a determinism check, not a
	// performance number. At Workers=1 it is byte-reproducible across
	// runs; at Workers>1 intra-timestamp worker interleaving may move it
	// slightly (see the package comment above).
	VirtMBps float64
	// WallMS is the wall-clock duration of the run.
	WallMS float64
	// WallMBps is bytes served per wall-clock second — the number that
	// should scale.
	WallMBps float64
	// Speedup is WallMBps relative to the Workers=1 run of the same
	// stealing mode (1.0 for the baseline itself).
	Speedup float64
	// Stats is the merged metrics snapshot at the end of the run.
	Stats stats.Snapshot
}

// fig19ScaleRun is one wall-timed cached-workload run: the same server and
// load as Fig19HybridStats, with bytes-served captured so the caller can
// compute wall throughput.
func fig19ScaleRun(cfg Fig19Config, conns int) (virtMBps float64, bytes uint64, wall time.Duration, snap stats.Snapshot) {
	clk, k, fs, rt, io := fig19Site(cfg)
	defer rt.Shutdown()
	srv := httpd.NewServer(io, httpd.ServerConfig{
		CacheBytes: cfg.CacheBytes,
		ChunkBytes: int(cfg.FileBytes),
	})
	serve, err := srv.BindAndServe("web:80")
	if err != nil {
		panic(err)
	}
	rt.Spawn(serve)
	start := time.Now()
	mbps, gen := runLoadGen(clk, rt, io, cfg, conns, false)
	wall = time.Since(start)
	// Quiesce to the accept-loop thread before reading counters: handler
	// retirements may still be in flight on other workers.
	rt.WaitLive(1)
	snap = stats.Snapshot{}
	snap.Merge("sched", rt.Stats().Snapshot())
	snap.Merge("kernel", k.Metrics().Snapshot())
	snap.Merge("disk", fs.Disk().Metrics().Snapshot())
	snap.Merge("httpd", srv.Metrics().Snapshot())
	return mbps, gen.Bytes.Load(), wall, snap
}

// Fig19Scaling runs the cached workload at each worker count and reports
// wall-clock throughput and speedup versus the Workers=1 run. The cached
// working set is forced on (Cached=true) so the disk model — a serial
// device that would cap any speedup — stays out of the hot path. Speedup
// is computed within the run, so points in one table share a machine
// state; compare tables across machines only by their Speedup columns.
func Fig19Scaling(cfg Fig19Config, conns int, workerCounts []int, stealing bool) []ScalingPoint {
	cfg.Cached = true
	cfg.WorkStealing = stealing
	out := make([]ScalingPoint, 0, len(workerCounts))
	var base float64
	for _, w := range workerCounts {
		cfg.Workers = w
		virt, bytes, wall, snap := fig19ScaleRun(cfg, conns)
		p := ScalingPoint{
			Workers:  w,
			Stealing: stealing,
			VirtMBps: virt,
			WallMS:   float64(wall.Milliseconds()),
			Stats:    snap,
		}
		if wall > 0 {
			p.WallMBps = float64(bytes) / float64(MB) / wall.Seconds()
		}
		if w == 1 && base == 0 {
			base = p.WallMBps
		}
		if base > 0 {
			p.Speedup = p.WallMBps / base
		}
		out = append(out, p)
	}
	return out
}
