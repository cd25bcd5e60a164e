package bench

import (
	"encoding/json"
	"io"
	"math"

	"hybrid/internal/stats"
)

// RunStats is the machine-readable record of one benchmark run: which
// figure, which system, the x-position, the headline throughput, and the
// merged metrics snapshot collected at the end of the run. Tools consume
// these blocks to correlate a figure's curve with the scheduler and I/O
// behaviour underneath it (e.g. Figure 17's rising MB/s against
// disk.queue_depth and disk.seek_blocks).
//
// MBps is throughput in *virtual* time — the deterministic model the
// figures are drawn in; it cannot move when only allocation behaviour
// changes. The optional fields carry the wall-clock side of a run
// (BENCH_fig17.json / BENCH_fig19.json perf trajectory): WallMS and
// WallMBps measure the real cost of simulating the run, P99Us is the
// virtual-time request latency tail, and NsPerOp/AllocsPerOp/BytesPerOp
// record a Go microbenchmark's -benchmem triple.
type RunStats struct {
	Figure string  `json:"figure"`
	System string  `json:"system"`
	Label  string  `json:"label,omitempty"` // trajectory tag, e.g. "pre-pr4"
	X      int     `json:"x"`
	MBps   float64 `json:"mbps"`

	P99Us        int64   `json:"p99_us,omitempty"`         // virtual-time p99 request latency
	WallMS       float64 `json:"wall_ms,omitempty"`        // wall-clock duration of the run
	WallMBps     float64 `json:"wall_mbps,omitempty"`      // bytes served per wall-clock second
	NsPerOp      int64   `json:"ns_per_op,omitempty"`      // microbenchmark wall ns/op
	AllocsPerOp  int64   `json:"allocs_per_op,omitempty"`  // microbenchmark heap allocations/op
	BytesPerOp   int64   `json:"bytes_per_op,omitempty"`   // microbenchmark heap bytes/op
	Speedup      float64 `json:"speedup,omitempty"`        // wall throughput relative to Workers=1
	BytesPerConn float64 `json:"bytes_per_conn,omitempty"` // live heap per parked connection (fig22)

	Stats stats.Snapshot `json:"stats,omitempty"`
}

// WriteRunStats emits rs as one indented JSON object followed by a
// newline. A NaN throughput (a system that could not run at this x) is
// written as -1, since JSON has no NaN.
func WriteRunStats(w io.Writer, rs RunStats) error {
	if math.IsNaN(rs.MBps) {
		rs.MBps = -1
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
