// Command perfbench is the repository's benchmark: it builds one of four
// simulated web-serving worlds from the packages' public constructors,
// drives it with a closed-loop client load in virtual time, and reports
// host-cost metrics (wall throughput, CPU, allocation, heap, set-up time)
// next to the modelled server's virtual outcome (goodput, latency). With
// -trace 1 it reports per-layer metrics instead: counts per request,
// CPU-profile shares by layer, and a ladder of per-layer unit costs.
//
// Usage:
//
//	perfbench -workload web-cached -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

func main() {
	workload := flag.String("workload", "", "web-cached, web-disk, web-churn or web-tcp")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same request streams")
	seconds := flag.Float64("seconds", 10, "measured time")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a separate traced run")
	flag.Parse()
	s, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		os.Exit(2)
	}
	// One P: the single runtime worker, the garbage collector and the
	// harness share one CPU, so wall time tracks the work done instead of
	// how much of a second CPU the host happens to spare.
	runtime.GOMAXPROCS(1)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s, runtime workers 1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s: %d clients x %d requests, %d x %d B files (working set %d), cache %d MB, seed %d\n",
		s.name, s.clients, s.perClient, s.files, s.fileBytes, s.workingSet, s.cacheBytes>>20, *seed)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceFlag == 1 {
		res = traced(s, *seed, budget)
	} else {
		res = untraced(s, *seed, budget)
	}
	for _, c := range res.problems {
		fmt.Println("CHECK FAILED:", c)
	}
	if res.metrics == nil {
		res.metrics = map[string]metric{} // a failed run reports no metrics
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	attempted, failed uint64
	problems          []string
	metrics           map[string]metric
}

// untraced measures the end-to-end metrics. A shared host runs
// memory-bound code at one of two speeds, up to 2x apart, in phases that
// last from a fraction of a second to minutes, and the median round jumps
// between the two with the share of slow phases in the run. Wall and CPU
// time per request are therefore totals over the rounds, which move in
// proportion to that share, and set-up time is the fastest build of the
// world in the run, which stays the fast speed's cost unless the whole
// run was slow. Allocation and heap are medians over the rounds; virtual
// outcomes pool the first round of every sub-seed.
func untraced(s spec, seed uint64, budget time.Duration) result {
	rounds, res := runRounds(s, seed, budget, false)
	if len(res.problems) > 0 {
		return res
	}
	res.metrics = map[string]metric{}
	add := func(name, unit string, f func(r *round) float64) {
		vals := make([]float64, len(rounds))
		for i := range rounds {
			vals[i] = f(&rounds[i])
		}
		res.metrics[name] = metric{median(vals), unit}
	}
	var responses uint64
	var wall, cpu time.Duration
	setups := make([]float64, len(rounds))
	for i, r := range rounds {
		responses += r.responses
		wall += r.wall
		cpu += r.cpu
		setups[i] = r.setup.Seconds()
	}
	res.metrics["req_per_s"] = metric{float64(responses) / wall.Seconds(), "1/s"}
	res.metrics["cpu_us_per_req"] = metric{float64(cpu) / float64(time.Microsecond) / float64(responses), "us"}
	add("alloc_kb_per_req", "KiB", func(r *round) float64 {
		return float64(r.allocBytes) / 1024 / float64(r.responses)
	})
	add("heap_peak_mb", "MiB", func(r *round) float64 { return float64(r.heapPeak) / (1 << 20) })
	res.metrics["setup_s"] = metric{slices.Min(setups), "s"}

	v := poolVirtual(rounds[:s.subSeeds])
	res.metrics["virt_mb_per_s"] = metric{v.mbPerSec, "MiB/s"}
	res.metrics["virt_p50_us"] = metric{v.p50, "us"}
	res.metrics["virt_p99_us"] = metric{v.p99, "us"}
	fmt.Printf("rounds %d over %d sub-seeds; set-up over the rounds: median %.6f s, fastest %.6f s\n",
		len(rounds), s.subSeeds, median(setups), slices.Min(setups))
	fmt.Printf("virtual: %d latency samples, p50 bucket <= %d us, p99 bucket <= %d us, %d 2xx body bytes in %v\n",
		v.samples, v.b50, v.b99, v.goodBytes, v.elapsed)
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	return res
}

// pooled is the virtual outcome of several rounds taken together.
type pooled struct {
	elapsed   vclock.Duration
	goodBytes uint64
	samples   uint64
	mbPerSec  float64
	p50, p99  float64 // interpolated inside the bucket, µs
	b50, b99  int64   // the bucket bounds loadgen's Quantile reports
}

func poolVirtual(rounds []round) pooled {
	var p pooled
	counts := map[int64]uint64{}
	var hi int64
	for _, r := range rounds {
		p.elapsed += r.virt.elapsed
		p.goodBytes += r.virt.goodBytes
		for _, b := range r.virt.latency.Buckets {
			counts[b.Le] += b.Count
		}
		hi = max(hi, r.virt.latency.Max)
		p.samples += r.virt.latency.Count
	}
	p.mbPerSec = float64(p.goodBytes) / (1 << 20) / p.elapsed.Seconds()
	bounds := make([]int64, 0, len(counts))
	for le := range counts {
		bounds = append(bounds, le)
	}
	slices.Sort(bounds)
	// quantile finds the bucket where the cumulative count reaches q·n
	// and interpolates linearly between the bucket's edges.
	quantile := func(q float64) (float64, int64) {
		rank := q * float64(p.samples)
		var cum float64
		for _, le := range bounds {
			n := float64(counts[le])
			if cum+n >= rank {
				lo, hi := bucketEdges(le, hi)
				return lo + (hi-lo)*(rank-cum)/n, le
			}
			cum += n
		}
		return float64(hi), stats.InfBucket
	}
	p.p50, p.b50 = quantile(0.50)
	p.p99, p.b99 = quantile(0.99)
	return p
}

// bucketEdges is the range of latencyBounds' bucket le: above the
// previous bound, up to le itself, or up to the largest sample max for the
// overflow bucket.
func bucketEdges(le, max int64) (lo, hi float64) {
	i, _ := slices.BinarySearch(latencyBounds, le)
	if i > 0 {
		lo = float64(latencyBounds[i-1])
	}
	if le == stats.InfBucket {
		return lo, float64(max)
	}
	return lo, float64(le)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
