package main

import (
	"fmt"
	"time"
)

// rungTime is how long the ladder times each rung.
const rungTime = 200 * time.Millisecond

// traced reports the per-layer metrics. Counts come from untraced rounds,
// CPU shares from separate rounds whose timed phases run under the CPU
// profiler, and unit costs from the layer ladder. trace.overhead is the
// slowdown of the profiled rounds against the untraced ones.
func traced(s spec, seed uint64, budget time.Duration) result {
	plain, res := runRounds(s, seed, budget/2, false)
	if len(res.problems) > 0 {
		return res
	}
	profiled, res2 := runRounds(s, seed, budget/2, true)
	res.attempted += res2.attempted
	res.failed += res2.failed
	if res.problems = res2.problems; len(res.problems) > 0 {
		return res
	}

	total := counts{}
	var responses uint64
	var cpu, gc time.Duration
	for _, r := range plain {
		total.add(r.counts)
		responses += r.responses
		cpu += r.cpu
		gc += r.gcCPU
	}
	res.metrics = total.perRequest(responses)
	res.metrics["runtime.gc_cpu_share"] = metric{gc.Seconds() / cpu.Seconds(), "ratio"}

	samples := map[string]int64{}
	for _, r := range profiled {
		if err := attribute(r.profile, samples); err != nil {
			res.problems = append(res.problems, err.Error())
			return res
		}
	}
	var n int64
	for _, c := range samples {
		n += c
	}
	for _, l := range layers {
		res.metrics[l+".cpu_share"] = metric{float64(samples[l]) / float64(max(n, 1)), "ratio"}
	}
	rate := func(rs []round) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = float64(r.responses) / r.wall.Seconds()
		}
		return median(v)
	}
	res.metrics["trace.overhead"] = metric{rate(plain)/rate(profiled) - 1, "ratio"}
	fmt.Printf("profile: %d samples over %d profiled rounds; %d untraced rounds\n", n, len(profiled), len(plain))

	for name, m := range runLadder(rungTime) {
		res.metrics[name] = m
	}
	printAccounting(res.metrics, cpu.Seconds()*1e6/float64(responses))
	return res
}

// printAccounting sets, for the layers with a ladder rung, unit cost times
// count per request against the layer's measured share of CPU per
// request. The two agree only roughly: a rung isolates one operation,
// while a layer's share covers all of its code.
func printAccounting(m map[string]metric, cpuUsPerReq float64) {
	rows := []struct{ layer, rung, count string }{
		{"core", "core.park_resume_ns", "core.parks_per_req"},
		{"fs", "fs.fill_16k_ns", "disk.requests_per_req"},
		{"httpd", "httpd.parse_ns", ""},
		{"tcp", "tcp.segment_roundtrip_ns", "tcp.segs_per_req"},
	}
	fmt.Printf("accounting (us per request): layer, unit cost x count, cpu_share x %.2f us\n", cpuUsPerReq)
	for _, r := range rows {
		count := 1.0
		if r.count != "" {
			count = m[r.count].Value
		}
		fmt.Printf("  %-8s %10.3f %10.3f\n", r.layer, m[r.rung].Value*count/1000, m[r.layer+".cpu_share"].Value*cpuUsPerReq)
	}
}
