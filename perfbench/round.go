package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// watchdog bounds each timed phase of a round in wall time. A round
// that stalls is abandoned: its unanswered requests count as failed and
// the run ends.
const watchdog = 30 * time.Second

// A round's set-up time is the fastest of several builds of its world,
// each from a freshly collected heap. After its load a round builds and
// closes spare worlds until it has made setupBuilds builds or its builds
// have taken setupBudget together: nine builds of the small worlds, which
// take a millisecond or less each, and three to five of web-disk's.
const (
	setupBuilds = 9
	setupBudget = 400 * time.Millisecond
)

// round is one build-and-drive of a workload.
type round struct {
	setup      time.Duration // fastest build of the world until the server listened
	builds     int           // builds made
	wall       time.Duration // load spawned until its last client finished
	cpu        time.Duration // process user+sys CPU over the timed phase
	gcCPU      time.Duration // the runtime's estimate of GC CPU in that time
	allocBytes uint64        // heap bytes allocated over the timed phase
	heapPeak   uint64        // highest live heap-object bytes seen in the timed phase
	responses  uint64        // responses read in full
	correct    uint64        // 2xx responses with the file's length
	virt       virtual
	counts     counts
	profile    []byte // gzipped CPU profile of the timed phase, when profiled
}

// virtual is the modelled server's outcome of one round: deterministic
// for one request stream, because the runtime has a single worker.
type virtual struct {
	elapsed   vclock.Duration
	goodBytes uint64
	latency   stats.Metric // per-request latency histogram, µs
}

// runRounds runs rounds of the workload until budget has passed and every
// sub-seed has run once, checking every round's outputs and quiescence
// and that a repeated sub-seed repeats its virtual outcome exactly. It
// stops at the first failed check. With profile set, each round's timed
// phase runs under the CPU profiler.
func runRounds(s spec, seed uint64, budget time.Duration, profile bool) ([]round, result) {
	var rounds []round
	var res result
	start := time.Now()
	for i := 0; i < s.subSeeds || time.Since(start) < budget; i++ {
		r, problems := runRound(s, mix(seed, uint64(i%s.subSeeds), 0), profile)
		res.attempted += s.planned()
		res.failed += s.planned() - min(s.planned(), r.correct)
		if i >= s.subSeeds && !reflect.DeepEqual(r.virt, rounds[i-s.subSeeds].virt) {
			problems = append(problems, fmt.Sprintf("round %d: virtual outcome differs from round %d's with the same request streams", i+1, i+1-s.subSeeds))
		}
		if len(problems) > 0 {
			res.problems = problems
			return rounds, res
		}
		fmt.Printf("round %2d: sub-seed %d, set-up %.3f ms (fastest of %d), %d requests in %.3f s wall (%.0f/s), cpu %.3f s, virtual %v\n",
			i+1, i%s.subSeeds, float64(r.setup)/1e6, r.builds, r.responses, r.wall.Seconds(),
			float64(r.responses)/r.wall.Seconds(), r.cpu.Seconds(), r.virt.elapsed)
		rounds = append(rounds, r)
	}
	return rounds, res
}

// runRound builds a fresh world, drives the workload through it once,
// and checks the outputs and the state left behind.
func runRound(s spec, seed uint64, profile bool) (round, []string) {
	var r round
	runtime.GC() // the previous round's world is garbage; collect it outside the timing
	t0 := time.Now()
	w, err := buildWorld(s)
	r.setup, r.builds = time.Since(t0), 1
	if err != nil {
		return r, []string{"set-up: " + err.Error()}
	}
	load, t := s.load(w, seed)
	base := readCounts(w)

	var vstart, vend vclock.Time
	done := make(chan struct{})
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			w.close()
			return r, []string{"cpu profile: " + err.Error()}
		}
	}
	peak := startHeapSampler()
	cpu0, gc0, alloc0, wall0 := cpuTime(), gcCPU(), heapAllocs(), time.Now()
	w.rt.Spawn(core.Seq(
		core.Do(func() { vstart = w.clk.Now() }),
		load,
		// The end is read inside the load's thread: once it parks, the
		// quiescent clock races through pending timers.
		core.Do(func() { vend = w.clk.Now(); close(done) }),
	))
	finished := waitFor(done)
	r.wall = time.Since(wall0)
	r.cpu = cpuTime() - cpu0
	r.gcCPU = gcCPU() - gc0
	r.allocBytes = heapAllocs() - alloc0
	r.heapPeak = peak()
	runtime.GC() // the world is still reachable: measure its live heap once more
	r.heapPeak = max(r.heapPeak, readUint(liveHeap))
	if profile {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	r.responses = t.responses
	// A wrong length cannot be pinned on one response, so a byte
	// mismatch fails every request of the round.
	if t.goodBytes == t.ok*uint64(s.fileBytes) {
		r.correct = t.ok
	}
	if !finished {
		// The world is abandoned as it is: its parked threads never resume.
		return r, []string{fmt.Sprintf("watchdog: load still running after %v", watchdog)}
	}
	var problems []string
	quiet := make(chan struct{})
	go func() { w.rt.WaitLive(1); close(quiet) }()
	if !waitFor(quiet) {
		problems = append(problems, fmt.Sprintf("watchdog: %d threads still live %v after the load", w.rt.Live(), watchdog))
	}
	r.virt = virtual{
		elapsed:   vclock.Duration(vend - vstart),
		goodBytes: t.goodBytes,
		latency:   t.reg.Snapshot()["latency_us"],
	}
	r.counts = readCounts(w).since(base)

	want := s.planned()
	if t.responses != want || t.ok != want {
		problems = append(problems, fmt.Sprintf("%d responses, %d of them 2xx, want %d (%d clients died)", t.responses, t.ok, want, t.clientErr))
	}
	if wantBytes := want * uint64(s.fileBytes); t.goodBytes != wantBytes {
		problems = append(problems, fmt.Sprintf("2xx body bytes %d, want %d", t.goodBytes, wantBytes))
	}
	if t.lat.Count() != t.responses {
		problems = append(problems, fmt.Sprintf("%d latency samples for %d responses", t.lat.Count(), t.responses))
	}
	if n := w.k.OpenFDs(); n != w.baseFDs {
		problems = append(problems, fmt.Sprintf("%d open descriptors after the run, %d before", n, w.baseFDs))
	}
	if n := w.rt.Live(); n != 1 {
		problems = append(problems, fmt.Sprintf("%d live threads after the run, want the accept loop alone", n))
	}
	if n := bufpool.SegOutstanding(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d kernel segments outstanding after the run", n))
	}
	w.close()
	if len(problems) == 0 {
		if err := r.buildSpares(s); err != nil {
			problems = append(problems, "set-up: "+err.Error())
		}
	}
	return r, problems
}

// buildSpares builds and closes spare worlds until the round has made
// setupBuilds builds or spent setupBudget building, keeping the fastest
// time.
func (r *round) buildSpares(s spec) error {
	for spent := r.setup; r.builds < setupBuilds && spent < setupBudget; r.builds++ {
		runtime.GC()
		t0 := time.Now()
		w, err := buildWorld(s)
		took := time.Since(t0)
		if err != nil {
			return err
		}
		w.close()
		r.setup = min(r.setup, took)
		spent += took
	}
	return nil
}

// waitFor waits for ch to close, at most watchdog long.
func waitFor(ch <-chan struct{}) bool {
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func heapAllocs() uint64 { return readUint("/gc/heap/allocs:bytes") }

func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// liveHeap is the heap-object bytes the last garbage collection found
// live.
const liveHeap = "/gc/heap/live:bytes"

// startHeapSampler samples live heap-object bytes every 5 ms until
// the returned function is called; that function returns the highest
// sample.
func startHeapSampler() func() uint64 {
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: liveHeap}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var hi uint64
		for {
			metrics.Read(s)
			hi = max(hi, s[0].Value.Uint64())
			select {
			case <-stop:
				peak <- hi
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-peak
	}
}
