package bench

import (
	"math"
	"sync"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/nptl"
	"hybrid/internal/vclock"
)

// Fig18Config parameterizes the FIFO-pipe scalability test: "128 pairs of
// active threads … one thread sends 32KB data to the other thread,
// receives 32KB data from the other thread and repeats this conversation.
// The buffer size of each FIFO pipe is 4KB. In addition … there are many
// idle threads in the program waiting for epoll events on idle FIFO
// pipes." This benchmark is CPU/memory-bound and runs on the wall clock.
type Fig18Config struct {
	// Pairs of active threads. Paper: 128.
	Pairs int
	// MessageBytes per direction per round. Paper: 32 KB.
	MessageBytes int
	// PipeBytes is the FIFO buffer. Paper: 4 KB.
	PipeBytes int
	// Rounds per pair per run (the paper transfers 64 GB per run; scale
	// with this).
	Rounds int
	// NPTLBudget caps baseline thread stacks (512 MB → 16 K threads).
	NPTLBudget int64
	// Workers is the hybrid scheduler's worker count.
	Workers int
}

// DefaultFig18 is a practical configuration (the paper's full 64 GB per
// run is scaled down; throughput is a rate, so volume only affects noise).
func DefaultFig18() Fig18Config {
	return Fig18Config{
		Pairs:        128,
		MessageBytes: 32 * 1024,
		PipeBytes:    4096,
		Rounds:       32,
		NPTLBudget:   512 << 20,
		Workers:      2,
	}
}

// Fig18Quick is reduced for tests.
func Fig18Quick() Fig18Config {
	c := DefaultFig18()
	c.Pairs = 16
	c.Rounds = 8
	return c
}

// totalBytes is the volume counted toward throughput (both directions of
// every pair).
func (c Fig18Config) totalBytes() int64 {
	return int64(c.Pairs) * int64(c.Rounds) * int64(c.MessageBytes) * 2
}

// Fig18Hybrid measures the hybrid runtime with the given number of idle
// threads parked in sys_epoll_wait.
func Fig18Hybrid(cfg Fig18Config, idle int) float64 {
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: cfg.Workers, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)

	// Idle threads: one per idle pipe, waiting for an event that never
	// comes.
	for i := 0; i < idle; i++ {
		rfd, _ := k.NewPipe(cfg.PipeBytes)
		rt.Spawn(core.Then(io.EpollWait(rfd, kernel.EventRead), core.Skip))
	}

	wg := core.NewWaitGroup(cfg.Pairs * 2)
	done := make(chan struct{})
	var prog core.M[core.Unit] = core.Skip
	for p := 0; p < cfg.Pairs; p++ {
		aToB1, aToB2 := k.NewPipe(cfg.PipeBytes) // r, w
		bToA1, bToA2 := k.NewPipe(cfg.PipeBytes)
		bufA := make([]byte, cfg.MessageBytes)
		bufB := make([]byte, cfg.MessageBytes)
		// Thread A: send then receive; thread B: receive then send. Each
		// side is a flat pump over two cell computations applied once per
		// thread, so a round re-forces cached traces instead of rebuilding
		// the Figure-10 retry closures per 4 KB pipe-buffer transfer.
		threadA := core.Finally(fifoPumpM(
			io.SockSendCell(aToB2, &bufA), io.SockReadFullCell(bToA1, &bufA),
			cfg.Rounds), wg.Done())
		threadB := core.Finally(fifoPumpM(
			io.SockReadFullCell(aToB1, &bufB), io.SockSendCell(bToA2, &bufB),
			cfg.Rounds), wg.Done())
		prog = core.Seq(prog, core.Fork(threadA), core.Fork(threadB))
	}
	start := time.Now()
	rt.Spawn(core.Seq(prog, wg.Wait(), core.Do(func() { close(done) })))
	<-done
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return math.NaN()
	}
	return float64(cfg.totalBytes()) / float64(MB) / elapsed.Seconds()
}

// fifoPumpM is the hand-flattened state machine for one fig18 endpoint:
// run first then second, cfg.Rounds times. Both halves are applied to
// their continuations exactly once, at M-application time, and their
// traces re-forced every round through the pump's embedded trampoline
// node — the whole conversation allocates one pump, one send state, and
// one receive state per thread, regardless of round count or message
// size. The node sequence matches the naive
// ForN(rounds, Then(first, second)) spelling.
func fifoPumpM(first, second core.M[int], rounds int) core.M[core.Unit] {
	if rounds <= 0 {
		return core.Skip
	}
	return func(k func(core.Unit) core.Trace) core.Trace {
		s := &fifoPump{rounds: rounds, k: k}
		s.node.Effect = s.bounce
		s.second = second(s.afterSecond)
		s.first = first(s.afterFirst)
		return s.first
	}
}

type fifoPump struct {
	first  core.Trace
	second core.Trace
	round  int
	rounds int
	k      func(core.Unit) core.Trace
	node   core.NBIONode
}

func (s *fifoPump) afterFirst(int) core.Trace  { return s.second }
func (s *fifoPump) afterSecond(int) core.Trace { return &s.node }

func (s *fifoPump) bounce() core.Trace {
	round := s.round + 1
	if round >= s.rounds {
		s.round = 0 // reset: a retained trace may replay this pump
		return s.k(core.Unit{})
	}
	s.round = round
	return s.first
}

// Fig18NPTL measures the baseline: one kernel thread per endpoint with
// blocking pipe I/O, stack-touch cache pollution per switch, and idle
// threads blocked in reads on idle pipes.
func Fig18NPTL(cfg Fig18Config, idle int) float64 {
	clk := vclock.NewReal()
	k := kernel.New(clk)
	rt := nptl.New(k, nil, nptl.Config{MemoryBudget: cfg.NPTLBudget})

	// Idle threads block reading pipes that never fill. They are
	// released at the end by closing the write ends.
	idleWrites := make([]kernel.FD, 0, idle)
	for i := 0; i < idle; i++ {
		rfd, wfd := k.NewPipe(cfg.PipeBytes)
		idleWrites = append(idleWrites, wfd)
		if err := rt.Spawn(func(t *nptl.Thread) {
			buf := make([]byte, 1)
			t.Read(rfd, buf)
		}); err != nil {
			return math.NaN() // over the thread budget: no data point
		}
	}

	var wg sync.WaitGroup
	spawn := func(fn func(t *nptl.Thread)) bool {
		wg.Add(1)
		err := rt.Spawn(func(t *nptl.Thread) {
			defer wg.Done()
			fn(t)
		})
		if err != nil {
			wg.Done()
			return false
		}
		return true
	}

	ok := true
	start := time.Now()
	for p := 0; p < cfg.Pairs && ok; p++ {
		aToB1, aToB2 := k.NewPipe(cfg.PipeBytes)
		bToA1, bToA2 := k.NewPipe(cfg.PipeBytes)
		ok = ok && spawn(func(t *nptl.Thread) {
			buf := make([]byte, cfg.MessageBytes)
			for r := 0; r < cfg.Rounds; r++ {
				t.WriteAll(aToB2, buf)
				t.ReadFull(bToA1, buf)
			}
		})
		ok = ok && spawn(func(t *nptl.Thread) {
			buf := make([]byte, cfg.MessageBytes)
			for r := 0; r < cfg.Rounds; r++ {
				t.ReadFull(aToB1, buf)
				t.WriteAll(bToA2, buf)
			}
		})
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, wfd := range idleWrites {
		k.Close(wfd)
	}
	rt.Wait()
	if !ok {
		return math.NaN()
	}
	if elapsed <= 0 {
		return math.NaN()
	}
	return float64(cfg.totalBytes()) / float64(MB) / elapsed.Seconds()
}

// Fig18 runs both systems across the idle-thread counts.
func Fig18(cfg Fig18Config, idleCounts []int) []Point {
	out := make([]Point, 0, len(idleCounts))
	for _, n := range idleCounts {
		out = append(out, Point{X: n, Hybrid: Fig18Hybrid(cfg, n), NPTL: Fig18NPTL(cfg, n)})
	}
	return out
}
