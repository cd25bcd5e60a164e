package loadgen_test

import (
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// attackRun drives one adversarial run against a fresh server and returns
// the adversary and the server's lifecycle stats. A nil lc runs with
// defenses off.
func attackRun(t *testing.T, mode loadgen.AttackMode, lc *httpd.LifecycleConfig) (*loadgen.Adversary, httpd.LifecycleStats) {
	t.Helper()
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	if err := loadgen.MakeFileset(fs, 4, 16384); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20, Lifecycle: lc})
	rt.Spawn(srv.ListenAndServe("web:80"))

	adv := loadgen.NewAdversary(io, loadgen.AttackConfig{
		Addr:      "web:80",
		Attackers: 4,
		Mode:      mode,
		Seed:      17,
		Interval:  2 * time.Millisecond,
		Duration:  100 * time.Millisecond,
		Files:     4,
	})
	done := make(chan struct{})
	rt.Spawn(core.Then(adv.Run(), core.Do(func() { close(done) })))
	<-done
	return adv, srv.LifecycleStats()
}

var hardened = &httpd.LifecycleConfig{
	IdleTimeout:       10 * time.Millisecond,
	HeaderTimeout:     10 * time.Millisecond,
	BodyTimeout:       10 * time.Millisecond,
	WriteStallTimeout: 10 * time.Millisecond,
}

func TestAdversarySlowlorisShedByHardenedServer(t *testing.T) {
	adv, st := attackRun(t, loadgen.AttackSlowloris, hardened)
	if st.ShedHeader == 0 {
		t.Fatalf("no header sheds against slowloris: %+v", st)
	}
	if adv.Torndown.Load() == 0 {
		t.Fatal("attackers never observed a teardown")
	}
	// Shed attackers reconnect and get shed again: the defense fires
	// repeatedly across the horizon, not just once.
	if st.ShedHeader < 8 {
		t.Fatalf("only %d header sheds over 100ms with a 10ms budget", st.ShedHeader)
	}
}

func TestAdversaryIdleFloodReaped(t *testing.T) {
	adv, st := attackRun(t, loadgen.AttackIdle, hardened)
	if st.ReapedIdle == 0 {
		t.Fatalf("no idle reaps against an idle flood: %+v", st)
	}
	if adv.Torndown.Load() == 0 {
		t.Fatal("attackers never observed a teardown")
	}
}

func TestAdversaryReadStallShed(t *testing.T) {
	_, st := attackRun(t, loadgen.AttackReadStall, hardened)
	if st.ShedWrite == 0 {
		t.Fatalf("no write-stall sheds against a read-stall attack: %+v", st)
	}
}

func TestAdversaryChurnServedWithoutSheds(t *testing.T) {
	// Churn abandons connections before any deadline can pass; the server
	// just sees EOFs. The attack still completes and counts its cycles.
	adv, _ := attackRun(t, loadgen.AttackChurn, hardened)
	if adv.Conns.Load() < 20 {
		t.Fatalf("churn opened only %d connections over 100ms", adv.Conns.Load())
	}
}

func TestAdversaryDefenselessServerNeverSheds(t *testing.T) {
	// Against an unhardened server the attackers are never torn down:
	// they pin their connections until the horizon. This is the baseline
	// the fig21 bench contrasts.
	adv, st := attackRun(t, loadgen.AttackSlowloris, nil)
	if st.Total() != 0 {
		t.Fatalf("lifecycle stats nonzero with defenses off: %+v", st)
	}
	if adv.Torndown.Load() != 0 {
		t.Fatalf("attackers torn down %d times with defenses off", adv.Torndown.Load())
	}
	if adv.Conns.Load() != 4 {
		t.Fatalf("conns = %d, want exactly one pinned connection per attacker", adv.Conns.Load())
	}
}

func TestAdversaryDeterministic(t *testing.T) {
	type result struct {
		conns, torndown, sent uint64
		st                    httpd.LifecycleStats
	}
	run := func() result {
		adv, st := attackRun(t, loadgen.AttackSlowloris, hardened)
		return result{adv.Conns.Load(), adv.Torndown.Load(), adv.Sent.Load(), st}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("adversarial runs diverged: %+v vs %+v", a, b)
	}
}
