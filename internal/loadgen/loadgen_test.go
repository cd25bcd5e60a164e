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

func TestFileNameStable(t *testing.T) {
	if loadgen.FileName(0) != "file-0" || loadgen.FileName(12345) != "file-12345" {
		t.Fatal("file naming changed; benchmarks depend on it")
	}
}

func TestMakeFileset(t *testing.T) {
	fs := kernel.NewFS(disk.New(vclock.NewVirtual(), disk.DefaultGeometry()))
	if err := loadgen.MakeFileset(fs, 10, 4096); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f, err := fs.Open(loadgen.FileName(i))
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != 4096 {
			t.Fatalf("file %d size %d", i, f.Size())
		}
	}
	if err := loadgen.MakeFileset(fs, 1, 1); err == nil {
		t.Fatal("duplicate fileset creation succeeded")
	}
}

func TestGeneratorAgainstServer(t *testing.T) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	if err := loadgen.MakeFileset(fs, 8, 2048); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20})
	rt.Spawn(srv.ListenAndServe("web:80"))

	gen := loadgen.New(io, loadgen.Config{
		Addr: "web:80", Clients: 4, Files: 8, RequestsPerClient: 5, Seed: 3,
		RTT: 100 * time.Microsecond,
	})
	done := make(chan struct{})
	rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	<-done

	if gen.Errors.Load() != 0 {
		t.Fatalf("errors: %d", gen.Errors.Load())
	}
	if gen.Requests.Load() != 20 {
		t.Fatalf("requests = %d", gen.Requests.Load())
	}
	if gen.Bytes.Load() != 20*2048 {
		t.Fatalf("bytes = %d", gen.Bytes.Load())
	}
	// RTT must appear in virtual time: 5 sequential requests per client
	// × 100µs ≥ 500µs.
	if time.Duration(clk.Now()) < 500*time.Microsecond {
		t.Fatalf("virtual time %v ignores RTT", time.Duration(clk.Now()))
	}
}

func TestGeneratorDeterministicRequests(t *testing.T) {
	run := func() uint64 {
		clk := vclock.NewVirtual()
		k := kernel.New(clk)
		fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
		if err := loadgen.MakeFileset(fs, 16, 1024); err != nil {
			t.Fatal(err)
		}
		rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
		defer rt.Shutdown()
		io := hio.New(rt, k, fs)
		srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 4 << 20})
		rt.Spawn(srv.ListenAndServe("web:80"))
		gen := loadgen.New(io, loadgen.Config{
			Addr: "web:80", Clients: 2, Files: 16, RequestsPerClient: 8, Seed: 99,
		})
		done := make(chan struct{})
		rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
		<-done
		hits, misses, _ := srv.Cache().Stats()
		return hits*1_000_000 + misses
	}
	if run() != run() {
		t.Fatal("same seed produced different request streams")
	}
}

func TestGeneratorConnectFailureCounted(t *testing.T) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)
	gen := loadgen.New(io, loadgen.Config{
		Addr: "nobody:80", Clients: 3, Files: 1, RequestsPerClient: 1, Seed: 1,
	})
	done := make(chan struct{})
	rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	<-done
	if gen.Errors.Load() != 3 {
		t.Fatalf("errors = %d, want 3", gen.Errors.Load())
	}
	if gen.Requests.Load() != 0 {
		t.Fatalf("requests = %d", gen.Requests.Load())
	}
}
