package tcp

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
)

// monadicWorld runs both TCP endpoints inside one hybrid runtime — the
// paper's actual configuration (§4.8): TCP operations as system calls
// made by monadic threads.
func monadicWorld(t *testing.T, link netsim.LinkParams, cfg Config) (*world, *core.Runtime) {
	t.Helper()
	w := newWorld(t, link, cfg)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: w.clk})
	t.Cleanup(rt.Shutdown)
	return w, rt
}

func TestMonadicEchoRoundTrip(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	// Server: accept, echo until EOF, close.
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		buf := make([]byte, 512)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return c.CloseM()
				}
				return core.Then(
					core.Bind(c.WriteM(buf[:n]), func(int) core.M[core.Unit] { return core.Skip }),
					loop(),
				)
			})
		}
		return loop()
	}))
	var reply atomic.Value
	done := make(chan struct{})
	rt.Spawn(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
		msg := []byte("monadic tcp echo")
		buf := make([]byte, len(msg))
		return core.Seq(
			core.Bind(c.WriteM(msg), func(int) core.M[core.Unit] { return core.Skip }),
			core.Bind(c.ReadFullM(buf), func(n int) core.M[core.Unit] {
				return core.Do(func() { reply.Store(string(buf[:n])) })
			}),
			c.CloseM(),
			core.Do(func() { close(done) }),
		)
	}))
	<-done
	if reply.Load() != "monadic tcp echo" {
		t.Fatalf("reply = %v", reply.Load())
	}
}

func TestMonadicConnectRefusedThrows(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	var caught atomic.Value
	done := make(chan struct{})
	rt.Spawn(core.Catch(
		core.Then(
			core.Bind(w.a.ConnectM("hostB", 9), func(*Conn) core.M[core.Unit] { return core.Skip }),
			core.Skip,
		),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(err); close(done) })
		},
	))
	<-done
	if err, _ := caught.Load().(error); !errors.Is(err, ErrRefused) {
		t.Fatalf("caught %v", caught.Load())
	}
}

func TestMonadicWriteVMZeroCopy(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("xyz"), 5000)
	var got []byte
	done := make(chan struct{})
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		buf := make([]byte, 4096)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return core.Do(func() { close(done) })
				}
				got = append(got, buf[:n]...)
				return loop()
			})
		}
		return loop()
	}))
	rt.Spawn(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
		v := iovec.New(want[:7000], want[7000:])
		return core.Seq(c.WriteVM(v), c.CloseM())
	}))
	<-done
	if !bytes.Equal(got, want) {
		t.Fatalf("zero-copy monadic transfer: %d vs %d bytes", len(got), len(want))
	}
}

func TestMonadicReadThrowsOnReset(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		return core.Do(c.Abort) // RST the client immediately
	}))
	var caught atomic.Value
	done := make(chan struct{})
	rt.Spawn(core.Catch(
		core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
			return core.Bind(c.ReadM(make([]byte, 8)), func(int) core.M[core.Unit] {
				return core.Skip
			})
		}),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(err); close(done) })
		},
	))
	<-done
	if err, _ := caught.Load().(error); !errors.Is(err, ErrConnReset) {
		t.Fatalf("caught %v", caught.Load())
	}
}

func TestConnAccessors(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	if client.RemoteAddr() != "hostB" || client.RemotePort() != 80 {
		t.Fatalf("client peer = %s:%d", client.RemoteAddr(), client.RemotePort())
	}
	if server.LocalPort() != 80 || server.RemoteAddr() != "hostA" {
		t.Fatalf("server view = :%d <- %s", server.LocalPort(), server.RemoteAddr())
	}
	if w.b.Addr() != "hostB" {
		t.Fatalf("stack addr = %s", w.b.Addr())
	}
	if k := (connKey{80, "hostA", client.LocalPort()}); k.String() == "" {
		t.Fatal("empty key string")
	}
}

func TestPersistTimerUnsticksZeroWindow(t *testing.T) {
	// The receiver reads nothing; the sender fills the window to zero and
	// must keep probing via the persist timer, then finish when the
	// reader finally drains.
	cfg := Config{RecvBuf: 2048, RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)

	payload := make([]byte, 6*1024)
	written := make(chan error, 1)
	w.a.Go(func() {
		_, err := client.Write(payload)
		written <- err
		client.Close()
	})
	// Let the sender stall against the zero window: run the clock for a
	// while with nobody reading. The persist timer must be probing.
	probeWait := make(chan struct{})
	w.clk.After(200*time.Millisecond, func() { close(probeWait) })
	<-probeWait
	w.a.mu.Lock()
	flight := client.flightLocked()
	queued := client.sndBuf.Len()
	w.a.mu.Unlock()
	if flight == 0 && queued == 0 {
		t.Fatal("sender finished without the receiver reading — window not enforced")
	}
	// Now drain; the whole payload must arrive.
	var got int
	var wg2 = make(chan struct{})
	w.b.Go(func() {
		defer close(wg2)
		buf := make([]byte, 512)
		for {
			n, err := server.Read(buf)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
	})
	if err := <-written; err != nil {
		t.Fatalf("write: %v", err)
	}
	<-wg2
	if got != len(payload) {
		t.Fatalf("received %d of %d after zero-window stall", got, len(payload))
	}
}

// Re-entering a pre-applied read-some trace allocates nothing per
// message: neither a read that finds buffered data nor one that finds
// the buffer empty and returns the kept park trace, which resumes into
// the same entry node.
func TestReadMReentryAllocs(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	// send writes n bytes from the client; they arrive in one segment.
	send := func(n int) {
		w.a.Go(func() {
			if _, err := client.Write(make([]byte, n)); err != nil {
				t.Error(err)
			}
		})
	}
	waitFor := func(ch <-chan core.Trace) core.Trace {
		select {
		case tr := <-ch:
			return tr
		case <-time.After(5 * time.Second):
			t.Fatal("data never arrived")
			return nil
		}
	}
	const msgs = 600
	arrived := make(chan core.Trace, 1)
	server.OnRecvReady(func() { arrived <- nil })
	send(msgs)
	waitFor(arrived)

	buf := make([]byte, 1)
	var got int
	done := &core.RetNode{}
	entry := server.ReadM(buf)(func(n int) core.Trace { got = n; return done })
	node := entry.(*core.NBIONode)
	var bad bool
	if n := testing.AllocsPerRun(msgs-1, func() {
		if node.Effect() != done || got != 1 {
			bad = true
		}
	}); n != 0 || bad {
		t.Errorf("ready read re-entry: %v allocs per message (bad delivery: %v)", n, bad)
	}

	park := node.Effect()
	sn, ok := park.(*core.SuspendNode)
	if !ok {
		t.Fatalf("read of an empty buffer returned %T, want a park", park)
	}
	if n := testing.AllocsPerRun(100, func() {
		if node.Effect() != park {
			bad = true
		}
	}); n != 0 || bad {
		t.Errorf("would-block re-entry: %v allocs (bad trace: %v)", n, bad)
	}
	resumed := make(chan core.Trace, 1)
	sn.Park(func(next core.Trace) { resumed <- next })
	send(1)
	if tr := waitFor(resumed); tr != entry {
		t.Fatalf("park resumed into %v, want the entry node", tr)
	}
	if node.Effect() != done || got != 1 {
		t.Fatal("resumed read did not deliver the byte")
	}
}
