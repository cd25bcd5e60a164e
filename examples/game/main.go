// Multiplayer-game simulation: the massively-concurrent, mostly-idle
// workload from the paper's introduction ("peer-to-peer systems,
// multiplayer games, and Internet-scale data storage applications must
// accommodate tens of thousands of simultaneous, mostly-idle client
// connections").
//
// A game server keeps one monadic thread per connected player. Most
// players idle, parked on their sockets; a small hot set moves every
// tick, and the server broadcasts each move to the mover's zone. Tens of
// thousands of parked threads cost only their suspended continuations —
// the hybrid model's whole point.
//
//	go run ./examples/game
package main

import (
	"fmt"
	"time"

	"hybrid"
	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/stm"
	"hybrid/internal/vclock"
)

const (
	players    = 20000
	activeSet  = 200 // players that actually move
	zones      = 64
	ticks      = 20
	tickPeriod = 50 * time.Millisecond
)

func main() {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := hybrid.NewRuntime(hybrid.Options{Workers: 2, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)

	// World state lives in STM: per-zone population counters that player
	// threads update transactionally when they cross zone borders.
	zonePop := make([]*stm.TVar[int], zones)
	for i := range zonePop {
		zonePop[i] = stm.NewTVar(0)
	}
	moves := stm.NewTVar(0)

	// Each player is a socket pair: the server thread reads commands
	// from one end; the driver writes to the other.
	type player struct {
		serverFD kernel.FD
		driverFD kernel.FD
		zone     int
	}
	ps := make([]*player, players)
	for i := range ps {
		a, b := k.SocketPair()
		ps[i] = &player{serverFD: a, driverFD: b, zone: i % zones}
		rt.Spawn(core.Then(
			stm.Atomically(func(tx *stm.Tx) core.Unit {
				stm.Modify(tx, zonePop[i%zones], func(n int) int { return n + 1 })
				return core.Unit{}
			}),
			playerThread(io, zonePop, moves, ps[i].serverFD, i),
		))
	}

	// The driver: every tick, the active set sends a "move" command.
	driver := hybrid.ForN(ticks, func(tick int) hybrid.M[hybrid.Unit] {
		return hybrid.Seq(
			hybrid.ForN(activeSet, func(i int) hybrid.M[hybrid.Unit] {
				p := ps[(tick*activeSet+i)%players]
				cmd := []byte{byte('M'), byte(i % zones)}
				return hybrid.Bind(io.SockSend(p.driverFD, cmd),
					func(int) hybrid.M[hybrid.Unit] { return hybrid.Skip })
			}),
			hybrid.Sleep(clk, tickPeriod),
		)
	})

	start := time.Now()
	done := make(chan struct{})
	rt.Spawn(hybrid.Then(driver, hybrid.Do(func() { close(done) })))
	<-done

	total := stm.ReadNow(moves)
	pop := 0
	for _, z := range zonePop {
		pop += stm.ReadNow(z)
	}
	fmt.Printf("players:           %d (threads live: %d)\n", players, rt.Live())
	fmt.Printf("moves processed:   %d over %d ticks (%v virtual)\n",
		total, ticks, time.Duration(clk.Now()).Round(time.Millisecond))
	fmt.Printf("zone population:   %d (conserved)\n", pop)
	fmt.Printf("wall time:         %v for %d mostly-idle threads\n",
		time.Since(start).Round(time.Millisecond), players)
}

// playerThread parks on the player's socket and applies move commands to
// the world state transactionally.
func playerThread(io *hio.IO, zonePop []*stm.TVar[int], moves *stm.TVar[int], fd kernel.FD, id int) hybrid.M[hybrid.Unit] {
	buf := make([]byte, 2)
	zone := id % zones
	var loop func() hybrid.M[hybrid.Unit]
	loop = func() hybrid.M[hybrid.Unit] {
		return hybrid.Bind(io.SockReadFull(fd, buf), func(n int) hybrid.M[hybrid.Unit] {
			if n < 2 {
				return hybrid.Skip // connection closed
			}
			next := int(buf[1]) % zones
			from := zone
			zone = next
			return hybrid.Then(
				stm.Atomically(func(tx *stm.Tx) core.Unit {
					stm.Modify(tx, zonePop[from], func(v int) int { return v - 1 })
					stm.Modify(tx, zonePop[next], func(v int) int { return v + 1 })
					stm.Modify(tx, moves, func(v int) int { return v + 1 })
					return core.Unit{}
				}),
				loop(),
			)
		})
	}
	return loop()
}
