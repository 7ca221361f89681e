package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/share"
	"gnf/internal/topology"
	"gnf/internal/traffic"
)

// Addressing shared by every workload: clients are 10.0.x.y, the sink
// server sits on the backhaul.
var (
	serverMAC = packet.MAC{2, 0, 0, 0, 0, 0x99}
	serverIP  = packet.IP{10, 99, 0, 1}
)

const serverPort = 7000

func clientAddr(i int) (topology.ClientID, packet.MAC, packet.IP) {
	return topology.ClientID(fmt.Sprintf("c%03d", i)),
		packet.MAC{2, 0, 0, 1, byte(i >> 8), byte(i)},
		packet.IP{10, 0, byte(i >> 8), byte(i)}
}

// twoStations places st-a and st-b 100 m apart, one cell each.
func twoStations() []core.StationConfig {
	return []core.StationConfig{
		{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
		{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
	}
}

// associate attaches a client to a cell and waits for the handoff it
// triggers. Topology.Attach returns once the manager has queued the
// handoff, so WaitIdle afterwards is the completion barrier.
func associate(sys *core.System, id topology.ClientID, cell topology.CellID, station topology.StationID) error {
	if err := sys.Topo.Attach(id, cell); err != nil {
		return err
	}
	sys.Manager.WaitIdle()
	if st, ok := sys.Manager.ClientStation(string(id)); !ok || st != string(station) {
		return fmt.Errorf("client %s at %q after attach, want %s", id, st, station)
	}
	return nil
}

// attachChain attaches a chain and waits until its head is enabled on the
// client's station.
func attachChain(sys *core.System, id topology.ClientID, station topology.StationID, spec manager.ChainSpec) error {
	if err := sys.AttachChain(id, spec); err != nil {
		return fmt.Errorf("attach chain %s: %w", spec.Name, err)
	}
	sys.Manager.WaitIdle()
	if err := sys.WaitChainOn(station, spec.Name, 10*time.Second); err != nil {
		return err
	}
	if on, err := sys.Agent(station).ChainEnabled(spec.Name); err != nil || !on {
		return fmt.Errorf("chain %s not enabled on %s (err %v)", spec.Name, station, err)
	}
	return nil
}

// closeSystem tears a deployment down: the server's veth, the system, and
// then every chain left on a station. System.Close does not remove
// deployed chains, so without the last step each chain's veth delivery
// goroutines outlive the deployment and repeated set-ups grow the heap.
// Shared-pool instances are reaped once the virtual clock passes their
// grace period.
func closeSystem(sys *core.System, vc *clock.Virtual, server *netem.Host) {
	if server != nil {
		server.Endpoint().Close()
	}
	sys.Close()
	for _, st := range sys.Topo.Stations() {
		ag := sys.Agent(st.ID)
		for _, chain := range ag.Chains() {
			_ = ag.Remove(chain)
		}
	}
	vc.Advance(share.DefaultGrace + time.Second)
	for _, st := range sys.Topo.Stations() {
		sys.Agent(st.ID).ReapPools()
	}
}

// firewallCounter is the E4/Fig. 2 chain.
func firewallCounter(name string) manager.ChainSpec {
	return manager.ChainSpec{Name: name, Functions: []agent.NFSpec{
		{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
		{Kind: "counter", Name: "acct"},
	}}
}

// procStart anchors the wall timestamps the benchmark writes into frames:
// monotonic nanoseconds since process start.
var procStart = time.Now()

func monoNow() int64 { return int64(time.Since(procStart)) }

// dueOffset is where frames stamped for latency carry their due time,
// right after the traffic package's load header.
const (
	dueOffset     = traffic.LoadPayloadLen
	stampedLen    = dueOffset + 8
	udpPayloadOff = 14 + 20 + 8
)

// rxSink is the server's UDP receiver: it feeds the current phase's
// accountant, counts arrivals and, for due-stamped frames, records the
// one-way wall latency from the frame's due time.
type rxSink struct {
	acct    atomic.Pointer[traffic.Accountant]
	count   atomic.Uint64
	stamped atomic.Bool
	lat     []int64
	nlat    atomic.Int64
}

func newRxSink(h *netem.Host) *rxSink {
	r := &rxSink{}
	h.HandleAnyUDP(func(_, _ packet.Endpoint, payload []byte) []byte {
		if a := r.acct.Load(); a != nil {
			a.Observe(payload)
		}
		if r.stamped.Load() && len(payload) >= stampedLen {
			d := monoNow() - int64(binary.BigEndian.Uint64(payload[dueOffset:]))
			if i := r.nlat.Add(1) - 1; i < int64(len(r.lat)) {
				r.lat[i] = d
			}
		}
		r.count.Add(1)
		return nil
	})
	return r
}

// phase points the sink at a fresh accountant and returns the arrival
// count so far, the base for this phase's deliveries.
func (r *rxSink) phase(acct *traffic.Accountant) uint64 {
	r.acct.Store(acct)
	return r.count.Load()
}

// awaitCount waits until n arrivals past base have been seen. Delivery
// runs on the wall clock; a stall longer than timeout is an error.
func (r *rxSink) awaitCount(base, n uint64, timeout time.Duration) error {
	last, lastChange := r.count.Load(), time.Now()
	for last-base < n {
		time.Sleep(50 * time.Microsecond)
		cur := r.count.Load()
		if cur != last {
			last, lastChange = cur, time.Now()
			continue
		}
		if time.Since(lastChange) > timeout {
			return fmt.Errorf("delivered %d of %d", cur-base, n)
		}
	}
	return nil
}

// checkLoad verifies an accountant saw every flow's every frame exactly
// once, in order: perFlow(f) is the number flow f sent.
func (b *bench) checkLoad(what string, acct *traffic.Accountant, flows int, perFlow func(f int) uint32) bool {
	rep := acct.Report()
	ok := b.check(rep.Lost == 0 && rep.Malformed == 0 && rep.Late == 0,
		"%s: lost=%d malformed=%d late=%d", what, rep.Lost, rep.Malformed, rep.Late)
	for f := 0; f < flows; f++ {
		got, _, _, _ := acct.Flow(f)
		if want := perFlow(f); got != want {
			b.check(false, "%s: flow %d received %d of %d", what, f, got, want)
			ok = false
			break
		}
	}
	return ok
}

// poolSettled waits until the frame pool's outstanding count is back at
// base (every frame in flight has reached its terminal owner).
func poolSettled(base int64) int64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		cur := packet.FramePoolOutstanding()
		if cur == base || time.Now().After(deadline) {
			return cur - base
		}
		time.Sleep(time.Millisecond)
	}
}
