package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"gnf/internal/agent"
	"sync/atomic"
	"time"

	"gnf/internal/clock"
	"gnf/internal/core"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/traffic"
	"gnf/internal/wire"
)

// perLayer lists every metric a traced run reports. Metrics a workload
// does not exercise read 0 (for example the handoff breakdown on stream).
var perLayer = []struct{ name, unit string }{
	{"netem.flood_ratio", "ratio"},
	{"netem.cache_hit_ratio", "ratio"},
	{"netem.batch_run_len", "frames"},
	{"netem.switch_ns_per_frame", "ns"},
	{"netem.veth_ns_per_frame", "ns"},
	{"netem.queue_drops", "count"},
	{"netem.rule_install_us", "us"},
	{"nf.chain_ns_per_frame", "ns"},
	{"nf.chain_allocs_per_frame", "count"},
	{"nf.export_state_ms", "ms"},
	{"nf.import_state_ms", "ms"},
	{"nf.state_kib", "KiB"},
	{"packet.build_ns", "ns"},
	{"packet.build_allocs", "count"},
	{"packet.pool_outstanding", "frames"},
	{"traffic.sink_ns_per_frame", "ns"},
	{"dataplane.e2e_ns_per_frame", "ns"},
	{"dataplane.unaccounted_ns_per_frame", "ns"},
	{"wire.call_us", "us"},
	{"wire.call_ms_state", "ms"},
	{"handoff.prefetch_virt_ms", "virt_ms"},
	{"handoff.deploy_virt_ms", "virt_ms"},
	{"handoff.disable_virt_ms", "virt_ms"},
	{"handoff.checkpoint_virt_ms", "virt_ms"},
	{"handoff.restore_virt_ms", "virt_ms"},
	{"handoff.enable_virt_ms", "virt_ms"},
	{"handoff.steer_virt_ms", "virt_ms"},
	{"handoff.remove_virt_ms", "virt_ms"},
	{"handoff.other_rpc_virt_ms", "virt_ms"},
	{"handoff.untraced_virt_ms", "virt_ms"},
	{"handoff.migrate_virt_ms", "virt_ms"},
	{"handoff.downtime_virt_ms", "virt_ms"},
	{"handoff.state_kib", "KiB"},
	{"handoff.lost_frames_per_roam", "count"},
	{"manager.migrate_ms", "ms"},
	{"manager.queue_depth_max", "count"},
	{"manager.handoff_coalesced", "count"},
	{"manager.station_saturated", "count"},
	{"core.associate_us", "us"},
	{"core.associate_growth", "ratio"},
	{"reconcile.pass_ms", "ms"},
	{"agent.containers", "count"},
	{"process.gc_cpu_fraction", "ratio"},
	{"process.bytes_per_op", "B"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_ms.core", "ms"},
	{"trace.self_ms.manager", "ms"},
	{"trace.self_ms.netem", "ms"},
	{"trace.self_ms.nf", "ms"},
	{"trace.self_ms.packet", "ms"},
	{"trace.self_ms.reconcile", "ms"},
	{"trace.self_ms.traffic", "ms"},
	{"trace.self_ms.wire", "ms"},
}

// probeTarget is the live deployment a traced run probes: one client
// with a chain, and the sink server.
type probeTarget struct {
	sys    *core.System
	vc     *clock.Virtual
	client topology.ClientID
	mac    packet.MAC
	ip     packet.IP
	chain  string // deploy name of the chain the client's frames enter
	server *netem.Host
	rx     *rxSink
	// e2eNs is the workload's own end-to-end ns per frame, which the
	// dataplane breakdown splits into layers; 0 (roam, storm) skips it.
	e2eNs float64
}

// switchRatios records the station switch's counters over an interval.
func (b *bench) switchRatios(before, after netem.SwitchStats) {
	rx := float64(after.RxFrames - before.RxFrames)
	if rx > 0 {
		b.setLayer("netem.flood_ratio", float64(after.Flooded-before.Flooded)/rx, "ratio")
	}
	if probes := float64(after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses); probes > 0 {
		b.setLayer("netem.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/probes, "ratio")
	}
	if runs := float64(after.BatchRuns - before.BatchRuns); runs > 0 {
		b.setLayer("netem.batch_run_len", float64(after.BatchFrames-before.BatchFrames)/runs, "frames")
	}
}

// probeLayers times each module's public functions, on the live
// deployment where the metric is about it and on scratch objects
// otherwise, and on stream closes the identity:
//
//	e2e ns/frame = 2×switch + 3×veth + chain + sink + unaccounted
//
// (a frame crosses the station switch twice — into the chain and out to
// the uplink — and three veths on the way: client→switch, switch→chain,
// chain→switch). The unaccounted rest is ring wakeups, goroutine hops,
// the backhaul hop and the host stack; it goes negative when the
// pipeline's stages overlap on separate CPUs.
func (b *bench) probeLayers(t probeTarget) error {
	root := b.spans.start("perfbench.probes", 0)
	defer b.spans.end(root)
	st, ok := t.sys.Manager.ClientStation(string(t.client))
	if !ok {
		return fmt.Errorf("probe client %s is not associated", t.client)
	}
	ag := t.sys.Agent(topology.StationID(st))
	sw := ag.Switch()

	tmpl := packet.BuildUDP(t.mac, serverMAC, t.ip, serverIP, 0, serverPort, make([]byte, traffic.LoadPayloadLen))
	tmpl[40], tmpl[41] = 0, 0 // no UDP checksum: ports and payload are stamped per frame
	swNs := b.probeSwitch(ag, t, tmpl, root)
	chainNs := b.probeChain(t, tmpl, root)
	vethNs := b.probeVeth(tmpl, root)
	sinkNs := b.probeSink(t.vc, root)
	if t.e2eNs > 0 {
		b.setLayer("dataplane.e2e_ns_per_frame", t.e2eNs, "ns")
		b.setLayer("dataplane.unaccounted_ns_per_frame", t.e2eNs-(2*swNs+3*vethNs+chainNs+sinkNs), "ns")
	}

	var drops uint64
	for _, ep := range []*netem.Endpoint{t.host().Endpoint(), t.server.Endpoint()} {
		drops += ep.Stats().Drops
		if p := ep.Peer(); p != nil {
			drops += p.Stats().Drops
		}
	}
	b.setLayer("netem.queue_drops", float64(drops), "count")

	b.probeRuleInstall(sw, root)
	b.probeBuild(root)
	state := b.probeState(root)
	if err := b.probeWire(state, root); err != nil {
		return err
	}
	b.setLayer("agent.containers", float64(containerCount(t.sys)), "count")
	return nil
}

// containerCount is the number of containers running on every station.
func containerCount(sys *core.System) int {
	n := 0
	for _, s := range sys.Topo.Stations() {
		n += len(sys.Runtime(s.ID).List())
	}
	return n
}

func (t probeTarget) host() *netem.Host { return t.sys.ClientHost(t.client) }

// loadFrame stamps a copy of tmpl, from the frame pool or the heap, as
// frame seq of flow.
func loadFrame(tmpl []byte, flow, seq uint32, pooled bool) []byte {
	var f []byte
	if pooled {
		f = packet.BorrowFrame()[:len(tmpl)]
	} else {
		f = make([]byte, len(tmpl))
	}
	copy(f, tmpl)
	binary.BigEndian.PutUint16(f[34:], uint16(1024+flow))
	traffic.PutLoadPayload(f[udpPayloadOff:], flow, seq, 0)
	return f
}

// probeSwitch times Switch.InjectBatch on the live station switch from
// the client's port. The sink stops accounting first: these frames are
// not the workload's.
func (b *bench) probeSwitch(ag *agent.Agent, t probeTarget, tmpl []byte, parent int) float64 {
	sw := ag.Switch()
	_, _, port, err := ag.Client(t.client)
	if err != nil {
		b.check(false, "switch probe: %v", err)
		return 0
	}
	t.rx.phase(nil)
	const batches, size = 100, 64
	var total time.Duration
	batch := make([][]byte, size)
	for i := 0; i < batches; i++ {
		for j := range batch {
			batch[j] = loadFrame(tmpl, uint32(loadFlows+j), uint32(i), true)
		}
		id := b.spans.start("netem.Switch.InjectBatch", parent)
		start := time.Now()
		sw.InjectBatch(port, batch)
		total += time.Since(start)
		b.spans.end(id)
		time.Sleep(500 * time.Microsecond) // let the path drain: the chain's ring holds 512
	}
	ns := float64(total.Nanoseconds()) / (batches * size)
	b.setLayer("netem.switch_ns_per_frame", ns, "ns")
	return ns
}

// probeChain times Chain.ProcessBatch on the client's deployed chain.
func (b *bench) probeChain(t probeTarget, tmpl []byte, parent int) float64 {
	st, _ := t.sys.Manager.ClientStation(string(t.client))
	chain, err := t.sys.Agent(topology.StationID(st)).ChainFunction(t.chain)
	if err != nil {
		b.check(false, "chain probe: %v", err)
		return 0
	}
	const batches, size = 40, 256
	in := make([][][]byte, batches)
	for i := range in {
		in[i] = make([][]byte, size)
		for j := range in[i] {
			in[i][j] = loadFrame(tmpl, uint32(j), uint32(i), false)
		}
	}
	var out nf.BatchOutput
	id := b.spans.start("nf.Chain.ProcessBatch", parent)
	p0 := readProc()
	start := time.Now()
	for _, frames := range in {
		chain.ProcessBatch(nf.Outbound, frames, &out)
		out.Reset()
	}
	elapsed := time.Since(start)
	p1 := readProc()
	b.spans.end(id)
	ns := float64(elapsed.Nanoseconds()) / (batches * size)
	b.setLayer("nf.chain_ns_per_frame", ns, "ns")
	b.setLayer("nf.chain_allocs_per_frame", float64(p1.allocs-p0.allocs)/(batches*size), "count")
	return ns
}

// probeVeth times Endpoint.SendBatch on a scratch veth pair.
func (b *bench) probeVeth(tmpl []byte, parent int) float64 {
	a, z := netem.NewVethPair("probe-a", "probe-z")
	defer a.Close()
	var got atomic.Uint64
	z.SetBatchReceiver(func(frames [][]byte) {
		packet.ReturnFrames(frames)
		got.Add(uint64(len(frames)))
	})
	const batches, size = 400, 64
	batch := make([][]byte, size)
	var total time.Duration
	for i := 0; i < batches; i++ {
		for j := range batch {
			batch[j] = loadFrame(tmpl, uint32(j), uint32(i), true)
		}
		id := b.spans.start("netem.Endpoint.SendBatch", parent)
		start := time.Now()
		a.SendBatch(batch)
		total += time.Since(start)
		b.spans.end(id)
		for want := uint64((i + 1) * size); got.Load() < want; {
			time.Sleep(20 * time.Microsecond)
		}
	}
	ns := float64(total.Nanoseconds()) / (batches * size)
	b.setLayer("netem.veth_ns_per_frame", ns, "ns")
	return ns
}

// probeSink times Accountant.ObserveBatch on a scratch accountant.
func (b *bench) probeSink(vc *clock.Virtual, parent int) float64 {
	const rounds = 200
	acct := traffic.NewAccountant(loadFlows, 0, vc)
	buf := make([]byte, loadFlows*traffic.LoadPayloadLen)
	payloads := make([][]byte, loadFlows)
	for f := range payloads {
		payloads[f] = buf[f*traffic.LoadPayloadLen : (f+1)*traffic.LoadPayloadLen]
	}
	var total time.Duration
	for r := 0; r < rounds; r++ {
		for f, p := range payloads {
			traffic.PutLoadPayload(p, uint32(f), uint32(r), vc.Now().UnixNano())
		}
		id := b.spans.start("traffic.Accountant.ObserveBatch", parent)
		start := time.Now()
		acct.ObserveBatch(payloads)
		total += time.Since(start)
		b.spans.end(id)
	}
	b.check(acct.Report().Lost == 0, "sink probe: accountant reported loss")
	ns := float64(total.Nanoseconds()) / (rounds * loadFlows)
	b.setLayer("traffic.sink_ns_per_frame", ns, "ns")
	return ns
}

// probeRuleInstall times a steering rule install plus removal on the live
// station switch, at whatever table size the workload built.
func (b *bench) probeRuleInstall(sw *netem.Switch, parent int) {
	const n = 200
	never := packet.MAC{2, 0xff, 0xff, 0xff, 0xff, 0xfe}
	id := b.spans.start("netem.Switch.AddRule", parent)
	start := time.Now()
	for i := 0; i < n; i++ {
		rid := sw.AddRule(netem.Rule{Priority: 1, Match: netem.Match{SrcMAC: &never}, Action: netem.ActionDrop})
		sw.RemoveRule(rid)
	}
	elapsed := time.Since(start)
	b.spans.end(id)
	b.setLayer("netem.rule_install_us", float64(elapsed.Microseconds())/n, "us")
}

// probeBuild times packet.BuildUDP at 1400-byte frames.
func (b *bench) probeBuild(parent int) {
	const n = 20000
	payload := make([]byte, 1400-udpPayloadOff)
	var sink int
	id := b.spans.start("packet.BuildUDP", parent)
	p0 := readProc()
	start := time.Now()
	for i := 0; i < n; i++ {
		f := packet.BuildUDP(serverMAC, serverMAC, serverIP, serverIP, uint16(i), serverPort, payload)
		sink += len(f)
	}
	elapsed := time.Since(start)
	p1 := readProc()
	b.spans.end(id)
	b.check(sink == n*1400, "BuildUDP built %d bytes, want %d", sink, n*1400)
	b.setLayer("packet.build_ns", float64(elapsed.Nanoseconds())/n, "ns")
	b.setLayer("packet.build_allocs", float64(p1.allocs-p0.allocs)/n, "count")
}

// natFlows is how many flows the roam workloads seed into each NAT, and
// the state probe seeds into its scratch chain.
const natFlows = 2000

// newRoamChainFunction builds a scratch firewall→nat→counter chain, the
// roam workloads' chain, outside any container.
func newRoamChainFunction() (*nf.Chain, error) {
	var fns []nf.Function
	for _, s := range roamChain("scratch", false).Functions {
		fn, err := nf.Default.New(s.Kind, s.Name, s.Params)
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	c := nf.NewChain("edgepath", fns...)
	c.SetClock(clock.System())
	return c, nil
}

// seedNAT pushes natFlows outbound flows with seeded source ports through
// a chain, so its NAT holds natFlows mappings.
func seedNAT(c *nf.Chain, mac packet.MAC, ip packet.IP, ports []uint16) {
	for _, p := range ports {
		c.Process(nf.Outbound, packet.BuildUDP(mac, serverMAC, ip, serverIP, p, 53, nil))
	}
}

// probeState times Chain.ExportState/ImportState on a scratch roam chain
// seeded like the roam workloads' NATs, and returns the exported state.
func (b *bench) probeState(parent int) []byte {
	src, err := newRoamChainFunction()
	if err != nil {
		b.check(false, "state probe: %v", err)
		return nil
	}
	_, mac, ip := clientAddr(0)
	seedNAT(src, mac, ip, seededPorts(b.rng, natFlows))
	const n = 10
	var state []byte
	id := b.spans.start("nf.Chain.ExportState", parent)
	start := time.Now()
	for i := 0; i < n; i++ {
		state, err = src.ExportState()
	}
	exp := time.Since(start)
	b.spans.end(id)
	if !b.check(err == nil, "state probe export: %v", err) {
		return nil
	}
	var imp time.Duration
	for i := 0; i < n; i++ {
		dst, err := newRoamChainFunction()
		if err != nil {
			b.check(false, "state probe: %v", err)
			return nil
		}
		id := b.spans.start("nf.Chain.ImportState", parent)
		start := time.Now()
		err = dst.ImportState(state)
		imp += time.Since(start)
		b.spans.end(id)
		if !b.check(err == nil, "state probe import: %v", err) {
			return nil
		}
	}
	b.setLayer("nf.export_state_ms", float64(exp.Nanoseconds())/n/1e6, "ms")
	b.setLayer("nf.import_state_ms", float64(imp.Nanoseconds())/n/1e6, "ms")
	b.setLayer("nf.state_kib", float64(len(state))/1024, "KiB")
	return state
}

// probeWire times wire.Peer.Call round trips on a scratch server/client
// pair over loopback TCP: empty, and carrying a whole roam chain's state.
func (b *bench) probeWire(state []byte, parent int) error {
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) {
		p.Handle("echo", func(body json.RawMessage) (any, error) { return body, nil })
	})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	defer srv.Close()
	peer, err := wire.Dial(srv.Addr())
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	defer peer.Close()
	go peer.Run()

	type blob struct {
		State []byte `json:"state"`
	}
	timeCalls := func(name string, n int, in blob) (time.Duration, error) {
		id := b.spans.start(name, parent)
		defer b.spans.end(id)
		start := time.Now()
		for i := 0; i < n; i++ {
			var out blob
			if err := peer.Call("echo", in, &out); err != nil {
				return 0, err
			}
			if len(out.State) != len(in.State) {
				return 0, fmt.Errorf("echo returned %d bytes, sent %d", len(out.State), len(in.State))
			}
		}
		return time.Since(start) / time.Duration(n), nil
	}
	empty, err := timeCalls("wire.Peer.Call", 1000, blob{})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	full, err := timeCalls("wire.Peer.Call.state", 10, blob{State: state})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	b.setLayer("wire.call_us", float64(empty.Nanoseconds())/1e3, "us")
	b.setLayer("wire.call_ms_state", float64(full.Nanoseconds())/1e6, "ms")
	return nil
}
