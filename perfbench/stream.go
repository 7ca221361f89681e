package main

import (
	"encoding/binary"
	"math/rand"
	"time"

	"gnf/internal/clock"
	"gnf/internal/core"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/traffic"
)

// Stream workload: one client with the E4/Fig. 2 firewall(accept)→counter
// chain sends 1024 UDP flows to a server on the backhaul. The stream is
// one-way, so no switch ever learns the server's MAC and every frame is
// flooded as unknown unicast: the workload keeps that cost visible.
const (
	// loadFlows is the stream's flow count; loadWindow bounds frames in
	// flight in its closed loops.
	loadFlows   = 1024
	loadWindow  = 256
	openLoopFPS = 50000
	bulkFrame   = 1400
	// streamCycle is one pass over the three phases: 45% closed loop of
	// min-size frames, 20% closed loop of 1400 B frames, 35% open loop.
	// A run repeats it until its budget is spent and reports each metric
	// as the median over cycles, so a slow spell of the machine shifts a
	// few samples of every metric rather than all samples of one.
	streamCycle = time.Second
	// openLoopMaxInFlight caps frames in flight below the 512-frame veth
	// queues, so a generator catching up after a stall cannot tail-drop
	// its own frames.
	openLoopMaxInFlight = 448
	// openLoopBurst frames fall due together every millisecond: the
	// schedule a sleeping generator can keep, since Go sleeps shorter
	// than a millisecond often overshoot to a whole one.
	openLoopBurst = openLoopFPS / 1000
)

type streamDep struct {
	sys    *core.System
	vc     *clock.Virtual
	client topology.ClientID
	mac    packet.MAC
	ip     packet.IP
	host   *netem.Host
	server *netem.Host
	rx     *rxSink
}

func buildStream() (*streamDep, error) {
	sys, vc, err := core.NewVirtualSystem(core.Config{Stations: twoStations()[:1]})
	if err != nil {
		return nil, err
	}
	d := &streamDep{sys: sys, vc: vc}
	d.client, d.mac, d.ip = clientAddr(0)
	if err := sys.AddClient(d.client, d.mac, d.ip); err != nil {
		closeSystem(sys, vc, nil)
		return nil, err
	}
	if err := associate(sys, d.client, "cell-a", "st-a"); err != nil {
		closeSystem(sys, vc, nil)
		return nil, err
	}
	d.server = sys.AddServer("sink", serverMAC, serverIP)
	d.server.Learn(d.ip, d.mac)
	d.host = sys.ClientHost(d.client)
	d.host.Learn(serverIP, serverMAC)
	d.rx = newRxSink(d.server)
	if err := attachChain(sys, d.client, "st-a", firewallCounter("chain")); err != nil {
		closeSystem(sys, vc, d.server)
		return nil, err
	}
	return d, nil
}

func (d *streamDep) close() {
	closeSystem(d.sys, d.vc, d.server)
}

func runStream(b *bench) error {
	d, err := setUp(b, buildStream, (*streamDep).close)
	if err != nil {
		return err
	}
	defer d.close()
	poolBase := packet.FramePoolOutstanding()
	b.named("stream.offered_fps", openLoopFPS, "1/s")
	b.named("stream.window", loadWindow, "frames")
	b.named("stream.flows", loadFlows, "count")

	if !b.traced {
		b.streamPhases(d, b.budget, 0)
		out := poolSettled(poolBase)
		b.check(out == 0, "frame pool: %d frames outstanding after drain", out)
		return nil
	}
	base := b.streamPhases(d, b.budget*3/10, 0)
	sw := d.sys.Agent("st-a").Switch()
	before := sw.Stats()
	p0 := readProc()
	root := b.spans.start("perfbench.stream", 0)
	traced := b.streamPhases(d, b.budget*3/10, root)
	b.spans.end(root)
	p1 := readProc()
	b.switchRatios(before, sw.Stats())
	b.recordProcess(p0, p1, float64(traced.frames))
	b.setLayer("trace.overhead_ratio", base.fps/traced.fps, "ratio")

	out := poolSettled(poolBase)
	b.check(out == 0, "frame pool: %d frames outstanding after drain", out)
	b.setLayer("packet.pool_outstanding", float64(out), "frames")
	return b.probeLayers(probeTarget{sys: d.sys, vc: d.vc, client: d.client, mac: d.mac, ip: d.ip,
		chain: "chain", server: d.server, rx: d.rx, e2eNs: 1e9 / base.fps})
}

// streamResult is what one pass over the three phases measured.
type streamResult struct {
	fps    float64 // min-size closed loop
	frames uint64  // min-size frames delivered
}

// streamPhases runs streamCycles within budget (at least three) and
// records the median of each phase's metrics over them.
func (b *bench) streamPhases(d *streamDep, budget time.Duration, parent int) streamResult {
	// Warm-up and rate calibration: fills the switch's flow cache and
	// FDB, the frame pool and the heap before anything is timed.
	el, _, _ := b.closedLoop(d, 16, parent)
	rate := float64(16*loadFlows) / el.Seconds()
	bulkPorts := seededPorts(b.rng, loadFlows)
	openPorts := seededPorts(b.rng, loadFlows)

	var fps, allocs, bulkFPS []float64
	var lat openLoopResult
	var frames uint64
	end := time.Now().Add(budget)
	for len(fps) < 3 || time.Now().Before(end) {
		rounds := roundsFor(rate, streamCycle*45/100)
		el, mallocs, ok := b.closedLoop(d, rounds, parent)
		if !ok {
			break
		}
		n := float64(rounds * loadFlows)
		rate = n / el.Seconds()
		fps = append(fps, rate)
		allocs = append(allocs, float64(mallocs)/n)
		frames += uint64(n)
		bulkFPS = append(bulkFPS, b.bulkPhase(d, bulkPorts, streamCycle*20/100, parent))
		b.openLoopPhase(d, openPorts, streamCycle*35/100, &lat, parent)
	}
	res := streamResult{fps: median(fps), frames: frames}
	b.setE2E("ops_per_s", res.fps, "1/s")
	b.setE2E("allocs_per_op", median(allocs), "count")
	b.named("stream.fps_64B", res.fps, "1/s")
	b.named("stream.allocs_per_frame", median(allocs), "count")
	b.named("stream.fps_1400B", median(bulkFPS), "1/s")
	b.named("stream.cycles", float64(len(fps)), "count")
	lat.report(b)
	return res
}

// seededPorts returns n distinct UDP source ports chosen by the seed.
func seededPorts(rng *rand.Rand, n int) []uint16 {
	perm := rng.Perm(50000)
	ports := make([]uint16, n)
	for i := range ports {
		ports[i] = uint16(10000 + perm[i])
	}
	return ports
}

// bulkPhase is the closed loop of 1400-byte frames sent through the
// client's host stack (Host.SendUDP builds each frame), with a
// loadWindow in-flight window, in whole rounds over every flow. It
// returns the frames/s delivered.
func (b *bench) bulkPhase(d *streamDep, ports []uint16, budget time.Duration, parent int) float64 {
	acct := traffic.NewAccountant(loadFlows, 0, d.vc)
	base := d.rx.phase(acct)
	payload := make([]byte, bulkFrame-udpPayloadOff)
	dst := packet.Endpoint{Addr: serverIP, Port: serverPort}
	var sent uint64
	rounds := 0
	start := time.Now()
	end := start.Add(budget)
	id := b.spans.start("netem.Host.SendUDP", parent)
	var err error
	for err == nil && (rounds == 0 || time.Now().Before(end)) {
		for f := 0; f < loadFlows && err == nil; f++ {
			if sent-(d.rx.count.Load()-base) >= loadWindow {
				if err = d.rx.awaitCount(base, sent-loadWindow+1, 5*time.Second); err != nil {
					break
				}
			}
			traffic.PutLoadPayload(payload, uint32(f), uint32(rounds), d.vc.Now().UnixNano())
			if err := d.host.SendUDP(dst, ports[f], payload); err != nil {
				b.check(false, "bulk phase: SendUDP: %v", err)
			}
			sent++
		}
		rounds++
	}
	b.spans.end(id)
	if err == nil {
		err = d.rx.awaitCount(base, sent, 5*time.Second)
	}
	elapsed := time.Since(start)
	b.attempted += int64(sent)
	b.check(err == nil, "bulk phase: %v", err)
	if !b.checkLoad("bulk phase", acct, loadFlows, func(int) uint32 { return uint32(rounds) }) {
		b.failed += int64(sent - min(sent, acct.Received()))
	}
	return float64(sent) / elapsed.Seconds()
}

// openLoopResult collects one percentile sample per open-loop segment.
type openLoopResult struct {
	p50, p90, p99    []float64 // one-way latency from due time, ns
	lateP50, lateP99 []float64 // generator lateness, ns
	samples          int
}

func (r *openLoopResult) report(b *bench) {
	if !b.check(len(r.p50) > 0, "open loop: no segment measured") {
		return
	}
	b.setE2E("p50_ms", median(r.p50)/1e6, "ms")
	b.setE2E("tail_ms", median(r.p90)/1e6, "ms")
	b.named("stream.lat_p50_us", median(r.p50)/1e3, "us")
	b.named("stream.lat_p90_us", median(r.p90)/1e3, "us")
	b.named("stream.lat_p99_us", median(r.p99)/1e3, "us")
	b.named("stream.gen_late_p50_us", median(r.lateP50)/1e3, "us")
	b.named("stream.gen_late_p99_us", median(r.lateP99)/1e3, "us")
	b.named("stream.latency_samples", float64(r.samples), "count")
}

// openLoopPhase sends min-size frames at openLoopFPS on a fixed schedule
// regardless of deliveries: openLoopBurst frames fall due every
// millisecond. Each frame carries its due time and the server side
// measures one-way latency from it, so a generator stall shows up as
// latency on every frame it delayed. The segment's latency percentiles
// and the generator's own lateness are appended to r.
func (b *bench) openLoopPhase(d *streamDep, ports []uint16, budget time.Duration, r *openLoopResult, parent int) {
	acct := traffic.NewAccountant(loadFlows, 0, d.vc)
	expect := int(budget.Seconds()*openLoopFPS) + 1
	if cap(d.rx.lat) < expect+1024 {
		d.rx.lat = make([]int64, expect+1024)
	}
	d.rx.lat = d.rx.lat[:expect+1024]
	d.rx.nlat.Store(0)
	d.rx.stamped.Store(true)
	base := d.rx.phase(acct)
	defer d.rx.stamped.Store(false)

	tmpl := packet.BuildUDP(d.mac, serverMAC, d.ip, serverIP, 0, serverPort, make([]byte, stampedLen))
	tmpl[40], tmpl[41] = 0, 0 // no UDP checksum: ports and payload are stamped per frame
	ep := d.host.Endpoint()
	start := monoNow()
	dueAt := func(i int) int64 { return start + int64(i/openLoopBurst)*int64(time.Millisecond) }
	late := make([]float64, 0, expect)
	batch := make([][]byte, 0, 64)
	var sent, accepted int
	for sent < expect {
		now := monoNow()
		due := int((now-start)/int64(time.Millisecond)+1) * openLoopBurst
		if due > expect {
			due = expect
		}
		if due <= sent {
			// Sleep until the next frame is due: a spinning generator
			// would take one of the CPUs the dataplane runs on.
			time.Sleep(time.Duration(dueAt(sent) - now))
			continue
		}
		if uint64(sent)-(d.rx.count.Load()-base) >= openLoopMaxInFlight {
			// Behind schedule after a stall: hold frames back rather than
			// overflow the client's transmit queue. They leave late, and
			// their latency still counts from their due time.
			if err := d.rx.awaitCount(base, uint64(sent-openLoopMaxInFlight+1), 5*time.Second); err != nil {
				b.check(false, "open loop: %v", err)
				break
			}
			continue
		}
		for ; sent < due && len(batch) < cap(batch); sent++ {
			f := packet.BorrowFrame()[:len(tmpl)]
			copy(f, tmpl)
			flow := sent % loadFlows
			binary.BigEndian.PutUint16(f[34:], ports[flow])
			traffic.PutLoadPayload(f[udpPayloadOff:], uint32(flow), uint32(sent/loadFlows), d.vc.Now().UnixNano())
			binary.BigEndian.PutUint64(f[udpPayloadOff+dueOffset:], uint64(dueAt(sent)))
			late = append(late, float64(now-dueAt(sent)))
			batch = append(batch, f)
		}
		id := b.spans.start("netem.Endpoint.SendBatch", parent)
		accepted += ep.SendBatch(batch)
		b.spans.end(id)
		clear(batch)
		batch = batch[:0]
	}
	b.attempted += int64(sent)
	b.check(accepted == sent, "open loop: %d of %d frames tail-dropped at the client", sent-accepted, sent)
	err := d.rx.awaitCount(base, uint64(accepted), 5*time.Second)
	b.check(err == nil, "open loop: %v", err)
	if !b.checkLoad("open loop", acct, loadFlows, func(f int) uint32 {
		n := uint32(sent / loadFlows)
		if f < sent%loadFlows {
			n++
		}
		return n
	}) {
		b.failed += int64(uint64(sent) - min(uint64(sent), acct.Received()))
	}

	n := min(int(d.rx.nlat.Load()), len(d.rx.lat))
	if !b.check(n > 0, "open loop: no latency samples") {
		return
	}
	w := make([]float64, n)
	for i, v := range d.rx.lat[:n] {
		w[i] = float64(v)
	}
	r.p50 = append(r.p50, quantile(w, 0.50))
	r.p90 = append(r.p90, quantile(w, 0.90))
	r.p99 = append(r.p99, quantile(w, 0.99))
	r.lateP50 = append(r.lateP50, quantile(late, 0.50))
	r.lateP99 = append(r.lateP99, quantile(late, 0.99))
	r.samples += n
}

// closedLoop drives one traffic.LoadGen segment of min-size frames from
// the client through its chain to the server: loadFlows flows × rounds
// frames with a loadWindow in-flight window. It returns the wall time,
// the allocations made and whether every frame arrived intact.
func (b *bench) closedLoop(d *streamDep, rounds int, parent int) (time.Duration, uint64, bool) {
	acct := traffic.NewAccountant(loadFlows, 0, d.vc)
	base := d.rx.phase(acct)
	gen := traffic.NewLoadGen(d.host.Endpoint(), d.mac, serverMAC, d.ip, serverIP,
		traffic.LoadConfig{Flows: loadFlows, Rounds: rounds, Window: loadWindow}, d.vc)
	p0 := readProc()
	start := time.Now()
	id := b.spans.start("traffic.LoadGen.Run", parent)
	err := gen.Run(func() uint64 { return d.rx.count.Load() - base })
	b.spans.end(id)
	elapsed := time.Since(start)
	p1 := readProc()
	frames := uint64(loadFlows * rounds)
	b.attempted += int64(frames)
	ok := b.check(err == nil, "closed loop: %v", err)
	ok = b.checkLoad("closed loop", acct, loadFlows, func(int) uint32 { return uint32(rounds) }) && ok
	if !ok {
		b.failed += int64(frames - min(frames, acct.Received()))
	}
	return elapsed, p1.allocs - p0.allocs, ok
}

// roundsFor sizes a closed-loop segment to last about d at rate frames/s.
func roundsFor(rate float64, d time.Duration) int {
	r := int(rate * d.Seconds() / loadFlows)
	return max(4, min(r, traffic.DefaultSeqRing/2))
}
