package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/reconcile"
	"gnf/internal/spec"
	"gnf/internal/topology"
	"gnf/internal/trace"
	"gnf/internal/traffic"
)

// Storm workload: stormClients clients, each with a counter chain,
// attached through a desired-state spec and reconcile passes (cold
// strategy). Each wave dispatches every client's handoff to the other
// station inside one window, in an order the seed picks, the way
// scenarios/storm.json does at a quarter of its scale.
const (
	stormClients = 512
	// minWaves keeps at least ten samples beyond the reported p99.
	minWaves = 4
	// stormPoll is how long the completion watcher sleeps between reads of
	// the journal's sequence number; the achieved interval, reported as
	// storm.poll_interval_us, bounds the quantization of handoff latencies.
	stormPoll = 50 * time.Microsecond
	// depthPoll is how often a traced wave samples the manager's queue.
	depthPoll = time.Millisecond
	// deliverWithin bounds how long after a wave one frame from every
	// client may take to reach the server.
	deliverWithin = 250 * time.Millisecond
)

type stormDep struct {
	sys    *core.System
	vc     *clock.Virtual
	server *netem.Host
	rx     *rxSink
	rec    *reconcile.Reconciler
	at     int // index into roamStations: where every client is
}

func stormChain(id topology.ClientID) manager.ChainSpec {
	return manager.ChainSpec{Name: "acct-" + string(id), Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}}}
}

func buildStorm() (*stormDep, error) {
	sys, vc, err := core.NewVirtualSystem(core.Config{Stations: twoStations(), Strategy: manager.StrategyCold})
	if err != nil {
		return nil, err
	}
	d := &stormDep{sys: sys, vc: vc}
	// The storm carries no traffic while it hands off; after each wave
	// every client sends one frame to the sink.
	d.server = sys.AddServer("sink", serverMAC, serverIP)
	d.rx = newRxSink(d.server)
	sp := &spec.Spec{Strategy: string(manager.StrategyCold)}
	for i := 0; i < stormClients; i++ {
		id, mac, ip := clientAddr(i)
		if err := sys.AddClient(id, mac, ip); err != nil {
			d.close()
			return nil, err
		}
		if err := sys.Topo.Attach(id, "cell-a"); err != nil {
			d.close()
			return nil, err
		}
		sys.ClientHost(id).Learn(serverIP, serverMAC)
		sp.Clients = append(sp.Clients, spec.Client{ID: string(id), Chains: []spec.Chain{{ChainSpec: stormChain(id)}}})
	}
	sys.Manager.WaitIdle()
	d.rec = reconcile.New(sys.Manager)
	if _, err := d.rec.SetSpec(sp); err != nil {
		d.close()
		return nil, err
	}
	for pass := 0; ; pass++ {
		res, err := d.rec.ReconcileOnce(false)
		sys.Manager.WaitIdle()
		if err != nil || res.Failed > 0 {
			d.close()
			return nil, fmt.Errorf("reconcile pass %d: %v (%d actions failed)", pass, err, res.Failed)
		}
		if res.Converged {
			break
		}
		if pass == 10 {
			d.close()
			return nil, fmt.Errorf("spec not converged after %d passes", pass)
		}
	}
	return d, nil
}

func (d *stormDep) close() {
	closeSystem(d.sys, d.vc, d.server)
}

func runStorm(b *bench) error {
	d, err := setUp(b, buildStorm, (*stormDep).close)
	if err != nil {
		return err
	}
	defer d.close()
	poolBase := packet.FramePoolOutstanding()
	b.named("storm.clients", stormClients, "count")

	if !b.traced {
		b.reportStorm(b.stormPass(d, b.budget, minWaves, 0))
	} else {
		base := b.stormPass(d, b.budget*3/10, 2, 0)
		p0 := readProc()
		root := b.spans.start("perfbench.storm", 0)
		sw := d.sys.Agent("st-a").Switch()
		before := sw.Stats()
		r := b.stormPass(d, b.budget*3/10, 2, root)
		b.spans.end(root)
		p1 := readProc()
		b.switchRatios(before, sw.Stats())
		b.recordProcess(p0, p1, float64(len(r.lat)))
		b.setLayer("trace.overhead_ratio", mean(r.drain)/mean(base.drain), "ratio")
		b.reportStorm(r)
		b.setLayer("core.associate_us", mean(r.assoc)*1e3, "us")
		b.setLayer("core.associate_growth", median(r.growth), "ratio")
		b.setLayer("manager.queue_depth_max", float64(r.depthMax), "count")
		b.handoffBreakdown(d.sys.Manager, r.traceIDs)
		b.probeReconcile(d, root)
	}

	out := poolSettled(poolBase)
	b.check(out == 0, "frame pool: %d frames outstanding after drain", out)
	if !b.traced {
		return nil
	}
	b.setLayer("packet.pool_outstanding", float64(out), "frames")
	snap := d.sys.Manager.MetricsSnapshot()
	b.setLayer("manager.handoff_coalesced", float64(snap.Counters["handoff.coalesced"]), "count")
	b.setLayer("manager.station_saturated", float64(saturated(snap.Counters)), "count")
	id, mac, ip := clientAddr(0)
	return b.probeLayers(probeTarget{sys: d.sys, vc: d.vc, client: id, mac: mac, ip: ip,
		chain: stormChain(id).Name, server: d.server, rx: d.rx})
}

// probeReconcile times one ReconcileOnce over the fleet's converged spec:
// a pass that finds nothing to do.
func (b *bench) probeReconcile(d *stormDep, parent int) {
	id := b.spans.start("reconcile.Reconciler.ReconcileOnce", parent)
	start := time.Now()
	res, err := d.rec.ReconcileOnce(false)
	el := time.Since(start)
	b.spans.end(id)
	b.check(err == nil && res.Converged, "reconcile no-op pass: converged=%v err=%v", res.Converged, err)
	b.setLayer("reconcile.pass_ms", float64(el.Nanoseconds())/1e6, "ms")
}

// probeFleet builds the storm's fleet without handing it off and takes
// the readings that depend on its size: a converged reconcile pass, a
// rule install at its switch table size and the container count of its
// shared pools. They replace the values probeLayers took on a smaller
// deployment.
func (b *bench) probeFleet(parent int) error {
	id := b.spans.start("perfbench.fleet", parent)
	defer b.spans.end(id)
	d, err := buildStorm()
	if err != nil {
		return err
	}
	defer d.close()
	b.probeReconcile(d, id)
	b.probeRuleInstall(d.sys.Agent("st-a").Switch(), id)
	b.setLayer("agent.containers", float64(containerCount(d.sys)), "count")
	return nil
}

// stormResult is what one pass of waves measured.
type stormResult struct {
	rate, allocs []float64 // per wave: handoffs/s over the drain, mallocs per handoff
	drain        []float64 // per wave: wall s from first dispatch to WaitIdle
	lat          []float64 // per handoff: wall ms from dispatch to its migration event
	assoc        []float64 // per dispatch: Topology.Attach wall ms
	growth       []float64 // per wave: associate-time growth across the dispatch
	pollUs       []float64 // per wave: mean wall µs between the watcher's journal reads
	depthMax     int64
	traceIDs     []string // a sample of the last wave's handoff traces
}

// seqMark is the wall time at which the watcher first saw the journal's
// sequence number at seq.
type seqMark struct {
	seq uint64
	at  int64
}

// stormPass runs waves for budget (and at least min waves). A wave that
// fails a check counts against the run, and the waves go on: the timing
// of the later ones stays comparable.
func (b *bench) stormPass(d *stormDep, budget time.Duration, minN int, parent int) stormResult {
	var r stormResult
	end := time.Now().Add(budget)
	for len(r.rate) < minN || time.Now().Before(end) {
		b.stormWave(d, &r, parent)
	}
	return r
}

// stormWave dispatches every client's handoff to the other station and
// waits for the manager to drain. While it drains, a watcher goroutine
// reads the journal's sequence number every stormPoll and marks the wall
// time of each advance; a handoff completes at the first mark at or past
// its migration event (the events themselves carry virtual time only).
func (b *bench) stormWave(d *stormDep, r *stormResult, parent int) {
	to := 1 - d.at
	cell, target := roamCells[to], string(roamStations[to])
	journal := d.sys.Manager.Journal()
	order := b.rng.Perm(stormClients)
	dispatched := make([]int64, stormClients)
	var failures []string

	stop := make(chan struct{})
	var wg sync.WaitGroup
	first := journal.LastSeq()
	var (
		marks    []seqMark
		reads    int
		depthMax int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev, lastDepth := first, int64(0)
		for {
			select {
			case <-stop:
				// WaitIdle has returned: every event of the wave is in.
				if cur := journal.LastSeq(); cur != prev {
					marks = append(marks, seqMark{cur, monoNow()})
				}
				return
			default:
			}
			time.Sleep(stormPoll)
			cur := journal.LastSeq()
			now := monoNow()
			reads++
			if cur != prev {
				marks = append(marks, seqMark{cur, now})
				prev = cur
			}
			if b.traced && now-lastDepth >= int64(depthPoll) {
				lastDepth = now
				depthMax = max(depthMax, d.sys.Manager.MetricsSnapshot().Gauges["handoff.queue_depth"])
			}
		}
	}()

	assoc := make([]float64, 0, stormClients)
	p0 := readProc()
	start := monoNow()
	for _, i := range order {
		id, _, _ := clientAddr(i)
		dispatched[i] = monoNow()
		sp := b.spans.start("core.Topology.Attach", parent)
		err := d.sys.Topo.Attach(id, cell)
		b.spans.end(sp)
		assoc = append(assoc, float64(monoNow()-dispatched[i])/1e6)
		if err != nil {
			failures = append(failures, fmt.Sprintf("attach %s: %v", id, err))
		}
	}
	sp := b.spans.start("manager.Manager.WaitIdle", parent)
	d.sys.Manager.WaitIdle()
	b.spans.end(sp)
	drain := time.Duration(monoNow() - start)
	p1 := readProc()
	close(stop)
	wg.Wait()
	d.at = to

	// Stamp each client's completion from the marks. The journal keeps
	// the newest historyCap events; an evicted event shows as a client
	// that never completed.
	completed := make([]int64, stormClients)
	r.traceIDs = r.traceIDs[:0]
	for _, ev := range journal.Events(first, trace.EventMigrate) {
		i, ok := stormClientIndex(ev.Detail)
		switch {
		case !ok || ev.Err != "" || ev.Station != target:
			failures = append(failures, fmt.Sprintf("%s -> %s: %s", ev.Detail, ev.Station, ev.Err))
		case completed[i] != 0:
			failures = append(failures, "second migration in one wave: "+ev.Detail)
		default:
			k := sort.Search(len(marks), func(k int) bool { return marks[k].seq >= ev.Seq })
			if !b.check(k < len(marks), "storm: event %d past the watcher's last mark", ev.Seq) {
				continue
			}
			completed[i] = marks[k].at
			if ev.TraceID != "" && len(r.traceIDs) < 64 {
				r.traceIDs = append(r.traceIDs, ev.TraceID)
			}
		}
	}

	b.attempted += stormClients
	done := 0
	for i := range completed {
		if completed[i] != 0 {
			done++
			r.lat = append(r.lat, float64(completed[i]-dispatched[i])/1e6)
		}
	}
	dead := b.stormDelivery(d, completed)
	b.failed += int64(stormClients - done + dead)
	b.check(done == stormClients, "storm wave to %s: %d of %d clients migrated", target, done, stormClients)
	for _, f := range failures[:min(len(failures), 3)] {
		b.check(false, "storm wave to %s: %s", target, f)
	}
	id := b.spans.start("core.System.Audit", parent)
	violations := d.sys.Audit()
	b.spans.end(id)
	for _, v := range violations[:min(len(violations), 3)] {
		b.check(false, "audit after wave to %s: %s", target, v)
	}
	r.rate = append(r.rate, stormClients/drain.Seconds())
	r.drain = append(r.drain, drain.Seconds())
	r.allocs = append(r.allocs, float64(p1.allocs-p0.allocs)/stormClients)
	r.assoc = append(r.assoc, assoc...)
	r.growth = append(r.growth, decileGrowth(assoc))
	r.pollUs = append(r.pollUs, drain.Seconds()*1e6/float64(max(reads, 1)))
	r.depthMax = max(r.depthMax, depthMax)
}

// stormDelivery has every client whose handoff completed send one frame
// to the sink, untimed, and returns how many of those frames did not
// arrive within deliverWithin.
func (b *bench) stormDelivery(d *stormDep, completed []int64) int {
	acct := traffic.NewAccountant(stormClients, 0, d.vc)
	base := d.rx.phase(acct)
	payload := make([]byte, traffic.LoadPayloadLen)
	dst := packet.Endpoint{Addr: serverIP, Port: serverPort}
	sent := 0
	for i := range completed {
		if completed[i] == 0 {
			continue
		}
		id, _, _ := clientAddr(i)
		traffic.PutLoadPayload(payload, uint32(i), 0, d.vc.Now().UnixNano())
		if d.sys.ClientHost(id).SendUDP(dst, 6000, payload) == nil {
			sent++
		}
	}
	_ = d.rx.awaitCount(base, uint64(sent), deliverWithin)
	var dead []string
	for i := range completed {
		if got, _, _, _ := acct.Flow(i); completed[i] != 0 && got == 0 {
			id, _, _ := clientAddr(i)
			dead = append(dead, string(id))
		}
	}
	b.check(len(dead) == 0, "storm wave to %s: no frame from %d clients reached the server (%s)",
		roamStations[d.at], len(dead), strings.Join(dead[:min(len(dead), 4)], " "))
	return len(dead)
}

// stormClientIndex parses the client index out of a migrate event's
// detail ("client=c017 st-a->st-b ...").
func stormClientIndex(detail string) (int, bool) {
	rest, ok := strings.CutPrefix(detail, "client=c")
	if !ok {
		return 0, false
	}
	num, _, _ := strings.Cut(rest, " ")
	i, err := strconv.Atoi(num)
	return i, err == nil && i >= 0 && i < stormClients
}

func (b *bench) reportStorm(r stormResult) {
	if !b.check(len(r.rate) > 0 && len(r.lat) > 0, "no storm wave completed") {
		return
	}
	b.setE2E("ops_per_s", median(r.rate), "1/s")
	b.setE2E("p50_ms", median(r.lat), "ms")
	b.setE2E("tail_ms", quantile(r.lat, 0.90), "ms")
	b.setE2E("allocs_per_op", median(r.allocs), "count")
	b.named("storm.handoffs_per_s", median(r.rate), "1/s")
	b.named("storm.handoff_ms_p50", median(r.lat), "ms")
	b.named("storm.handoff_ms_p90", quantile(r.lat, 0.90), "ms")
	b.named("storm.handoff_ms_p99", quantile(r.lat, 0.99), "ms")
	b.named("storm.poll_interval_us", median(r.pollUs), "us")
	b.named("storm.waves", float64(len(r.rate)), "count")
	b.named("storm.handoffs", float64(len(r.lat)), "count")
}
