package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/trace"
	"gnf/internal/traffic"
)

// Roam workloads: two stations joined by a 3 ms link, stateful strategy,
// two clients each with a firewall→nat→counter chain whose NAT holds
// natFlows flows. The benchmark hands the clients off between the cells
// one at a time, in an order the seed picks, while each streams CBR
// frames at cbrFPS. roam-whole moves the whole chain (its NAT state
// included) on every handoff; roam-split tags the head near-client and
// the NAT aggregate, so only the head moves.
const (
	cbrFPS = 1000
	// minRoams keeps at least ten samples beyond the reported p90.
	minRoams = 100
	// resumeWithin is how long after a roam the roamed client's CBR frames
	// must reach the server again; at cbrFPS a live path needs ~2 ms.
	resumeWithin = 250 * time.Millisecond
	// cbrRing is the accountant's sequence ring: large enough that no pass
	// wraps it, so received+lost is the count of sequence numbers seen.
	cbrRing = 1 << 30
)

var (
	roamCells    = [2]topology.CellID{"cell-a", "cell-b"}
	roamStations = [2]topology.StationID{"st-a", "st-b"}
)

// roamChain is one client's chain; chain names are unique per station,
// so each client's carries its ID.
func roamChain(id topology.ClientID, split bool) manager.ChainSpec {
	aff := func(tag string) string {
		if split {
			return tag
		}
		return ""
	}
	return manager.ChainSpec{Name: "edgepath-" + string(id), Functions: []agent.NFSpec{
		{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}, Affinity: aff("near-client")},
		{Kind: "nat", Name: "xlate", Params: nf.Params{"nat_ip": "192.168.90.1", "ports": "2000-63000"}, Affinity: aff("aggregate")},
		{Kind: "counter", Name: "acct"},
	}}
}

type roamClient struct {
	id  topology.ClientID
	mac packet.MAC
	ip  packet.IP
	at  int // index into roamStations
}

func (c *roamClient) chain() string { return "edgepath-" + string(c.id) }

type roamDep struct {
	sys     *core.System
	vc      *clock.Virtual
	split   bool
	server  *netem.Host
	rx      *rxSink
	clients [2]*roamClient
	cbrSeq  atomic.Uint32 // next CBR sequence number, shared by both clients
}

func buildRoam(split bool, natPorts []uint16) (*roamDep, error) {
	graph := topology.NewGraph()
	graph.SetLink(topology.Link{A: "st-a", B: "st-b", Delay: 3 * time.Millisecond})
	sys, vc, err := core.NewVirtualSystem(core.Config{
		Stations: twoStations(),
		Strategy: manager.StrategyStateful,
		Topology: graph,
	})
	if err != nil {
		return nil, err
	}
	d := &roamDep{sys: sys, vc: vc, split: split}
	d.server = sys.AddServer("sink", serverMAC, serverIP)
	d.rx = newRxSink(d.server)
	for i := range d.clients {
		c := &roamClient{}
		c.id, c.mac, c.ip = clientAddr(i)
		d.clients[i] = c
		if err := d.addClient(c, natPorts); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *roamDep) addClient(c *roamClient, natPorts []uint16) error {
	if err := d.sys.AddClient(c.id, c.mac, c.ip); err != nil {
		return err
	}
	if err := associate(d.sys, c.id, "cell-a", "st-a"); err != nil {
		return err
	}
	d.sys.ClientHost(c.id).Learn(serverIP, serverMAC)
	d.server.Learn(c.ip, c.mac)
	if err := attachChain(d.sys, c.id, "st-a", roamChain(c.id, d.split)); err != nil {
		return err
	}
	// Seed the NAT where it lives: the anchored segment of a split chain,
	// the single deployment otherwise.
	stateful := c.chain()
	if d.split {
		stateful = agent.SegmentDeployName(c.chain(), 1)
	}
	for _, st := range roamStations {
		if fn, err := d.sys.Agent(st).ChainFunction(stateful); err == nil {
			seedNAT(fn, c.mac, c.ip, natPorts)
			return nil
		}
	}
	return fmt.Errorf("no station hosts %s for %s", stateful, c.id)
}

func (d *roamDep) close() {
	closeSystem(d.sys, d.vc, d.server)
}

func runRoam(b *bench, split bool) error {
	kind := "whole"
	if split {
		kind = "split"
	}
	d, err := setUp(b, func() (*roamDep, error) {
		return buildRoam(split, seededPorts(b.rng, natFlows))
	}, (*roamDep).close)
	if err != nil {
		return err
	}
	defer d.close()
	poolBase := packet.FramePoolOutstanding()
	b.named("roam.cbr_fps_per_client", cbrFPS, "1/s")
	b.named("roam.nat_flows", natFlows, "count")

	if !b.traced {
		r := b.roamPass(d, b.budget, minRoams, 0)
		b.reportRoam(kind, r)
	} else {
		base := b.roamPass(d, b.budget*3/10, 10, 0)
		p0 := readProc()
		sw := d.sys.Agent("st-a").Switch()
		before := sw.Stats()
		root := b.spans.start("perfbench.roam", 0)
		r := b.roamPass(d, b.budget*3/10, 10, root)
		b.spans.end(root)
		p1 := readProc()
		b.switchRatios(before, sw.Stats())
		b.recordProcess(p0, p1, float64(len(r.durs)))
		b.setLayer("trace.overhead_ratio", mean(r.durs)/mean(base.durs), "ratio")
		b.reportRoam(kind, r)
		b.handoffBreakdown(d.sys.Manager, r.traceIDs)
		b.setLayer("core.associate_us", mean(r.assoc)*1e3, "us")
		b.setLayer("core.associate_growth", decileGrowth(r.assoc), "ratio")
		b.setLayer("manager.queue_depth_max", float64(r.depthMax), "count")
		b.probeMigrate(d)
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
	c := d.clients[0]
	if err := b.probeLayers(probeTarget{sys: d.sys, vc: d.vc, client: c.id, mac: c.mac, ip: c.ip,
		chain: c.chain(), server: d.server, rx: d.rx}); err != nil {
		return err
	}
	return b.probeFleet(0)
}

// roamResult is what one roam pass measured.
type roamResult struct {
	durs, assoc, allocs []float64 // per roam: wall ms, Topology.Attach wall ms, mallocs
	depthMax            int64     // deepest handoff queue seen as Attach returned (traced pass)
	traceIDs            []string
	lost                int64
	reordered           uint64 // CBR frames that arrived behind a later one
	reports             []manager.MigrationReport
}

// roamPass hands the clients off for budget (and at least min roams),
// one at a time. A roam is timed from Topology.Attach until WaitIdle
// returns: Attach returns once the manager has queued the handoff, so
// WaitIdle is the completion barrier, with no polling. Each roam is then
// checked, untimed, against the journal: one successful migration of
// the head to the target, none of the anchored segment, and the chain
// enabled on the target; and against the dataplane: a CBR frame the
// client sends after the roam completed reaches the server within
// resumeWithin.
func (b *bench) roamPass(d *roamDep, budget time.Duration, minN int, parent int) roamResult {
	var r roamResult
	acct := traffic.NewAccountant(len(d.clients), cbrRing, d.vc)
	d.rx.phase(acct)
	d.cbrSeq.Store(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var cbrSent uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		cbrSent = d.cbr(stop)
	}()

	journal := d.sys.Manager.Journal()
	end := time.Now().Add(budget)
	// Past budget the pass only tops up to minN roams, and gives up when
	// roams keep failing.
	giveUp := end.Add(2 * budget)
	first := 0
	for i := 0; i%2 == 1 || time.Now().Before(end) || (len(r.durs) < minN && time.Now().Before(giveUp)); i++ {
		if i%2 == 0 {
			first = b.rng.Intn(2)
		}
		ci := (first + i) % 2
		c := d.clients[ci]
		to := 1 - c.at
		seq := journal.LastSeq()

		p0 := readProc()
		start := time.Now()
		id := b.spans.start("core.Topology.Attach", parent)
		err := d.sys.Topo.Attach(c.id, roamCells[to])
		b.spans.end(id)
		assoc := time.Since(start)
		if parent != 0 {
			r.depthMax = max(r.depthMax, d.sys.Manager.MetricsSnapshot().Gauges["handoff.queue_depth"])
		}
		id = b.spans.start("manager.Manager.WaitIdle", parent)
		d.sys.Manager.WaitIdle()
		b.spans.end(id)
		dur := time.Since(start)
		p1 := readProc()

		b.attempted++
		if !b.check(err == nil, "roam %s: attach: %v", c.id, err) {
			b.failed++
			continue
		}
		c.at = to
		tid, ok := b.checkRoam(d, c, journal.Events(seq, trace.EventMigrate))
		if !ok {
			b.failed++
			continue
		}
		// The CBR goroutine may be sending sequence number `from` right
		// now; from+1 is sent wholly after the roam.
		from := d.cbrSeq.Load() + 1
		if !b.check(delivered(acct, ci, from, resumeWithin),
			"roam %s to %s (#%d): no CBR frame sent after the roam arrived within %v",
			c.id, roamStations[to], b.attempted, resumeWithin) {
			b.failed++
			continue
		}
		r.durs = append(r.durs, float64(dur.Nanoseconds())/1e6)
		r.assoc = append(r.assoc, float64(assoc.Nanoseconds())/1e6)
		r.allocs = append(r.allocs, float64(p1.allocs-p0.allocs))
		r.traceIDs = append(r.traceIDs, tid)
	}
	close(stop)
	wg.Wait()
	time.Sleep(20 * time.Millisecond) // let in-flight CBR frames land
	rep := acct.Report()
	b.check(rep.Malformed == 0, "roam cbr: %d malformed frames", rep.Malformed)
	r.lost = int64(cbrSent) - int64(rep.Received)
	r.reordered = rep.Late

	reps := d.sys.Manager.Migrations()
	r.reports = reps[max(0, len(reps)-len(r.durs)):]
	return r
}

// checkRoam verifies one handoff from the journal events it produced and
// returns the migration's trace ID.
func (b *bench) checkRoam(d *roamDep, c *roamClient, evs []trace.Event) (string, bool) {
	target := string(roamStations[c.at])
	var tid string
	moved := 0
	for _, ev := range evs {
		if !strings.Contains(ev.Detail, "client="+string(c.id)+" ") {
			continue
		}
		if !b.check(ev.Err == "", "roam %s: migration failed: %s", c.id, ev.Err) {
			return "", false
		}
		if !b.check(ev.Subject == c.chain(), "roam %s: %s migrated; only the head may move", c.id, ev.Subject) {
			return "", false
		}
		b.check(ev.Station == target, "roam %s: migrated to %s, want %s", c.id, ev.Station, target)
		tid = ev.TraceID
		moved++
	}
	if !b.check(moved == 1, "roam %s: %d migrations, want 1", c.id, moved) {
		return "", false
	}
	on, err := d.sys.Agent(roamStations[c.at]).ChainEnabled(c.chain())
	if !b.check(err == nil && on, "roam %s: chain not enabled on %s (err %v)", c.id, target, err) {
		return "", false
	}
	return tid, true
}

// delivered waits until flow i has delivered a frame with sequence
// number at least from (in-order arrivals plus the gaps they reveal cover
// every sequence number below the newest arrival), or timeout passes.
func delivered(acct *traffic.Accountant, i int, from uint32, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		got, lost, _, _ := acct.Flow(i)
		if got+lost > from {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// cbr sends one load frame per client every 1/cbrFPS until stop closes
// and returns the number of frames attempted. A send refused during the
// break-before-make gap still consumes its sequence number, so it counts
// as lost.
func (d *roamDep) cbr(stop <-chan struct{}) uint64 {
	tick := time.NewTicker(time.Second / cbrFPS)
	defer tick.Stop()
	payload := make([]byte, traffic.LoadPayloadLen)
	dst := packet.Endpoint{Addr: serverIP, Port: serverPort}
	for {
		select {
		case <-stop:
			return uint64(d.cbrSeq.Load()) * uint64(len(d.clients))
		case <-tick.C:
		}
		seq := d.cbrSeq.Load()
		for i, c := range d.clients {
			traffic.PutLoadPayload(payload, uint32(i), seq, d.vc.Now().UnixNano())
			// A send refused in the handoff gap shows as lost: its
			// sequence number is spent either way.
			_ = d.sys.ClientHost(c.id).SendUDP(dst, 6000, payload)
		}
		d.cbrSeq.Store(seq + 1)
	}
}

func (b *bench) reportRoam(kind string, r roamResult) {
	if !b.check(len(r.durs) > 0, "no roam completed") {
		return
	}
	var total, downtime, state float64
	for _, d := range r.durs {
		total += d
	}
	for _, rep := range r.reports {
		downtime += float64(rep.Downtime.Nanoseconds()) / 1e6
		state += float64(rep.StateBytes) / 1024
	}
	n := float64(len(r.reports))
	b.setE2E("ops_per_s", float64(len(r.durs))/(total/1e3), "1/s")
	b.setE2E("p50_ms", median(r.durs), "ms")
	b.setE2E("tail_ms", quantile(r.durs, 0.90), "ms")
	b.setE2E("allocs_per_op", median(r.allocs), "count")
	b.named("roam."+kind+"_ms_p50", median(r.durs), "ms")
	b.named("roam."+kind+"_ms_p90", quantile(r.durs, 0.90), "ms")
	b.named("roam."+kind+"_downtime_virt_ms", downtime/n, "virt_ms")
	b.named("roam.state_kib_per_roam", state/n, "KiB")
	b.named("roam.lost_frames_per_roam", float64(r.lost)/float64(len(r.durs)), "count")
	b.named("roam.reordered_frames", float64(r.reordered), "count")
	b.named("roam.roams", float64(len(r.durs)), "count")
	b.setLayer("handoff.downtime_virt_ms", downtime/n, "virt_ms")
	b.setLayer("handoff.state_kib", state/n, "KiB")
	b.setLayer("handoff.lost_frames_per_roam", float64(r.lost)/float64(len(r.durs)), "count")
}

// rpcPhase maps an agent RPC to the handoff phase it reports under.
func rpcPhase(method string) string {
	switch m := strings.TrimPrefix(method, "rpc:agent."); m {
	case "prefetch", "deploy", "disable", "checkpoint", "restore", "enable", "remove":
		return m
	case "steer", "steer_batch", "unsteer", "retarget":
		return "steer"
	default:
		return "other_rpc"
	}
}

var handoffPhases = []string{"prefetch", "deploy", "disable", "checkpoint", "restore", "enable", "steer", "remove", "other_rpc"}

// handoffBreakdown reads each roam's span tree from the manager's tracer
// (virtual-clock stamped) and reports, per roam, the summed duration of
// the migrate span's rpc:agent.* children by phase, and the part of the
// migrate span no child covers.
func (b *bench) handoffBreakdown(mgr *manager.Manager, traceIDs []string) {
	sums := map[string]float64{}
	var migrate, untraced float64
	n := 0
	for _, tid := range traceIDs {
		spans := mgr.Tracer().Trace(tid)
		var mig *trace.SpanRecord
		for i := range spans {
			if spans[i].Name == "manager.migrate" {
				mig = &spans[i]
				break
			}
		}
		if mig == nil {
			continue
		}
		n++
		var kids []span
		for _, s := range spans {
			if s.Parent != mig.SpanID || !strings.HasPrefix(s.Name, "rpc:") {
				continue
			}
			sums[rpcPhase(s.Name)] += s.DurationMs
			kids = append(kids, span{Start: s.Start.UnixNano(), End: s.End.UnixNano()})
		}
		whole := span{Start: mig.Start.UnixNano(), End: mig.End.UnixNano()}
		migrate += mig.DurationMs
		untraced += float64(whole.End-whole.Start-covered(whole, kids)) / 1e6
	}
	if !b.check(n > 0, "no roam's span tree holds a manager.migrate span") {
		return
	}
	for _, p := range handoffPhases {
		b.setLayer("handoff."+p+"_virt_ms", sums[p]/float64(n), "virt_ms")
	}
	b.setLayer("handoff.untraced_virt_ms", untraced/float64(n), "virt_ms")
	b.setLayer("handoff.migrate_virt_ms", migrate/float64(n), "virt_ms")
}

// probeMigrate times Manager.MigrateChain moving each client's chain to
// the other station and back, leaving placement as it was.
func (b *bench) probeMigrate(d *roamDep) {
	var times []float64
	for _, c := range d.clients {
		for _, to := range []int{1 - c.at, c.at} {
			id := b.spans.start("manager.Manager.MigrateChain", 0)
			start := time.Now()
			rep, err := d.sys.Manager.MigrateChain(string(c.id), c.chain(), string(roamStations[to]))
			el := time.Since(start)
			b.spans.end(id)
			if err != nil || rep.Err != "" {
				fmt.Printf("note: MigrateChain %s -> %s: %v %s\n", c.id, roamStations[to], err, rep.Err)
				continue
			}
			times = append(times, float64(el.Nanoseconds())/1e6)
		}
	}
	d.sys.Manager.WaitIdle()
	if len(times) > 0 {
		b.setLayer("manager.migrate_ms", mean(times), "ms")
	}
}

// decileGrowth is the mean of the last tenth of xs over the mean of the
// first tenth, in order.
func decileGrowth(xs []float64) float64 {
	k := len(xs) / 10
	if k == 0 {
		return 0
	}
	return mean(xs[len(xs)-k:]) / mean(xs[:k])
}

// saturated sums the manager's per-station admission-saturation counters.
func saturated(counters map[string]uint64) uint64 {
	var n uint64
	for k, v := range counters {
		if strings.HasPrefix(k, "handoff.station_saturated.") {
			n += v
		}
	}
	return n
}
