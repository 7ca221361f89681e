package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanLog records spans around the benchmark's own calls into the
// program's modules. A span's name is "<module>.<call>"; spans of one run
// share the run ID. The log lives in memory and is written out when the
// run ends. Every method is nil-receiver-safe, so untraced runs pass a nil
// log through the same code.
type spanLog struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

func newSpanLog(runID string) *spanLog {
	return &spanLog{runID: runID, t0: time.Now()}
}

// start opens a span under parent (0 = root) and returns its ID.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	l.mu.Unlock()
	return id
}

// end closes the span with the given ID.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfTimes returns each module's self time: the summed durations of its
// spans minus the parts of those intervals their child spans cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		if s.End < s.Start {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		out[module(s.Name)] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// traceModules are the modules whose self time the traced run reports.
var traceModules = []string{"core", "manager", "netem", "nf", "packet", "reconcile", "traffic", "wire"}

// finishTrace reports per-module self times and writes the span log to
// .bench_build/traces/ under the working directory.
func (b *bench) finishTrace() {
	self := b.spans.selfTimes()
	for _, m := range traceModules {
		b.setLayer("trace.self_ms."+m, float64(self[m])/1e6, "ms")
	}
	b.spans.mu.Lock()
	n := len(b.spans.spans)
	doc := struct {
		RunID    string `json:"run_id"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.spans.runID, b.workload, b.seed, b.spans.spans}
	raw, err := json.Marshal(doc)
	b.spans.mu.Unlock()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding spans:", err)
		return
	}
	dir := filepath.Join(".bench_build", "traces")
	path := filepath.Join(dir, b.spans.runID+".json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	fmt.Printf("spans: %d written to %s\n", n, path)
}
