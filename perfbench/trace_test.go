package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Req: 1, Layer: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Req: 1, Layer: "gateway", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Req: 1, Layer: "gateway", Start: 3 * ms, End: 6 * ms}, // overlaps 2
		{ID: 4, Parent: 1, Req: 1, Layer: "verify", Start: 8 * ms, End: 9 * ms},
	}
	got := selfTime(spans)
	want := map[string]time.Duration{"request": 4 * ms, "gateway": 6 * ms, "verify": ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self time %v, want %v", got, want)
	}
}

func TestTracerSharesRequestID(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", "r", active{})
	a := tr.begin("gateway", "submit", root)
	a.end()
	root.end()
	other := tr.begin("request", "r2", active{})
	other.end()
	spans := tr.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if spans[1].Req != spans[0].ID || spans[1].Parent != spans[0].ID {
		t.Fatalf("child %+v does not belong to root %+v", spans[1], spans[0])
	}
	if spans[2].Req == spans[0].Req {
		t.Fatal("two roots share a request id")
	}
	var nilTracer *tracer
	nilTracer.begin("request", "x", active{}).end() // must not panic
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != len(spans) {
		t.Fatalf("%d complete events for %d spans", complete, len(spans))
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metrics the
// driver prints in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		t.Helper()
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the driver %+v", what, i, g, d)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer(), doc.PerLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the driver", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver %d", len(doc.Workloads), len(workloads))
	}
}

// TestTraceOverheadComparesInterleavedGroups checks that a traced run
// traces every other request and compares the two groups class by class.
func TestTraceOverheadComparesInterleavedGroups(t *testing.T) {
	tr := newTracer()
	if tr.sample(0) != tr || tr.sample(1) != nil || tr.sample(2) != tr {
		t.Fatal("sample does not alternate traced and untraced requests")
	}
	r := newResult()
	// Traced requests of class a take 1.1× as long, of class b 1.21×.
	for i := 0; i < 6; i++ {
		a, b := 10.0, 100.0
		if tr.sample(i) != nil {
			a, b = 11, 121
		}
		r.timed(tr.sample(i), "a", a)
		r.timed(tr.sample(i), "b", b)
	}
	if got, want := r.traceOverhead(), math.Sqrt(1.1*1.21)-1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("overhead %v, want the geometric mean of 1.1 and 1.21 minus one (%v)", got, want)
	}
	if n := len(r.timedMs()); n != 12 {
		t.Fatalf("%d samples, want 12", n)
	}
	if got := newResult().traceOverhead(); !math.IsNaN(got) {
		t.Fatalf("overhead with no samples %v, want NaN", got)
	}
}
