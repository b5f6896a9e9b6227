package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	hdr := sc.TraceParent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("malformed traceparent %q", hdr)
	}
	got, ok := ParseTraceParent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, sc)
	}
}

// badTraceParents are header values the parser must reject.
var badTraceParents = []string{
	"",
	"00-short-span-01",
	"00-00000000000000000000000000000000-0000000000000000-01", // all-zero IDs
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
	"00-4bf92f3577b34da6a3ce929d0e0e473Z-00f067aa0ba902b7-01",
	"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex version
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // non-hex flags
}

// Future versions and trailing vendor fields must still parse.
var futureTraceParents = []string{
	"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
}

func TestParseTraceParentRejects(t *testing.T) {
	for _, v := range badTraceParents {
		if _, ok := ParseTraceParent(v); ok {
			t.Fatalf("ParseTraceParent(%q) accepted", v)
		}
	}
	for _, v := range futureTraceParents {
		if _, ok := ParseTraceParent(v); !ok {
			t.Fatalf("ParseTraceParent(%q) rejected", v)
		}
	}
}

// FuzzParseTraceParent feeds arbitrary header values to the parser: it
// never panics, and a context it accepts renders to a header that
// parses back to the same context.
func FuzzParseTraceParent(f *testing.F) {
	for _, v := range append(append([]string{}, badTraceParents...), futureTraceParents...) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceParent(v)
		if !ok {
			return
		}
		back, ok := ParseTraceParent(sc.TraceParent())
		if !ok || back != sc {
			t.Fatalf("ParseTraceParent(%q) = %+v, but its rendering %q parses to %+v, %v", v, sc, sc.TraceParent(), back, ok)
		}
	})
}

func TestRecorderSpanTree(t *testing.T) {
	r := NewRecorder(64)
	r.SetEnabled(true)
	ctx, root := r.StartSpan(context.Background(), "sweep")
	_, child := r.StartSpan(ctx, "chunk")
	if child.Context().Trace != root.Context().Trace {
		t.Fatalf("child trace %s != root trace %s", child.Context().Trace, root.Context().Trace)
	}
	child.SetAttr("replica", "r1")
	child.End()
	root.End()

	spans := r.Trace(root.Context().Trace.String())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var rootRec, childRec SpanRecord
	for _, sr := range spans {
		switch sr.Name {
		case "sweep":
			rootRec = sr
		case "chunk":
			childRec = sr
		}
	}
	if !rootRec.Root || rootRec.ParentID != "" {
		t.Fatalf("root record wrong: %+v", rootRec)
	}
	if childRec.Root || childRec.ParentID != rootRec.SpanID {
		t.Fatalf("child record wrong: %+v (root span %s)", childRec, rootRec.SpanID)
	}
	if len(childRec.Attrs) != 1 || childRec.Attrs[0].Key != "replica" {
		t.Fatalf("child attrs wrong: %+v", childRec.Attrs)
	}

	roots := r.Roots(0)
	if len(roots) != 1 || roots[0].Name != "sweep" || roots[0].Spans != 2 {
		t.Fatalf("roots wrong: %+v", roots)
	}
}

func TestRemoteChildIsLocalRoot(t *testing.T) {
	r := NewRecorder(8)
	r.SetEnabled(true)
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	_, s := r.StartRemoteChild(context.Background(), "http GET", remote)
	if s.Context().Trace != remote.Trace {
		t.Fatalf("remote child did not adopt trace")
	}
	s.End()
	spans := r.Trace(remote.Trace.String())
	if len(spans) != 1 || !spans[0].Root || spans[0].ParentID != remote.Span.String() {
		t.Fatalf("remote child record wrong: %+v", spans)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	r.SetEnabled(true)
	for range 10 {
		_, s := r.StartSpan(context.Background(), "x")
		s.End()
	}
	if got := len(r.snapshot()); got != 4 {
		t.Fatalf("ring kept %d spans, want 4", got)
	}
	// Overwrites are no longer silent: each of the 6 evicted spans is
	// accounted on the dropped counter.
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	r := NewRecorder(8)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, s := r.StartSpan(ctx, "noop")
		s.SetAttr("k", "v")
		s.End()
		_, s2 := StartSpan(c2, "noop2")
		s2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates: %v allocs/op", allocs)
	}
}

func TestDisabledSpanIsNil(t *testing.T) {
	r := NewRecorder(8)
	ctx, s := r.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("disabled recorder returned live span")
	}
	if s.TraceParent() != "" || s.Context().IsValid() {
		t.Fatal("nil span leaked identity")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("disabled recorder mutated context")
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	if s := h.Snapshot(); s.Count != 0 || s.Bounds != nil {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	for range 50 {
		h.Observe(5 * time.Millisecond) // bucket 0
	}
	for range 40 {
		h.Observe(50 * time.Millisecond) // bucket 1
	}
	for range 10 {
		h.Observe(5 * time.Second) // +Inf bucket
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if got := []uint64{s.Counts[0], s.Counts[1], s.Counts[2], s.Counts[3]}; got[0] != 50 || got[1] != 40 || got[2] != 0 || got[3] != 10 {
		t.Fatalf("bucket counts %v", got)
	}
	// p50 lands exactly at the top of bucket 0.
	if q := s.Quantile(0.5); q < 0.009 || q > 0.011 {
		t.Fatalf("p50 = %v, want ~0.01", q)
	}
	// p95 lands in the +Inf bucket -> clamped to last finite bound.
	if q := s.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %v, want clamp to 1", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 = %v", q)
	}

	var agg HistSnapshot
	agg.Add(s)
	agg.Add(s)
	if agg.Count != 200 || agg.Counts[0] != 100 || agg.Sum <= s.Sum {
		t.Fatalf("merge wrong: %+v", agg)
	}
}

func TestPhaseTimesSetGetAndNames(t *testing.T) {
	var pt PhaseTimes
	if !pt.IsZero() {
		t.Fatal("zero value not zero")
	}
	for i, p := range AllPhases() {
		pt.Set(p, time.Duration(i+1)*time.Millisecond)
	}
	for i, p := range AllPhases() {
		want := float64(i+1) * 1e-3
		if got := pt.Get(p); got < want*0.999 || got > want*1.001 {
			t.Fatalf("phase %s = %v, want %v", p, got, want)
		}
	}
	seen := map[string]bool{}
	for _, p := range AllPhases() {
		name := p.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("bad phase name %q", name)
		}
		seen[name] = true
	}
	// JSON omits phases that never ran.
	b, err := json.Marshal(PhaseTimes{DiskTier: 0.5})
	if err != nil || string(b) != `{"disk_tier":0.5}` {
		t.Fatalf("phase JSON: %s err=%v", b, err)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder(16)
	r.SetEnabled(true)
	ctx, root := r.StartSpan(context.Background(), "sweep")
	root.SetAttr("source", "coordinator")
	_, c := r.StartSpan(ctx, "chunk")
	c.SetAttr("source", "replica-1")
	c.End()
	root.End()

	out, err := ChromeTrace(r.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatalf("not valid trace-event JSON: %v", err)
	}
	if len(f.TraceEvents) != 4 { // b/e pair per span
		t.Fatalf("got %d events, want 4", len(f.TraceEvents))
	}
	begins := 0
	pids := map[float64]bool{}
	for _, ev := range f.TraceEvents {
		if ev["ph"] == "b" {
			begins++
		}
		pids[ev["pid"].(float64)] = true
	}
	if begins != 2 {
		t.Fatalf("got %d begin events, want 2", begins)
	}
	if len(pids) != 2 {
		t.Fatalf("sources should land in distinct pid lanes, got %v", pids)
	}
}
