package telemetry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// finished builds a finished trace of the given op whose Duration is
// (approximately, and at least) d, carrying nspans spans shaped by mutate.
// A non-nil tracer retains it on Finish.
func finished(tr *Tracer, op string, d time.Duration, nspans int, mutate func(*Span)) *Trace {
	t := &Trace{Op: op, Unit: "/u", Start: time.Now().Add(-d), ID: NewTraceID(), tracer: tr}
	for i := 0; i < nspans; i++ {
		s := Span{Name: "meta.get", Target: "c0", Outcome: SpanOK}
		if mutate != nil {
			mutate(&s)
		}
		t.Record(s)
	}
	t.Finish()
	return t
}

func TestTraceIDRoundTrip(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a.IsZero() || b.IsZero() {
		t.Fatal("NewTraceID returned zero")
	}
	if a == b {
		t.Fatal("consecutive trace IDs collide")
	}
	if a.Short() == 0 {
		t.Fatal("Short() of a fresh ID is 0")
	}
	parsed, ok := ParseTraceID(a.String())
	if !ok || parsed != a {
		t.Fatalf("ParseTraceID(%q) = %v, %v", a.String(), parsed, ok)
	}
	for _, bad := range []string{"", "xyz", a.String()[:30], "00000000000000000000000000000000"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceparent(t *testing.T) {
	id := NewTraceID()
	parsed, ok := ParseTraceparent(id.Traceparent())
	if !ok || parsed != id {
		t.Fatalf("round trip: %v, %v", parsed, ok)
	}
	got, ok := ParseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok || got.String() != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("w3c example: %v, %v", got, ok)
	}
	for _, bad := range []string{
		"",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7",    // missing flags
		"ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01", // invalid version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace-id
		"00-0123-00f067aa0ba902b7-01",                             // short trace-id
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

// TestStartIDJoinsAndMints: StartID adopts the caller's identity, Start
// mints a fresh one, and both join an existing trace instead of nesting.
func TestStartIDJoinsAndMints(t *testing.T) {
	tr := NewTracer()
	want, _ := ParseTraceID("0123456789abcdef0123456789abcdef")
	ctx, outer := tr.StartID(context.Background(), "http.get", "/f", want)
	if outer == nil || outer.ID != want {
		t.Fatalf("StartID did not adopt the identity: %+v", outer)
	}
	if _, inner := tr.Start(ctx, "stat", "/f"); inner != nil {
		t.Fatal("nested Start did not join the live trace")
	}
	_, minted := tr.Start(context.Background(), "stat", "/f")
	if minted == nil || minted.ID.IsZero() {
		t.Fatal("Start did not mint an ID")
	}
}

// TestTraceSpanCap: a runaway trace stores at most maxTraceSpans spans and
// counts the overflow instead.
func TestTraceSpanCap(t *testing.T) {
	tr := finished(nil, "read", time.Millisecond, maxTraceSpans+44, nil)
	if got := tr.SpanCount(); got != maxTraceSpans {
		t.Fatalf("SpanCount = %d, want %d", got, maxTraceSpans)
	}
	if got := tr.Dropped(); got != 44 {
		t.Fatalf("Dropped = %d, want 44", got)
	}
}

// TestTraceFlags: error spans, breaker skips, view-change spans and
// operation-level errors all flag the trace for flight retention.
func TestTraceFlags(t *testing.T) {
	if finished(nil, "read", 0, 1, nil).Flagged() {
		t.Fatal("healthy trace flagged")
	}
	if !finished(nil, "read", 0, 1, func(s *Span) { s.Outcome = SpanError }).Flagged() {
		t.Fatal("error span did not flag")
	}
	if !finished(nil, "read", 0, 1, func(s *Span) { s.Outcome = SpanBreakerSkipped }).Flagged() {
		t.Fatal("breaker skip did not flag")
	}
	vc := finished(nil, "read", 0, 1, func(s *Span) { s.ViewChange = true })
	if !vc.Flagged() || !vc.CrossedViewChange() {
		t.Fatal("view-change span did not flag")
	}
	t2 := &Trace{Op: "read", Start: time.Now(), ID: NewTraceID()}
	t2.SetError(errors.New("boom"))
	t2.SetError(errors.New("later")) // first error sticks
	t2.Finish()
	if !t2.Flagged() || t2.Err() == nil || t2.Err().Error() != "boom" {
		t.Fatalf("SetError: flagged=%v err=%v", t2.Flagged(), t2.Err())
	}
}

// errorSpan flags a trace.
func errorSpan(s *Span) { s.Outcome = SpanError }

// TestFlightSlowRetention: the store keeps the slow slowest traces of a
// class, evicting the fastest exemplar when a slower one arrives, and
// ignores traces faster than everything retained.
func TestFlightSlowRetention(t *testing.T) {
	tr := newTracer(retention{recent: 1, slow: 3, flagged: 4, spans: spanBudget})
	for i := 1; i <= 6; i++ {
		finished(tr, "read", time.Duration(i)*50*time.Millisecond, 2, nil)
	}
	slow := tr.Slowest("read")
	if len(slow) != 3 {
		t.Fatalf("retained %d slow traces, want 3", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration() > slow[i-1].Duration() {
			t.Fatal("Slowest not ordered slowest-first")
		}
	}
	// ~50ms is faster than all of the retained ~200/250/300ms exemplars.
	if slow[len(slow)-1].Duration() < 150*time.Millisecond {
		t.Fatalf("fast trace retained: %v", slow[len(slow)-1].Duration())
	}
	// The one recent trace (the ~300ms one) is also a slow exemplar and
	// is counted once.
	st := tr.Stats()
	if st.Seen != 6 || st.Retained != 3 || st.Evicted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightFlaggedRetention: flagged traces are retained regardless of
// speed, FIFO-bounded per class, and reported newest first.
func TestFlightFlaggedRetention(t *testing.T) {
	tr := newTracer(retention{recent: 1, slow: 2, flagged: 3, spans: spanBudget})
	for i := 0; i < 5; i++ {
		_, trace := tr.Start(context.Background(), "write", fmt.Sprintf("/f%d", i))
		trace.Record(Span{Name: "smr.invoke", Outcome: SpanError})
		trace.Finish()
	}
	flagged := tr.Flagged("write")
	if len(flagged) != 3 {
		t.Fatalf("retained %d flagged traces, want 3", len(flagged))
	}
	if flagged[0].Unit != "/f4" || flagged[2].Unit != "/f2" {
		t.Fatalf("flagged order wrong: %s .. %s", flagged[0].Unit, flagged[2].Unit)
	}
	if len(tr.Slowest("write")) != 0 {
		t.Fatal("flagged traces leaked into the slow list")
	}
}

// TestFlightSpanBudget: the span budget evicts the least interesting
// memberships — recent traces, then the fastest slow traces, before
// flagged ones — and never the newest trace.
func TestFlightSpanBudget(t *testing.T) {
	tr := newTracer(retention{recent: 1, slow: 8, flagged: 8, spans: 30})
	for i := 1; i <= 4; i++ {
		finished(tr, "read", time.Duration(i)*20*time.Millisecond, 9, nil) // cost 10 each
	}
	if st := tr.Stats(); st.Spans > 30 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if got := len(tr.Slowest("read")); got != 3 {
		t.Fatalf("retained %d slow traces under budget, want 3", got)
	}
	// A flagged arrival pushes out slow exemplars, not other flagged ones.
	finished(tr, "read", time.Millisecond, 9, errorSpan)
	if got := len(tr.Flagged("read")); got != 1 {
		t.Fatalf("flagged trace not retained under budget pressure: %d", got)
	}
	if st := tr.Stats(); st.Spans > 30 {
		t.Fatalf("budget exceeded after flagged admission: %+v", st)
	}
	// An oversized newest trace is kept rather than evicted to nothing.
	tiny := newTracer(retention{recent: 4, slow: 4, flagged: 4, spans: 3})
	finished(tiny, "read", time.Millisecond, 20, nil)
	if tiny.Stats().Retained != 1 || len(tiny.Recent(0)) != 1 {
		t.Fatal("sole oversized trace was evicted")
	}
}

// TestFlightOneBudgetAcrossClasses drives the default store with traces
// that each carry maxTraceSpans spans, across several op classes, two of
// them flagged early on. The one span budget holds after every admission,
// Recent serves the newest traces in order, and the flagged traces outlive
// hundreds of later healthy ones.
func TestFlightOneBudgetAcrossClasses(t *testing.T) {
	tr := NewTracer()
	classes := []string{"read", "write", "stat", "readdir"}
	var all, bad []*Trace
	for i := 0; i < 400; i++ {
		var mutate func(*Span)
		if i == 5 || i == 17 {
			mutate = errorSpan
		}
		x := finished(tr, classes[i%len(classes)], time.Duration(i%7)*time.Millisecond, maxTraceSpans, mutate)
		if mutate != nil {
			bad = append(bad, x)
		}
		all = append(all, x)
		if st := tr.Stats(); st.Spans > st.SpanBudget {
			t.Fatalf("after trace %d: %d spans retained, budget %d", i, st.Spans, st.SpanBudget)
		}
	}

	recent := tr.Recent(0)
	if len(recent) < 16 {
		t.Fatalf("only %d recent traces retained", len(recent))
	}
	for i, x := range recent {
		if want := all[len(all)-1-i]; x != want {
			t.Fatalf("Recent()[%d] is %s, want the %d-th newest trace %s", i, x.ID, i+1, want.ID)
		}
	}
	if got := tr.Recent(3); len(got) != 3 || got[0] != all[len(all)-1] {
		t.Fatalf("Recent(3) = %d traces, newest %v", len(got), got[0] == all[len(all)-1])
	}

	flagged := tr.Flagged("write") // i = 5 and 17 are both write ops
	if len(flagged) != 2 || flagged[0] != bad[1] || flagged[1] != bad[0] {
		t.Fatalf("flagged traces did not outlive the healthy ones: %d retained", len(flagged))
	}
	for _, class := range classes {
		if n := len(tr.Slowest(class)); n != slowTraces {
			t.Errorf("class %s keeps %d slow traces, want %d", class, n, slowTraces)
		}
	}
	if st := tr.Stats(); st.Seen != 400 || st.Retained > recentTraces+len(classes)*(slowTraces+flaggedTraces) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightNilSafety: a nil tracer (tracing disabled) no-ops everywhere.
func TestFlightNilSafety(t *testing.T) {
	var tr *Tracer
	finished(tr, "read", time.Millisecond, 1, nil)
	if tr.Classes() != nil || tr.Slowest("read") != nil || tr.Flagged("read") != nil || tr.Recent(0) != nil {
		t.Fatal("nil tracer returned data")
	}
	if tr.Stats() != (FlightStats{}) {
		t.Fatal("nil tracer has stats")
	}
}

// TestTracerFeedsRecorder: traces finished through a tracer land in its
// store with their flight classification.
func TestTracerFeedsRecorder(t *testing.T) {
	tr := NewTracer()
	_, a := tr.Start(context.Background(), "read", "/ok")
	a.Finish()
	_, b := tr.Start(context.Background(), "read", "/bad")
	b.SetError(errors.New("backend down"))
	b.Finish()
	if got := tr.Stats().Retained; got != 2 {
		t.Fatalf("store retained %d traces, want 2", got)
	}
	flagged := tr.Flagged("read")
	if len(flagged) != 1 || flagged[0].Unit != "/bad" {
		t.Fatalf("flagged = %v", flagged)
	}
}

// TestHistogramExemplars: ObserveExemplar attaches the trace ID to the
// latency bucket it lands in; plain Observe leaves no exemplar; merge is
// last-write-wins on the non-zero side.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	h.Observe(time.Millisecond)
	h.ObserveExemplar(time.Millisecond, 0xbeef)
	snap := reg.Snapshot()
	hs, ok := snap.Histograms["lat"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	found := false
	for i, e := range hs.Exemplars {
		if e == 0xbeef {
			found = true
			if hs.Buckets[i] == 0 {
				t.Fatal("exemplar attached to an empty bucket")
			}
		}
	}
	if !found {
		t.Fatalf("exemplar not attached: %v", hs.Exemplars)
	}
}
