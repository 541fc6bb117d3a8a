package telemetry

import (
	"slices"
	"sort"
)

// The Tracer's trace store. Finished traces are retained in three classes
// so the evidence survives the traffic that produced it:
//
//   - recent: the last recentTraces traces, across all op classes;
//   - slowest: per op class (Trace.Op), the slowTraces slowest unflagged
//     traces seen so far;
//   - flagged: per op class, the last flaggedTraces *flagged* traces —
//     errored, breaker-skipped, or in flight across a replica-group view
//     change — regardless of speed.
//
// One trace may sit in several classes (the newest trace is both recent
// and, often, a slow exemplar) but is charged once. Memory is bounded twice
// over: each trace caps its own span count (maxTraceSpans), and the store
// holds at most spanBudget spans across everything it retains. When an
// admission exceeds the budget the least interesting memberships go first:
// the oldest recent trace, then the fastest slow exemplar anywhere, then
// the oldest flagged trace. The newest trace is never evicted, so the
// budget yields only to a single trace that alone exceeds it.

// Retention sizes: 64 recent traces, 8 slowest and 32 flagged traces per
// op class, 16384 retained spans overall (~2 MiB of spans at ~128 B each).
const (
	recentTraces  = 64
	slowTraces    = 8
	flaggedTraces = 32
	spanBudget    = 16384
)

// retention sizes one Tracer's store; tests shrink it through newTracer.
type retention struct {
	recent, slow, flagged, spans int
}

// traceClass is one op class's exemplars.
type traceClass struct {
	// slow is sorted ascending by duration: slow[0] is the fastest
	// retained exemplar, the first to go when a slower one arrives.
	slow []*Trace
	// flagged is FIFO, oldest first.
	flagged []*Trace
}

// traceCost is the span-budget cost of retaining t. The +1 charges the
// trace itself, so span-free traces still consume budget.
func traceCost(t *Trace) int { return t.SpanCount() + 1 }

// holdLocked adds one class membership of t, charging its spans on the
// first.
func (tr *Tracer) holdLocked(t *Trace) {
	if t.holds == 0 {
		tr.spans += traceCost(t)
		tr.admitted++
	}
	t.holds++
}

// releaseLocked drops one class membership of t, refunding its spans on
// the last.
func (tr *Tracer) releaseLocked(t *Trace) {
	t.holds--
	if t.holds == 0 {
		tr.spans -= traceCost(t)
		tr.evicted++
	}
}

// retainLocked files one finished trace into the store.
func (tr *Tracer) retainLocked(t *Trace) {
	tr.seen++
	if tr.nrecent == len(tr.recent) {
		tr.popRecentLocked()
	}
	tr.recent[(tr.head+tr.nrecent)%len(tr.recent)] = t
	tr.nrecent++
	tr.holdLocked(t)

	c := tr.classes[t.Op]
	if c == nil {
		c = &traceClass{}
		tr.classes[t.Op] = c
	}
	if t.Flagged() {
		if len(c.flagged) >= tr.limits.flagged {
			tr.releaseLocked(c.flagged[0])
			c.flagged = slices.Delete(c.flagged, 0, 1)
		}
		c.flagged = append(c.flagged, t)
		tr.holdLocked(t)
	} else if dur := t.Duration(); len(c.slow) < tr.limits.slow || dur > c.slow[0].Duration() {
		if len(c.slow) >= tr.limits.slow {
			tr.releaseLocked(c.slow[0])
			c.slow = slices.Delete(c.slow, 0, 1)
		}
		i := sort.Search(len(c.slow), func(i int) bool { return c.slow[i].Duration() > dur })
		c.slow = slices.Insert(c.slow, i, t)
		tr.holdLocked(t)
	}
	for tr.spans > tr.limits.spans && tr.evictLocked() {
	}
}

// popRecentLocked drops the oldest recent trace.
func (tr *Tracer) popRecentLocked() {
	tr.releaseLocked(tr.recent[tr.head])
	tr.recent[tr.head] = nil
	tr.head = (tr.head + 1) % len(tr.recent)
	tr.nrecent--
}

// evictLocked drops the least interesting membership: the oldest recent
// trace other than the newest, else the fastest slow exemplar anywhere,
// else the oldest flagged trace. It reports false when only the newest
// trace's recent membership is left.
func (tr *Tracer) evictLocked() bool {
	if tr.nrecent > 1 {
		tr.popRecentLocked()
		return true
	}
	var victim *traceClass
	for _, c := range tr.classes {
		if len(c.slow) > 0 && (victim == nil || c.slow[0].Duration() < victim.slow[0].Duration()) {
			victim = c
		}
	}
	if victim != nil {
		tr.releaseLocked(victim.slow[0])
		victim.slow = slices.Delete(victim.slow, 0, 1)
		return true
	}
	for _, c := range tr.classes {
		if len(c.flagged) > 0 && (victim == nil || c.flagged[0].Start.Before(victim.flagged[0].Start)) {
			victim = c
		}
	}
	if victim != nil {
		tr.releaseLocked(victim.flagged[0])
		victim.flagged = slices.Delete(victim.flagged, 0, 1)
		return true
	}
	return false
}

// Recent returns up to n retained recent traces, newest first (n <= 0
// means all). Nil-safe.
func (tr *Tracer) Recent(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > tr.nrecent {
		n = tr.nrecent
	}
	out := make([]*Trace, n)
	for i := range out {
		out[i] = tr.recent[(tr.head+tr.nrecent-1-i)%len(tr.recent)]
	}
	return out
}

// Classes returns the op classes with retained slow or flagged exemplars,
// sorted.
func (tr *Tracer) Classes() []string {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, 0, len(tr.classes))
	for k, c := range tr.classes {
		if len(c.slow)+len(c.flagged) > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Slowest returns the retained slow exemplars of one op class, slowest
// first.
func (tr *Tracer) Slowest(class string) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if c := tr.classes[class]; c != nil {
		return reversed(c.slow)
	}
	return nil
}

// Flagged returns the retained flagged exemplars of one op class, newest
// first.
func (tr *Tracer) Flagged(class string) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if c := tr.classes[class]; c != nil {
		return reversed(c.flagged)
	}
	return nil
}

// reversed returns a reversed copy of ts.
func reversed(ts []*Trace) []*Trace {
	out := slices.Clone(ts)
	slices.Reverse(out)
	return out
}

// FlightStats summarizes a Tracer's retention activity.
type FlightStats struct {
	// Seen counts every finished trace.
	Seen int64 `json:"seen"`
	// Admitted counts traces that were retained (some later evicted).
	Admitted int64 `json:"admitted"`
	// Evicted counts retained traces later dropped from every class.
	Evicted int64 `json:"evicted"`
	// Retained is the number of traces held right now.
	Retained int `json:"retained"`
	// Spans is the span-budget consumption right now.
	Spans int `json:"spans"`
	// SpanBudget is the global span budget.
	SpanBudget int `json:"span_budget"`
}

// Stats returns the store's activity counters.
func (tr *Tracer) Stats() FlightStats {
	if tr == nil {
		return FlightStats{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return FlightStats{
		Seen:       tr.seen,
		Admitted:   tr.admitted,
		Evicted:    tr.evicted,
		Retained:   int(tr.admitted - tr.evicted),
		Spans:      tr.spans,
		SpanBudget: tr.limits.spans,
	}
}
