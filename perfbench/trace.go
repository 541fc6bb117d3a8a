package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scfs/internal/cloudsim"
)

// The traced run records one span per call into each layer's public
// interface, from the benchmark's own wrappers (see wrap.go). Spans live in
// a buffer allocated before the run and are written out when it ends.

type spanKind uint8

const (
	kindOp    spanKind = iota // one facade call made by a benchmark client
	kindCoord                 // one coord.Service call
	kindSMR                   // one invocation below the smr.Coalescer
	kindCloud                 // one cloud.ObjectStore call
)

var kindNames = [...]string{kindOp: "op", kindCoord: "coord", kindSMR: "smr", kindCloud: "cloud"}

// Span outcomes.
const (
	outOK        uint8 = iota
	outCancelled       // context cancelled: a quorum loser
	outFailed
	outConflict // coord.ErrConflict or coord.ErrLockHeld
)

var outNames = [...]string{"ok", "cancelled", "failed", "conflict"}

// span is one recorded call. Times are nanoseconds since the tracer's epoch.
// For cloud spans up/down are payload bytes; for smr spans the request and
// reply sizes; n is the record count of a coord listing or the number of
// operations in an smr invocation.
type span struct {
	start, end int64
	up, down   int64
	op         uint32 // benchmark op ID; 0 when the call carried none
	n          int32
	kind       spanKind
	name       uint8 // index into the kind's name table
	out        uint8
	cloud      uint8 // provider index for cloud spans
}

func (s span) dur() int64 { return s.end - s.start }

type opKey struct{}

// tracer owns the span buffer. A nil *tracer is the untraced run: every
// method is a no-op and contexts are passed through unchanged.
type tracer struct {
	epoch time.Time
	// mu is held shared by every add and exclusively by stop, so the buffer
	// is not written once stop returns, though quorum losers cancelled by
	// an op that already returned may still finish their calls.
	mu      sync.RWMutex
	stopped bool
	buf     []span
	next    atomic.Int64
	dropped atomic.Int64
	ops     atomic.Uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.stopped {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = s
}

// stop ends recording and returns the recorded spans.
func (t *tracer) stop() []span {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
	n := t.next.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// beginOp gives an op its ID and carries it on the context, so the spans of
// the layers it calls into name it.
func (t *tracer) beginOp(ctx context.Context) (context.Context, uint32, int64) {
	if t == nil {
		return ctx, 0, 0
	}
	id := t.ops.Add(1)
	return context.WithValue(ctx, opKey{}, id), id, t.now()
}

func (t *tracer) endOp(id uint32, class opClass, start int64, err error) {
	if t == nil {
		return
	}
	out := outOK
	if err != nil {
		out = outFailed
	}
	t.add(span{start: start, end: t.now(), op: id, kind: kindOp, name: uint8(class), out: out})
}

func opFrom(ctx context.Context) uint32 {
	id, _ := ctx.Value(opKey{}).(uint32)
	return id
}

// writeSpans writes the spans as JSON lines. smr invocations run under the
// coalescer's detached context and carry no op ID; each is attached by time
// to the ops whose coord calls were in flight across the whole invocation.
func writeSpans(path string, spans []span) error {
	var coordSpans []span
	var maxCoord int64
	for _, s := range spans {
		if s.kind == kindCoord && s.op != 0 {
			coordSpans = append(coordSpans, s)
			maxCoord = max(maxCoord, s.dur())
		}
	}
	sort.Slice(coordSpans, func(i, j int) bool { return coordSpans[i].start < coordSpans[j].start })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	type line struct {
		Kind   string   `json:"kind"`
		Name   string   `json:"name"`
		Start  int64    `json:"start_ns"`
		End    int64    `json:"end_ns"`
		Op     uint32   `json:"op,omitempty"`
		Parent string   `json:"parent,omitempty"`
		Batch  []uint32 `json:"batch_ops,omitempty"`
		Out    string   `json:"outcome"`
		Cloud  string   `json:"cloud,omitempty"`
		Up     int64    `json:"up,omitempty"`
		Down   int64    `json:"down,omitempty"`
		N      int32    `json:"n,omitempty"`
	}
	for _, s := range spans {
		l := line{Kind: kindNames[s.kind], Start: s.start, End: s.end, Op: s.op, Out: outNames[s.out], Up: s.up, Down: s.down, N: s.n}
		switch s.kind {
		case kindOp:
			l.Name = opClassNames[s.name]
		case kindCoord:
			l.Name, l.Parent = coordNames[s.name], "op"
		case kindCloud:
			l.Name, l.Parent, l.Cloud = cloudNames[s.name], "op", providerName(int(s.cloud))
		case kindSMR:
			l.Name, l.Parent = "invoke", "coord"
			lo := sort.Search(len(coordSpans), func(i int) bool { return coordSpans[i].start >= s.start-maxCoord })
			for _, c := range coordSpans[lo:] {
				if c.start > s.start {
					break
				}
				if c.end >= s.end {
					l.Batch = append(l.Batch, c.op)
				}
			}
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [start, end) time range in tracer nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs clipped to [lo, hi]. It
// sorts ivs in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// providerName names the provider at index i of the stack's clouds.
func providerName(i int) string { return string(cloudsim.CoCKinds()[i]) }
