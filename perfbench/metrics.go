package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// opClass names what one timed facade call did.
type opClass uint8

const (
	opRead    opClass = iota // whole-file read of an existing file
	opWrite                  // whole-file overwrite
	opCreate                 // whole-file write of a new path
	opStat                   //
	opReadDir                //
	opUnlink                 //
	opCollect                // an explicit garbage-collection pass
)

var opClassNames = [...]string{"read", "write", "create", "stat", "readdir", "unlink", "collect"}

// latency groups of the end-to-end metrics.
type latGroup uint8

const (
	groupRead latGroup = iota
	groupWrite
	groupMeta
	groupShare
	groupNone
	numGroups = groupNone
)

func (c opClass) group() latGroup {
	switch c {
	case opRead:
		return groupRead
	case opWrite:
		return groupWrite
	case opCreate, opStat, opReadDir, opUnlink:
		return groupMeta
	default:
		return groupNone
	}
}

// sample is one completed op (or one share round) of a closed loop.
type sample struct {
	lat     time.Duration
	bytes   int64 // payload moved by a read or write
	group   latGroup
	counted bool // a workload op, as opposed to a probe or a share round
}

// results is what one closed-loop client measured. Merge combines clients.
type results struct {
	samples    []sample
	attempted  int64
	failed     int64         // errors plus wrong content
	wrong      int64         // ops that returned without error but with wrong content
	written    int64         // acknowledged payload bytes of every write
	harnessCPU time.Duration // CPU of the benchmark's own input generation and checks
	firstErrs  []string      // the first few failures, for the detail line
}

func (r *results) merge(o *results) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.written += o.written
	r.harnessCPU += o.harnessCPU
	for _, e := range o.firstErrs {
		r.noteErr(e)
	}
}

const maxNotedErrs = 4

func (r *results) noteErr(msg string) {
	if len(r.firstErrs) < maxNotedErrs {
		r.firstErrs = append(r.firstErrs, msg)
	}
}

// done records one finished op that moved bytes of payload. counted says
// whether it is a workload op (probes only feed their latency group); ok is
// false when the op returned but its result does not match the last
// acknowledged write. Such an op counts as failed and also makes the run
// incorrect.
func (r *results) done(class opClass, d time.Duration, err error, ok, counted bool, bytes int64) {
	r.attempted++
	if err != nil {
		r.noteErr(opClassNames[class] + ": " + err.Error())
	} else if !ok {
		r.wrong++
		r.noteErr(opClassNames[class] + ": content differs from the last acknowledged write")
	}
	if err != nil || !ok {
		r.failed++
		return
	}
	if class == opWrite || class == opCreate {
		r.written += bytes
	}
	if g := class.group(); g != groupNone {
		r.samples = append(r.samples, sample{lat: d, bytes: bytes, group: g, counted: counted})
	}
}

// shared records a share round of length d: from a write call on one mount
// to the return of the read of the same bytes on another, once that read is
// verified.
func (r *results) shared(d time.Duration) {
	r.samples = append(r.samples, sample{lat: d, group: groupShare})
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs must be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU runs fn on a locked OS thread and returns the CPU time that
// thread spent in it.
func threadCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := rusage(rusageThread)
	fn()
	return rusage(rusageThread) - t0
}

// goCounters are the Go runtime figures the traced run reports.
type goCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoCounters() goCounters {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return goCounters{
		allocBytes:   uint64(val(0)),
		allocObjects: uint64(val(1)),
		gcCPU:        val(2),
		totalCPU:     val(3),
	}
}

// version is one acceptable content of a path: what the last acknowledged
// write left there, or a deletion.
type version struct {
	sum     [32]byte
	size    int64
	deleted bool
}

// expectation tracks what reads of one path may return. After a failed
// write or unlink the outcome is unknown, so both the old and the new
// content stay acceptable until the next acknowledged write.
type expectation []version

func (e expectation) matches(data []byte) bool {
	sum, size := sha256.Sum256(data), int64(len(data))
	for _, v := range e {
		if !v.deleted && v.sum == sum && v.size == size {
			return true
		}
	}
	return false
}

func (e expectation) mayBeDeleted() bool {
	for _, v := range e {
		if v.deleted {
			return true
		}
	}
	return false
}

func (e expectation) mayExist() bool {
	for _, v := range e {
		if !v.deleted {
			return true
		}
	}
	return false
}

// settle returns the expectation after a write or unlink of v: exactly v
// when it was acknowledged, v added to the candidates when it failed.
func (e expectation) settle(v version, acked bool) expectation {
	if acked {
		return expectation{v}
	}
	return append(e, v)
}

// fill writes deterministic pseudo-random bytes derived from seed into b
// (splitmix64), much faster than math/rand, so generating inputs costs
// little of the measured CPU.
func fill(b []byte, seed uint64) {
	x := seed
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		b[i], b[i+1], b[i+2], b[i+3] = byte(z), byte(z>>8), byte(z>>16), byte(z>>24)
		b[i+4], b[i+5], b[i+6], b[i+7] = byte(z>>32), byte(z>>40), byte(z>>48), byte(z>>56)
	}
	for ; i < len(b); i++ {
		x += 0x9e3779b97f4a7c15
		b[i] = byte(x >> 56)
	}
}
