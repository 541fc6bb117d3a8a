// Command perfbench is the mount-level SCFS benchmark. It drives one of three
// workloads through the public facade over simulated clouds and a
// four-replica BFT coordination group, checks every read against the last
// acknowledged write, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload smallfile-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced for half the time and then with
// span-recording wrappers on every layer for the other half, and reports the
// per-layer metrics of the traced half together with the tracing overhead.
// run.sh builds and runs it; BENCHMARK.json is the metric contract and
// DESIGN.md records the choices behind it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: smallfile-mix, bigfile-stream, share-wan or share-wan-ec")
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		work    = flag.String("workdir", ".bench_build/perfbench-work", "directory for caches and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// An untraced run sets the workload up at least minSetups times and until
// set-up has taken minSetupTime in all (at most maxSetups times), keeping
// the last; setup_s is the median. Cheap set-ups thus get more repetitions.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = time.Second
)

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, dur time.Duration, traced bool, work string) error {
	if _, err := newWorkload(name, seed); err != nil {
		return err
	}
	ctx := context.Background()
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(dir)

	if !traced {
		p, err := runPhase(ctx, name, seed, dur, true, nil, dir)
		if err != nil {
			return err
		}
		printDetail(name, "", p)
		return emit(endToEnd(p), p)
	}

	plain, err := runPhase(ctx, name, seed, dur/2, false, nil, dir)
	if err != nil {
		return err
	}
	t := newTracer(spanCapacity)
	tp, err := runPhase(ctx, name, seed, dur/2, false, t, dir)
	if err != nil {
		return err
	}
	layers := perLayer(tp, plain)
	spanFile := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(spanFile, tp.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tp.spans), spanFile)
	printDetail(name, "untraced", plain)
	printDetail(name, "traced", tp)
	return emit(layers, plain, tp)
}

// spanCapacity sizes the traced run's span buffer (48 bytes a span) to hold
// every call of a traced half at the rates these workloads reach, about ten
// times what smallfile-mix records in 30 s; trace.spans_dropped reports an
// overflow.
const spanCapacity = 1 << 19

// phase is one measured closed-loop run and everything sampled around it.
type phase struct {
	setups    []float64 // seconds per set-up
	res       *results
	wall      time.Duration
	cpu       time.Duration
	bytesUp   int64
	dollars   float64
	cache     cacheCounts
	gc        goCounters // deltas over the measured window
	spans     []span     // traced run only: spans inside the measured window
	winStart  int64
	winEnd    int64
	shares    map[string]float64
	dropped   int64
	verifyErr error
}

type cacheCounts struct{ memHit, memMiss, diskHit, diskMiss, metaHit, metaMiss int64 }

func cacheStats(st *stack) cacheCounts {
	var c cacheCounts
	for _, m := range st.mounts {
		if m.closed {
			continue
		}
		s := m.fs.Stats()
		c.memHit += s.MemCacheHits
		c.memMiss += s.MemCacheMisses
		c.diskHit += s.DiskCacheHits
		c.diskMiss += s.DiskCacheMisses
		c.metaHit += s.MetaCacheHits
		c.metaMiss += s.MetaCacheMisses
	}
	return c
}

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{a.memHit - b.memHit, a.memMiss - b.memMiss, a.diskHit - b.diskHit,
		a.diskMiss - b.diskMiss, a.metaHit - b.metaHit, a.metaMiss - b.metaMiss}
}

// runPhase sets the workload up (repeatedly when repeat is set, keeping the
// last), measures its closed loop for dur, then unmounts and verifies every
// acknowledged path through a fresh mount. Set-up and unmount errors abort
// the run; op errors are counted.
func runPhase(ctx context.Context, name string, seed int64, dur time.Duration, repeat bool, t *tracer, dir string) (*phase, error) {
	p := &phase{}
	var (
		w     workload
		st    *stack
		spent time.Duration
	)
	for i := 0; i == 0 || repeat && i < maxSetups && (i < minSetups || spent < minSetupTime); i++ {
		if st != nil {
			if err := st.close(ctx); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		w, _ = newWorkload(name, seed)
		start := time.Now()
		var err error
		st, err = newStack(w.config(), seed, t, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err == nil {
			err = w.setup(ctx, st)
		}
		if err != nil {
			if st != nil {
				st.close(ctx)
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		p.setups = append(p.setups, took.Seconds())
	}
	defer st.close(ctx)

	var prof bytes.Buffer
	if t != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		p.winStart = t.now()
	}
	usage0, cache0, gc0, cpu0 := st.usage(), cacheStats(st), readGoCounters(), cpuTime()
	start := time.Now()
	p.res = w.run(ctx, t, start.Add(dur))
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	gc1 := readGoCounters()
	p.cache = cacheStats(st).sub(cache0)
	p.bytesUp, p.dollars = usageDelta(usage0, st.usage())
	p.gc = goCounters{
		allocBytes:   gc1.allocBytes - gc0.allocBytes,
		allocObjects: gc1.allocObjects - gc0.allocObjects,
		gcCPU:        gc1.gcCPU - gc0.gcCPU,
		totalCPU:     gc1.totalCPU - gc0.totalCPU,
	}
	if t != nil {
		p.winEnd = t.now()
		pprof.StopCPUProfile()
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
		p.shares = shares
		spans := t.stop()
		p.dropped = t.dropped.Load()
		for _, s := range spans {
			if s.start >= p.winStart && s.end <= p.winEnd {
				p.spans = append(p.spans, s)
			}
		}
	}

	// Unmount the workload's clients, let the clouds' consistency windows
	// pass (share-wan-ec measures their effect on reads right after a close;
	// this check is about durability), then verify.
	for _, m := range st.mounts {
		if err := m.close(ctx); err != nil {
			return nil, fmt.Errorf("unmounting: %w", err)
		}
	}
	time.Sleep(st.maxWindow())
	p.verifyErr = verify(ctx, st, w.expected())
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary groups a run's samples for the percentile metrics.
type summary struct {
	lat  [numGroups][]float64 // sorted milliseconds
	mbps [numGroups][]float64 // sorted per-op payload MB/s
	ops  int64
}

func summarize(samples []sample) summary {
	var w summary
	for _, s := range samples {
		w.lat[s.group] = append(w.lat[s.group], ms(s.lat))
		if s.bytes > 0 && s.lat > 0 {
			w.mbps[s.group] = append(w.mbps[s.group], float64(s.bytes)/1e6/s.lat.Seconds())
		}
		if s.counted {
			w.ops++
		}
	}
	for g := range w.lat {
		sort.Float64s(w.lat[g])
		sort.Float64s(w.mbps[g])
	}
	return w
}

// pct returns the q-quantile of xs, 0 when there are no samples.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, q)
}

// ungated are metrics of a phase that are reported but not gated by a
// bound: the tail percentiles and the closed loop's op rate. On a host whose
// hypervisor steals CPU in bursts they vary between runs by more than any
// bound allows (see DESIGN.md).
func ungated(p *phase) map[string]metric {
	w := summarize(p.res.samples)
	return map[string]metric{
		"ops_per_s":    {float64(w.ops) / p.wall.Seconds(), "1/s"},
		"read_p99_ms":  {pct(w.lat[groupRead], 0.99), "ms"},
		"write_p99_ms": {pct(w.lat[groupWrite], 0.99), "ms"},
		"meta_p99_ms":  {pct(w.lat[groupMeta], 0.99), "ms"},
		"share_p90_ms": {pct(w.lat[groupShare], 0.90), "ms"},
	}
}

// endToEnd computes the end-to-end metrics of a phase.
func endToEnd(p *phase) map[string]metric {
	r := p.res
	w := summarize(r.samples)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	ops := float64(max(w.ops, 1))
	put("setup_s", "s", median(p.setups))
	put("read_p50_ms", "ms", pct(w.lat[groupRead], 0.50))
	put("write_p50_ms", "ms", pct(w.lat[groupWrite], 0.50))
	put("meta_p50_ms", "ms", pct(w.lat[groupMeta], 0.50))
	put("share_p50_ms", "ms", pct(w.lat[groupShare], 0.50))
	put("write_MBps", "MB/s", pct(w.mbps[groupWrite], 0.50))
	put("read_MBps", "MB/s", pct(w.mbps[groupRead], 0.50))
	put("cpu_ms_per_op", "ms", ms(p.cpu-r.harnessCPU)/ops)
	put("cloud_bytes_per_byte", "B/B", float64(p.bytesUp)/float64(max(r.written, 1)))
	put("usd_per_1k_ops", "USD", p.dollars*1000/ops)
	put("ok_ratio", "ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	return m
}

// emit prints the result line. The run is correct when every phase's final
// check passed and no op returned wrong content; attempted and failed sum
// over the phases.
func emit(metrics map[string]metric, phases ...*phase) error {
	out := output{Correct: true, Metrics: metrics}
	for _, p := range phases {
		out.Attempted += p.res.attempted
		out.Failed += p.res.failed
		if p.res.wrong > 0 {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %d ops returned wrong content\n", p.res.wrong)
		}
		if p.verifyErr != nil {
			out.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: final check failed:", p.verifyErr)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printDetail prints the sample count behind every latency metric and the
// phase's raw totals on one line above the result; half names the half of a
// traced run.
func printDetail(name, half string, p *phase) {
	r := p.res
	w := summarize(r.samples)
	detail := map[string]any{
		"workload": name,
		"samples": map[string]int{
			"read": len(w.lat[groupRead]), "write": len(w.lat[groupWrite]),
			"meta": len(w.lat[groupMeta]), "share": len(w.lat[groupShare]),
		},
		"ops":           w.ops,
		"attempted":     r.attempted,
		"failed":        r.failed,
		"wrong":         r.wrong,
		"error_ratio":   float64(r.failed) / float64(max(r.attempted, 1)),
		"wall_s":        p.wall.Seconds(),
		"cpu_s":         p.cpu.Seconds(),
		"harness_cpu_s": r.harnessCPU.Seconds(),
		"setups_s":      p.setups,
		"ungated":       ungated(p),
	}
	if half != "" {
		detail["half"] = half
	}
	if len(r.firstErrs) > 0 {
		detail["first_errors"] = r.firstErrs
	}
	if p.verifyErr != nil {
		detail["verify_error"] = p.verifyErr.Error()
	}
	line, _ := json.Marshal(map[string]any{"detail": detail})
	fmt.Println(string(line))
}
