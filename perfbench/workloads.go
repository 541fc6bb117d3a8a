package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"scfs"
)

// workload is one benchmark input: how its back end is simulated, what set-up
// preloads, the closed loop its clients run, and what every acknowledged
// path must hold afterwards.
type workload interface {
	config() stackConfig
	// setup mounts the workload's clients on st and preloads its files.
	setup(ctx context.Context, st *stack) error
	// run drives the closed loop until the deadline passes; ops in flight
	// finish.
	run(ctx context.Context, t *tracer, deadline time.Time) *results
	// expected returns what every path the workload touched must hold.
	expected() map[string]expectation
}

var workloadNames = []string{"smallfile-mix", "bigfile-stream", "share-wan", "share-wan-ec"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "smallfile-mix":
		return &smallfileMix{seed: seed}, nil
	case "bigfile-stream":
		return &bigfileStream{seed: seed}, nil
	case "share-wan":
		return &shareWAN{seed: seed}, nil
	case "share-wan-ec":
		return &shareWAN{seed: seed, windows: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// client is one closed-loop load generator.
type client struct {
	t   *tracer
	res results
	rng *rand.Rand
	end time.Time // when the last timed call returned
}

// call runs fn as one timed op of class, carrying the op's trace ID.
func (c *client) call(ctx context.Context, class opClass, fn func(context.Context) error) (time.Duration, error) {
	octx, id, tstart := c.t.beginOp(ctx)
	start := time.Now()
	err := fn(octx)
	c.end = time.Now()
	c.t.endOp(id, class, tstart, err)
	return c.end.Sub(start), err
}

// harness runs fn, the benchmark's own input generation or checking around
// an op, and books its CPU apart from the system's.
func (c *client) harness(fn func()) { c.res.harnessCPU += threadCPU(fn) }

// write stores data at path through m and records the op.
func (c *client) write(ctx context.Context, m *mount, class opClass, path string, data []byte, exp expectation) (expectation, bool) {
	d, err := c.call(ctx, class, func(ctx context.Context) error { return scfs.WriteFile(ctx, m.fs, path, data) })
	c.res.done(class, d, err, true, true, int64(len(data)))
	var sum [32]byte
	c.harness(func() { sum = sha256.Sum256(data) })
	return exp.settle(version{sum: sum, size: int64(len(data))}, err == nil), err == nil
}

// read reads path through m, checks it against exp and records the op.
func (c *client) read(ctx context.Context, m *mount, path string, exp expectation) bool {
	var data []byte
	d, err := c.call(ctx, opRead, func(ctx context.Context) (err error) {
		data, err = scfs.ReadFile(ctx, m.fs, path)
		return err
	})
	ok := err == nil
	if ok {
		c.harness(func() { ok = exp.matches(data) })
	}
	c.res.done(opRead, d, err, ok, true, int64(len(data)))
	return ok
}

// stat checks path's size against exp; counted says whether it is a
// workload op or a probe.
func (c *client) stat(ctx context.Context, m *mount, path string, exp expectation, counted bool) {
	var fi scfs.FileInfo
	d, err := c.call(ctx, opStat, func(ctx context.Context) (err error) {
		fi, err = m.fs.Stat(ctx, path)
		return err
	})
	ok := false
	for _, v := range exp {
		ok = ok || (!v.deleted && v.size == fi.Size)
	}
	c.res.done(opStat, d, err, ok, counted, 0)
}

// seedFor derives an independent input seed for one generated item.
func seedFor(seed int64, parts ...int64) uint64 {
	x := uint64(seed) * 0x9e3779b97f4a7c15
	for _, p := range parts {
		x = (x ^ uint64(p)) * 0xbf58476d1ce4e5b9
		x ^= x >> 29
	}
	return x
}

// ---- smallfile-mix ----------------------------------------------------

// smallfile-mix: Filebench's fileserver personality (workloads/fileserver.f
// in the Filebench sources) on small files over zero-latency clouds, so every
// millisecond is program CPU on the metadata and small-file paths. Two
// clients, each with its own mount and its own half of the names, repeat the
// personality's flowop loop, in which each flowop runs once per iteration on
// a file picked at random:
//
//	createfile+writewholefile+closefile  → WriteFile of a free name (create)
//	openfile+appendfilerand+closefile    → WriteFile of a live name (overwrite)
//	openfile+readwholefile+closefile     → ReadFile of a live name
//	deletefile                           → Unlink of a live name
//	statfile                             → Stat of a live name
//
// SCFS uploads a file whole when it is closed, so an append costs a
// whole-file write; the overwrite stands for it. Two steps end each iteration
// that fileserver.f lacks: a ReadDir of a random directory, and a share round
// (an overwrite through the client's own mount, read back through the other
// client's), which gives share_p50_ms a value on this workload too.
const (
	sfDirs         = 8
	sfSlotsPerCl   = 128                     // names each client owns
	sfPreloadPerCl = sfSlotsPerCl * 80 / 100 // fileserver.f's prealloc=80
	sfMinSize      = 4 << 10
	sfMaxSize      = 64 << 10
	sfClients      = 2
)

type smallfileMix struct {
	seed   int64
	mounts []*mount
	state  [sfClients]map[string]expectation
	gen    [sfClients]int64 // write generation counters, for input seeds
}

func (w *smallfileMix) config() stackConfig { return stackConfig{} }

func sfPath(cl, slot int) string {
	return fmt.Sprintf("/d%d/c%d-%03d", slot%sfDirs, cl, slot)
}

func (w *smallfileMix) content(cl int, rng *rand.Rand) []byte {
	w.gen[cl]++
	b := make([]byte, sfMinSize+rng.Intn(sfMaxSize-sfMinSize+1))
	fill(b, seedFor(w.seed, int64(cl), w.gen[cl]))
	return b
}

func (w *smallfileMix) setup(ctx context.Context, st *stack) error {
	for i := 0; i < sfClients; i++ {
		m, err := st.mount(ctx)
		if err != nil {
			return err
		}
		w.mounts = append(w.mounts, m)
	}
	for d := 0; d < sfDirs; d++ {
		if err := w.mounts[0].fs.Mkdir(ctx, fmt.Sprintf("/d%d", d)); err != nil {
			return err
		}
	}
	for cl := 0; cl < sfClients; cl++ {
		w.state[cl] = make(map[string]expectation, sfSlotsPerCl)
		for slot := sfPreloadPerCl; slot < sfSlotsPerCl; slot++ {
			w.state[cl][sfPath(cl, slot)] = expectation{{deleted: true}}
		}
		rng := rand.New(rand.NewSource(int64(seedFor(w.seed, 1000+int64(cl)))))
		for slot := 0; slot < sfPreloadPerCl; slot++ {
			data := w.content(cl, rng)
			path := sfPath(cl, slot)
			if err := scfs.WriteFile(ctx, w.mounts[cl].fs, path, data); err != nil {
				return fmt.Errorf("preloading %s: %w", path, err)
			}
			w.state[cl][path] = expectation{{sum: sha256.Sum256(data), size: int64(len(data))}}
		}
	}
	return nil
}

func (w *smallfileMix) run(ctx context.Context, t *tracer, deadline time.Time) *results {
	clients := make([]*client, sfClients)
	var wg sync.WaitGroup
	for cl := range clients {
		clients[cl] = &client{t: t, rng: rand.New(rand.NewSource(int64(seedFor(w.seed, 2000+int64(cl)))))}
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			w.loop(ctx, cl, clients[cl], deadline)
		}(cl)
	}
	wg.Wait()
	total := &results{}
	for _, c := range clients {
		total.merge(&c.res)
	}
	return total
}

// loop runs client cl's iterations of the flowop loop until the deadline.
// Creates and unlinks alternate, so the number of live files stays at the
// preloaded count.
func (w *smallfileMix) loop(ctx context.Context, cl int, c *client, deadline time.Time) {
	own, other := w.mounts[cl], w.mounts[(cl+1)%sfClients]
	state := w.state[cl]
	var live, free []int
	for slot := 0; slot < sfSlotsPerCl; slot++ {
		if state[sfPath(cl, slot)].mayExist() {
			live = append(live, slot)
		} else {
			free = append(free, slot)
		}
	}
	pick := func(s []int) (int, string) { i := c.rng.Intn(len(s)); return i, sfPath(cl, s[i]) }
	next := func() (b []byte) {
		c.harness(func() { b = w.content(cl, c.rng) })
		return b
	}
	for time.Now().Before(deadline) && ctx.Err() == nil && len(live) > 0 {
		if len(free) > 0 {
			i, path := pick(free)
			var acked bool
			state[path], acked = c.write(ctx, own, opCreate, path, next(), state[path])
			if acked {
				live = append(live, free[i])
				free = append(free[:i], free[i+1:]...)
			}
		}

		_, path := pick(live)
		state[path], _ = c.write(ctx, own, opWrite, path, next(), state[path])

		_, path = pick(live)
		c.read(ctx, own, path, state[path])

		i, path := pick(live)
		d, err := c.call(ctx, opUnlink, func(ctx context.Context) error { return own.fs.Unlink(ctx, path) })
		c.res.done(opUnlink, d, err, true, true, 0)
		state[path] = state[path].settle(version{deleted: true}, err == nil)
		if err == nil {
			free = append(free, live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if len(live) == 0 {
			break
		}

		_, path = pick(live)
		c.stat(ctx, own, path, state[path], true)

		w.readDir(ctx, c, own, cl, c.rng.Intn(sfDirs), live)

		_, path = pick(live)
		start := time.Now()
		var acked bool
		state[path], acked = c.write(ctx, own, opWrite, path, next(), state[path])
		if acked && c.read(ctx, other, path, state[path]) {
			c.res.shared(c.end.Sub(start))
		}
	}
}

// readDir lists directory d and checks that the client's own names in it
// are exactly its live files there (the other client's names change
// concurrently and are not checked).
func (w *smallfileMix) readDir(ctx context.Context, c *client, m *mount, cl, d int, live []int) {
	dir := fmt.Sprintf("/d%d", d)
	var infos []scfs.FileInfo
	dur, err := c.call(ctx, opReadDir, func(ctx context.Context) (err error) {
		infos, err = m.fs.ReadDir(ctx, dir)
		return err
	})
	ok := err == nil
	if ok {
		prefix := fmt.Sprintf("c%d-", cl)
		seen := make(map[string]bool)
		for _, fi := range infos {
			if strings.HasPrefix(fi.Name, prefix) {
				seen[dir+"/"+fi.Name] = true
			}
		}
		for _, slot := range live {
			if slot%sfDirs == d {
				ok = ok && seen[sfPath(cl, slot)]
			}
		}
		// A name listed beyond the live ones is only fine while an
		// unacknowledged unlink leaves it in doubt.
		for path := range seen {
			exp := w.state[cl][path]
			ok = ok && exp.mayExist()
		}
	}
	c.res.done(opReadDir, dur, err, ok, true, 0)
}

func (w *smallfileMix) expected() map[string]expectation {
	out := make(map[string]expectation)
	for _, s := range w.state {
		for p, e := range s {
			out[p] = e
		}
	}
	return out
}

// ---- bigfile-stream ---------------------------------------------------

// bigfile-stream: a writer mount streams 32 MiB files in with WriteFileFrom;
// a second mount with cold caches reads each back with readahead, and the
// bytes are compared with the input. Each round writes fresh bytes, so no
// cache can serve the read. Rounds alternate between two paths and an
// explicit garbage-collection pass reclaims the overwritten version, which
// keeps the simulated clouds' memory bounded.
const (
	bfSize      = 32 << 20
	bfPaths     = 2
	bfReadahead = 4
)

type bigfileStream struct {
	seed   int64
	w, r   *mount
	state  map[string]expectation
	rounds int64
	// in holds the round's input and out what the reader got back. Both are
	// filled and checked outside the timed calls, and their CPU is booked to
	// the harness.
	in, out []byte
}

func (w *bigfileStream) config() stackConfig { return stackConfig{} }

func (w *bigfileStream) setup(ctx context.Context, st *stack) error {
	var err error
	if w.w, err = st.mount(ctx); err != nil {
		return err
	}
	if w.r, err = st.mount(ctx); err != nil {
		return err
	}
	w.state = make(map[string]expectation, bfPaths)
	w.in, w.out = make([]byte, bfSize), make([]byte, 0, bfSize)
	if err := w.w.fs.Mkdir(ctx, "/big"); err != nil {
		return err
	}
	// Write every path once, so each measured round overwrites a file.
	for i := int64(0); i < bfPaths; i++ {
		path := bfPath(i)
		fill(w.in, seedFor(w.seed, -1-i))
		if _, err := scfs.WriteFileFrom(ctx, w.w.fs, path, bytes.NewReader(w.in)); err != nil {
			return fmt.Errorf("preloading %s: %w", path, err)
		}
		w.state[path] = expectation{{sum: sha256.Sum256(w.in), size: bfSize}}
	}
	return nil
}

func bfPath(round int64) string { return fmt.Sprintf("/big/f%d", round%bfPaths) }

func (w *bigfileStream) run(ctx context.Context, t *tracer, deadline time.Time) *results {
	c := &client{t: t}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		w.rounds++
		path := bfPath(w.rounds)
		var sum [32]byte
		c.harness(func() {
			fill(w.in, seedFor(w.seed, w.rounds))
			sum = sha256.Sum256(w.in) // for the final check by a fresh mount
		})
		start := time.Now()
		d, err := c.call(ctx, opWrite, func(ctx context.Context) error {
			_, err := scfs.WriteFileFrom(ctx, w.w.fs, path, bytes.NewReader(w.in))
			return err
		})
		c.res.done(opWrite, d, err, true, true, bfSize)
		w.state[path] = w.state[path].settle(version{sum: sum, size: bfSize}, err == nil)
		if err != nil {
			continue
		}

		out := bytes.NewBuffer(w.out[:0])
		d, err = c.call(ctx, opRead, func(ctx context.Context) error {
			_, err := scfs.ReadFileTo(ctx, w.r.fs, path, out, scfs.WithReadahead(bfReadahead))
			return err
		})
		shared := c.end.Sub(start)
		w.out = out.Bytes()
		ok := err == nil
		if ok {
			c.harness(func() { ok = bytes.Equal(w.out, w.in) })
		}
		c.res.done(opRead, d, err, ok, true, int64(len(w.out)))
		if ok {
			c.res.shared(shared)
		}
		c.stat(ctx, w.r, path, w.state[path], false)

		d, err = c.call(ctx, opCollect, func(ctx context.Context) error {
			_, err := w.w.fs.Collect(ctx)
			return err
		})
		c.res.done(opCollect, d, err, true, false, 0)
	}
	return &c.res
}

func (w *bigfileStream) expected() map[string]expectation { return w.state }

// ---- share-wan --------------------------------------------------------

// share-wan: the paper's sharing-latency experiment. One writer and one
// reader mount in a closed loop over clouds with scaled wide-area latency,
// and a replica group with a per-message delay. The writer overwrites a
// 16 KiB file, the reader reads it and checks the bytes; a stat probe by the
// reader follows each round.
//
// share-wan-ec is the same loop with the clouds' scaled eventual-consistency
// windows kept. It reproduces a known defect: some reads right after the
// writer's close fail with "could not read from enough clouds". Those
// failures come and go with timing, and BENCHMARK.json lists only
// workloads on which no op fails, so it is run by hand; DESIGN.md has the
// details.
const (
	swSize         = 16 << 10
	swPaths        = 16
	swLatencyScale = 0.05
	swSMRDelay     = 500 * time.Microsecond
)

type shareWAN struct {
	seed    int64
	windows bool // keep the clouds' consistency windows (share-wan-ec)
	w, r    *mount
	state   map[string]expectation
	rounds  int64
}

func (w *shareWAN) config() stackConfig {
	return stackConfig{wan: true, latencyScale: swLatencyScale, windows: w.windows, smrDelay: swSMRDelay}
}

func (w *shareWAN) setup(ctx context.Context, st *stack) error {
	var err error
	if w.w, err = st.mount(ctx); err != nil {
		return err
	}
	if w.r, err = st.mount(ctx); err != nil {
		return err
	}
	w.state = make(map[string]expectation, swPaths)
	if err := w.w.fs.Mkdir(ctx, "/share"); err != nil {
		return err
	}
	// Write every path once, so each measured round overwrites a file.
	for i := int64(0); i < swPaths; i++ {
		path := swPath(i)
		data := make([]byte, swSize)
		fill(data, seedFor(w.seed, -1-i))
		if err := scfs.WriteFile(ctx, w.w.fs, path, data); err != nil {
			return fmt.Errorf("preloading %s: %w", path, err)
		}
		w.state[path] = expectation{{sum: sha256.Sum256(data), size: swSize}}
	}
	return nil
}

func swPath(round int64) string { return fmt.Sprintf("/share/f%02d", round%swPaths) }

func (w *shareWAN) run(ctx context.Context, t *tracer, deadline time.Time) *results {
	c := &client{t: t}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		w.rounds++
		path := swPath(w.rounds)
		var data []byte
		c.harness(func() {
			data = make([]byte, swSize)
			fill(data, seedFor(w.seed, w.rounds))
		})
		start := time.Now()
		var acked bool
		w.state[path], acked = c.write(ctx, w.w, opWrite, path, data, w.state[path])
		if !acked {
			continue
		}
		if c.read(ctx, w.r, path, w.state[path]) {
			c.res.shared(c.end.Sub(start))
		}
		c.stat(ctx, w.r, path, w.state[path], false)
	}
	return &c.res
}

func (w *shareWAN) expected() map[string]expectation { return w.state }

// verify mounts a fresh client over the same clouds and coordination and
// checks every path the workload touched: live paths must read back as the
// last acknowledged write, deleted ones must be gone.
func verify(ctx context.Context, st *stack, exp map[string]expectation) error {
	m, err := st.mount(ctx)
	if err != nil {
		return fmt.Errorf("mounting verifier: %w", err)
	}
	defer m.close(ctx)
	for path, e := range exp {
		data, err := scfs.ReadFile(ctx, m.fs, path)
		switch {
		case err == nil && e.matches(data):
		case errors.Is(err, scfs.ErrNotExist) && e.mayBeDeleted():
		case err != nil:
			return fmt.Errorf("verify %s: %w", path, err)
		default:
			return fmt.Errorf("verify %s: content differs from the last acknowledged write", path)
		}
	}
	return nil
}
