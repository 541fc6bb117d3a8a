package scfs_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scfs"
)

// TestCoordShardsMount: a mount whose namespace is partitioned across
// coordination shards behaves exactly like an unsharded one — including
// cross-directory renames, which may move metadata between shards.
func TestCoordShardsMount(t *testing.T) {
	m := mount(t, scfs.WithCoordShards(4))
	for _, dir := range []string{"/a", "/b"} {
		if err := m.Mkdir(bg, dir); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := scfs.WriteFile(bg, m, fmt.Sprintf("/a/f%d.txt", i), []byte(fmt.Sprintf("file %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := m.ReadDir(bg, "/a")
	if err != nil || len(infos) != 10 {
		t.Fatalf("ReadDir /a = %d entries, %v", len(infos), err)
	}
	// Rename across directories: with hash sharding the records move between
	// backends and nothing may be lost.
	if err := m.Rename(bg, "/a", "/b/sub"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := scfs.ReadFile(bg, m, fmt.Sprintf("/b/sub/f%d.txt", i))
		if err != nil || string(got) != fmt.Sprintf("file %d", i) {
			t.Fatalf("post-rename read f%d = %q, %v", i, got, err)
		}
	}
	if _, err := m.Stat(bg, "/a"); err == nil {
		t.Fatal("/a still present after rename")
	}
	if s := m.Stats(); s.CoordAccesses == 0 {
		t.Fatal("sharded mount reported zero coordination accesses")
	}
}

// TestPipelinedReplicatedMount: WithMaxInflight mounts over BFT-replicated
// coordination shards behind pipelined clients; concurrent sessions must not
// interfere, and unmounting must not leak the replica groups' goroutines.
func TestPipelinedReplicatedMount(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := scfs.New(bg,
		scfs.WithDiskCache(t.TempDir(), 0),
		scfs.WithCoordShards(2),
		scfs.WithMaxInflight(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir(bg, "/p"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/p/s%02d.txt", i)
			if err := scfs.WriteFile(bg, m, path, []byte(fmt.Sprintf("session %d", i))); err != nil {
				errs <- fmt.Errorf("write %s: %w", path, err)
				return
			}
			got, err := scfs.ReadFile(bg, m, path)
			if err != nil || string(got) != fmt.Sprintf("session %d", i) {
				errs <- fmt.Errorf("read %s = %q, %v", path, got, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := m.Close(bg); err != nil {
		t.Fatal(err)
	}
	// The replica groups and pipelined clients must be gone after unmount.
	deadline := time.After(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines: %d before mount, %d after unmount", before, runtime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestMaxInflightZeroMountsReplicatedShards: WithMaxInflight(n) for n <= 0
// mounts BFT-replicated shards with the default window, as documented; only
// a mount without the option runs on the local, unreplicated DepSpace. A
// replicated shard shows up as smr.invoke spans on the mount's traces.
func TestMaxInflightZeroMountsReplicatedShards(t *testing.T) {
	for _, c := range []struct {
		name       string
		opts       []scfs.Option
		replicated bool
	}{
		{"unset", nil, false},
		{"zero", []scfs.Option{scfs.WithMaxInflight(0)}, true},
		{"negative", []scfs.Option{scfs.WithMaxInflight(-1)}, true},
	} {
		m := mount(t, append(c.opts, scfs.WithTracing())...)
		if err := m.Mkdir(bg, "/d"); err != nil {
			t.Fatal(err)
		}
		replicated := false
		for _, tr := range m.Traces(0) {
			for _, s := range tr.Spans() {
				replicated = replicated || s.Name == "smr.invoke"
			}
		}
		if replicated != c.replicated {
			t.Errorf("%s: replicated coordination = %v, want %v", c.name, replicated, c.replicated)
		}
	}
}

// TestCoordTelemetryCounters: with metrics on, every coordination access is
// exported as coord_ops_total{backend,op} and surfaces in Stats().Telemetry.
func TestCoordTelemetryCounters(t *testing.T) {
	m := mount(t, scfs.WithMetrics())
	if err := m.Mkdir(bg, "/tele"); err != nil {
		t.Fatal(err)
	}
	if err := scfs.WriteFile(bg, m, "/tele/x.txt", []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadDir(bg, "/tele"); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	var coordTotal int64
	for name, v := range s.Telemetry.Counters {
		if strings.HasPrefix(name, "coord_ops_total{") {
			if !strings.Contains(name, `backend="depspace"`) {
				t.Errorf("counter %q missing the backend label", name)
			}
			coordTotal += v
		}
	}
	if coordTotal == 0 {
		t.Fatalf("no coord_ops_total counters; counters: %v", s.Telemetry.Counters)
	}
	// The registry view and the paper's §4 access counter agree.
	if coordTotal != s.CoordAccesses {
		t.Fatalf("coord_ops_total sum %d != CoordAccesses %d", coordTotal, s.CoordAccesses)
	}
	if _, ok := s.Telemetry.Counters[`coord_ops_total{backend="depspace",op="list"}`]; !ok {
		t.Errorf("list op counter missing; counters: %v", s.Telemetry.Counters)
	}
}

// TestCoordTelemetryShardedBackend: the sharded plane is labeled metashard.
func TestCoordTelemetryShardedBackend(t *testing.T) {
	m := mount(t, scfs.WithMetrics(), scfs.WithCoordShards(2))
	if err := scfs.WriteFile(bg, m, "/s.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	found := false
	for name := range s.Telemetry.Counters {
		if strings.HasPrefix(name, "coord_ops_total{") && strings.Contains(name, `backend="metashard"`) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no metashard-labeled coord counters; counters: %v", s.Telemetry.Counters)
	}
}
