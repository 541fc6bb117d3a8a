package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scfs"
	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depspace"
	"scfs/internal/pricing"
	"scfs/internal/smr"
)

// benchUser is the one SCFS principal every mount acts as: the mounts are
// one user's machines, so they share each provider's account.
const benchUser = "bench"

// stackConfig selects the simulated environment of a workload.
type stackConfig struct {
	// wan gives the clouds cloudsim.DefaultProfiles (RTT, bandwidth and
	// jitter) scaled by latencyScale. Otherwise the clouds get an empty
	// LatencyProfile and no consistency window: zero simulated delay.
	// cloudsim maps LatencyScale 0 to 1.0, so the zero case never relies on
	// a zero scale.
	wan          bool
	latencyScale float64
	// windows keeps the profiles' eventual-consistency windows (scaled by
	// latencyScale) on wan clouds; without it every write is visible at
	// once.
	windows bool
	// smrDelay is the fixed per-message delay of the replica group's network.
	smrDelay time.Duration
}

// stack is the shared back end of one workload: four simulated clouds and a
// four-replica BFT DepSpace group, assembled from public constructors the
// way the facade's replicatedCoordShard does it. Mounts are the clients.
type stack struct {
	cfg       stackConfig
	t         *tracer // nil in the untraced run
	dir       string  // local caches of every mount live below it
	providers []*cloudsim.Provider
	smrCfg    smr.Config
	net       *smr.Network
	replicas  []*smr.Replica
	mounts    []*mount
	nextID    int
}

// mount is one SCFS client machine: its own agent, caches, cloud clients
// and coordination client.
type mount struct {
	fs     *scfs.FS
	cli    *smr.Client
	meters []cloud.Meter
	closed bool
}

func newStack(cfg stackConfig, seed int64, t *tracer, dir string) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, t: t, dir: dir}
	profiles := cloudsim.DefaultProfiles()
	for i, kind := range cloudsim.CoCKinds() {
		opts := profiles[kind]
		if cfg.wan {
			opts.LatencyScale = cfg.latencyScale
			if !cfg.windows {
				opts.ConsistencyWindow = 0
			}
		} else {
			opts.Latency = cloudsim.LatencyProfile{}
			opts.ConsistencyWindow = 0
		}
		opts.Seed = seed*16 + int64(i)
		s.providers = append(s.providers, cloudsim.NewProvider(opts))
	}

	ids := []int{0, 1, 2, 3}
	s.smrCfg = smr.Config{ReplicaIDs: ids, Model: smr.ByzantineFaults}
	s.net = smr.NewNetwork()
	s.net.SetDelay(cfg.smrDelay)
	for _, id := range ids {
		r, err := smr.NewReplica(id, s.smrCfg, smr.NewBatchApplication(depspace.NewSpace()), s.net)
		if err != nil {
			s.close(context.Background())
			return nil, fmt.Errorf("starting replica %d: %w", id, err)
		}
		r.Start()
		s.replicas = append(s.replicas, r)
	}
	return s, nil
}

// mount creates a client with cold caches in its own directory.
func (s *stack) mount(ctx context.Context) (*mount, error) {
	s.nextID++
	name := fmt.Sprintf("m%d", s.nextID)
	stores := make([]scfs.ObjectStore, 0, len(s.providers))
	meters := make([]cloud.Meter, 0, len(s.providers))
	for i, p := range s.providers {
		store := p.MustClient(p.CreateAccount(benchUser))
		if s.t != nil {
			store = &tracedStore{inner: store, t: s.t, idx: uint8(i)}
		}
		stores = append(stores, store)
		meters = append(meters, store.(cloud.Meter))
	}
	cli := smr.NewClient(benchUser+"-"+name, s.smrCfg, s.net)
	var inv smr.Invoker = cli
	if s.t != nil {
		inv = &tracedInvoker{inner: cli, t: s.t}
	}
	var svc coord.Service = coord.NewDepSpaceService(depspace.NewClient(smr.NewCoalescer(inv), benchUser, nil))
	if s.t != nil {
		svc = &tracedCoord{inner: svc, t: s.t}
	}
	fs, err := scfs.New(ctx,
		scfs.WithUser(benchUser),
		scfs.WithMode(scfs.Blocking),
		scfs.WithFaultTolerance(1),
		scfs.WithClouds(stores...),
		scfs.WithCoordination(svc),
		scfs.WithDiskCache(filepath.Join(s.dir, name), 1<<30),
	)
	if err != nil {
		cli.Close()
		return nil, err
	}
	m := &mount{fs: fs, cli: cli, meters: meters}
	s.mounts = append(s.mounts, m)
	return m, nil
}

func (m *mount) close(ctx context.Context) error {
	if m.closed {
		return nil
	}
	m.closed = true
	err := m.fs.Close(ctx)
	m.cli.Close()
	return err
}

// close unmounts every client, stops the replica group and removes the
// caches. It returns the first unmount error.
func (s *stack) close(ctx context.Context) error {
	var first error
	for _, m := range s.mounts {
		if err := m.close(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range s.replicas {
		r.Stop()
	}
	s.net.Close()
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// usage sums the metered consumption of the shared account at every
// provider. Every mount acts as the same account, so one mount's meters
// cover them all.
func (s *stack) usage() []cloud.Usage {
	out := make([]cloud.Usage, len(s.providers))
	if len(s.mounts) == 0 {
		return out
	}
	for i, m := range s.mounts[0].meters {
		out[i] = m.Usage()
	}
	return out
}

// usageDelta prices the consumption between two usage snapshots with
// pricing.DefaultTable: request fees and transfer only. Storage byte-hours
// are left out because they grow with wall time, not with work done.
func usageDelta(before, after []cloud.Usage) (bytesUp int64, dollars float64) {
	table := pricing.DefaultTable()
	for i := range after {
		d := cloud.Usage{
			PutRequests:    after[i].PutRequests - before[i].PutRequests,
			GetRequests:    after[i].GetRequests - before[i].GetRequests,
			DeleteRequests: after[i].DeleteRequests - before[i].DeleteRequests,
			ListRequests:   after[i].ListRequests - before[i].ListRequests,
			BytesIn:        after[i].BytesIn - before[i].BytesIn,
			BytesOut:       after[i].BytesOut - before[i].BytesOut,
		}
		bytesUp += d.BytesIn
		dollars += table.For(providerName(i)).UsageCost(d)
	}
	return bytesUp, dollars
}

// maxWindow is the longest scaled consistency window of the clouds.
func (s *stack) maxWindow() time.Duration {
	if !s.cfg.wan || !s.cfg.windows {
		return 0
	}
	var w time.Duration
	for _, kind := range cloudsim.CoCKinds() {
		w = max(w, cloudsim.DefaultProfiles()[kind].ConsistencyWindow)
	}
	return time.Duration(float64(w) * s.cfg.latencyScale)
}
