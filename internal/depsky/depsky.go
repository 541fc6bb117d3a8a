// Package depsky implements the DepSky cloud-of-clouds storage protocols used
// by the SCFS CoC backend (§3.2, Figure 6): each data unit is stored across
// n = 3f+1 independent cloud providers so that its confidentiality, integrity
// and availability survive f arbitrarily faulty providers.
//
// Two protocols are provided:
//
//   - DepSky-A: plain replication of the value on every cloud (availability
//     and integrity, no confidentiality).
//   - DepSky-CA: the value is encrypted with a fresh random key, the
//     ciphertext is erasure-coded into n blocks of which any f+1 reconstruct
//     it, and the key is split with secret sharing so that no single cloud
//     can decrypt the data. This is the protocol SCFS uses.
//
// Every version of a data unit is recorded in a metadata object replicated on
// all clouds. SCFS's consistency-anchor algorithm needs to read "the version
// with a given hash" rather than "the newest version", so the manager also
// implements ReadMatching, the extension described in §3.2 of the paper.
//
// Every version has one data layout: the value is cut into fixed-size
// chunks (a small value is one chunk), and each cloud stores one
// length-prefixed binary frame per chunk, documented in wire.go. Write and
// WriteFrom, Read, ReadMatching and OpenRangedMatching are entry points
// into that one pipeline; only the small metadata objects use JSON.
package depsky

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/erasure"
	"scfs/internal/iopolicy"
	"scfs/internal/placement"
	"scfs/internal/pricing"
	"scfs/internal/resilience"
	"scfs/internal/stream"
	"scfs/internal/telemetry"
)

// Protocol selects how data is dispersed across the clouds.
type Protocol int

const (
	// ProtocolCA is encrypt + erasure-code + secret-share (the default).
	ProtocolCA Protocol = iota
	// ProtocolA is full replication on every cloud.
	ProtocolA
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == ProtocolA {
		return "DepSky-A"
	}
	return "DepSky-CA"
}

// Errors returned by the manager.
var (
	ErrNotEnoughClouds = errors.New("depsky: need at least 3f+1 clouds")
	ErrQuorumWrite     = errors.New("depsky: could not write to a quorum of clouds")
	ErrQuorumRead      = errors.New("depsky: could not read from enough clouds")
	ErrVersionNotFound = errors.New("depsky: version not found")
	ErrUnitNotFound    = errors.New("depsky: data unit not found")
	ErrIntegrity       = errors.New("depsky: integrity verification failed")
)

// VersionInfo describes one stored version of a data unit.
type VersionInfo struct {
	// Number is the monotonically increasing version number.
	Number uint64 `json:"number"`
	// DataHash is the SHA-256 of the original (plaintext) value; it is the
	// hash SCFS stores in its consistency anchor.
	DataHash string `json:"data_hash"`
	// Size is the length of the original value.
	Size int `json:"size"`
	// Protocol records how the version was encoded.
	Protocol Protocol `json:"protocol,omitempty"`
	// ChunkSize is the plaintext bytes per chunk; every chunk but the last
	// is full-size.
	ChunkSize int `json:"chunk_size"`
	// ChunkHashes[j][i] is the SHA-256 of chunk j's frame on cloud i,
	// allowing the reader to discard corrupted frames. len(ChunkHashes) is
	// the chunk count.
	ChunkHashes [][]string `json:"chunk_hashes,omitempty"`
}

// MaxChunkSize is the largest chunk a version may declare (256 MiB); a
// wire-protocol constant, not a tuning knob. Writers clamp their configured
// chunk size to it; readers reject metadata beyond it. The cap is what
// bounds a reader's allocations against forged metadata: VersionInfo is
// JSON from possibly-corrupt clouds, and before certification or the
// end-to-end hash check its Size/ChunkSize fields are attacker-chosen. With
// the cap, reassembling a forged variant can allocate at most
// len(ChunkHashes) x MaxChunkSize — linear in metadata bytes the attacker
// must actually store — instead of any 17-byte JSON integer commanding a
// terabyte make(). Readers go further for uncertified variants and size no
// buffer by the metadata until frames have verified it (see
// readChunkedVersion).
const MaxChunkSize = 256 << 20

// validChunking reports whether the chunk geometry is internally
// consistent: Size needs exactly len(ChunkHashes) chunks of ChunkSize.
// Readers check it before slicing buffers by chunk arithmetic, so metadata
// from a corrupt cloud can fail a read but never panic it (nor size an
// unbounded allocation — see MaxChunkSize).
func (v *VersionInfo) validChunking() bool {
	if v.ChunkSize <= 0 || v.ChunkSize > MaxChunkSize || v.Size < 0 {
		return false
	}
	return len(v.ChunkHashes) == (v.Size+v.ChunkSize-1)/v.ChunkSize
}

// chunkPlainLen returns the plaintext length of chunk idx.
func (v *VersionInfo) chunkPlainLen(idx int) int {
	rem := v.Size - idx*v.ChunkSize
	if rem > v.ChunkSize {
		return v.ChunkSize
	}
	return rem
}

// unitMetadata is the metadata object replicated on every cloud.
type unitMetadata struct {
	Unit string `json:"unit"`
	// Seq numbers the metadata writes of the unit: each write carries one
	// more than the Seq its writer merged (see mergeMetadata). It is what
	// lets a later write that omits a version (a deletion) outrank a stale
	// copy that still lists it.
	Seq      uint64        `json:"seq"`
	Versions []VersionInfo `json:"versions"`

	// certified marks version numbers whose entry was found byte-identical
	// on at least f+1 clouds during the merge (so at least one correct
	// cloud vouches for it). Populated by mergeMetadata, never serialized.
	certified map[uint64]bool
	// variants holds, per version number, every distinct copy seen during
	// the merge, best first (the certified or richest one — the same entry
	// that lands in Versions). Whole-value reads try them in order: the
	// end-to-end hash check exposes a forged best variant, and the next
	// variant restores availability. Populated by mergeMetadata, never
	// serialized.
	variants map[uint64][]VersionInfo
}

func (m *unitMetadata) find(hash string) *VersionInfo {
	for i := range m.Versions {
		if m.Versions[i].DataHash == hash {
			return &m.Versions[i]
		}
	}
	// The best variant of a number may be a forged copy with a rewritten
	// hash; a read-by-hash must still find the version through the other
	// variants (the end-to-end hash check decides who was right).
	for _, vs := range m.variants {
		for i := range vs {
			if vs[i].DataHash == hash {
				return &vs[i]
			}
		}
	}
	return nil
}

// byHash returns the variants whose plaintext hash is hash, best first, of
// the version find(hash) resolves to, and whether the first of them is the
// certified entry of that version (a forged variant that merely claims the
// hash of a certified version never inherits its certification).
func (m *unitMetadata) byHash(hash string) ([]VersionInfo, bool) {
	info := m.find(hash)
	if info == nil {
		return nil, false
	}
	all := m.variantsOf(info.Number)
	var matching []VersionInfo
	for _, v := range all {
		if v.DataHash == hash {
			matching = append(matching, v)
		}
	}
	return matching, m.certified[info.Number] && all[0].DataHash == hash
}

// variantsOf returns every distinct copy of one version number seen during
// the merge, best first.
func (m *unitMetadata) variantsOf(number uint64) []VersionInfo {
	if vs := m.variants[number]; len(vs) > 0 {
		return vs
	}
	for i := range m.Versions {
		if m.Versions[i].Number == number {
			return m.Versions[i : i+1]
		}
	}
	return nil
}

func (m *unitMetadata) newest() *VersionInfo {
	if len(m.Versions) == 0 {
		return nil
	}
	best := &m.Versions[0]
	for i := range m.Versions {
		if m.Versions[i].Number > best.Number {
			best = &m.Versions[i]
		}
	}
	return best
}

// block is what gets stored on one cloud for one chunk of a version (CA
// protocol): an erasure-coded shard of the chunk ciphertext plus this
// cloud's share of the version key. It is serialized with the compact
// binary framing in wire.go, not JSON.
type block struct {
	Shard    []byte
	ShardIdx int
	KeyX     byte
	KeyShare []byte
	// Full holds the whole chunk for the replication protocol (DepSky-A).
	Full []byte
	// ChunkIdx and ChunkPlainLen locate the frame within its version: the
	// chunk's index and how many plaintext bytes it carries.
	ChunkIdx      int
	ChunkPlainLen int
}

// Options configures a Manager.
type Options struct {
	// Clouds are the per-provider object-store clients (all owned by the
	// same principal). len(Clouds) must be >= 3F+1.
	Clouds []cloud.ObjectStore
	// F is the number of faulty clouds tolerated.
	F int
	// Protocol selects DepSky-CA (default) or DepSky-A.
	Protocol Protocol
	// Prefix namespaces every object written by this manager.
	Prefix string
	// ChunkSize is the plaintext bytes per chunk of every written version.
	// Defaults to stream.DefaultChunkSize (1 MiB); values above
	// MaxChunkSize are clamped to it (wire-protocol cap).
	ChunkSize int
	// WriteWindow bounds the number of chunks simultaneously resident in
	// the streaming write pipeline. Defaults to stream.DefaultWindow.
	WriteWindow int
	// DisableQuorumCancel preserves the pre-context behaviour where the
	// losers of every quorum race run to completion in the background
	// (wasting bandwidth and per-request fees, and leaving per-cloud
	// goroutines alive until the straggler finishes). It exists as an
	// experiment/benchmark hook so the cost of redundant RPCs can be
	// measured; production code should leave it false, which makes every
	// quorum operation cancel its redundant per-cloud RPCs the moment the
	// quorum verdict is known.
	DisableQuorumCancel bool
	// Policy is the manager-wide default I/O policy (hedged reads and
	// writes, readahead, cloud preference, placement objective). A
	// per-operation policy carried by the operation's context
	// (iopolicy.With) is overlaid on top of it. The zero value keeps the
	// immediate full fan-out and no readahead.
	Policy iopolicy.Policy
	// Pricing maps each cloud's provider name to its price card; the
	// placement engine ranks clouds by it and the cost model converts
	// footprints into dollars. The zero Table prices every provider with
	// pricing.DefaultRates (placement then treats them as equals).
	Pricing pricing.Table
	// Breakers tunes the per-(cloud, direction) circuit breakers fed by
	// every per-cloud RPC. The zero value enables them with the default
	// threshold and cooldown; see resilience.BreakerPolicy.
	Breakers resilience.BreakerPolicy
	// Metrics, when non-nil, receives the dispatch layer's counters and
	// latency histograms: per-(cloud, op-class) RPC outcomes, hedge
	// fire/suppress/kick, retry attempts, breaker skips and transitions,
	// plus pull gauges for each metered cloud's usage and dollar spend.
	// All instruments are resolved once here; nil disables metering with a
	// single nil check per RPC.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one trace per client operation: the
	// quorum fan-out tree of per-cloud attempts (timings, winners,
	// cancelled stragglers, suppressed hedges) and the quorum verdict
	// latency. nil disables tracing.
	Tracer *telemetry.Tracer
}

// Manager reads and writes data units spread over the configured clouds.
// A Manager is safe for concurrent use by multiple goroutines as long as
// different goroutines operate on different data units (SCFS guarantees a
// single writer per file via its lock service).
type Manager struct {
	opts       Options
	coder      *erasure.Coder
	tracker    *iopolicy.Tracker
	board      *resilience.Board
	rates      []pricing.Rates
	mean       pricing.Rates // rate card averaged across the clouds
	selector   *placement.Selector
	cloudNames []string
	ins        *instruments // nil when Options.Metrics is nil
}

// New validates the options and creates a manager.
func New(opts Options) (*Manager, error) {
	if opts.F < 1 {
		opts.F = 1
	}
	need := 3*opts.F + 1
	if len(opts.Clouds) < need {
		return nil, fmt.Errorf("%w: have %d, need %d for f=%d", ErrNotEnoughClouds, len(opts.Clouds), need, opts.F)
	}
	coder, err := erasure.New(opts.F+1, len(opts.Clouds)-(opts.F+1))
	if err != nil {
		return nil, fmt.Errorf("depsky: building erasure coder: %w", err)
	}
	tracker := iopolicy.NewTracker(len(opts.Clouds))
	rates := opts.Pricing.Resolve(opts.Clouds)
	names := cloudLabels(opts.Clouds)
	m := &Manager{
		opts:       opts,
		coder:      coder,
		tracker:    tracker,
		board:      resilience.NewBoard(len(opts.Clouds), opts.Breakers),
		rates:      rates,
		mean:       meanRates(rates),
		selector:   placement.NewSelector(rates, tracker),
		cloudNames: names,
		ins:        newInstruments(opts.Metrics, names),
	}
	if m.ins != nil {
		if m.board != nil {
			ins := m.ins
			m.board.SetObserver(func(cloud, class int, _, to resilience.BreakerState) {
				ins.breakerTo[cloud][class][to].Inc()
			})
		}
		m.tracker.SetObservationCounter(opts.Metrics.Counter("tracker_observations_total"))
		m.registerUsageGauges(opts.Metrics)
	}
	return m, nil
}

// N returns the number of clouds.
func (m *Manager) N() int { return len(m.opts.Clouds) }

// F returns the number of tolerated faulty clouds.
func (m *Manager) F() int { return m.opts.F }

// QuorumSize returns the write quorum n-f.
func (m *Manager) QuorumSize() int { return m.N() - m.opts.F }

func (m *Manager) metaName(unit string) string {
	return m.opts.Prefix + "dsky/" + unit + "/metadata"
}

// --- metadata quorum operations ---

// quorumCtx derives the per-operation context under which one quorum
// fan-out's per-cloud RPCs run. Cancelling it is how first-quorum-wins
// semantics abort the losers of the race; when DisableQuorumCancel is set
// the cancel is a no-op and stragglers run to completion as before.
func (m *Manager) quorumCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.opts.DisableQuorumCancel {
		return ctx, func() {}
	}
	return context.WithCancel(ctx)
}

// readMetadataQuorum fetches the metadata object from the clouds and returns
// the per-cloud results: nil for clouds that failed, answered with garbage
// or were never contacted, an empty copy for clouds that hold no metadata
// for the unit. Per the DepSky read protocol it waits for the first n-f
// answers — a quorum is all an asynchronous system may wait for — then
// cancels the remaining fetches: one straggling cloud no longer adds its
// full round trip to every metadata operation. A failed fetch is not an
// answer, so the quorum still overlaps the last write quorum in f+1 copies;
// when fewer than n-f clouds can answer at all, it returns what the rest
// said once every fetch has finished. Any version anchored by a write
// quorum overlaps any n-f answers in at least one correct cloud, so the
// merged union still contains everything a reader is entitled to see.
//
// Under a hedge policy the fan-out is preferred-set-first: only the n-f
// fastest clouds (per the latency tracker, or the policy's explicit order)
// are contacted immediately, and the rest only after the tracked delay
// percentile elapses or a preferred cloud fails — in the common case the
// straggler's RPC is never issued at all.
func (m *Manager) readMetadataQuorum(ctx context.Context, unit string) []*unitMetadata {
	name := m.metaName(unit)
	n := m.N()
	pol := m.policyFor(ctx)
	op := metadataOp()
	gate := m.newHedgeGate(pol, pol.Hedge, m.QuorumSize(), op)
	tr := telemetry.FromContext(ctx)
	opCtx, cancel := m.quorumCtx(ctx)
	defer cancel()
	type fetched struct {
		idx int
		md  *unitMetadata
	}
	results := make(chan fetched, n)
	for i, c := range m.opts.Clouds {
		go func(i int, c cloud.ObjectStore) {
			if !gate.enter(opCtx, i) {
				m.recordGated(tr, "meta.get", i, gate.hedged(i))
				results <- fetched{idx: i}
				return
			}
			start := time.Now()
			var data []byte
			err := m.timedCloudCall(opCtx, pol, i, op, func(ctx context.Context) error {
				var err error
				data, err = c.Get(ctx, name)
				return err
			})
			m.recordSpan(tr, "meta.get", i, start, gate.hedged(i), err)
			if errors.Is(err, cloud.ErrNotFound) {
				results <- fetched{idx: i, md: &unitMetadata{Unit: unit}}
				return
			}
			if err != nil {
				results <- fetched{idx: i}
				return
			}
			var md unitMetadata
			if json.Unmarshal(data, &md) == nil && md.Unit == unit {
				results <- fetched{idx: i, md: &md}
			} else {
				results <- fetched{idx: i}
			}
		}(i, c)
	}
	out := make([]*unitMetadata, n)
	answered := 0
	for finished := 0; finished < n; finished++ {
		f := <-results
		out[f.idx] = f.md
		if f.md == nil {
			// A failed copy releases one gated cloud so the quorum of
			// answers can still be assembled promptly.
			gate.kick()
			continue
		}
		if answered++; answered == m.QuorumSize() {
			cancel() // quorum of answers in hand: abort the stragglers
			if !m.opts.DisableQuorumCancel {
				break
			}
		}
	}
	return out
}

// mergeMetadata combines per-cloud metadata copies, keeping the union of
// versions (a version written to a quorum appears in at least one correct
// copy, so the union preserves the paper's availability: reads succeed as
// long as any correct copy plus f+1 frame holders are reachable).
//
// The union alone would resurrect deleted versions: a deletion's metadata
// write completes at n-f clouds, and a straggler keeps the copy that still
// lists the version. So a version is dropped when at least f+1 copies omit
// it while carrying a Seq above the highest Seq of the copies that list it:
// f+1 copies include a correct cloud, so some write newer than every
// listing copy really omitted the version. A single forged copy with an
// inflated Seq cannot hide a live version. The merged Seq, which the next
// write goes one above, is the (f+1)-th highest Seq of the copies: f+1
// copies at or above it include a correct one, so a forged copy can
// neither inflate it nor drive it to overflow, and without faulty clouds
// it is the Seq of the last write (a quorum of answers holds f+1 copies of
// it). A copy whose Seq leaves no room for a successor is rejected
// outright.
//
// Additionally, every version entry found byte-identical on at least f+1
// clouds is marked certified: a forged entry can live on at most the f
// faulty clouds, so f+1 identical copies imply at least one correct cloud
// vouches for it. Whole-value reads verify the final plaintext hash, but
// the ranged read path trusts the per-chunk frame hashes in the metadata
// with no end-to-end check — it only serves certified entries and sends
// callers to the verified whole-value path otherwise (see
// OpenRangedMatching). Among conflicting uncertified variants of one
// number, the copy carrying more integrity hashes wins (corrupted or
// truncated copies carry fewer).
func (m *Manager) mergeMetadata(unit string, copies []*unitMetadata) *unitMetadata {
	merged := &unitMetadata{Unit: unit, certified: make(map[uint64]bool), variants: make(map[uint64][]VersionInfo)}
	type candidate struct {
		info  VersionInfo
		votes int
	}
	needed := m.opts.F + 1
	// votes[number][canonical-encoding] counts identical copies;
	// listedSeq[number] is the highest Seq of a copy listing the number.
	votes := make(map[uint64]map[string]*candidate)
	listedSeq := make(map[uint64]uint64)
	seqs := make([]uint64, 0, len(copies))
	for _, c := range copies {
		if !accepted(c) {
			continue
		}
		seqs = append(seqs, c.Seq)
		for _, v := range c.Versions {
			listedSeq[v.Number] = max(listedSeq[v.Number], c.Seq)
			enc, err := json.Marshal(v)
			if err != nil {
				continue
			}
			byEnc := votes[v.Number]
			if byEnc == nil {
				byEnc = make(map[string]*candidate)
				votes[v.Number] = byEnc
			}
			if cand := byEnc[string(enc)]; cand != nil {
				cand.votes++
			} else {
				byEnc[string(enc)] = &candidate{info: v, votes: 1}
			}
		}
	}
	if len(seqs) > 0 {
		slices.Sort(seqs)
		merged.Seq = seqs[max(len(seqs)-needed, 0)]
	}
	for number, byEnc := range votes {
		if seq := listedSeq[number]; seq < merged.Seq && omittedByNewer(copies, number, seq) >= needed {
			continue
		}
		var best *candidate
		for _, cand := range byEnc {
			// A certified variant always wins; at most one can reach f+1
			// votes (two would require two correct clouds to disagree about
			// a single-writer register). Otherwise prefer the richest copy.
			switch {
			case cand.votes >= needed:
				best = cand
				merged.certified[number] = true
			case merged.certified[number]:
				// keep the certified best
			case best == nil || versionRichness(cand.info) > versionRichness(best.info):
				best = cand
			}
		}
		merged.Versions = append(merged.Versions, best.info)
		// Record every distinct copy, best first: an uncertified best may
		// turn out to be a forged copy (it fails the end-to-end hash
		// check), and readers then retry with the runners-up.
		vs := make([]VersionInfo, 0, len(byEnc))
		vs = append(vs, best.info)
		for _, cand := range byEnc {
			if cand != best {
				vs = append(vs, cand.info)
			}
		}
		sort.SliceStable(vs[1:], func(i, j int) bool {
			return versionRichness(vs[1+i]) > versionRichness(vs[1+j])
		})
		merged.variants[number] = vs
	}
	sort.Slice(merged.Versions, func(i, j int) bool { return merged.Versions[i].Number < merged.Versions[j].Number })
	return merged
}

// accepted reports whether a fetched copy takes part in the merge: it was
// fetched and its Seq leaves room for a successor.
func accepted(c *unitMetadata) bool { return c != nil && c.Seq < math.MaxUint64 }

// omittedByNewer counts the accepted copies that do not list version number
// although their Seq is above seq, the highest Seq of a copy that does.
func omittedByNewer(copies []*unitMetadata, number, seq uint64) int {
	count := 0
	for _, c := range copies {
		if accepted(c) && c.Seq > seq && !slices.ContainsFunc(c.Versions, func(v VersionInfo) bool { return v.Number == number }) {
			count++
		}
	}
	return count
}

// versionRichness orders conflicting uncertified copies of one version
// number: the copy carrying more integrity hashes is the more complete one.
func versionRichness(v VersionInfo) int {
	n := 0
	for _, h := range v.ChunkHashes {
		n += len(h)
	}
	return n
}

// writeMetadataQuorum pushes the merged metadata object, numbered one above
// the Seq merged, to all clouds and returns nil once n-f acknowledged.
func (m *Manager) writeMetadataQuorum(ctx context.Context, md *unitMetadata) error {
	md.Seq++
	payload, err := json.Marshal(md)
	if err != nil {
		return fmt.Errorf("depsky: encoding metadata: %w", err)
	}
	return m.writeQuorum(ctx, m.metaName(md.Unit), "meta.put", func(int) []byte { return payload })
}

// writeQuorum writes per-cloud payloads (payload(i) for cloud i) and waits
// for n-f successes. Once the verdict is known the remaining uploads are
// cancelled: the preferred quorum of n-f clouds (the one the paper's cost
// analysis charges for) holds the version, and the stragglers neither bill
// upload traffic nor keep goroutines alive.
func (m *Manager) writeQuorum(ctx context.Context, name, kind string, payload func(i int) []byte) error {
	return m.writeQuorumHooked(ctx, name, kind, payload, nil)
}

// errHedgeSkipped marks the outcome of a cloud whose upload was never
// issued because the quorum verdict arrived while its hedge gate was still
// holding it back. It only ever surfaces after the verdict is decided, so
// callers never see it.
var errHedgeSkipped = errors.New("depsky: upload gated out by the quorum verdict")

// writeQuorumHooked is writeQuorum with a per-cloud completion hook:
// onCloudDone(i) is called (from the collector goroutine) as soon as cloud
// i's upload attempt has finished, whether it succeeded, failed, was
// cancelled by the quorum verdict, or was never issued at all (hedged
// writes). The streaming pipeline uses it to recycle each cloud's frame
// buffer the moment that cloud is done with it.
//
// Under a WriteHedge policy the fan-out is preferred-set-first (Basil-style
// hedged writes): only the preferred n-f clouds — ranked by the placement
// objective, explicit preference, or tracked upload latency — upload
// immediately; the spares sit behind the hedge gate and launch only if the
// tracked percentile of the preferred set's upload latency elapses without
// a verdict, or a preferred upload fails. On a stable deployment the spare
// uploads are never issued, so the write ships (n-f)/n of the full
// fan-out's ingress bytes and PUT fees at equal durability: the paper's
// quorum math only ever promises the preferred n-f copies (a reader
// tolerating f faults among them still finds n-2f = f+1 intact shards),
// and the metadata union certifies any entry that f+1 of the n-f metadata
// responders agree on, which the preferred quorum guarantees.
//
// Cancelling ctx aborts every in-flight upload and returns ctx.Err(). The
// collector goroutine always drains all n outcomes, but after the verdict
// the losers are already cancelled (and the gated spares release without
// touching the network), so it exits promptly rather than living as long
// as the slowest cloud.
func (m *Manager) writeQuorumHooked(ctx context.Context, name, kind string, payload func(i int) []byte, onCloudDone func(i int)) error {
	n := m.N()
	pol := m.policyFor(ctx)
	op := iopolicy.PutOp(len(payload(0)))
	gate := m.newHedgeGate(pol, pol.WriteHedge, m.QuorumSize(), op)
	tr := telemetry.FromContext(ctx)
	opCtx, cancel := m.quorumCtx(ctx)
	type outcome struct {
		idx int
		err error
	}
	results := make(chan outcome, n)
	for i, c := range m.opts.Clouds {
		go func(i int, c cloud.ObjectStore) {
			if !gate.enter(opCtx, i) {
				m.recordGated(tr, kind, i, gate.hedged(i))
				results <- outcome{idx: i, err: errHedgeSkipped}
				return
			}
			start := time.Now()
			err := m.timedCloudCall(opCtx, pol, i, op, func(ctx context.Context) error {
				return c.Put(ctx, name, payload(i))
			})
			m.recordSpan(tr, kind, i, start, gate.hedged(i), err)
			results <- outcome{idx: i, err: err}
		}(i, c)
	}
	verdict := make(chan error, 1)
	go func() {
		defer cancel()
		successes, failures, decided := 0, 0, false
		for i := 0; i < n; i++ {
			o := <-results
			if onCloudDone != nil {
				onCloudDone(o.idx)
			}
			if o.err == nil {
				successes++
			} else {
				failures++
				// A failed preferred upload releases one gated spare at
				// once, so the quorum can still be assembled without
				// waiting out the hedge delay.
				gate.kick()
			}
			if decided {
				continue
			}
			switch {
			case successes >= m.QuorumSize():
				if tr != nil {
					tr.SetVerdict(time.Since(tr.Start))
				}
				verdict <- nil
				decided = true
				cancel() // quorum reached: abort the redundant uploads
			case failures > m.opts.F:
				if cerr := ctx.Err(); cerr != nil {
					verdict <- cerr
				} else {
					verdict <- fmt.Errorf("%w: %d failures out of %d clouds", ErrQuorumWrite, failures, n)
				}
				decided = true
				cancel()
			}
		}
		if !decided {
			if cerr := ctx.Err(); cerr != nil {
				verdict <- cerr
			} else {
				verdict <- fmt.Errorf("%w: only %d acks", ErrQuorumWrite, successes)
			}
		}
	}()
	return <-verdict
}

// --- public API ---

// Write stores data as the next version of unit and returns its version
// info. It is WriteFrom over the in-memory value: a value no larger than
// the chunk size becomes a one-chunk version. SCFS serializes writers per
// file (via locks), matching DepSky's single-writer register semantics.
// Cancelling ctx aborts the quorum uploads; because the metadata anchoring
// the version is only written after every chunk reached a quorum, a
// cancelled write never leaves a partially visible version.
func (m *Manager) Write(ctx context.Context, unit string, data []byte) (VersionInfo, error) {
	return m.WriteFrom(ctx, unit, bytes.NewReader(data))
}

// Read returns the newest version of unit.
func (m *Manager) Read(ctx context.Context, unit string) ([]byte, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "read", unit)
	defer tr.Finish()
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	newest := merged.newest()
	if newest == nil {
		if err := ctx.Err(); err != nil {
			return nil, VersionInfo{}, err
		}
		return nil, VersionInfo{}, ErrUnitNotFound
	}
	data, err := m.readVersionAny(ctx, unit, merged.variantsOf(newest.Number), merged.certified[newest.Number])
	return data, *newest, err
}

// ReadMatching returns the version of unit whose plaintext hash equals hash.
// This is the operation added to DepSky for SCFS's consistency anchor.
func (m *Manager) ReadMatching(ctx context.Context, unit, hash string) ([]byte, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "read", unit)
	defer tr.Finish()
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	matching, certified := merged.byHash(hash)
	if len(matching) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, VersionInfo{}, err
		}
		return nil, VersionInfo{}, ErrVersionNotFound
	}
	data, err := m.readVersionAny(ctx, unit, matching, certified)
	return data, matching[0], err
}

// readVersionAny tries each metadata variant of one version, best first,
// until one decodes and verifies end-to-end; certified says whether the
// first variant is the certified entry. Distinct variants only exist when
// faulty clouds rewrote their metadata copies; the honest variant's hashes
// then let the read succeed where the forged one fails integrity.
func (m *Manager) readVersionAny(ctx context.Context, unit string, variants []VersionInfo, certified bool) ([]byte, error) {
	var lastErr error
	for i, v := range variants {
		data, err := m.readChunkedVersion(ctx, unit, v, certified && i == 0)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrVersionNotFound
	}
	return nil, lastErr
}

// ListVersions returns all known versions of a unit, oldest first.
func (m *Manager) ListVersions(ctx context.Context, unit string) ([]VersionInfo, error) {
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	if len(merged.Versions) == 0 {
		return nil, ctx.Err()
	}
	return merged.Versions, nil
}

// DeleteVersion removes the chunks of one version from all clouds and drops
// it from the metadata (used by the SCFS garbage collector).
func (m *Manager) DeleteVersion(ctx context.Context, unit string, number uint64) error {
	ctx, tr := m.opts.Tracer.Start(ctx, "delete", unit)
	defer tr.Finish()
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	idx := -1
	for i, v := range merged.Versions {
		if v.Number == number {
			idx = i
			break
		}
	}
	if idx < 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrVersionNotFound
	}
	removed := merged.Versions[idx]
	merged.Versions = append(merged.Versions[:idx], merged.Versions[idx+1:]...)
	if err := m.writeMetadataQuorum(ctx, merged); err != nil {
		return err
	}
	m.deleteChunks(ctx, unit, removed)
	return nil
}

// DeleteVersions removes several versions of a unit with a single metadata
// round trip (DeleteVersion costs one quorum read and one quorum write per
// call; garbage-collection sweeps delete many versions at once). It returns
// how many of the requested versions existed and were removed; absent
// numbers are skipped silently.
func (m *Manager) DeleteVersions(ctx context.Context, unit string, numbers []uint64) (int, error) {
	if len(numbers) == 0 {
		return 0, nil
	}
	ctx, tr := m.opts.Tracer.Start(ctx, "delete", unit)
	defer tr.Finish()
	doomed := make(map[uint64]bool, len(numbers))
	for _, n := range numbers {
		doomed[n] = true
	}
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	var removed []VersionInfo
	kept := merged.Versions[:0]
	for _, v := range merged.Versions {
		if doomed[v.Number] {
			removed = append(removed, v)
		} else {
			kept = append(kept, v)
		}
	}
	if len(removed) == 0 {
		return 0, nil
	}
	merged.Versions = kept
	if err := m.writeMetadataQuorum(ctx, merged); err != nil {
		return 0, err
	}
	for _, v := range removed {
		m.deleteChunks(ctx, unit, v)
	}
	return len(removed), nil
}

// DeleteUnit removes every version and the metadata of the unit.
func (m *Manager) DeleteUnit(ctx context.Context, unit string) error {
	versions, err := m.ListVersions(ctx, unit)
	if err != nil {
		return err
	}
	numbers := make([]uint64, 0, len(versions))
	for _, v := range versions {
		numbers = append(numbers, v.Number)
	}
	if _, err := m.DeleteVersions(ctx, unit, numbers); err != nil {
		return err
	}
	name := m.metaName(unit)
	var wg sync.WaitGroup
	for _, c := range m.opts.Clouds {
		wg.Add(1)
		go func(c cloud.ObjectStore) {
			defer wg.Done()
			_ = c.Delete(ctx, name)
		}(c)
	}
	wg.Wait()
	return nil
}

// decodeScratch hands out pooled buffers that are reused across the decode
// attempts of one chunk read (decodeChunk runs once per arriving frame, and
// a degraded read would otherwise allocate afresh on every attempt).
// Buffers are recycled by position: attempt k asks for the same sequence of
// sizes as attempt k-1, so reset() lets the next attempt reuse them in
// place.
type decodeScratch struct {
	bufs []([]byte)
	next int
}

// reset restarts buffer handout for a new decode attempt.
func (s *decodeScratch) reset() { s.next = 0 }

// get returns a pooled buffer of length n, reusing the buffer handed out at
// the same position of a previous attempt when it is large enough.
func (s *decodeScratch) get(n int) []byte {
	if s.next < len(s.bufs) {
		if cap(s.bufs[s.next]) >= n {
			b := s.bufs[s.next][:n]
			s.next++
			return b
		}
		stream.Buffers.Put(s.bufs[s.next])
		s.bufs[s.next] = stream.Buffers.Get(n)
		b := s.bufs[s.next]
		s.next++
		return b
	}
	b := stream.Buffers.Get(n)
	s.bufs = append(s.bufs, b)
	s.next++
	return b
}

// release returns every scratch buffer to the shared pool.
func (s *decodeScratch) release() {
	for _, b := range s.bufs {
		stream.Buffers.Put(b)
	}
	s.bufs = nil
	s.next = 0
}
