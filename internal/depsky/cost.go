package depsky

// Cost accounting. The paper's cost analysis (§4.5) charges a version by
// its storage footprint on the preferred quorum; the chunked layout adds a
// second axis the byte count misses entirely: each chunk is its own cloud
// object, so a 64 MiB version creates 64x as many objects — and pays 64x
// the per-request fees on every write, read and delete — as a 1 MiB one.
// A pricing.Footprint folds both axes together so the garbage collector
// (and any capacity planner) can weigh "many small chunks" against "few big
// chunks" instead of seeing only bytes, and one rate card prices it.
//
// Dollar estimates charge the mean rate card across the n clouds — which
// n-f subset actually holds a version depends on the placement objective
// and the tracker state at write time, and an estimate that stable is worth
// more to the garbage collector (which ranks candidates by it) than one
// that drifts with provider weather.

import (
	"scfs/internal/pricing"
	"scfs/internal/seccrypto"
)

// Rates returns the per-cloud-index rate cards the manager prices with.
func (m *Manager) Rates() []pricing.Rates { return m.rates }

// meanRates averages the rate cards across the clouds. The rates are fixed
// at construction, so New computes this once into m.mean; a GC sweep
// pricing thousands of versions reads the cached card.
func meanRates(rates []pricing.Rates) pricing.Rates {
	var sum pricing.Rates
	n := len(rates)
	if n == 0 {
		return pricing.DefaultRates
	}
	for _, r := range rates {
		sum.StorageGBMonth += r.StorageGBMonth
		sum.PutRequest += r.PutRequest
		sum.GetRequest += r.GetRequest
		sum.DeleteRequest += r.DeleteRequest
		sum.ListRequest += r.ListRequest
		sum.EgressPerGB += r.EgressPerGB
		sum.IngressPerGB += r.IngressPerGB
	}
	f := 1 / float64(n)
	sum.StorageGBMonth *= f
	sum.PutRequest *= f
	sum.GetRequest *= f
	sum.DeleteRequest *= f
	sum.ListRequest *= f
	sum.EgressPerGB *= f
	sum.IngressPerGB *= f
	return sum
}

// VersionFootprint computes the footprint of one stored version from its
// metadata.
func (m *Manager) VersionFootprint(info VersionInfo) pricing.Footprint {
	chunkSize := info.ChunkSize
	if !info.validChunking() {
		chunkSize = max(info.Size, 1) // forged geometry: charge one object
	}
	return m.footprint(info.Protocol, int64(info.Size), chunkSize)
}

// EstimateFootprint predicts the footprint a value of the given size would
// have if written now. The SCFS agent uses it to meter request-fee pressure
// for the garbage-collection trigger.
func (m *Manager) EstimateFootprint(size int64) pricing.Footprint {
	return m.footprint(m.opts.Protocol, size, m.chunkSize())
}

// VersionCost prices one stored version's lifecycle from its metadata:
// recurring storage per month, the upload it already paid, what one whole
// read costs, and what reclaiming it will cost. The garbage collector ranks
// reclamation candidates by it.
func (m *Manager) VersionCost(info VersionInfo) pricing.Estimate {
	return m.mean.Price(m.VersionFootprint(info))
}

// EstimateCost predicts the lifecycle dollars a value of the given size
// would cost if written now.
func (m *Manager) EstimateCost(size int64) pricing.Estimate {
	return m.mean.Price(m.EstimateFootprint(size))
}

// footprint charges a value of size bytes cut into chunkSize chunks (at
// least one, every chunk but the last full-size) under the protocol's
// dispersal: CA stores one erasure shard of each chunk's ciphertext on each
// of the preferred n-f clouds and reads f+1 of them, A a full replica on
// all n and reads one. The metadata quorum write rides along as n-f PUTs.
// Constant-time regardless of the chunk count.
func (m *Manager) footprint(protocol Protocol, size int64, chunkSize int) pricing.Footprint {
	cs := int64(chunkSize)
	chunks := max((size+cs-1)/cs, 1)
	tail := size - (chunks-1)*cs
	n, q := int64(m.N()), int64(m.QuorumSize())
	charged, readers := q, int64(m.opts.F+1)
	stored := func(plain int64) int64 { // bytes per charged cloud
		return int64(m.coder.ShardSize(int(plain) + seccrypto.CiphertextOverhead))
	}
	if protocol == ProtocolA {
		charged, readers = n, 1
		stored = func(plain int64) int64 { return plain }
	}
	perCloud := (chunks-1)*stored(cs) + stored(tail)
	return pricing.Footprint{
		Bytes:              perCloud * charged,
		ReadBytes:          perCloud * readers,
		Objects:            chunks * charged,
		PutRequests:        chunks*charged + q,
		GetRequestsPerRead: chunks * readers,
		DeleteRequests:     chunks * n,
	}
}
