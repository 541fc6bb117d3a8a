package depsky

// Chunked data plane: every write and read of a version goes through here.
//
// WriteFrom (and Write, over an in-memory value) consumes the value in
// fixed-size chunks and overlaps encrypt → erasure-encode → per-shard hash
// → quorum upload across a small window of in-flight chunks (see
// internal/stream), so only a few chunks are resident whatever the value
// size. Read reassembles a whole version chunk by chunk; OpenRangedMatching
// fetches — and, under faults, reconstructs — only the chunks covering the
// requested byte range, reusing the coder's cached decode matrices. All
// chunk, shard and frame buffers come from the process-wide stream.Buffers
// pool.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/iopolicy"
	"scfs/internal/seccrypto"
	"scfs/internal/secretshare"
	"scfs/internal/stream"
	"scfs/internal/telemetry"
)

// chunkSize returns the configured write chunk size, clamped to
// the wire-protocol cap (readers reject metadata declaring more, so a
// larger configured value would write unreadable versions).
func (m *Manager) chunkSize() int {
	cs := m.opts.ChunkSize
	if cs <= 0 {
		return stream.DefaultChunkSize
	}
	return min(cs, MaxChunkSize)
}

// writeWindow returns the configured bound on in-flight chunks.
func (m *Manager) writeWindow() int {
	if m.opts.WriteWindow > 0 {
		return m.opts.WriteWindow
	}
	return stream.DefaultWindow
}

// chunkName is the per-cloud object name of one chunk of one version.
func (m *Manager) chunkName(unit string, version uint64, idx int) string {
	return fmt.Sprintf("%sdsky/%s/v%d/c%d", m.opts.Prefix, unit, version, idx)
}

// encodedChunk is the output of the encode pipeline stage for one chunk:
// one framed payload per cloud plus the frame hashes recorded in the
// version metadata.
type encodedChunk struct {
	frames [][]byte
	hashes []string
}

// WriteFrom streams r as the next version of unit. At most WriteWindow
// chunks are resident at any moment, so the peak memory of a write is ~3
// chunk windows regardless of the stream length; per-shard hashing of one
// chunk runs concurrently with the quorum uploads of earlier chunks. The
// returned VersionInfo carries the SHA-256 of the whole plaintext stream,
// computed incrementally.
//
// WriteFrom assumes a single writer per data unit (SCFS serializes writers
// via its lock service). When the newest listed version number has no
// successor it fails with ErrIntegrity before uploading anything.
//
// Cancelling ctx aborts the in-flight chunk uploads and returns ctx.Err().
// The version metadata is only written after every chunk reached its quorum,
// so a cancelled WriteFrom never anchors a version whose shards were not
// fully uploaded — the orphaned chunk objects of the aborted version are
// invisible to readers and reclaimed when the version number is reused or
// the unit is deleted.
func (m *Manager) WriteFrom(ctx context.Context, unit string, r io.Reader) (VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "write", unit)
	defer tr.Finish()
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	var next uint64 = 1
	if newest := merged.newest(); newest != nil {
		// A forged copy listing the largest number would wrap every later
		// write to number 0, each overwriting the previous one's chunks.
		if newest.Number == math.MaxUint64 {
			return VersionInfo{}, fmt.Errorf("%w: newest version number %d has no successor", ErrIntegrity, newest.Number)
		}
		next = newest.Number + 1
	}

	var key []byte
	var shares []secretshare.Share
	if m.opts.Protocol == ProtocolCA {
		var err error
		key, err = seccrypto.NewKey()
		if err != nil {
			return VersionInfo{}, err
		}
		shares, err = secretshare.Split(key, m.N(), m.opts.F+1, nil)
		if err != nil {
			return VersionInfo{}, fmt.Errorf("depsky: secret sharing: %w", err)
		}
	}

	var mu sync.Mutex
	var chunkHashes [][]string
	res, err := stream.Run(ctx, r,
		stream.Config{ChunkSize: m.chunkSize(), Window: m.writeWindow(), Pool: stream.Buffers},
		func(idx int, plain []byte) (encodedChunk, error) {
			return m.encodeChunk(idx, plain, key, shares)
		},
		func(idx int, ec encodedChunk) error {
			// Each cloud's frame is recycled the moment that cloud's upload
			// attempt finishes — and since the quorum verdict cancels the
			// straggling uploads, no cloud pins a frame for longer than the
			// quorum round trip (plus the cancellation delivery).
			err := m.writeQuorumHooked(ctx, m.chunkName(unit, next, idx), "chunk.put",
				func(i int) []byte { return ec.frames[i] },
				func(i int) { stream.Buffers.Put(ec.frames[i]) })
			if err != nil {
				return err
			}
			mu.Lock()
			for len(chunkHashes) <= idx {
				chunkHashes = append(chunkHashes, nil)
			}
			chunkHashes[idx] = ec.hashes
			mu.Unlock()
			return nil
		})
	if err != nil {
		return VersionInfo{}, err
	}

	info := VersionInfo{
		Number:      next,
		DataHash:    seccrypto.HexSum(res.Sum256),
		Size:        int(res.Size),
		Protocol:    m.opts.Protocol,
		ChunkSize:   m.chunkSize(),
		ChunkHashes: chunkHashes[:res.Chunks],
	}
	merged.Versions = append(merged.Versions, info)
	if err := m.writeMetadataQuorum(ctx, merged); err != nil {
		return VersionInfo{}, err
	}
	return info, nil
}

// encodeChunk builds the per-cloud frames for one plaintext chunk:
// encrypt (CA), erasure-split, frame, hash. Every buffer it touches comes
// from (and returns to) the shared pool; the returned frames are pooled by
// the upload stage once all clouds are done with them.
func (m *Manager) encodeChunk(idx int, plain []byte, key []byte, shares []secretshare.Share) (encodedChunk, error) {
	n := m.N()
	ec := encodedChunk{frames: make([][]byte, n), hashes: make([]string, n)}
	if m.opts.Protocol == ProtocolA {
		for i := 0; i < n; i++ {
			b := block{Full: plain, ShardIdx: i, ChunkIdx: idx, ChunkPlainLen: len(plain)}
			frame := stream.Buffers.Get(frameLen(0, len(plain)))
			encodeFrame(frame, ProtocolA, &b)
			ec.frames[i] = frame
			ec.hashes[i] = seccrypto.Hash(frame)
		}
		return ec, nil
	}

	ctLen := len(plain) + seccrypto.CiphertextOverhead
	ciphertext := stream.Buffers.Get(ctLen)
	defer stream.Buffers.Put(ciphertext)
	if _, err := seccrypto.EncryptInto(ciphertext, key, plain); err != nil {
		return ec, err
	}
	backing := stream.Buffers.Get(m.coder.TotalShards() * m.coder.ShardSize(ctLen))
	defer stream.Buffers.Put(backing)
	shards, err := m.coder.SplitInto(ciphertext, backing)
	if err != nil {
		return ec, fmt.Errorf("depsky: erasure coding chunk %d: %w", idx, err)
	}
	for i := 0; i < n; i++ {
		b := block{
			Shard:         shards[i],
			ShardIdx:      i,
			KeyX:          shares[i].X,
			KeyShare:      shares[i].Data,
			ChunkIdx:      idx,
			ChunkPlainLen: len(plain),
		}
		frame := stream.Buffers.Get(frameLen(len(shares[i].Data), len(shards[i])))
		encodeFrame(frame, ProtocolCA, &b)
		ec.frames[i] = frame
		ec.hashes[i] = seccrypto.Hash(frame)
	}
	return ec, nil
}

// --- reads ---

// ErrWholeObjectOnly is returned by OpenRangedMatching for versions the
// manager cannot serve by per-chunk ranged fetches (uncertified or
// malformed entries): callers should fall back to a whole-value read path,
// which verifies the full value hash and can cache the result.
var ErrWholeObjectOnly = errors.New("depsky: version requires the whole-object read path")

// OpenRangedMatching returns a random-access reader over the version of
// unit whose plaintext hash equals hash (the read-by-hash SCFS's
// consistency anchor needs), fetching — and, under faults, reconstructing
// — only the chunks a read touches. Chunks are served individually only
// for a certified entry with consistent geometry: the per-chunk path has no
// end-to-end plaintext hash check, so its trust rests on the metadata's
// ChunkHashes, which certification pins to at least one correct cloud. Any
// other entry returns ErrWholeObjectOnly, sending the caller to ReadMatching,
// which verifies the whole value. The ctx bounds only the metadata lookup
// performed here and supplies the open-time I/O policy; each read through
// the returned reader carries its own context (ReadAtContext / Section).
func (m *Manager) OpenRangedMatching(ctx context.Context, unit, hash string) (*stream.Reader, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "open", unit)
	defer tr.Finish()
	merged := m.mergeMetadata(unit, m.readMetadataQuorum(ctx, unit))
	matching, certified := merged.byHash(hash)
	if len(matching) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, VersionInfo{}, err
		}
		return nil, VersionInfo{}, ErrVersionNotFound
	}
	info := matching[0]
	if !certified || !info.validChunking() {
		return nil, info, ErrWholeObjectOnly
	}
	return m.newChunkReader(ctx, &chunkFetcher{m: m, unit: unit, info: info}), info, nil
}

// newChunkReader wraps a fetcher in a stream.Reader configured from the
// open-time I/O policy: a readahead request becomes the reader's prefetch
// window (sized by its governor as the access pattern allows). The policy
// is also stamped on the reader's base context, so prefetches issued on the
// reader's own behalf hedge their chunk fan-outs the same way foreground
// reads do.
func (m *Manager) newChunkReader(ctx context.Context, f stream.Fetcher) *stream.Reader {
	pol := m.policyFor(ctx)
	if pol.Readahead <= 0 {
		return stream.NewReader(f, stream.Buffers)
	}
	opts := stream.ReaderOptions{
		Readahead:   pol.Readahead,
		MaxParallel: pol.Limits.MaxParallelChunks,
		//scfslint:ignore ctxdiscipline value-only base for prefetches; cancellation comes from the reader lifetime and trigger ctx
		BaseContext: iopolicy.With(context.Background(), pol),
	}
	if m.ins != nil {
		opts.Metrics = m.ins.stream
	}
	return stream.NewReaderOpts(f, stream.Buffers, opts)
}

// readChunkedVersion reassembles a whole version and verifies its stream
// hash. A bounded window of workers fetches the chunks, so the read costs
// ceil(chunks/window) round-trip times, not one per chunk.
//
// An uncertified variant's geometry is the word of a possibly forged copy,
// so it sizes no buffer before frames vouch for it: each chunk's buffer is
// allocated only once f+1 frames (one for DepSky-A) verified against the
// variant's hashes and agree with its chunk index and length, which bounds
// the buffer by the shard bytes actually fetched; the chunks are joined at
// the end. A certified variant is reassembled in place.
func (m *Manager) readChunkedVersion(ctx context.Context, unit string, info VersionInfo, certified bool) ([]byte, error) {
	if !info.validChunking() {
		return nil, fmt.Errorf("%w: inconsistent chunk geometry (size %d, chunk %d x %d)", ErrIntegrity, info.Size, info.ChunkSize, len(info.ChunkHashes))
	}
	chunks := len(info.ChunkHashes)
	var whole []byte
	var parts [][]byte // uncertified: one buffer per decoded chunk
	if certified {
		whole = make([]byte, info.Size)
	} else {
		parts = make([][]byte, chunks)
	}
	dst := func(idx int) []byte {
		if certified {
			start := idx * info.ChunkSize
			return whole[start : start+info.chunkPlainLen(idx)]
		}
		parts[idx] = make([]byte, info.chunkPlainLen(idx))
		return parts[idx]
	}

	f := &chunkFetcher{m: m, unit: unit, info: info}
	errs := make([]error, min(m.writeWindow(), chunks)) // one per worker
	var next atomic.Int64
	var failed atomic.Bool // one lost chunk fails the read: fetch no more
	work := func(w int) {
		for idx := int(next.Add(1) - 1); idx < chunks && !failed.Load(); idx = int(next.Add(1) - 1) {
			if errs[w] = f.fetch(ctx, idx, dst); errs[w] != nil {
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	if len(errs) > 0 {
		work(0) // the calling goroutine is one of the workers
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := whole
	if !certified {
		if chunks == 1 {
			out = parts[0]
		} else {
			out = bytes.Join(parts, nil)
		}
	}
	if seccrypto.Hash(out) != info.DataHash {
		return nil, ErrIntegrity
	}
	return out, nil
}

// chunkFetcher decodes individual chunks of a version. The secret-shared
// key is combined once on the first chunk and cached for the rest of the
// read.
type chunkFetcher struct {
	m    *Manager
	unit string
	info VersionInfo

	mu  sync.Mutex
	key []byte
}

// Size implements stream.Fetcher.
func (f *chunkFetcher) Size() int64 { return int64(f.info.Size) }

// ChunkSize implements stream.Fetcher.
func (f *chunkFetcher) ChunkSize() int { return f.info.ChunkSize }

// Close implements stream.Fetcher.
func (f *chunkFetcher) Close() error { return nil }

// cachedKey returns the version key recovered by a previous chunk, if any.
func (f *chunkFetcher) cachedKey() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.key
}

// setKey caches the recovered version key.
func (f *chunkFetcher) setKey(key []byte) {
	f.mu.Lock()
	f.key = key
	f.mu.Unlock()
}

// Fetch implements stream.Fetcher: decode chunk idx into dst.
func (f *chunkFetcher) Fetch(ctx context.Context, idx int, dst []byte) error {
	if idx < 0 || idx >= len(f.info.ChunkHashes) {
		return fmt.Errorf("depsky: chunk %d out of range (version has %d)", idx, len(f.info.ChunkHashes))
	}
	if len(dst) != f.info.chunkPlainLen(idx) {
		return fmt.Errorf("depsky: chunk %d buffer is %d bytes, want %d", idx, len(dst), f.info.chunkPlainLen(idx))
	}
	return f.fetch(ctx, idx, func(int) []byte { return dst })
}

// fetch fans chunk idx's frame reads over the clouds, verifies each frame
// against the metadata hashes and geometry, and decodes as soon as enough
// verified frames arrived — reconstructing missing shards for degraded
// reads — into dst(idx), which is called at most once and only then. The
// moment a decode succeeds the remaining per-cloud fetches are cancelled
// (first quorum wins); cancelling ctx aborts the whole fan-out and returns
// ctx.Err(). Under a hedge policy (carried by ctx) only the f+1 preferred
// clouds are contacted up front, the rest after the tracked delay
// percentile or on a preferred cloud's failure.
func (f *chunkFetcher) fetch(ctx context.Context, idx int, dst func(idx int) []byte) error {
	m := f.m
	protocol := f.info.Protocol
	hashes := f.info.ChunkHashes[idx]
	plainLen := f.info.chunkPlainLen(idx)
	pol := m.policyFor(ctx)
	op := m.blockOp(protocol, plainLen)
	gate := m.newHedgeGate(pol, pol.Hedge, m.readNeed(protocol), op)
	tr := telemetry.FromContext(ctx)
	opCtx, cancel := m.quorumCtx(ctx)
	defer cancel()
	name := m.chunkName(f.unit, f.info.Number, idx)
	results := make(chan *block, m.N())
	var wg sync.WaitGroup
	for i, c := range m.opts.Clouds {
		wg.Add(1)
		go func(i int, c cloud.ObjectStore) {
			defer wg.Done()
			if !gate.enter(opCtx, i) {
				m.recordGated(tr, "chunk.get", i, gate.hedged(i))
				results <- nil
				return
			}
			start := time.Now()
			var data []byte
			err := m.timedCloudCall(opCtx, pol, i, op, func(ctx context.Context) error {
				var err error
				data, err = c.Get(ctx, name)
				return err
			})
			m.recordSpan(tr, "chunk.get", i, start, gate.hedged(i), err)
			// Discard frames whose hash does not match the metadata (this
			// is how silently corrupting clouds are tolerated) or whose
			// header disagrees with the version's geometry.
			if err != nil || i >= len(hashes) || !seccrypto.VerifyHash(data, hashes[i]) {
				results <- nil
				return
			}
			b, err := decodeBlock(data)
			if err != nil || !m.frameFits(b, protocol, i, idx, plainLen) {
				results <- nil
				return
			}
			results <- b
		}(i, c)
	}
	go func() { wg.Wait(); close(results) }()

	var plain []byte
	chunkDst := func() []byte { // dst is called at most once
		if plain == nil {
			plain = dst(idx)
		}
		return plain
	}
	scratch := &decodeScratch{}
	defer scratch.release()
	blocks := make([]*block, 0, m.N())
	for b := range results {
		if b == nil {
			gate.kick() // unusable response: release one gated cloud
			continue
		}
		blocks = append(blocks, b)
		if err := f.decodeChunk(idx, blocks, chunkDst, scratch); err == nil {
			if tr != nil {
				tr.SetVerdict(time.Since(tr.Start))
			}
			cancel() // first quorum wins: abort the redundant fetches
			return nil
		} else if len(blocks) >= m.readNeed(protocol) {
			gate.kick() // enough frames but no decode yet: pull in another
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(blocks) == 0 {
		return ErrQuorumRead
	}
	return f.decodeChunk(idx, blocks, chunkDst, scratch)
}

// frameFits reports whether a decoded frame fetched from cloud i is chunk
// idx of a version with the given protocol, carrying plainLen plaintext
// bytes, and whether its payload length matches that geometry — so a frame
// can only vouch for a chunk length its own bytes account for.
func (m *Manager) frameFits(b *block, protocol Protocol, i, idx, plainLen int) bool {
	if b.ShardIdx != i || b.ChunkIdx != idx || b.ChunkPlainLen != plainLen {
		return false
	}
	if protocol == ProtocolA {
		return b.Full != nil && len(b.Full) == plainLen
	}
	return b.Shard != nil && len(b.Shard) == m.coder.ShardSize(plainLen+seccrypto.CiphertextOverhead)
}

// decodeChunk attempts to decode chunk idx into dst() from the verified
// frames collected so far; dst is only called once enough frames arrived.
func (f *chunkFetcher) decodeChunk(idx int, blocks []*block, dst func() []byte, scratch *decodeScratch) error {
	m := f.m
	scratch.reset()
	if f.info.Protocol == ProtocolA {
		copy(dst(), blocks[0].Full)
		return nil
	}

	needed := m.opts.F + 1
	shards := make([][]byte, m.coder.TotalShards())
	var shares []secretshare.Share
	present := 0
	for _, b := range blocks {
		if shards[b.ShardIdx] == nil {
			present++
		}
		shards[b.ShardIdx] = b.Shard
		if b.KeyShare != nil {
			shares = append(shares, secretshare.Share{X: b.KeyX, Data: b.KeyShare})
		}
	}
	key := f.cachedKey()
	if present < needed || (key == nil && len(shares) < needed) {
		return ErrQuorumRead
	}
	if key == nil {
		combined, err := secretshare.Combine(shares, needed)
		if err != nil {
			return fmt.Errorf("depsky: recovering key: %w", err)
		}
		key = combined
		f.setKey(key)
	}

	shardSize := len(blocks[0].Shard)
	missingData := 0
	for i := 0; i < m.coder.DataShards; i++ {
		if shards[i] == nil {
			missingData++
		}
	}
	if err := m.coder.ReconstructDataInto(shards, scratch.get(missingData*shardSize)); err != nil {
		return fmt.Errorf("depsky: reconstructing chunk %d: %w", idx, err)
	}
	plain := dst()
	cipherLen := len(plain) + seccrypto.CiphertextOverhead
	ciphertext := scratch.get(cipherLen)
	if err := m.coder.JoinInto(ciphertext, shards, cipherLen); err != nil {
		return fmt.Errorf("depsky: joining chunk %d: %w", idx, err)
	}
	if _, err := seccrypto.DecryptInto(plain, key, ciphertext); err != nil {
		return fmt.Errorf("depsky: decrypting chunk %d: %w", idx, err)
	}
	return nil
}

// deleteChunks removes the per-cloud chunk objects of one version; used by
// DeleteVersion.
func (m *Manager) deleteChunks(ctx context.Context, unit string, info VersionInfo) {
	names := make([]string, len(info.ChunkHashes))
	for idx := range names {
		names[idx] = m.chunkName(unit, info.Number, idx)
	}
	var wg sync.WaitGroup
	for _, c := range m.opts.Clouds {
		wg.Add(1)
		go func(c cloud.ObjectStore) {
			defer wg.Done()
			for _, name := range names {
				_ = c.Delete(ctx, name) // best effort; failures only waste space
			}
		}(c)
	}
	wg.Wait()
}
