package depsky

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
)

// TestForgedMetadataSizeBounded pins the metadata edition of the
// DecodeBatch bug class (and the untrustedalloc invariant): VersionInfo is
// JSON from possibly-corrupt clouds, so a forged Size must be rejected
// before it sizes an allocation, not discovered by an OOM inside make(). A
// terabyte Size costs the attacker ~17 bytes of JSON; the chunk geometry
// check turns it into ErrIntegrity.
func TestForgedMetadataSizeBounded(t *testing.T) {
	_, m := newManager(t, ProtocolCA)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	info, err := m.Write(bg, "u", data)
	if err != nil {
		t.Fatal(err)
	}

	forged := info
	forged.Size = 1 << 40 // 1 TiB claimed, 4 KiB stored
	if _, err := m.readChunkedVersion(bg, "u", forged, false); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("forged Size: err = %v, want ErrIntegrity", err)
	}

	negative := info
	negative.Size = -1
	if _, err := m.readChunkedVersion(bg, "u", negative, false); err == nil {
		t.Fatal("negative Size: want error, got nil")
	}

	// The genuine metadata still reads back fine.
	got, err := m.readChunkedVersion(bg, "u", info, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestChunkSizeWireCap: the chunk geometry is attacker-chosen until
// certification. MaxChunkSize is the wire cap that keeps any allocation
// sized by it linear in the metadata the attacker must actually store: a
// single-chunk variant declaring a huge ChunkSize must fail validation, and
// the writer clamps its configured chunk size so it can never emit versions
// readers reject.
func TestChunkSizeWireCap(t *testing.T) {
	huge := VersionInfo{Number: 1, Size: 1 << 40, ChunkSize: 1 << 40,
		ChunkHashes: [][]string{nil}, Protocol: ProtocolCA}
	if huge.validChunking() {
		t.Fatal("ChunkSize beyond the wire cap accepted")
	}
	_, m := newChunkedManager(t, ProtocolCA, 2048)
	if _, err := m.readChunkedVersion(bg, "u", huge, false); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}

	atCap := VersionInfo{Number: 1, Size: MaxChunkSize, ChunkSize: MaxChunkSize,
		ChunkHashes: [][]string{nil}, Protocol: ProtocolCA}
	if !atCap.validChunking() {
		t.Fatal("ChunkSize at the wire cap rejected")
	}

	m.opts.ChunkSize = MaxChunkSize + 1
	if got := m.chunkSize(); got != MaxChunkSize {
		t.Fatalf("writer chunk size = %d, want clamped to %d", got, MaxChunkSize)
	}
}

// TestForgedVariantAllocatesByVerifiedBytes: one Byzantine cloud rewrites
// its metadata copy of a 4 KiB version into the "richest" variant — five
// frame hashes (the honest four plus one) and Size = ChunkSize =
// MaxChunkSize — so the merge tries it first whenever the honest entry is
// not certified. A reader must not size a buffer by that claim before any
// frame backs it: the honest frames verify against the copied hashes but
// carry a 4 KiB chunk, so nothing 256 MiB-sized is ever allocated, and the
// honest variant serves the read. Cloud 1 is down, so the forged cloud 0
// is in every read quorum; in the second case cloud 3 also lost its copy,
// leaving the honest entry uncertified.
func TestForgedVariantAllocatesByVerifiedBytes(t *testing.T) {
	for _, lostCopy := range []bool{false, true} {
		providers, clients := testClouds(t, 4)
		m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0x5A}, 4096)
		info, err := m.Write(bg, "u", data)
		if err != nil {
			t.Fatal(err)
		}
		waitForCopies(t, m, clients, "u", func(md *unitMetadata) bool { return len(md.Versions) == 1 })
		forgeRichestCopy(t, m, clients[0], info.Number)
		providers[1].SetFault(cloudsim.FaultUnavailable)
		if lostCopy {
			if err := clients[3].Delete(bg, m.metaName("u")); err != nil {
				t.Fatal(err)
			}
		}

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := m.ReadMatching(bg, "u", info.DataHash)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("lost copy %v: ReadMatching: %v", lostCopy, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lost copy %v: ReadMatching returned the wrong bytes", lostCopy)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
			t.Fatalf("lost copy %v: read allocated %d bytes, want < 4 MiB", lostCopy, alloc)
		}
	}
}

// forgeRichestCopy rewrites version number's entry in one cloud's metadata
// copy into a variant claiming MaxChunkSize bytes and carrying one more
// frame hash than the honest entry.
func forgeRichestCopy(t *testing.T, m *Manager, evil cloud.ObjectStore, number uint64) {
	t.Helper()
	raw, err := evil.Get(bg, m.metaName("u"))
	if err != nil {
		t.Fatal(err)
	}
	var md unitMetadata
	if err := json.Unmarshal(raw, &md); err != nil {
		t.Fatal(err)
	}
	for i := range md.Versions {
		v := &md.Versions[i]
		if v.Number == number {
			v.Size, v.ChunkSize = MaxChunkSize, MaxChunkSize
			v.ChunkHashes = [][]string{append(append([]string{}, v.ChunkHashes[0]...), v.ChunkHashes[0][0])}
		}
	}
	forged, err := json.Marshal(&md)
	if err != nil {
		t.Fatal(err)
	}
	if err := evil.Put(bg, m.metaName("u"), forged); err != nil {
		t.Fatal(err)
	}
}
