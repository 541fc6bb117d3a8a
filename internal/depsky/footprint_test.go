package depsky

import (
	"bytes"
	"testing"
	"time"
)

// TestFootprintWeighsChunksAgainstBlocks is the point of the cost model:
// for the same payload, 16 small chunks store roughly the bytes of one big
// chunk but multiply objects and request fees by the chunk count — exactly
// the axis a byte count alone cannot see.
func TestFootprintWeighsChunksAgainstBlocks(t *testing.T) {
	const chunk = 4096
	const size = 16 * chunk
	m, _, _ := hedgeManager(t, make([]time.Duration, 4), Options{ChunkSize: chunk})
	mWhole, _, _ := hedgeManager(t, make([]time.Duration, 4), Options{ChunkSize: size})

	whole := mWhole.EstimateFootprint(size)
	chunked := m.EstimateFootprint(size)

	if whole.Objects != 3 { // one block on each of the n-f = 3 preferred clouds
		t.Fatalf("whole-object Objects = %d, want 3", whole.Objects)
	}
	if chunked.Objects != 16*3 {
		t.Fatalf("chunked Objects = %d, want 48", chunked.Objects)
	}
	if chunked.GetRequestsPerRead != 16*2 { // f+1 = 2 decoding clouds per chunk
		t.Fatalf("chunked GetRequestsPerRead = %d, want 32", chunked.GetRequestsPerRead)
	}
	if whole.GetRequestsPerRead != 2 {
		t.Fatalf("whole GetRequestsPerRead = %d, want 2", whole.GetRequestsPerRead)
	}
	if chunked.DeleteRequests != 16*4 { // deletes are best-effort on all n clouds
		t.Fatalf("chunked DeleteRequests = %d, want 64", chunked.DeleteRequests)
	}
	// Bytes stay within ~2x of each other (per-chunk shard padding only).
	if chunked.Bytes < whole.Bytes || chunked.Bytes > 2*whole.Bytes {
		t.Fatalf("chunked Bytes = %d vs whole %d: expected same order", chunked.Bytes, whole.Bytes)
	}
	// A whole read downloads f+1 of the n-f stored shards.
	if whole.ReadBytes*3 != whole.Bytes*2 || chunked.ReadBytes*3 != chunked.Bytes*2 {
		t.Fatalf("ReadBytes %d/%d not 2/3 of Bytes %d/%d", whole.ReadBytes, chunked.ReadBytes, whole.Bytes, chunked.Bytes)
	}
}

// TestVersionFootprintMatchesStoredVersion: the footprint computed from
// real version metadata agrees with the prediction for the same geometry.
func TestVersionFootprintMatchesStoredVersion(t *testing.T) {
	const chunk = 4096
	m, _, _ := hedgeManager(t, make([]time.Duration, 4), Options{ChunkSize: chunk})
	data := bytes.Repeat([]byte{0xEB}, 5*chunk+123)

	info, err := m.WriteFrom(bg, "u", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := m.VersionFootprint(info)
	want := m.EstimateFootprint(int64(len(data)))
	if got != want {
		t.Fatalf("VersionFootprint %+v != EstimateFootprint %+v", got, want)
	}

	// Write stores the same layout as WriteFrom, a short value included.
	for _, size := range []int{len(data), 100} {
		v, err := m.Write(bg, "w", data[:size])
		if err != nil {
			t.Fatal(err)
		}
		if got := m.VersionFootprint(v); got != m.EstimateFootprint(int64(size)) {
			t.Fatalf("%d B: Write VersionFootprint %+v != EstimateFootprint", size, got)
		}
	}
}
