package depsky

import (
	"bytes"
	"math"
	"testing"
	"time"

	"scfs/internal/pricing"
)

// costManager builds a 4-cloud manager with instant clouds, a small chunk
// size and the bundled price table.
func costManager(t *testing.T, chunkSize int) *Manager {
	t.Helper()
	m, _, _ := hedgeManager(t, []time.Duration{0, 0, 0, 0}, Options{
		ChunkSize: chunkSize,
		Pricing:   pricing.Table{Default: pricing.DefaultRates},
	})
	return m
}

func TestEstimateCostAxes(t *testing.T) {
	const size = 16 * 4096
	// The same value as one chunk and as 16.
	whole := costManager(t, size).EstimateCost(size)
	chunked := costManager(t, 4096).EstimateCost(size)
	if whole.StoragePerMonth <= 0 || whole.UploadOnce <= 0 || whole.ReadOnce <= 0 {
		t.Fatalf("whole-object estimate has zero axes: %+v", whole)
	}
	// Same bytes, same recurring storage (modulo per-chunk shard padding).
	if chunked.StoragePerMonth < whole.StoragePerMonth {
		t.Fatalf("chunked storage %.3e below whole-object %.3e", chunked.StoragePerMonth, whole.StoragePerMonth)
	}
	// The fee axes must discriminate: a 16-chunk version pays ~16x the
	// request fees of one blob on upload and per read. This is what lets
	// the GC rank fee-heavy versions above big cheap blobs of equal size.
	if chunked.UploadOnce < 4*whole.UploadOnce {
		t.Fatalf("chunked upload fees %.3e do not reflect per-object PUTs (whole %.3e)", chunked.UploadOnce, whole.UploadOnce)
	}
	// (Egress scales with bytes and is equal on both; the per-object GET
	// fees on top still separate them clearly.)
	if chunked.ReadOnce < 2*whole.ReadOnce {
		t.Fatalf("chunked read fees %.3e do not reflect per-object GETs (whole %.3e)", chunked.ReadOnce, whole.ReadOnce)
	}
	// The GC's per-byte ranking value (storage + one read) must therefore
	// be strictly higher for the chunk-heavy version.
	bytesOf := func(e pricing.Estimate) float64 { return e.StoragePerMonth + e.ReadOnce }
	if bytesOf(chunked) <= bytesOf(whole) {
		t.Fatalf("chunk-heavy version must out-value an equal-size blob: %.3e vs %.3e", bytesOf(chunked), bytesOf(whole))
	}
}

func TestVersionCostMatchesEstimate(t *testing.T) {
	m := costManager(t, 4096)
	data := bytes.Repeat([]byte{0x7A}, 10*4096)
	info, err := m.WriteFrom(bg, "u", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := m.VersionCost(info)
	want := m.EstimateCost(int64(len(data)))
	if got != want {
		t.Fatalf("VersionCost %+v != EstimateCost %+v for the version just written", got, want)
	}
	// A zero-value pricing table still yields sane (DefaultRates-priced)
	// numbers rather than zeros.
	m2, _, _ := hedgeManager(t, []time.Duration{0, 0, 0, 0}, Options{})
	if est := m2.EstimateCost(1 << 20); est.StoragePerMonth <= 0 {
		t.Fatalf("zero table must price with DefaultRates: %+v", est)
	}
}

// TestEstimateCostPinned pins the dollars of the default 1 MiB-chunk
// layout under the bundled rates, for both protocols: 0 B and 4 KiB are
// one chunk, 1 MiB+1 two, 64 MiB sixty-four. The figures are those of the
// cost model before footprint and dollars were derived from one Footprint,
// so the unification changed no estimate.
func TestEstimateCostPinned(t *testing.T) {
	rates := pricing.Table{Default: pricing.DefaultRates}
	mCA, _, _ := hedgeManager(t, []time.Duration{0, 0, 0, 0}, Options{Pricing: rates})
	mA, _, _ := hedgeManager(t, []time.Duration{0, 0, 0, 0}, Options{Protocol: ProtocolA, Pricing: rates})
	cases := []struct {
		m    *Manager
		size int64
		want pricing.Estimate
	}{
		{mCA, 0, pricing.Estimate{StoragePerMonth: 5.140900611877442e-10, UploadOnce: 3.0000000000000004e-05, ReadOnce: 8.013411045074463e-07}},
		{mCA, 4096, pricing.Estimate{StoragePerMonth: 1.3212114572525022e-07, UploadOnce: 3.0000000000000004e-05, ReadOnce: 1.1446638584136962e-06}},
		{mCA, 1<<20 + 1, pricing.Estimate{StoragePerMonth: 3.369249869138002e-05, UploadOnce: 4.500000000000001e-05, ReadOnce: 8.949347484707833e-05}},
		{mCA, 64 << 20, pricing.Estimate{StoragePerMonth: 0.002156282901763916, UploadOnce: 0.0009750000000000002, ReadOnce: 0.005676285830688477}},
		{mA, 0, pricing.Estimate{StoragePerMonth: 0, UploadOnce: 3.5000000000000004e-05, ReadOnce: 4e-07}},
		{mA, 4096, pricing.Estimate{StoragePerMonth: 3.509521484375e-07, UploadOnce: 3.5000000000000004e-05, ReadOnce: 7.4332275390625e-07}},
		{mA, 1<<20 + 1, pricing.Estimate{StoragePerMonth: 8.984383568167687e-05, UploadOnce: 5.500000000000001e-05, ReadOnce: 8.869070881903171e-05}},
		{mA, 64 << 20, pricing.Estimate{StoragePerMonth: 0.00575, UploadOnce: 0.0012950000000000001, ReadOnce: 0.0056505999999999995}},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	for _, c := range cases {
		got := c.m.EstimateCost(c.size)
		if !near(got.StoragePerMonth, c.want.StoragePerMonth) || !near(got.UploadOnce, c.want.UploadOnce) ||
			!near(got.ReadOnce, c.want.ReadOnce) || !near(got.DeleteOnce, c.want.DeleteOnce) {
			t.Errorf("%s %d B: EstimateCost = %+v, want %+v", c.m.opts.Protocol, c.size, got, c.want)
		}
	}
}
