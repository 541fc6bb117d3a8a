package benchmarks

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
)

// skewedManager builds the skewed cloud-of-clouds the cancellation
// benchmarks run against: three instant clouds and one straggler with a
// real (small, so benchmarks stay fast) round-trip time. This is the shape
// where first-quorum-wins cancellation pays: the quorum answers immediately
// and the straggler's fetch is pure waste.
func skewedManager(b testing.TB, disableCancel bool) (*depsky.Manager, []*cloudsim.Provider, []string) {
	b.Helper()
	const stragglerRTT = 5 * time.Millisecond
	providers := make([]*cloudsim.Provider, 4)
	clients := make([]cloud.ObjectStore, 4)
	accounts := make([]string, 4)
	for i := range providers {
		opts := cloudsim.Options{Name: fmt.Sprintf("c%d", i)}
		if i == 3 {
			opts.Latency, opts.LatencyScale = cloudsim.LatencyProfile{RTT: stragglerRTT}, 1
		}
		providers[i] = cloudsim.NewProvider(opts)
		accounts[i] = providers[i].CreateAccount("bench")
		clients[i] = providers[i].MustClient(accounts[i])
	}
	m, err := depsky.New(depsky.Options{Clouds: clients, F: 1, DisableQuorumCancel: disableCancel})
	if err != nil {
		b.Fatal(err)
	}
	return m, providers, accounts
}

// BenchmarkDepSkySkewedRead measures a 256 KiB read against the skewed
// deployment in both modes. Two signals are tracked by the benchguard:
//
//   - ns/op: without cancellation every metadata read waits for all four
//     clouds, so the straggler's RTT lands on every operation's tail; with
//     first-quorum-wins the read returns at the quorum.
//   - cloudB/op: the total bytes the clouds shipped per read. Without
//     cancellation the straggler's redundant block fetch runs (and bills)
//     to completion; with it the fetch is aborted before the payload moves.
func BenchmarkDepSkySkewedRead(b *testing.B) {
	for _, mode := range []struct {
		name          string
		disableCancel bool
	}{
		{"FirstQuorumCancel", false},
		{"NoCancel", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m, providers, accounts := skewedManager(b, mode.disableCancel)
			data := bytes.Repeat([]byte{0x42}, 256<<10)
			if _, err := m.Write(bg, "u", data); err != nil {
				b.Fatal(err)
			}
			// Let the write's own stragglers drain so the read measurement
			// starts from a quiet system.
			time.Sleep(50 * time.Millisecond)
			bytesOut := func() int64 {
				var total int64
				for i, p := range providers {
					total += p.Usage(accounts[i]).BytesOut
				}
				return total
			}
			before := bytesOut()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := m.Read(bg, "u")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(data) {
					b.Fatal("short read")
				}
			}
			b.StopTimer()
			// Un-cancelled stragglers from the last iterations may still be
			// sleeping out their RTT before billing; wait them out so the
			// no-cancel mode is charged everything it fetched.
			time.Sleep(100 * time.Millisecond)
			b.ReportMetric(float64(bytesOut()-before)/float64(b.N), "cloudB/op")
		})
	}
}
