package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary header values to ParseTraceparent,
// which the gateway runs on every client's traceparent header: no input
// may panic it, and an accepted header names a non-zero trace ID, the one
// its trace-id field spells, which round-trips through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			if !id.IsZero() {
				t.Fatalf("rejected %q but returned ID %s", h, id)
			}
			return
		}
		if id.IsZero() {
			t.Fatalf("accepted %q with a zero trace ID", h)
		}
		if field := strings.Split(strings.TrimSpace(h), "-")[1]; !strings.EqualFold(field, id.String()) {
			t.Fatalf("accepted %q as trace ID %s", h, id)
		}
		if again, ok := ParseTraceparent(id.Traceparent()); !ok || again != id {
			t.Fatalf("Traceparent of %s does not round-trip: %v, %v", id, again, ok)
		}
	})
}
