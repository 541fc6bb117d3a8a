package scfs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"scfs"
	"scfs/internal/gateway"
)

// TestGatewayEndToEndTrace: one HTTP request through the gateway must yield
// exactly one trace spanning the whole metadata plane — the gateway's HTTP
// span, the smr invocations its coordination lookups turned into, the shard
// routing decisions, and the per-cloud RPCs of the data fetch — joined to
// the caller's W3C traceparent identity and echoed back in X-SCFS-Trace.
func TestGatewayEndToEndTrace(t *testing.T) {
	m, err := scfs.New(bg,
		scfs.WithClouds(namedStores()...),
		scfs.WithDiskCache(t.TempDir(), 1), // ~no cache: force cloud RPCs
		scfs.WithMemoryCache(1),
		scfs.WithCoordShards(2),
		scfs.WithMaxInflight(8),
		scfs.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(bg) })

	if err := m.Mkdir(bg, "/docs"); err != nil {
		t.Fatal(err)
	}
	if err := scfs.WriteFile(bg, m, "/docs/f.txt", []byte("end to end")); err != nil {
		t.Fatal(err)
	}

	gw, err := gateway.New(m, []gateway.Tenant{{Name: "acme"}},
		gateway.WithTracer(m.Tracer()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	const traceID = "0123456789abcdef0123456789abcdef"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/acme/docs/f.txt", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = status %d, err %v", resp.StatusCode, err)
	}
	if string(body) != "end to end" {
		t.Fatalf("body = %q", body)
	}
	// The response names the trace it produced — the caller's identity.
	if got := resp.Header.Get("X-SCFS-Trace"); got != traceID {
		t.Fatalf("X-SCFS-Trace = %q, want %q", got, traceID)
	}

	// Exactly one trace carries the propagated ID, and it spans every layer.
	var tr *scfs.Trace
	for _, c := range m.Traces(0) {
		if c.ID.String() != traceID {
			continue
		}
		if tr != nil {
			t.Fatal("more than one trace with the propagated ID")
		}
		tr = c
	}
	if tr == nil {
		t.Fatalf("no recent trace with ID %s", traceID)
	}
	if tr.Op != "http.get" {
		t.Fatalf("trace op = %q, want http.get", tr.Op)
	}
	names := make(map[string]bool)
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"http.get", "smr.invoke", "shard.route"} {
		if !names[want] {
			t.Errorf("trace missing a %q span; spans:\n%v", want, tr.Describe())
		}
	}
	if !names["meta.get"] && !names["block.get"] && !names["chunk.get"] {
		t.Errorf("trace has no per-cloud RPC span; spans:\n%v", tr.Describe())
	}
}
