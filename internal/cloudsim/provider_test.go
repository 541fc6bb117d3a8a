package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/cloud"
)

// newTestProvider returns a zero-latency, strongly consistent provider.
var bg = context.Background()

func newTestProvider() *Provider {
	return NewProvider(Options{Name: "test"})
}

func TestPutGetRoundTrip(t *testing.T) {
	p := newTestProvider()
	alice := p.CreateAccount("alice")
	c := p.MustClient(alice)
	data := []byte("hello cloud")
	if err := c.Put(bg, "dir/file1", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(bg, "dir/file1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
}

func TestGetMissingObject(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	if _, err := c.Get(bg, "nope"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := c.Head(bg, "nope"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("Head err = %v, want ErrNotFound", err)
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	if err := c.Put(bg, "obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "obj", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(bg, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("Get = %q, want v2", got)
	}
}

func TestDeleteRemovesAndIsIdempotent(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	if err := c.Put(bg, "obj", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(bg, "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(bg, "obj"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("after delete, err = %v, want ErrNotFound", err)
	}
	if err := c.Delete(bg, "obj"); err != nil {
		t.Fatalf("second delete should be a no-op, got %v", err)
	}
	if err := c.Delete(bg, "never-existed"); err != nil {
		t.Fatalf("deleting non-existent object should be a no-op, got %v", err)
	}
}

func TestHeadReportsSizeAndOwner(t *testing.T) {
	p := newTestProvider()
	alice := p.CreateAccount("alice")
	c := p.MustClient(alice)
	if err := c.Put(bg, "obj", make([]byte, 1234)); err != nil {
		t.Fatal(err)
	}
	info, err := c.Head(bg, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 1234 || info.Owner != alice || info.Name != "obj" {
		t.Fatalf("unexpected Head info: %+v", info)
	}
}

func TestListPrefixAndOrdering(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	for _, name := range []string{"b/2", "a/1", "b/1", "c"} {
		if err := c.Put(bg, name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.List(bg, "b/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "b/1" || got[1].Name != "b/2" {
		t.Fatalf("List(b/) = %+v", got)
	}
	all, err := c.List(bg, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("List(\"\") returned %d objects, want 4", len(all))
	}
}

func TestACLEnforcement(t *testing.T) {
	p := newTestProvider()
	alice := p.CreateAccount("alice")
	bob := p.CreateAccount("bob")
	ca := p.MustClient(alice)
	cb := p.MustClient(bob)

	if err := ca.Put(bg, "shared", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	// Bob has no access yet.
	if _, err := cb.Get(bg, "shared"); !errors.Is(err, cloud.ErrAccessDenied) {
		t.Fatalf("bob Get err = %v, want ErrAccessDenied", err)
	}
	if err := cb.Put(bg, "shared", []byte("overwrite")); !errors.Is(err, cloud.ErrAccessDenied) {
		t.Fatalf("bob Put err = %v, want ErrAccessDenied", err)
	}
	// Bob must not see the object in listings either.
	l, err := cb.List(bg, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 0 {
		t.Fatalf("bob should not list alice's private objects, got %+v", l)
	}
	// Grant read.
	if err := ca.SetACL(bg, "shared", []cloud.Grant{{Grantee: bob, Perm: cloud.PermRead}}); err != nil {
		t.Fatal(err)
	}
	got, err := cb.Get(bg, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "secret" {
		t.Fatalf("bob read %q", got)
	}
	// Read grant does not allow writes.
	if err := cb.Put(bg, "shared", []byte("x")); !errors.Is(err, cloud.ErrAccessDenied) {
		t.Fatalf("bob write with read grant err = %v, want ErrAccessDenied", err)
	}
	// Upgrade to read-write.
	if err := ca.SetACL(bg, "shared", []cloud.Grant{{Grantee: bob, Perm: cloud.PermReadWrite}}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Put(bg, "shared", []byte("bob was here")); err != nil {
		t.Fatal(err)
	}
	// Only the owner may change or read ACLs.
	if err := cb.SetACL(bg, "shared", nil); !errors.Is(err, cloud.ErrAccessDenied) {
		t.Fatalf("bob SetACL err = %v, want ErrAccessDenied", err)
	}
	if _, err := cb.GetACL(bg, "shared"); !errors.Is(err, cloud.ErrAccessDenied) {
		t.Fatalf("bob GetACL err = %v, want ErrAccessDenied", err)
	}
	grants, err := ca.GetACL(bg, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].Grantee != bob || grants[0].Perm != cloud.PermReadWrite {
		t.Fatalf("unexpected grants %+v", grants)
	}
	// Revoking (PermNone) removes the grant.
	if err := ca.SetACL(bg, "shared", []cloud.Grant{{Grantee: bob, Perm: cloud.PermNone}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Get(bg, "shared"); !errors.Is(err, cloud.ErrAccessDenied) {
		t.Fatalf("after revoke, bob Get err = %v, want ErrAccessDenied", err)
	}
}

func TestACLOnMissingObject(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	if err := c.SetACL(bg, "missing", nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("SetACL err = %v, want ErrNotFound", err)
	}
	if _, err := c.GetACL(bg, "missing"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("GetACL err = %v, want ErrNotFound", err)
	}
}

func TestUnknownAccountRejected(t *testing.T) {
	p := newTestProvider()
	if _, err := p.Client("not-an-account"); err == nil {
		t.Fatal("Client with unknown account should fail")
	}
}

func TestEventualConsistencyWindow(t *testing.T) {
	clk := clock.NewSim(time.Unix(1000, 0))
	p := NewProvider(Options{
		Name:              "ec",
		ConsistencyWindow: 10 * time.Second,
		LatencyScale:      1,
		Clock:             clk,
		Seed:              7,
	})
	c := p.MustClient(p.CreateAccount("alice"))
	if err := c.Put(bg, "obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Before the window has certainly elapsed the object may be invisible;
	// after the full window it must be visible.
	clk.Advance(11 * time.Second)
	got, err := c.Get(bg, "obj")
	if err != nil {
		t.Fatalf("after full window, err = %v", err)
	}
	if string(got) != "v1" {
		t.Fatalf("got %q", got)
	}
}

func TestEventualConsistencyServesStaleVersion(t *testing.T) {
	clk := clock.NewSim(time.Unix(1000, 0))
	p := NewProvider(Options{Name: "ec", ConsistencyWindow: 10 * time.Second, LatencyScale: 1, Clock: clk, Seed: 42})
	c := p.MustClient(p.CreateAccount("alice"))
	if err := c.Put(bg, "obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute) // v1 now fully visible
	if err := c.Put(bg, "obj", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Immediately after the second write the store may legitimately return
	// either v1 or v2, but never an error and never garbage.
	got, err := c.Get(bg, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" && string(got) != "v2" {
		t.Fatalf("got unexpected payload %q", got)
	}
	clk.Advance(time.Minute)
	got, err = c.Get(bg, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("after window, got %q, want v2", got)
	}
}

func TestFaultUnavailable(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	if err := c.Put(bg, "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.SetFault(FaultUnavailable)
	if _, err := c.Get(bg, "obj"); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("Get err = %v, want ErrUnavailable", err)
	}
	if err := c.Put(bg, "obj2", []byte("y")); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("Put err = %v, want ErrUnavailable", err)
	}
	if _, err := c.List(bg, ""); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("List err = %v, want ErrUnavailable", err)
	}
	p.SetFault(FaultNone)
	if _, err := c.Get(bg, "obj"); err != nil {
		t.Fatalf("after recovery, err = %v", err)
	}
}

func TestFaultCorruptReturnsDifferentBytes(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	orig := bytes.Repeat([]byte{1, 2, 3, 4}, 100)
	if err := c.Put(bg, "obj", orig); err != nil {
		t.Fatal(err)
	}
	p.SetFault(FaultCorrupt)
	got, err := c.Get(bg, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("corrupting provider returned pristine data")
	}
	// The stored copy must remain intact (corruption is on the read path).
	p.SetFault(FaultNone)
	got, err = c.Get(bg, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("stored data was corrupted permanently")
	}
}

func TestFaultLoseWrites(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	p.SetFault(FaultLoseWrites)
	if err := c.Put(bg, "obj", []byte("x")); err != nil {
		t.Fatalf("lose-writes provider must still acknowledge, got %v", err)
	}
	p.SetFault(FaultNone)
	if _, err := c.Get(bg, "obj"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (write was dropped)", err)
	}
}

func TestUsageMetering(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	p := NewProvider(Options{Name: "meter", Clock: clk})
	alice := p.CreateAccount("alice")
	c := p.MustClient(alice)

	payload := make([]byte, 1000)
	if err := c.Put(bg, "obj", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(bg, "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(bg, ""); err != nil {
		t.Fatal(err)
	}
	u := p.Usage(alice)
	if u.PutRequests != 1 || u.GetRequests != 1 || u.ListRequests != 1 {
		t.Fatalf("request counts = %+v", u)
	}
	if u.BytesIn != 1000 || u.BytesOut != 1000 {
		t.Fatalf("bytes in/out = %d/%d, want 1000/1000", u.BytesIn, u.BytesOut)
	}
	if u.StoredBytes != 1000 {
		t.Fatalf("stored bytes = %d, want 1000", u.StoredBytes)
	}
	// Storage byte-hours integrate over simulated time.
	clk.Advance(2 * time.Hour)
	u = p.Usage(alice)
	if u.ByteHours < 1999 || u.ByteHours > 2001 {
		t.Fatalf("byte-hours = %f, want ~2000", u.ByteHours)
	}
	// Deleting stops accumulation.
	if err := c.Delete(bg, "obj"); err != nil {
		t.Fatal(err)
	}
	u = p.Usage(alice)
	if u.StoredBytes != 0 {
		t.Fatalf("stored bytes after delete = %d, want 0", u.StoredBytes)
	}
}

func TestInboundTrafficIsMeteredSeparatelyFromOutbound(t *testing.T) {
	// The "always write / avoid reading" principle relies on inbound traffic
	// being free; the meter must keep the two directions separate so pricing
	// can charge only the outbound direction.
	p := newTestProvider()
	alice := p.CreateAccount("alice")
	c := p.MustClient(alice)
	if err := c.Put(bg, "a", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	u := p.Usage(alice)
	if u.BytesIn != 5000 || u.BytesOut != 0 {
		t.Fatalf("usage = %+v; want 5000 in, 0 out", u)
	}
}

func TestLatencySimulationWithSimClock(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	p := NewProvider(Options{
		Name:         "latency",
		Latency:      LatencyProfile{RTT: 100 * time.Millisecond},
		LatencyScale: 1,
		Clock:        clk,
	})
	c := p.MustClient(p.CreateAccount("alice"))
	done := make(chan error, 1)
	go func() { done <- c.Put(bg, "obj", []byte("x")) }()
	// The Put should be blocked on the simulated clock until we advance it.
	waitForPending(t, clk, 1)
	select {
	case <-done:
		t.Fatal("Put completed before latency elapsed")
	default:
	}
	clk.Advance(200 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLatencyScaleReducesDelay(t *testing.T) {
	p := NewProvider(Options{
		Name:         "scaled",
		Latency:      LatencyProfile{RTT: 50 * time.Millisecond},
		LatencyScale: 0.01, // 0.5ms real sleep
	})
	c := p.MustClient(p.CreateAccount("alice"))
	start := time.Now()
	if err := c.Put(bg, "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("scaled Put took %v, expected well under the unscaled 50ms", elapsed)
	}
}

func TestDefaultProfilesCoverAllProviders(t *testing.T) {
	profiles := DefaultProfiles()
	for _, k := range []ProviderKind{AmazonS3, AzureBlob, GoogleStorage, RackspaceFiles, LocalNull} {
		if _, ok := profiles[k]; !ok {
			t.Errorf("missing profile for %s", k)
		}
	}
	if profiles[AmazonS3].Latency.RTT <= 0 {
		t.Error("S3 profile must have a positive RTT")
	}
}

func TestNewCoCProvidersReturnsFourDistinct(t *testing.T) {
	ps := NewCoCProviders(0.0, clock.Real(), 1)
	if len(ps) != 4 {
		t.Fatalf("got %d providers, want 4", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	if len(names) != 4 {
		t.Fatalf("provider names are not distinct: %v", names)
	}
}

func TestObjectCountAndTotalRequests(t *testing.T) {
	p := newTestProvider()
	c := p.MustClient(p.CreateAccount("alice"))
	for i := 0; i < 3; i++ {
		if err := c.Put(bg, string(rune('a'+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(bg, "a"); err != nil {
		t.Fatal(err)
	}
	if got := p.ObjectCount(); got != 2 {
		t.Fatalf("ObjectCount = %d, want 2", got)
	}
	if got := p.TotalRequests(); got != 4 {
		t.Fatalf("TotalRequests = %d, want 4", got)
	}
}

// waitForPending spins until the simulated clock has n parked waiters.
func waitForPending(t *testing.T, clk *clock.Sim, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending sleepers (have %d)", n, clk.Pending())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
