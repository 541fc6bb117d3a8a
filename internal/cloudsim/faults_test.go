package cloudsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"scfs/internal/clock"
	"scfs/internal/cloud"
)

func faultTestClient(t *testing.T, opts Options) (*Provider, cloud.ObjectStore) {
	t.Helper()
	if opts.Name == "" {
		opts.Name = "sim"
	}
	p := NewProvider(opts)
	c := p.MustClient(p.CreateAccount("alice"))
	return p, c
}

func TestFaultSpecProbabilisticFlake(t *testing.T) {
	p, c := faultTestClient(t, Options{Seed: 7})
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.SetFaults(FaultSpec{Mode: FaultUnavailable, Probability: 0.3})
	fails := 0
	for i := 0; i < 500; i++ {
		if _, err := c.Get(context.Background(), "obj"); err != nil {
			if !errors.Is(err, cloud.ErrUnavailable) {
				t.Fatalf("unexpected error class: %v", err)
			}
			fails++
		}
	}
	if fails < 100 || fails > 200 {
		t.Fatalf("30%% flake struck %d/500 requests", fails)
	}
}

func TestFaultSpecOpMask(t *testing.T) {
	p, c := faultTestClient(t, Options{})
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Throttle only writes: reads keep flowing.
	p.SetFaults(FaultSpec{Mode: FaultThrottle, Ops: MaskWrites})
	if err := c.Put(context.Background(), "obj2", []byte("y")); !errors.Is(err, cloud.ErrThrottled) {
		t.Fatalf("write err = %v, want ErrThrottled", err)
	}
	if err := c.Delete(context.Background(), "obj"); !errors.Is(err, cloud.ErrThrottled) {
		t.Fatalf("delete err = %v, want ErrThrottled", err)
	}
	if _, err := c.Get(context.Background(), "obj"); err != nil {
		t.Fatalf("read should be unaffected: %v", err)
	}
	if _, err := c.Head(context.Background(), "obj"); err != nil {
		t.Fatalf("head should be unaffected: %v", err)
	}
	if _, err := c.List(context.Background(), ""); err != nil {
		t.Fatalf("list should be unaffected: %v", err)
	}
}

func TestFaultSpecTimeWindowedOutage(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	p, c := faultTestClient(t, Options{Clock: clk})
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Outage from t+10s lasting 5s; the provider heals itself afterwards.
	p.SetFaults(FaultSpec{Mode: FaultUnavailable, After: 10 * time.Second, For: 5 * time.Second})

	if _, err := c.Get(context.Background(), "obj"); err != nil {
		t.Fatalf("before the window: %v", err)
	}
	clk.Advance(12 * time.Second)
	if _, err := c.Get(context.Background(), "obj"); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("inside the window err = %v, want ErrUnavailable", err)
	}
	clk.Advance(5 * time.Second)
	if _, err := c.Get(context.Background(), "obj"); err != nil {
		t.Fatalf("after the window the provider must have healed: %v", err)
	}
}

func TestFaultSpecCounterWindows(t *testing.T) {
	_, c := faultTestClient(t, Options{})
	p := c.(*client).p
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Let 2 Gets through, fail the next 3, then heal.
	p.SetFaults(FaultSpec{Mode: FaultUnavailable, Ops: MaskGet, AfterN: 2, FirstN: 3})
	var errs []bool
	for i := 0; i < 7; i++ {
		_, err := c.Get(context.Background(), "obj")
		errs = append(errs, err != nil)
	}
	want := []bool{false, false, true, true, true, false, false}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("request fates = %v, want %v", errs, want)
		}
	}
}

func TestFaultSpecScheduleOrderFirstWins(t *testing.T) {
	_, c := faultTestClient(t, Options{})
	p := c.(*client).p
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// First matching spec decides: the throttle masks the outage.
	p.SetFaults(
		FaultSpec{Mode: FaultThrottle, FirstN: 1},
		FaultSpec{Mode: FaultUnavailable},
	)
	if _, err := c.Get(context.Background(), "obj"); !errors.Is(err, cloud.ErrThrottled) {
		t.Fatalf("first request err = %v, want ErrThrottled", err)
	}
	if _, err := c.Get(context.Background(), "obj"); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("second request err = %v, want the next spec's ErrUnavailable", err)
	}
}

func TestFaultHangParksUntilCancel(t *testing.T) {
	p, c := faultTestClient(t, Options{})
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := p.TotalRequests()
	p.SetFaults(FaultSpec{Mode: FaultHang, Ops: MaskGet})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, "obj")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung request err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("hung request returned before the caller gave up")
	}
	if p.TotalRequests() != before+1 {
		t.Fatal("a hung request was accepted by the provider and must be counted")
	}
	// Writes are untouched by the Get-only hang.
	if err := c.Put(context.Background(), "obj2", []byte("y")); err != nil {
		t.Fatalf("hang leaked onto writes: %v", err)
	}
}

func TestFaultSlowLatencyFactor(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	p, c := faultTestClient(t, Options{
		Clock:        clk,
		Latency:      LatencyProfile{RTT: 10 * time.Millisecond},
		LatencyScale: 1,
	})
	p.SetFaults(FaultSpec{Mode: FaultSlow, LatencyFactor: 4})

	done := make(chan error, 1)
	go func() { done <- c.Put(context.Background(), "obj", []byte("x")) }()
	// 10ms RTT x4 = 40ms of simulated time: not done at 39, done at 41.
	for clk.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(39 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("gray-slow request finished before the inflated latency elapsed")
	case <-time.After(10 * time.Millisecond):
	}
	clk.Advance(2 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("gray-slow request must succeed, got %v", err)
	}
}

func TestFaultErrorsWrapSentinels(t *testing.T) {
	p, c := faultTestClient(t, Options{Name: "azure-blob"})
	p.SetFault(FaultUnavailable)
	_, err := c.Get(context.Background(), "obj")
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v, want wrapped ErrUnavailable", err)
	}
	if err.Error() == cloud.ErrUnavailable.Error() {
		t.Fatalf("error %q should carry provider context around the sentinel", err)
	}
}

func TestAddAndClearFaults(t *testing.T) {
	p, c := faultTestClient(t, Options{})
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.AddFault(FaultSpec{Mode: FaultUnavailable, Ops: MaskGet})
	p.AddFault(FaultSpec{Mode: FaultThrottle, Ops: MaskPut})
	if _, err := c.Get(context.Background(), "obj"); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("get err = %v", err)
	}
	if err := c.Put(context.Background(), "o2", nil); !errors.Is(err, cloud.ErrThrottled) {
		t.Fatalf("put err = %v", err)
	}
	p.ClearFaults()
	if _, err := c.Get(context.Background(), "obj"); err != nil {
		t.Fatalf("after ClearFaults: %v", err)
	}
	if err := c.Put(context.Background(), "o2", nil); err != nil {
		t.Fatalf("after ClearFaults: %v", err)
	}
}

func TestSetFaultBackwardCompatible(t *testing.T) {
	p, c := faultTestClient(t, Options{})
	if err := c.Put(context.Background(), "obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.SetFault(FaultUnavailable)
	if p.Fault() != FaultUnavailable {
		t.Fatal("Fault() must echo SetFault")
	}
	if _, err := c.Get(context.Background(), "obj"); !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	p.SetFault(FaultNone)
	if p.Fault() != FaultNone {
		t.Fatal("Fault() must reset")
	}
	if _, err := c.Get(context.Background(), "obj"); err != nil {
		t.Fatalf("recovery must be immediate: %v", err)
	}
}
