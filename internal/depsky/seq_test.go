package depsky

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
)

// rawCopy decodes unit's metadata copy as stored on one cloud; nil when the
// cloud holds none.
func rawCopy(t *testing.T, m *Manager, c cloud.ObjectStore, unit string) *unitMetadata {
	t.Helper()
	raw, err := c.Get(bg, m.metaName(unit))
	if errors.Is(err, cloud.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var md unitMetadata
	if err := json.Unmarshal(raw, &md); err != nil {
		t.Fatal(err)
	}
	return &md
}

// waitForCopies waits until every cloud's metadata copy of unit satisfies
// ok. With DisableQuorumCancel the last upload of a fan-out finishes after
// the quorum verdict returned, so tests that inspect or rewrite every copy
// wait for it first.
func waitForCopies(t *testing.T, m *Manager, clients []cloud.ObjectStore, unit string, ok func(*unitMetadata) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, c := range clients {
			if md := rawCopy(t, m, c, unit); md == nil || !ok(md) {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("metadata copies never converged")
		}
		time.Sleep(time.Millisecond)
	}
}

func lists(md *unitMetadata, number uint64) bool {
	for _, v := range md.Versions {
		if v.Number == number {
			return true
		}
	}
	return false
}

// TestDeletedVersionStaysDeleted pins the metadata sequence number. A
// deletion's metadata write completes at n-f clouds, so a cloud that missed
// it keeps a copy still listing the deleted version; once that stale copy
// is in a read quorum, a plain union of the copies would list the version
// again — with its chunks gone, reading it would fail with ErrQuorumRead
// instead of ErrVersionNotFound, and storage.Composite only retries the
// latter. The f+1 newer copies that omit the version outrank the stale one.
func TestDeletedVersionStaysDeleted(t *testing.T) {
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := m.Write(bg, "u", []byte("version one"))
	if err != nil {
		t.Fatal(err)
	}
	v2Data := []byte("version two")
	v2, err := m.Write(bg, "u", v2Data)
	if err != nil {
		t.Fatal(err)
	}
	waitForCopies(t, m, clients, "u", func(md *unitMetadata) bool { return lists(md, v2.Number) })

	// Cloud 3 misses the deletion and keeps listing v1: its next Put, the
	// deletion's metadata write, fails. The fault retires by itself, so no
	// heal can race the write still in flight when DeleteVersion returns.
	providers[3].SetFaults(cloudsim.FaultSpec{Mode: cloudsim.FaultUnavailable, Ops: cloudsim.MaskPut, FirstN: 1})
	if err := m.DeleteVersion(bg, "u", v1.Number); err != nil {
		t.Fatal(err)
	}
	waitForCopies(t, m, clients[:3], "u", func(md *unitMetadata) bool { return !lists(md, v1.Number) })
	if !lists(rawCopy(t, m, clients[3], "u"), v1.Number) {
		t.Fatal("setup: cloud 3 should still list the deleted version")
	}
	// Cloud 0 goes down, so the stale copy is in every read quorum.
	providers[0].SetFault(cloudsim.FaultUnavailable)
	versions, err := m.ListVersions(bg, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 || versions[0].Number != v2.Number {
		t.Fatalf("ListVersions = %+v, want only version %d", versions, v2.Number)
	}
	if _, _, err := m.ReadMatching(bg, "u", v1.DataHash); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("ReadMatching(deleted) err = %v, want ErrVersionNotFound", err)
	}
	if got, _, err := m.Read(bg, "u"); err != nil || !bytes.Equal(got, v2Data) {
		t.Fatalf("Read newest = %q, %v", got, err)
	}

	// The next write, with every cloud healthy, carries the deletion to the
	// stale cloud too.
	providers[0].SetFault(cloudsim.FaultNone)
	v3, err := m.Write(bg, "u", []byte("version three"))
	if err != nil {
		t.Fatal(err)
	}
	waitForCopies(t, m, clients, "u", func(md *unitMetadata) bool { return lists(md, v3.Number) })
	for i, c := range clients {
		if md := rawCopy(t, m, c, "u"); lists(md, v1.Number) {
			t.Fatalf("cloud %d still lists deleted version %d: %+v", i, v1.Number, md.Versions)
		}
	}
}

// TestForgedSeqCannotHideLiveVersion: a single Byzantine cloud rewriting
// its copy with an inflated Seq is one vote. Omitting a live version, it
// is not the f+1 it takes to drop one; pushing Seq to the edge of
// overflow, it does not set the next write's Seq (taking the highest Seq
// would make every later copy overflow, the unit look empty and the next
// write reuse version number 1).
func TestForgedSeqCannotHideLiveVersion(t *testing.T) {
	_, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("live")
	info, err := m.Write(bg, "u", data)
	if err != nil {
		t.Fatal(err)
	}
	waitForCopies(t, m, clients, "u", func(md *unitMetadata) bool { return lists(md, info.Number) })
	forge := func(seq uint64, versions []VersionInfo) {
		t.Helper()
		forged := rawCopy(t, m, clients[0], "u")
		forged.Seq, forged.Versions = seq, versions
		raw, err := json.Marshal(forged)
		if err != nil {
			t.Fatal(err)
		}
		if err := clients[0].Put(bg, m.metaName("u"), raw); err != nil {
			t.Fatal(err)
		}
	}

	forge(1000, nil)
	for i := 0; i < 20; i++ { // whichever n-f copies answer
		got, _, err := m.ReadMatching(bg, "u", info.DataHash)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("live version hidden by one forged copy: %q, %v", got, err)
		}
	}

	forge(^uint64(0)-1, []VersionInfo{info})
	for want := info.Number + 1; want <= info.Number+2; want++ {
		v, err := m.Write(bg, "u", []byte{byte(want)})
		if err != nil {
			t.Fatal(err)
		}
		if v.Number != want {
			t.Fatalf("write after a near-overflow Seq got version %d, want %d", v.Number, want)
		}
		waitForCopies(t, m, clients, "u", func(md *unitMetadata) bool { return lists(md, v.Number) })
	}
	if versions, err := m.ListVersions(bg, "u"); err != nil || len(versions) != 3 {
		t.Fatalf("ListVersions = %d versions, %v; want 3", len(versions), err)
	}

	// A copy whose Seq leaves no room for a successor is rejected outright.
	overflowing := &unitMetadata{Unit: "u", Seq: ^uint64(0), Versions: []VersionInfo{info}}
	if merged := m.mergeMetadata("u", []*unitMetadata{overflowing}); merged.Seq != 0 || len(merged.Versions) != 0 {
		t.Fatalf("overflowing copy merged: Seq %d, %d versions", merged.Seq, len(merged.Versions))
	}
}

// TestVersionNumberCannotWrap: one forged copy listing version number
// 2^64-1 must not make the next write wrap to number 0 and overwrite the
// chunks of earlier versions. The write fails before uploading a chunk and
// every earlier version stays readable.
func TestVersionNumberCannotWrap(t *testing.T) {
	providers, clients := testClouds(t, 4)
	m, err := New(Options{Clouds: clients, F: 1, DisableQuorumCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	var written []VersionInfo
	for _, data := range []string{"version one", "version two"} {
		info, err := m.Write(bg, "u", []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, info)
		waitForCopies(t, m, clients, "u", func(md *unitMetadata) bool { return lists(md, info.Number) })
	}

	// Cloud 0 lists a forged newest version; cloud 3 is down, so the
	// forged copy is in the write's metadata quorum.
	forged := rawCopy(t, m, clients[0], "u")
	last := written[len(written)-1]
	last.Number = ^uint64(0)
	forged.Versions = append(forged.Versions, last)
	raw, err := json.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Put(bg, m.metaName("u"), raw); err != nil {
		t.Fatal(err)
	}
	providers[3].SetFault(cloudsim.FaultUnavailable)
	objects := make([]int, len(providers))
	for i, p := range providers {
		objects[i] = p.ObjectCount()
	}

	if _, err := m.Write(bg, "u", []byte("would wrap")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("write after a forged max version: err = %v, want ErrIntegrity", err)
	}
	for i, p := range providers {
		if n := p.ObjectCount(); n != objects[i] {
			t.Fatalf("cloud %d holds %d objects after the refused write, had %d", i, n, objects[i])
		}
	}
	for _, healed := range []bool{false, true} {
		if healed {
			providers[3].SetFault(cloudsim.FaultNone)
		}
		for i, info := range written {
			got, _, err := m.ReadMatching(bg, "u", info.DataHash)
			if err != nil || string(got) != []string{"version one", "version two"}[i] {
				t.Fatalf("version %d after the refused write (cloud 3 healed: %v): %q, %v", info.Number, healed, got, err)
			}
		}
	}
}
