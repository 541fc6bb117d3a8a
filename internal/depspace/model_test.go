package depspace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// refSpace is the linear-scan tuple space the indexed Space must agree with
// byte for byte: tuples in insertion order, the first match is the earliest
// inserted, rdall sorts its matches stably by slices.Compare, and rename is all
// or nothing.
type refSpace struct {
	entries []*Entry
	nextVer uint64
}

func (r *refSpace) Execute(b []byte) []byte {
	var cmd Command
	if json.Unmarshal(b, &cmd) != nil || cmd.FieldIndex < 0 {
		return marshalResult(Result{Err: ErrBadCommand})
	}
	live := func(e *Entry) bool { return e.ExpiresAt == 0 || cmd.Now <= e.ExpiresAt }
	i := slices.IndexFunc(r.entries, func(e *Entry) bool { return live(e) && e.Tuple.Matches(cmd.Template) })
	var m *Entry
	if i >= 0 {
		m = r.entries[i]
	}
	put := func(t Tuple) []byte {
		if i >= 0 {
			r.entries = slices.Delete(r.entries, i, i+1)
		}
		e := &Entry{Tuple: t.Clone(), ACL: cmd.ACL, Version: r.nextVer}
		r.nextVer++
		if cmd.TTLNanos > 0 {
			e.ExpiresAt = cmd.Now + cmd.TTLNanos
		}
		r.entries = append(r.entries, e)
		return marshalResult(Result{OK: true, Version: e.Version, Entry: cloneEntry(e)})
	}
	bad := marshalResult(Result{Err: ErrBadCommand})
	noMatch := marshalResult(Result{Err: ErrNoMatch})
	denied := marshalResult(Result{Err: ErrAccessDenied})
	switch cmd.Op {
	case opOut:
		if len(cmd.Tuple) == 0 {
			return bad
		}
		i = -1
		return put(cmd.Tuple)
	case opRdp, opInp:
		switch {
		case m == nil:
			return noMatch
		case cmd.Op == opRdp && !m.ACL.canRead(cmd.Requester), cmd.Op == opInp && !m.ACL.canWrite(cmd.Requester):
			return denied
		case cmd.Op == opInp:
			r.entries = slices.Delete(r.entries, i, i+1)
		}
		return marshalResult(Result{OK: true, Entry: cloneEntry(m), Version: m.Version})
	case opReplace, opCas:
		switch {
		case len(cmd.Replacement) == 0:
			return bad
		case cmd.Op == opCas && cmd.ExpectedVersion == 0 && m != nil:
			return marshalResult(Result{Err: ErrAlreadyExists, Version: m.Version, Entry: cloneEntry(m)})
		case cmd.Op == opCas && cmd.ExpectedVersion != 0 && m == nil:
			return noMatch
		case cmd.Op == opCas && m != nil && m.Version != cmd.ExpectedVersion:
			return marshalResult(Result{Err: ErrVersionClash, Version: m.Version, Entry: cloneEntry(m)})
		case m != nil && !m.ACL.canWrite(cmd.Requester):
			return denied
		}
		return put(cmd.Replacement)
	case opRdAll:
		var out []Entry
		for _, e := range r.entries {
			if live(e) && e.Tuple.Matches(cmd.Template) && e.ACL.canRead(cmd.Requester) &&
				(cmd.Prefix == "" || len(e.Tuple) > 1 && strings.HasPrefix(e.Tuple[1], cmd.Prefix)) {
				out = append(out, *cloneEntry(e))
			}
		}
		slices.SortStableFunc(out, func(x, y Entry) int { return slices.Compare(x.Tuple, y.Tuple) })
		return marshalResult(Result{OK: true, Entries: out, Count: len(out)})
	case opRename:
		if cmd.OldPrefix == "" {
			return bad
		}
		f := cmd.FieldIndex
		var moved []*Entry
		for _, e := range r.entries {
			if live(e) && f < len(e.Tuple) && (e.Tuple[f] == cmd.OldPrefix || strings.HasPrefix(e.Tuple[f], cmd.OldPrefix+"/")) {
				if !e.ACL.canWrite(cmd.Requester) {
					return denied
				}
				moved = append(moved, e)
			}
		}
		for _, e := range moved {
			e.Tuple[f] = cmd.NewPrefix + strings.TrimPrefix(e.Tuple[f], cmd.OldPrefix)
			e.Version = r.nextVer
			r.nextVer++
		}
		return marshalResult(Result{OK: true, Count: len(moved)})
	case opClean:
		n := len(r.entries)
		r.entries = slices.DeleteFunc(r.entries, func(e *Entry) bool { return !live(e) })
		return marshalResult(Result{OK: true, Count: n - len(r.entries)})
	}
	return bad
}

func (r *refSpace) Snapshot() []byte {
	b, _ := json.Marshal(snapshotState{Entries: append([]*Entry{}, r.entries...), NextVer: r.nextVer})
	return b
}

// commandGen draws random commands over a small vocabulary, so templates
// collide with stored tuples, keys share prefixes, tuples expire and ACLs
// deny. Templates include wildcards in the leading fields, which the index
// cannot narrow to one run of tuples.
type commandGen struct {
	rng *rand.Rand
	ref *refSpace
	now int64
}

func (g *commandGen) pick(vals ...string) string { return vals[g.rng.IntN(len(vals))] }

func (g *commandGen) tuple() Tuple {
	t := Tuple{g.pick("meta", "lock", "x", "*"), g.pick("/a", "/a/b", "/a/bc", "/ab", "/b", "/", "", "*"), g.pick("v1", "v2", "alice", "*")}
	return t[:1+g.rng.IntN(3)]
}

func (g *commandGen) template() Tuple {
	t := g.tuple()
	for i := range t {
		if g.rng.IntN(3) == 0 {
			t[i] = Wildcard
		}
	}
	return t
}

func (g *commandGen) next() Command {
	g.now += int64(g.rng.IntN(3))
	cmd := Command{
		Requester: g.pick("alice", "alice", "bob"),
		Now:       g.now - int64(g.rng.IntN(3)), // clients' clocks disagree
		Template:  g.template(),
		ACL: []ACL{{}, {Owner: "alice"}, {Owner: "alice", Readers: []string{"bob"}},
			{Owner: "bob", Writers: []string{"alice"}}}[g.rng.IntN(4)],
	}
	if g.rng.IntN(3) == 0 {
		cmd.TTLNanos = int64(1 + g.rng.IntN(8))
	}
	switch n := g.rng.IntN(100); {
	case n < 20:
		cmd.Op, cmd.Tuple = opOut, g.tuple()
	case n < 32:
		cmd.Op = opRdp
	case n < 50:
		cmd.Op = opRdAll
		if g.rng.IntN(3) > 0 {
			cmd.Prefix = g.pick("/a", "/a/", "/", "/ab", "m", "*", "")
		}
	case n < 60:
		cmd.Op = opInp
	case n < 75:
		cmd.Op, cmd.Replacement = opReplace, g.tuple()
	case n < 90:
		cmd.Op, cmd.Replacement = opCas, g.tuple()
		if len(g.ref.entries) > 0 && g.rng.IntN(2) == 0 {
			cmd.ExpectedVersion = g.ref.entries[g.rng.IntN(len(g.ref.entries))].Version
		} else if g.rng.IntN(2) == 0 {
			cmd.ExpectedVersion = uint64(g.rng.IntN(int(g.ref.nextVer) + 1))
		}
	case n < 96:
		cmd.Op, cmd.FieldIndex = opRename, []int{1, 1, 1, 0, 2, 5}[g.rng.IntN(6)]
		cmd.OldPrefix, cmd.NewPrefix = g.pick("/a", "/a/b", "/b", "meta", ""), g.pick("/c", "/a/z", "/", "")
	default:
		cmd.Op = opClean
	}
	if g.rng.IntN(50) == 0 {
		cmd.FieldIndex = -1
	}
	return cmd
}

// TestIndexedSpaceMatchesLinearModel drives seeded random command sequences
// through the indexed Space and the linear-scan model and requires
// byte-identical replies at every step. Every 64 steps it also requires
// identical snapshots, and continues on a Space restored from the snapshot.
func TestIndexedSpaceMatchesLinearModel(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			ref := &refSpace{nextVer: 1}
			g := &commandGen{rng: rand.New(rand.NewPCG(seed, 0x5cf5)), ref: ref}
			space := NewSpace()
			for step := 1; step <= 1200; step++ {
				cmd, err := json.Marshal(g.next())
				if err != nil {
					t.Fatal(err)
				}
				got, want := space.Execute(cmd), ref.Execute(cmd)
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: %s\n got  %s\n want %s", step, cmd, got, want)
				}
				if space.Len() != len(ref.entries) {
					t.Fatalf("step %d: Len = %d, want %d", step, space.Len(), len(ref.entries))
				}
				if step%64 != 0 {
					continue
				}
				snap := space.Snapshot()
				if want := ref.Snapshot(); !bytes.Equal(snap, want) {
					t.Fatalf("step %d: snapshot\n got  %s\n want %s", step, snap, want)
				}
				space = NewSpace()
				if err := space.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if again := space.Snapshot(); !bytes.Equal(again, snap) {
					t.Fatalf("step %d: restored snapshot differs\n got  %s\n want %s", step, again, snap)
				}
			}
		})
	}
}

// FuzzSpaceExecute feeds arbitrary bytes to Execute on a populated space:
// no input may panic it, every reply must decode as a Result, and a command
// rejected as malformed must leave the state untouched.
func FuzzSpaceExecute(f *testing.F) {
	f.Fuzz(func(t *testing.T, cmd []byte) {
		space := NewSpace()
		for _, c := range []Command{
			{Op: opOut, Tuple: Tuple{"meta", "/d/a", "p"}, ACL: ACL{Owner: "alice"}},
			{Op: opOut, Tuple: Tuple{"meta", "/d/b", "p"}},
			{Op: opOut, Tuple: Tuple{"lock", "/d/a", "alice"}, Now: 10, TTLNanos: 100},
			{Op: opOut, Tuple: Tuple{"x"}},
		} {
			b, _ := json.Marshal(c)
			space.Execute(b)
		}
		before := space.Snapshot()
		var res Result
		if err := json.Unmarshal(space.Execute(cmd), &res); err != nil {
			t.Fatalf("reply does not decode: %v", err)
		}
		if res.Err == ErrBadCommand && !bytes.Equal(space.Snapshot(), before) {
			t.Fatalf("malformed command %q changed the state", cmd)
		}
	})
}
