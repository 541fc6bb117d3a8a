// Package depspace implements a DepSpace-like Byzantine fault-tolerant tuple
// space, the coordination service used by SCFS to store file-system metadata
// and to implement locking. It runs as a deterministic application on top of
// the replication engine in internal/smr (the paper's BFT-SMaRt), so it can
// be deployed with 3f+1 replicas tolerating f arbitrary faults or 2f+1
// replicas tolerating crashes.
//
// The tuple space supports the classic operations (out, rdp, inp), a
// conditional replace used for metadata updates, ephemeral (timed) tuples
// used for locks, and the trigger-like rename extension mentioned in §3.2 of
// the paper (renaming a prefix atomically rewrites matching tuples).
//
// Determinism: expiry of timed tuples is evaluated against the timestamp
// carried inside each command (set by the client when it issues the
// operation), never against the replica's local clock, so all replicas make
// identical decisions.
package depspace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Wildcard matches any field value in a template.
const Wildcard = "*"

// Tuple is an ordered list of string fields.
type Tuple []string

// Matches reports whether the tuple matches a template of the same length
// where Wildcard fields match anything.
func (t Tuple) Matches(template Tuple) bool {
	if len(t) != len(template) {
		return false
	}
	for i, f := range template {
		if f != Wildcard && f != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// String renders the tuple for debugging.
func (t Tuple) String() string { return "<" + strings.Join(t, ", ") + ">" }

// ACL restricts who can read or overwrite a stored tuple. An empty ACL means
// the tuple is accessible to every client (used for bootstrap data).
type ACL struct {
	// Owner may always read, overwrite and remove the tuple, and is the only
	// principal allowed to change the ACL.
	Owner string `json:"owner,omitempty"`
	// Readers and Writers extend access to other principals.
	Readers []string `json:"readers,omitempty"`
	Writers []string `json:"writers,omitempty"`
}

func (a ACL) canRead(who string) bool {
	if a.Owner == "" || who == a.Owner {
		return true
	}
	for _, r := range a.Readers {
		if r == who {
			return true
		}
	}
	return a.canWrite(who) // writers may read
}

func (a ACL) canWrite(who string) bool {
	if a.Owner == "" || who == a.Owner {
		return true
	}
	for _, w := range a.Writers {
		if w == who {
			return true
		}
	}
	return false
}

// Entry is a stored tuple with its metadata.
type Entry struct {
	Tuple   Tuple  `json:"tuple"`
	ACL     ACL    `json:"acl"`
	Version uint64 `json:"version"`
	// ExpiresAt is a unix-nano deadline for ephemeral tuples; 0 means the
	// tuple is permanent.
	ExpiresAt int64 `json:"expires_at,omitempty"`

	// seq is the replica-local insertion order: when several stored tuples
	// match a template, the earliest inserted is "the" match. Version cannot
	// serve, because rename rewrites it. Snapshots carry the order
	// implicitly, as the order of their entries.
	seq uint64
}

// opcode values for commands.
const (
	opOut     = "out"
	opRdp     = "rdp"
	opRdAll   = "rdall"
	opInp     = "inp"
	opReplace = "replace"
	opCas     = "cas"
	opRename  = "rename"
	opClean   = "clean"
)

// Command is the serialized operation executed by the state machine.
type Command struct {
	Op string `json:"op"`
	// Requester is the principal performing the operation (enforced against
	// tuple ACLs by the replicas, not by the client).
	Requester string `json:"requester"`
	// Now is the client's timestamp (unix nanos) used for expiry decisions.
	Now int64 `json:"now"`

	Tuple    Tuple `json:"tuple,omitempty"`
	Template Tuple `json:"template,omitempty"`
	// Replacement is used by replace/cas.
	Replacement Tuple `json:"replacement,omitempty"`
	// ExpectedVersion is used by cas; 0 means "must not exist".
	ExpectedVersion uint64 `json:"expected_version,omitempty"`
	// ACL to attach on out/replace/cas.
	ACL ACL `json:"acl,omitempty"`
	// TTLNanos makes the tuple ephemeral (expires TTL after Now).
	TTLNanos int64 `json:"ttl_nanos,omitempty"`
	// FieldIndex selects the field that rename rewrites.
	FieldIndex int `json:"field_index,omitempty"`
	// Prefix, when set, restricts rdall to tuples whose key (field 1)
	// starts with it.
	Prefix string `json:"prefix,omitempty"`
	// Rename support: prefix rewrite of the field at index FieldIndex.
	OldPrefix string `json:"old_prefix,omitempty"`
	NewPrefix string `json:"new_prefix,omitempty"`
}

// Result is the reply produced by the state machine.
type Result struct {
	OK      bool    `json:"ok"`
	Err     string  `json:"err,omitempty"`
	Entry   *Entry  `json:"entry,omitempty"`
	Entries []Entry `json:"entries,omitempty"`
	Version uint64  `json:"version,omitempty"`
	Count   int     `json:"count,omitempty"`
}

// Well-known error strings carried inside Result.Err.
const (
	ErrNoMatch       = "depspace: no matching tuple"
	ErrAccessDenied  = "depspace: access denied"
	ErrVersionClash  = "depspace: version mismatch"
	ErrAlreadyExists = "depspace: tuple already exists"
	ErrBadCommand    = "depspace: malformed command"
)

// Space is the deterministic tuple-space state machine. It implements
// smr.Application.
//
// Tuples are kept sorted (see index.go), so a command's work follows the
// size of its answer, not of the space. A template whose leading fields are
// concrete — every template SCFS issues: <meta,key,*>, <lock,name,*>,
// <lock,name,owner> — touches only the tuples that begin with them; a
// filtered rdall over <meta,*,*> touches only the keys under its prefix.
// Only a wildcard first field scans the whole space.
type Space struct {
	mu      sync.Mutex
	entries []*Entry
	nextVer uint64
	nextSeq uint64
}

// NewSpace returns an empty tuple space.
func NewSpace() *Space { return &Space{nextVer: 1} }

// Execute implements smr.Application.
func (s *Space) Execute(cmdBytes []byte) []byte {
	var cmd Command
	if err := json.Unmarshal(cmdBytes, &cmd); err != nil || cmd.FieldIndex < 0 {
		return marshalResult(Result{OK: false, Err: ErrBadCommand})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res Result
	switch cmd.Op {
	case opOut:
		res = s.out(cmd)
	case opRdp:
		res = s.rdp(cmd)
	case opRdAll:
		res = s.rdAll(cmd)
	case opInp:
		res = s.inp(cmd)
	case opReplace:
		res = s.replace(cmd)
	case opCas:
		res = s.cas(cmd)
	case opRename:
		res = s.rename(cmd)
	case opClean:
		res = Result{OK: true, Count: s.cleanExpired(cmd.Now)}
	default:
		res = Result{OK: false, Err: ErrBadCommand}
	}
	return marshalResult(res)
}

func marshalResult(r Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// A Result is always marshalable; this is unreachable in practice.
		return []byte(`{"ok":false,"err":"depspace: internal marshal error"}`)
	}
	return b
}

func (s *Space) isExpired(e *Entry, now int64) bool {
	return e.ExpiresAt != 0 && now > e.ExpiresAt
}

// each calls fn, in rdall order, on every live tuple that matches template
// and whose key (field 1) starts with prefix (an empty prefix admits all).
func (s *Space) each(template Tuple, prefix string, now int64, fn func(*Entry)) {
	for _, e := range s.run(template, prefix) {
		if !s.isExpired(e, now) && e.Tuple.Matches(template) &&
			(prefix == "" || len(e.Tuple) > 1 && strings.HasPrefix(e.Tuple[1], prefix)) {
			fn(e)
		}
	}
}

// findMatch returns the earliest inserted live tuple matching template.
func (s *Space) findMatch(template Tuple, now int64) *Entry {
	var first *Entry
	s.each(template, "", now, func(e *Entry) {
		if first == nil || e.seq < first.seq {
			first = e
		}
	})
	return first
}

// add stores a new tuple under the next version, with the command's ACL and
// TTL.
func (s *Space) add(t Tuple, cmd Command) *Entry {
	e := &Entry{Tuple: t.Clone(), ACL: cmd.ACL, Version: s.nextVer, seq: s.nextSeq}
	s.nextVer++
	s.nextSeq++
	if cmd.TTLNanos > 0 {
		e.ExpiresAt = cmd.Now + cmd.TTLNanos
	}
	s.insert(e)
	return e
}

func (s *Space) cleanExpired(now int64) int {
	n := len(s.entries)
	s.entries = slices.DeleteFunc(s.entries, func(e *Entry) bool { return s.isExpired(e, now) })
	return n - len(s.entries)
}

func (s *Space) out(cmd Command) Result {
	if len(cmd.Tuple) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	e := s.add(cmd.Tuple, cmd)
	return Result{OK: true, Version: e.Version, Entry: cloneEntry(e)}
}

func (s *Space) rdp(cmd Command) Result {
	e := s.findMatch(cmd.Template, cmd.Now)
	if e == nil {
		return Result{OK: false, Err: ErrNoMatch}
	}
	if !e.ACL.canRead(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	return Result{OK: true, Entry: cloneEntry(e), Version: e.Version}
}

// rdAll returns every matching tuple the requester may read in rdall order:
// field-wise as slices.Compare orders them, equal tuples in insertion order.
// The index keeps that order, so nothing is sorted here.
func (s *Space) rdAll(cmd Command) Result {
	var out []Entry
	s.each(cmd.Template, cmd.Prefix, cmd.Now, func(e *Entry) {
		if e.ACL.canRead(cmd.Requester) {
			out = append(out, *cloneEntry(e))
		}
	})
	return Result{OK: true, Entries: out, Count: len(out)}
}

func (s *Space) inp(cmd Command) Result {
	e := s.findMatch(cmd.Template, cmd.Now)
	if e == nil {
		return Result{OK: false, Err: ErrNoMatch}
	}
	if !e.ACL.canWrite(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	s.remove(e)
	return Result{OK: true, Entry: cloneEntry(e), Version: e.Version}
}

// replace atomically removes the tuple matching Template (if any) and inserts
// Replacement. It is the workhorse of metadata updates: SCFS uses it to
// overwrite a file's metadata tuple on close.
func (s *Space) replace(cmd Command) Result {
	if len(cmd.Replacement) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	old := s.findMatch(cmd.Template, cmd.Now)
	if old != nil && !old.ACL.canWrite(cmd.Requester) {
		return Result{OK: false, Err: ErrAccessDenied}
	}
	e := s.add(cmd.Replacement, cmd)
	if old != nil {
		s.remove(old)
	}
	return Result{OK: true, Version: e.Version, Entry: cloneEntry(e)}
}

// cas performs a compare-and-swap keyed by version: it succeeds only if the
// matching tuple has ExpectedVersion (or, when ExpectedVersion is zero, if no
// tuple matches the template). Used for lock acquisition and PNS creation.
func (s *Space) cas(cmd Command) Result {
	if len(cmd.Replacement) == 0 {
		return Result{OK: false, Err: ErrBadCommand}
	}
	old := s.findMatch(cmd.Template, cmd.Now)
	if cmd.ExpectedVersion == 0 {
		if old != nil {
			return Result{OK: false, Err: ErrAlreadyExists, Version: old.Version, Entry: cloneEntry(old)}
		}
	} else {
		if old == nil {
			return Result{OK: false, Err: ErrNoMatch}
		}
		if old.Version != cmd.ExpectedVersion {
			return Result{OK: false, Err: ErrVersionClash, Version: old.Version, Entry: cloneEntry(old)}
		}
		if !old.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
	}
	e := s.add(cmd.Replacement, cmd)
	if old != nil {
		s.remove(old)
	}
	return Result{OK: true, Version: e.Version, Entry: cloneEntry(e)}
}

// rename rewrites the prefix OldPrefix into NewPrefix in field FieldIndex of
// every live tuple under it, mirroring the trigger extension added to
// DepSpace for efficient directory renames. It is all or nothing: if the
// requester may not write one of the tuples, none is rewritten. Tuples get
// new versions in insertion order and move to their new index keys.
func (s *Space) rename(cmd Command) Result {
	if cmd.OldPrefix == "" {
		return Result{OK: false, Err: ErrBadCommand}
	}
	var moved []*Entry
	for _, e := range s.entries {
		if s.isExpired(e, cmd.Now) || cmd.FieldIndex >= len(e.Tuple) {
			continue
		}
		if f := e.Tuple[cmd.FieldIndex]; f == cmd.OldPrefix || strings.HasPrefix(f, cmd.OldPrefix+"/") {
			moved = append(moved, e)
		}
	}
	for _, e := range moved {
		if !e.ACL.canWrite(cmd.Requester) {
			return Result{OK: false, Err: ErrAccessDenied}
		}
	}
	slices.SortFunc(moved, bySeq)
	for _, e := range moved {
		s.remove(e)
		e.Tuple[cmd.FieldIndex] = cmd.NewPrefix + strings.TrimPrefix(e.Tuple[cmd.FieldIndex], cmd.OldPrefix)
		e.Version = s.nextVer
		s.nextVer++
		s.insert(e)
	}
	return Result{OK: true, Count: len(moved)}
}

func cloneEntry(e *Entry) *Entry {
	c := *e
	c.Tuple = e.Tuple.Clone()
	return &c
}

func bySeq(x, y *Entry) int { return cmp.Compare(x.seq, y.seq) }

// snapshotState is the serialized state: entries in insertion order.
type snapshotState struct {
	Entries []*Entry `json:"entries"`
	NextVer uint64   `json:"next_ver"`
}

// Snapshot implements smr.Application.
func (s *Space) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := snapshotState{Entries: slices.SortedFunc(slices.Values(s.entries), bySeq), NextVer: s.nextVer}
	b, _ := json.Marshal(state)
	return b
}

// Restore implements smr.Application.
func (s *Space) Restore(snapshot []byte) error {
	var state snapshotState
	if err := json.Unmarshal(snapshot, &state); err != nil {
		return fmt.Errorf("depspace: restoring snapshot: %w", err)
	}
	if slices.Contains(state.Entries, nil) {
		return fmt.Errorf("depspace: restoring snapshot: null entry")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range state.Entries {
		e.seq = uint64(i)
	}
	s.entries = slices.SortedFunc(slices.Values(state.Entries), rdallOrder)
	s.nextSeq = uint64(len(state.Entries))
	s.nextVer = max(state.NextVer, 1)
	return nil
}

// Len returns the number of stored (possibly expired) tuples; used by tests
// and by the PNS sizing experiment.
func (s *Space) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
