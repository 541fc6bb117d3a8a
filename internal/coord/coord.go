// Package coord defines the coordination-service facade used by the SCFS
// agent ("modular coordination" in the paper): a small, strongly consistent
// metadata table with conditional updates, plus an ephemeral lock service.
// Two backends are provided — the DepSpace tuple space (internal/depspace)
// and the Zookeeper-like znode tree (internal/zkcoord) — along with wrappers
// that add the client-to-coordination-service network latency and count
// accesses (the dominant cost of metadata-intensive workloads in §4).
package coord

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ACL controls who may read or overwrite a metadata record. The coordination
// service enforces it; the SCFS agent is not trusted to (§2.6).
type ACL struct {
	Owner   string
	Readers []string
	Writers []string
}

// Record is one stored metadata entry. ACL is the access policy stored with
// the record, populated by backends that enforce ACLs (DepSpace); backends
// without server-side ACLs (the znode backend) leave it zero. Carrying it in
// reads lets record-by-record moves — the sharded router's cross-shard
// RenamePrefix — re-store each record under its original policy instead of
// silently widening access.
type Record struct {
	Key     string
	Value   []byte
	Version uint64
	ACL     ACL
}

// Sentinel errors shared by all coordination backends.
var (
	// ErrNotFound means no record (or lock) with that key exists.
	ErrNotFound = errors.New("coord: not found")
	// ErrConflict means a conditional update lost a race (version mismatch
	// or concurrent creation).
	ErrConflict = errors.New("coord: conflict")
	// ErrDenied means the backend's access control rejected the operation.
	ErrDenied = errors.New("coord: access denied")
	// ErrLockHeld means the lock is currently owned by another client.
	ErrLockHeld = errors.New("coord: lock held by another client")
)

// Stats counts coordination-service accesses, the quantity that dominates the
// latency of metadata-intensive SCFS workloads.
type Stats struct {
	MetadataReads  int64
	MetadataWrites int64
	MetadataLists  int64
	LockOps        int64
}

// Total returns the total number of accesses.
func (s Stats) Total() int64 {
	return s.MetadataReads + s.MetadataWrites + s.MetadataLists + s.LockOps
}

// Service is the coordination-service interface consumed by the SCFS agent.
// Implementations must be safe for concurrent use. Every RPC takes a
// context: cancelling it abandons the request promptly with ctx.Err() (the
// request may still execute at the service, exactly as a request whose reply
// was lost would).
type Service interface {
	// GetMetadata returns the record stored under key.
	GetMetadata(ctx context.Context, key string) (Record, error)
	// PutMetadata unconditionally replaces (or creates) the record under
	// key, returning the new version.
	PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error)
	// CasMetadata replaces the record only if its current version matches
	// expectedVersion (0 = the record must not exist). On conflict it
	// returns ErrConflict.
	CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error)
	// DeleteMetadata removes the record under key (no error if absent).
	DeleteMetadata(ctx context.Context, key string) error
	// ListMetadata returns all records whose key starts with prefix and
	// which the caller may read. The service filters by prefix: the
	// DepSpace backend does it on its replicas, so a listing's reply
	// carries only the answer.
	ListMetadata(ctx context.Context, prefix string) ([]Record, error)
	// RenamePrefix atomically rewrites oldPrefix to newPrefix in the keys of
	// matching records and returns how many were rewritten.
	RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error)

	// TryLock acquires the named ephemeral lock for owner with the given
	// TTL. It returns ErrLockHeld when another owner holds it. Re-acquiring
	// a lock already held by the same owner renews it.
	TryLock(ctx context.Context, name, owner string, ttl time.Duration) error
	// Unlock releases the named lock if held by owner.
	Unlock(ctx context.Context, name, owner string) error

	// Stats returns a snapshot of the access counters.
	Stats() Stats
}

// statsCounter provides the shared Stats implementation for backends.
type statsCounter struct {
	mu sync.Mutex
	s  Stats
}

func (c *statsCounter) addRead()  { c.mu.Lock(); c.s.MetadataReads++; c.mu.Unlock() }
func (c *statsCounter) addWrite() { c.mu.Lock(); c.s.MetadataWrites++; c.mu.Unlock() }
func (c *statsCounter) addList()  { c.mu.Lock(); c.s.MetadataLists++; c.mu.Unlock() }
func (c *statsCounter) addLock()  { c.mu.Lock(); c.s.LockOps++; c.mu.Unlock() }

func (c *statsCounter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}
