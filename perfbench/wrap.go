package main

import (
	"context"
	"errors"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/coord"
	"scfs/internal/smr"
)

// Wrappers around each layer's public interface. They forward every call
// unchanged — same payload slices, same errors — and append one span per
// call to the tracer's preallocated buffer.

var cloudNames = [...]string{"put", "get", "head", "delete", "list", "setacl", "getacl"}

const (
	cloudPut uint8 = iota
	cloudGet
	cloudHead
	cloudDelete
	cloudList
	cloudSetACL
	cloudGetACL
)

func outcome(err error) uint8 {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return outCancelled
	case errors.Is(err, coord.ErrConflict), errors.Is(err, coord.ErrLockHeld):
		return outConflict
	default:
		return outFailed
	}
}

// tracedStore wraps one provider's client. It also forwards cloud.Meter, so
// the mount's metered spend is the same with and without it.
type tracedStore struct {
	inner cloud.ObjectStore
	t     *tracer
	idx   uint8
}

var (
	_ cloud.ObjectStore = (*tracedStore)(nil)
	_ cloud.Meter       = (*tracedStore)(nil)
)

func (s *tracedStore) record(ctx context.Context, name uint8, start int64, up, down int64, err error) {
	s.t.add(span{start: start, end: s.t.now(), up: up, down: down, op: opFrom(ctx), kind: kindCloud, name: name, out: outcome(err), cloud: s.idx})
}

func (s *tracedStore) Provider() string { return s.inner.Provider() }
func (s *tracedStore) Account() string  { return s.inner.Account() }

// Usage forwards the inner store's meter; every store the benchmark wraps is
// a cloudsim client, which meters.
func (s *tracedStore) Usage() cloud.Usage {
	if m, ok := s.inner.(cloud.Meter); ok {
		return m.Usage()
	}
	return cloud.Usage{}
}

func (s *tracedStore) Put(ctx context.Context, name string, data []byte) error {
	st := s.t.now()
	err := s.inner.Put(ctx, name, data)
	s.record(ctx, cloudPut, st, int64(len(data)), 0, err)
	return err
}

func (s *tracedStore) Get(ctx context.Context, name string) ([]byte, error) {
	st := s.t.now()
	data, err := s.inner.Get(ctx, name)
	s.record(ctx, cloudGet, st, 0, int64(len(data)), err)
	return data, err
}

func (s *tracedStore) Head(ctx context.Context, name string) (cloud.ObjectInfo, error) {
	st := s.t.now()
	info, err := s.inner.Head(ctx, name)
	s.record(ctx, cloudHead, st, 0, 0, err)
	return info, err
}

func (s *tracedStore) Delete(ctx context.Context, name string) error {
	st := s.t.now()
	err := s.inner.Delete(ctx, name)
	s.record(ctx, cloudDelete, st, 0, 0, err)
	return err
}

func (s *tracedStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	st := s.t.now()
	infos, err := s.inner.List(ctx, prefix)
	s.record(ctx, cloudList, st, 0, 0, err)
	return infos, err
}

func (s *tracedStore) SetACL(ctx context.Context, name string, grants []cloud.Grant) error {
	st := s.t.now()
	err := s.inner.SetACL(ctx, name, grants)
	s.record(ctx, cloudSetACL, st, 0, 0, err)
	return err
}

func (s *tracedStore) GetACL(ctx context.Context, name string) ([]cloud.Grant, error) {
	st := s.t.now()
	grants, err := s.inner.GetACL(ctx, name)
	s.record(ctx, cloudGetACL, st, 0, 0, err)
	return grants, err
}

var coordNames = [...]string{"get", "put", "cas", "delete", "list", "rename", "trylock", "unlock"}

const (
	coordGet uint8 = iota
	coordPut
	coordCas
	coordDelete
	coordList
	coordRename
	coordTryLock
	coordUnlock
)

// tracedCoord wraps the mount's coordination service.
type tracedCoord struct {
	inner coord.Service
	t     *tracer
}

var _ coord.Service = (*tracedCoord)(nil)

func (c *tracedCoord) record(ctx context.Context, name uint8, start int64, n int, err error) {
	c.t.add(span{start: start, end: c.t.now(), op: opFrom(ctx), n: int32(n), kind: kindCoord, name: name, out: outcome(err)})
}

func (c *tracedCoord) GetMetadata(ctx context.Context, key string) (coord.Record, error) {
	st := c.t.now()
	r, err := c.inner.GetMetadata(ctx, key)
	c.record(ctx, coordGet, st, 0, err)
	return r, err
}

func (c *tracedCoord) PutMetadata(ctx context.Context, key string, value []byte, acl coord.ACL) (uint64, error) {
	st := c.t.now()
	v, err := c.inner.PutMetadata(ctx, key, value, acl)
	c.record(ctx, coordPut, st, 0, err)
	return v, err
}

func (c *tracedCoord) CasMetadata(ctx context.Context, key string, value []byte, expected uint64, acl coord.ACL) (uint64, error) {
	st := c.t.now()
	v, err := c.inner.CasMetadata(ctx, key, value, expected, acl)
	c.record(ctx, coordCas, st, 0, err)
	return v, err
}

func (c *tracedCoord) DeleteMetadata(ctx context.Context, key string) error {
	st := c.t.now()
	err := c.inner.DeleteMetadata(ctx, key)
	c.record(ctx, coordDelete, st, 0, err)
	return err
}

func (c *tracedCoord) ListMetadata(ctx context.Context, prefix string) ([]coord.Record, error) {
	st := c.t.now()
	recs, err := c.inner.ListMetadata(ctx, prefix)
	c.record(ctx, coordList, st, len(recs), err)
	return recs, err
}

func (c *tracedCoord) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	st := c.t.now()
	n, err := c.inner.RenamePrefix(ctx, oldPrefix, newPrefix)
	c.record(ctx, coordRename, st, n, err)
	return n, err
}

func (c *tracedCoord) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	st := c.t.now()
	err := c.inner.TryLock(ctx, name, owner, ttl)
	c.record(ctx, coordTryLock, st, 0, err)
	return err
}

func (c *tracedCoord) Unlock(ctx context.Context, name, owner string) error {
	st := c.t.now()
	err := c.inner.Unlock(ctx, name, owner)
	c.record(ctx, coordUnlock, st, 0, err)
	return err
}

func (c *tracedCoord) Stats() coord.Stats { return c.inner.Stats() }

// tracedInvoker sits between the smr.Coalescer and the pipelined smr.Client,
// so it sees one call per consensus round trip: a coalesced batch or a lone
// operation. The coalescer flushes under a detached context, so these spans
// carry no op ID.
type tracedInvoker struct {
	inner smr.Invoker
	t     *tracer
}

func (w *tracedInvoker) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	st := w.t.now()
	reply, err := w.inner.Invoke(ctx, op)
	n := 1
	if ops, ok := smr.DecodeBatch(op); ok {
		n = len(ops)
	}
	w.t.add(span{start: st, end: w.t.now(), up: int64(len(op)), down: int64(len(reply)), op: opFrom(ctx), n: int32(n), kind: kindSMR, out: outcome(err)})
	return reply, err
}
