package coord

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"scfs/internal/depspace"
)

// Tuple layout used in the DepSpace backend. Metadata tuples are
// <"meta", key, payload>; lock tuples are <"lock", name, owner>.
const (
	tagMeta = "meta"
	tagLock = "lock"
)

// DepSpaceService adapts a DepSpace tuple-space client to the coordination
// Service interface. This is the configuration evaluated in the paper
// (DepSpace replicated with BFT-SMaRt).
type DepSpaceService struct {
	cli *depspace.Client
	statsCounter
}

var _ Service = (*DepSpaceService)(nil)

// NewDepSpaceService wraps a tuple-space client.
func NewDepSpaceService(cli *depspace.Client) *DepSpaceService {
	return &DepSpaceService{cli: cli}
}

func dsACL(a ACL) depspace.ACL {
	return depspace.ACL{Owner: a.Owner, Readers: a.Readers, Writers: a.Writers}
}

func fromDSACL(a depspace.ACL) ACL {
	return ACL{Owner: a.Owner, Readers: a.Readers, Writers: a.Writers}
}

func encodePayload(v []byte) string { return base64.StdEncoding.EncodeToString(v) }

func decodePayload(s string) ([]byte, error) { return base64.StdEncoding.DecodeString(s) }

func mapDepSpaceError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, depspace.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, depspace.ErrExists), errors.Is(err, depspace.ErrVersion):
		return ErrConflict
	case errors.Is(err, depspace.ErrDenied):
		return ErrDenied
	default:
		return err
	}
}

// GetMetadata implements Service.
func (d *DepSpaceService) GetMetadata(ctx context.Context, key string) (Record, error) {
	d.addRead()
	e, err := d.cli.Rdp(ctx, depspace.Tuple{tagMeta, key, depspace.Wildcard})
	if err != nil {
		return Record{}, mapDepSpaceError(err)
	}
	val, err := decodePayload(e.Tuple[2])
	if err != nil {
		return Record{}, fmt.Errorf("coord: corrupt metadata payload for %q: %w", key, err)
	}
	return Record{Key: key, Value: val, Version: e.Version, ACL: fromDSACL(e.ACL)}, nil
}

// PutMetadata implements Service.
func (d *DepSpaceService) PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error) {
	d.addWrite()
	v, err := d.cli.Replace(ctx,
		depspace.Tuple{tagMeta, key, depspace.Wildcard},
		depspace.Tuple{tagMeta, key, encodePayload(value)},
		dsACL(acl))
	return v, mapDepSpaceError(err)
}

// CasMetadata implements Service.
func (d *DepSpaceService) CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error) {
	d.addWrite()
	v, _, err := d.cli.Cas(ctx,
		depspace.Tuple{tagMeta, key, depspace.Wildcard},
		depspace.Tuple{tagMeta, key, encodePayload(value)},
		expectedVersion, dsACL(acl), 0)
	return v, mapDepSpaceError(err)
}

// DeleteMetadata implements Service.
func (d *DepSpaceService) DeleteMetadata(ctx context.Context, key string) error {
	d.addWrite()
	_, err := d.cli.Inp(ctx, depspace.Tuple{tagMeta, key, depspace.Wildcard})
	if errors.Is(err, depspace.ErrNotFound) {
		return nil
	}
	return mapDepSpaceError(err)
}

// ListMetadata implements Service. The replicas filter by key prefix.
func (d *DepSpaceService) ListMetadata(ctx context.Context, prefix string) ([]Record, error) {
	d.addList()
	entries, err := d.cli.RdAll(ctx, depspace.Tuple{tagMeta, depspace.Wildcard, depspace.Wildcard}, prefix)
	if err != nil {
		return nil, mapDepSpaceError(err)
	}
	var out []Record
	for _, e := range entries {
		val, err := decodePayload(e.Tuple[2])
		if err != nil {
			continue
		}
		out = append(out, Record{Key: e.Tuple[1], Value: val, Version: e.Version, ACL: fromDSACL(e.ACL)})
	}
	return out, nil
}

// RenamePrefix implements Service using the DepSpace trigger extension.
func (d *DepSpaceService) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	d.addWrite()
	n, err := d.cli.Rename(ctx, 1, oldPrefix, newPrefix)
	return n, mapDepSpaceError(err)
}

// TryLock implements Service: a conditional insertion of an ephemeral tuple.
func (d *DepSpaceService) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	d.addLock()
	_, existing, err := d.cli.Cas(ctx,
		depspace.Tuple{tagLock, name, depspace.Wildcard},
		depspace.Tuple{tagLock, name, owner},
		0, depspace.ACL{}, ttl)
	if err == nil {
		return nil
	}
	if errors.Is(err, depspace.ErrExists) {
		if existing != nil && len(existing.Tuple) == 3 && existing.Tuple[2] == owner {
			// Re-entrant acquisition by the same owner: renew the lease.
			d.addLock()
			if _, _, casErr := d.cli.Cas(ctx,
				depspace.Tuple{tagLock, name, owner},
				depspace.Tuple{tagLock, name, owner},
				existing.Version, depspace.ACL{}, ttl); casErr == nil {
				return nil
			}
		}
		return ErrLockHeld
	}
	return mapDepSpaceError(err)
}

// Unlock implements Service.
func (d *DepSpaceService) Unlock(ctx context.Context, name, owner string) error {
	d.addLock()
	_, err := d.cli.Inp(ctx, depspace.Tuple{tagLock, name, owner})
	if errors.Is(err, depspace.ErrNotFound) {
		return nil // already released or expired
	}
	return mapDepSpaceError(err)
}
