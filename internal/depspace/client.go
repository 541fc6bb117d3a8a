package depspace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"scfs/internal/clock"
)

// Invoker submits a serialized command for totally ordered execution and
// returns the serialized result. smr.Client satisfies this interface; a
// LocalInvoker runs against an in-process Space without replication (used by
// unit tests and by the non-sharing SCFS mode experiments). Cancelling ctx
// abandons the invocation with ctx.Err().
type Invoker interface {
	Invoke(ctx context.Context, cmd []byte) ([]byte, error)
}

// LocalInvoker executes commands directly on a Space.
type LocalInvoker struct {
	Space *Space
}

// Invoke implements Invoker.
func (l *LocalInvoker) Invoke(ctx context.Context, cmd []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Space.Execute(cmd), nil
}

// Client is the typed interface to a (possibly replicated) tuple space.
type Client struct {
	inv       Invoker
	requester string
	clk       clock.Clock
}

// NewClient creates a tuple-space client acting as the given principal.
func NewClient(inv Invoker, requester string, clk clock.Clock) *Client {
	if clk == nil {
		clk = clock.Real()
	}
	return &Client{inv: inv, requester: requester, clk: clk}
}

// Requester returns the principal this client acts as.
func (c *Client) Requester() string { return c.requester }

// Errors mapped from Result.Err strings.
var (
	ErrNotFound     = errors.New(ErrNoMatch)
	ErrDenied       = errors.New(ErrAccessDenied)
	ErrVersion      = errors.New(ErrVersionClash)
	ErrExists       = errors.New(ErrAlreadyExists)
	ErrMalformed    = errors.New(ErrBadCommand)
	errUnknownReply = errors.New("depspace: unknown error reply")
)

func mapError(msg string) error {
	switch msg {
	case "":
		return nil
	case ErrNoMatch:
		return ErrNotFound
	case ErrAccessDenied:
		return ErrDenied
	case ErrVersionClash:
		return ErrVersion
	case ErrAlreadyExists:
		return ErrExists
	case ErrBadCommand:
		return ErrMalformed
	default:
		return fmt.Errorf("%w: %s", errUnknownReply, msg)
	}
}

func (c *Client) do(ctx context.Context, cmd Command) (Result, error) {
	cmd.Requester = c.requester
	cmd.Now = c.clk.Now().UnixNano()
	b, err := json.Marshal(cmd)
	if err != nil {
		return Result{}, fmt.Errorf("depspace: encoding command: %w", err)
	}
	reply, err := c.inv.Invoke(ctx, b)
	if err != nil {
		return Result{}, fmt.Errorf("depspace: invoking %s: %w", cmd.Op, err)
	}
	var res Result
	if err := json.Unmarshal(reply, &res); err != nil {
		return Result{}, fmt.Errorf("depspace: decoding reply: %w", err)
	}
	if !res.OK {
		return res, mapError(res.Err)
	}
	return res, nil
}

// Out inserts a tuple with the given ACL.
func (c *Client) Out(ctx context.Context, t Tuple, acl ACL) (uint64, error) {
	res, err := c.do(ctx, Command{Op: opOut, Tuple: t, ACL: acl})
	return res.Version, err
}

// OutTimed inserts an ephemeral tuple that expires after ttl.
func (c *Client) OutTimed(ctx context.Context, t Tuple, acl ACL, ttl time.Duration) (uint64, error) {
	res, err := c.do(ctx, Command{Op: opOut, Tuple: t, ACL: acl, TTLNanos: int64(ttl)})
	return res.Version, err
}

// Rdp reads (without removing) one tuple matching the template.
func (c *Client) Rdp(ctx context.Context, template Tuple) (*Entry, error) {
	res, err := c.do(ctx, Command{Op: opRdp, Template: template})
	if err != nil {
		return nil, err
	}
	return res.Entry, nil
}

// RdAll reads every tuple matching the template that the requester may read
// and whose key (field 1) starts with prefix (an empty prefix admits all),
// sorted field-wise. The replicas do the filtering, so the reply carries
// only the answer.
func (c *Client) RdAll(ctx context.Context, template Tuple, prefix string) ([]Entry, error) {
	res, err := c.do(ctx, Command{Op: opRdAll, Template: template, Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// Inp removes and returns one tuple matching the template.
func (c *Client) Inp(ctx context.Context, template Tuple) (*Entry, error) {
	res, err := c.do(ctx, Command{Op: opInp, Template: template})
	if err != nil {
		return nil, err
	}
	return res.Entry, nil
}

// Replace atomically substitutes the tuple matching template (if any) with
// replacement.
func (c *Client) Replace(ctx context.Context, template, replacement Tuple, acl ACL) (uint64, error) {
	res, err := c.do(ctx, Command{Op: opReplace, Template: template, Replacement: replacement, ACL: acl})
	return res.Version, err
}

// ReplaceTimed is Replace for ephemeral tuples.
func (c *Client) ReplaceTimed(ctx context.Context, template, replacement Tuple, acl ACL, ttl time.Duration) (uint64, error) {
	res, err := c.do(ctx, Command{Op: opReplace, Template: template, Replacement: replacement, ACL: acl, TTLNanos: int64(ttl)})
	return res.Version, err
}

// Cas inserts replacement only if the tuple matching template has the
// expected version (0 = must not exist). On success it returns the new
// version; on a conflict it returns ErrExists or ErrVersion together with the
// conflicting entry (may be nil).
func (c *Client) Cas(ctx context.Context, template, replacement Tuple, expectedVersion uint64, acl ACL, ttl time.Duration) (uint64, *Entry, error) {
	res, err := c.do(ctx, Command{
		Op:              opCas,
		Template:        template,
		Replacement:     replacement,
		ExpectedVersion: expectedVersion,
		ACL:             acl,
		TTLNanos:        int64(ttl),
	})
	return res.Version, res.Entry, err
}

// Rename rewrites the prefix oldPrefix to newPrefix in field fieldIndex of
// every matching tuple (the DepSpace trigger extension for directory rename).
// It returns the number of rewritten tuples.
func (c *Client) Rename(ctx context.Context, fieldIndex int, oldPrefix, newPrefix string) (int, error) {
	res, err := c.do(ctx, Command{Op: opRename, FieldIndex: fieldIndex, OldPrefix: oldPrefix, NewPrefix: newPrefix})
	return res.Count, err
}

// Clean removes expired tuples and returns how many were reclaimed.
func (c *Client) Clean(ctx context.Context) (int, error) {
	res, err := c.do(ctx, Command{Op: opClean})
	return res.Count, err
}
