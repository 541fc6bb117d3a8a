package stream

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
)

// Config tunes a streaming pipeline run.
type Config struct {
	// ChunkSize is the plaintext bytes per chunk (default DefaultChunkSize).
	ChunkSize int
	// Window bounds the number of chunks simultaneously resident in the
	// pipeline — being read, encoded or uploaded (default DefaultWindow).
	Window int
	// Pool supplies the chunk buffers (default Buffers).
	Pool *Pool
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Pool == nil {
		c.Pool = Buffers
	}
	return c
}

// Result summarizes a completed pipeline run.
type Result struct {
	// Size is the total number of plaintext bytes consumed from the reader.
	Size int64
	// Chunks is the number of chunks emitted (0 for an empty stream).
	Chunks int
	// Sum256 is the SHA-256 of the whole plaintext stream, computed
	// incrementally while chunks were in flight.
	Sum256 [sha256.Size]byte
}

// Run consumes r in cfg.ChunkSize chunks and pipes every chunk through
// encode and then store, with at most cfg.Window chunks resident at any
// moment. Chunks overlap: while chunk j is being stored, chunk j+1 is being
// encoded (this is what lets per-shard hashing run concurrently with uploads
// of earlier chunks) and chunk j+2 is being read.
//
// encode transforms the plaintext chunk into an opaque encoded value; it runs
// on a pipeline goroutine and must not retain plain after returning (the
// buffer goes back to the pool). store persists the encoded value; distinct
// chunks may be stored out of order, so store must only rely on idx for
// placement. Both may run concurrently for different chunks.
//
// The first error stops the intake of new chunks, and Run returns it after
// all in-flight chunks have drained. Cancelling ctx stops the intake the
// same way: no new chunks are read, in-flight chunks drain (their encode and
// store callbacks are expected to observe the same ctx and fail fast), and
// Run returns ctx.Err().
func Run[E any](ctx context.Context, r io.Reader, cfg Config, encode func(idx int, plain []byte) (E, error), store func(idx int, enc E) error) (Result, error) {
	cfg = cfg.withDefaults()
	var res Result
	// One heap object holds everything the chunk goroutines share.
	st := &runState{window: make(chan struct{}, cfg.Window)}
	h := sha256.New()
	for idx := 0; !st.failed(); idx++ {
		if err := ctx.Err(); err != nil {
			st.setErr(err)
			break
		}
		st.window <- struct{}{} // count the chunk being read against the window
		buf := cfg.Pool.Get(cfg.ChunkSize)
		n, err := io.ReadFull(r, buf)
		if n == 0 {
			cfg.Pool.Put(buf)
			<-st.window
			if err != io.EOF && err != io.ErrUnexpectedEOF && err != nil {
				st.setErr(fmt.Errorf("stream: reading chunk %d: %w", idx, err))
			}
			break
		}
		plain := buf[:n]
		h.Write(plain)
		res.Size += int64(n)
		res.Chunks++
		st.wg.Add(1)
		go func(idx int, plain []byte) {
			defer st.wg.Done()
			defer func() { <-st.window }()
			enc, eerr := encode(idx, plain)
			cfg.Pool.Put(plain[:cap(plain)])
			if eerr == nil {
				eerr = store(idx, enc)
			}
			if eerr != nil {
				st.setErr(fmt.Errorf("stream: chunk %d: %w", idx, eerr))
			}
		}(idx, plain)
		if err == io.ErrUnexpectedEOF {
			break // short final chunk
		}
		if err != nil && err != io.EOF {
			st.setErr(fmt.Errorf("stream: reading chunk %d: %w", idx+1, err))
			break
		}
		if err == io.EOF {
			break
		}
	}
	st.wg.Wait()
	h.Sum(res.Sum256[:0])
	return res, st.err()
}

// runState is the part of a pipeline run its chunk goroutines share: the
// window of resident chunks, their completion, and the first error.
type runState struct {
	window chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	fail   error
}

// setErr records err unless an earlier error was recorded.
func (s *runState) setErr(err error) {
	s.mu.Lock()
	if s.fail == nil {
		s.fail = err
	}
	s.mu.Unlock()
}

// err returns the first recorded error.
func (s *runState) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fail
}

// failed reports whether an error was recorded.
func (s *runState) failed() bool { return s.err() != nil }
