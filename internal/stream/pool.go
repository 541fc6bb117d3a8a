// Package stream implements the bounded-memory chunked data plane used by
// the DepSky backend: a write pipeline that consumes an io.Reader in
// fixed-size chunks and overlaps encrypt → erasure-encode → per-shard hash →
// quorum upload across a bounded window of in-flight chunks, and a random
// access reader that fetches (and, when clouds are faulty, reconstructs) only
// the chunks covering the requested byte range.
//
// The package is deliberately mechanism-only: it knows nothing about clouds,
// erasure codes or cryptography. Producers plug an encode and a store
// function into Run, and consumers implement Fetcher for Reader. All chunk
// and shard buffers are drawn from a shared size-classed Pool so the write
// and read paths (and DepSky's degraded-read decode attempts) recycle the
// same memory.
package stream

import (
	"sync"
	"unsafe"
)

const (
	// DefaultChunkSize is the plaintext bytes per pipeline chunk (1 MiB).
	DefaultChunkSize = 1 << 20
	// DefaultWindow is the default bound on simultaneously resident chunks.
	DefaultWindow = 3
)

// Pool size classes are powers of two from 1<<minClassBits to
// 1<<maxClassBits. Requests above the top class fall back to plain make and
// are dropped on Put; below the bottom class they are served from the bottom
// class.
const (
	minClassBits = 12 // 4 KiB
	maxClassBits = 23 // 8 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// Pool recycles byte buffers across the streaming write pipeline, the ranged
// read path and DepSky's decode attempts. Buffers are grouped into
// power-of-two size classes; Get returns a buffer of exactly the requested
// length backed by its class capacity.
//
// Each class pool holds a pointer to the buffer's first byte rather than the
// slice: a pointer fits in an interface without allocating, where boxing a
// three-word slice header would cost one allocation per Put. The class fixes
// the capacity, so Get rebuilds the slice from the pointer.
type Pool struct {
	classes [numClasses]sync.Pool
}

// Buffers is the process-wide pool shared by the stream writer, the stream
// reader and the DepSky read path.
var Buffers = &Pool{}

// classFor returns the class index serving n bytes, or -1 when n exceeds the
// largest class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	for c := 0; c < numClasses; c++ {
		if n <= 1<<(minClassBits+c) {
			return c
		}
	}
	return -1
}

// Get returns a buffer of length n. The contents are undefined (buffers are
// reused without clearing); callers must overwrite every byte they read back.
func (p *Pool) Get(n int) []byte {
	if n < 0 {
		panic("stream: negative buffer size")
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if ptr, ok := p.classes[c].Get().(*byte); ok {
		return unsafe.Slice(ptr, 1<<(minClassBits+c))[:n]
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put returns a buffer obtained from Get to its size class. Buffers whose
// capacity does not match a class (e.g. allocated above the largest class)
// are dropped for the garbage collector.
func (p *Pool) Put(b []byte) {
	cp := cap(b)
	if cp == 0 {
		return
	}
	for c := 0; c < numClasses; c++ {
		if cp == 1<<(minClassBits+c) {
			p.classes[c].Put(unsafe.SliceData(b))
			return
		}
	}
}
