package depsky

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// frame encodes b into a freshly allocated frame.
func frame(p Protocol, b *block) []byte {
	payload := b.Shard
	if p == ProtocolA {
		payload = b.Full
	}
	buf := make([]byte, frameLen(len(b.KeyShare), len(payload)))
	encodeFrame(buf, p, b)
	return buf
}

func TestWireRoundTripCA(t *testing.T) {
	in := &block{
		Shard:    []byte{0, 1, 2, 0xff, 4},
		ShardIdx: 3,
		KeyX:     7,
		KeyShare: []byte{9, 8, 7},
	}
	frame := frame(ProtocolCA, in)
	if want := wireHeaderLen + len(in.KeyShare) + len(in.Shard); len(frame) != want {
		t.Fatalf("frame size = %d, want %d (no inflation)", len(frame), want)
	}
	out, err := decodeBlock(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Shard, in.Shard) || out.ShardIdx != in.ShardIdx ||
		out.KeyX != in.KeyX || !bytes.Equal(out.KeyShare, in.KeyShare) || out.Full != nil {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestWireRoundTripA(t *testing.T) {
	in := &block{Full: []byte("replicated value"), ShardIdx: 2}
	out, err := decodeBlock(frame(ProtocolA, in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Full, in.Full) || out.ShardIdx != 2 || out.Shard != nil || out.KeyShare != nil {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestWireRoundTripEmptyPayload(t *testing.T) {
	out, err := decodeBlock(frame(ProtocolCA, &block{ShardIdx: 1, KeyX: 1, KeyShare: []byte{5}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Shard) != 0 || out.KeyX != 1 {
		t.Fatalf("empty payload mishandled: %+v", out)
	}
}

func TestWireRoundTripV2(t *testing.T) {
	in := &block{
		Shard:         []byte{0, 1, 2, 0xff, 4, 5},
		ShardIdx:      2,
		KeyX:          9,
		KeyShare:      []byte{1, 2, 3, 4},
		ChunkIdx:      41,
		ChunkPlainLen: 777,
	}
	out, err := decodeBlock(frame(ProtocolCA, in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Shard, in.Shard) || out.ShardIdx != in.ShardIdx ||
		out.KeyX != in.KeyX || !bytes.Equal(out.KeyShare, in.KeyShare) ||
		out.ChunkIdx != in.ChunkIdx || out.ChunkPlainLen != in.ChunkPlainLen || out.Full != nil {
		t.Fatalf("v2 round trip mismatch: %+v", out)
	}

	// DepSky-A chunk: full replicated chunk, no key share.
	a := &block{Full: []byte("chunk bytes"), ShardIdx: 1, ChunkIdx: 0, ChunkPlainLen: 11}
	outA, err := decodeBlock(frame(ProtocolA, a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outA.Full, a.Full) || outA.ChunkIdx != 0 || outA.ChunkPlainLen != 11 || outA.KeyShare != nil {
		t.Fatalf("v2 A round trip mismatch: %+v", outA)
	}
}

// TestWireRejectsRetiredV1Frames: the whole-object frame version 1 is
// retired; a frame claiming it is malformed, not decoded with guessed
// chunk coordinates.
func TestWireRejectsRetiredV1Frames(t *testing.T) {
	v1 := frame(ProtocolCA, &block{Shard: []byte{1}, KeyX: 1, KeyShare: []byte{2}})
	v1[4] = 1
	if _, err := decodeBlock(v1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("version-1 frame: err = %v, want ErrBadFrame", err)
	}
}

func TestWireRejectsMalformedV2Frames(t *testing.T) {
	good := frame(ProtocolCA, &block{Shard: []byte{1, 2, 3}, KeyX: 1, KeyShare: []byte{4}, ChunkIdx: 0, ChunkPlainLen: 3})
	cases := map[string][]byte{
		"short v2 header": good[:wireHeaderLen-1],
		"truncated body":  good[:len(good)-1],
		"oversized frame": append(append([]byte{}, good...), 0),
	}
	for name, frame := range cases {
		if _, err := decodeBlock(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func TestWireRejectsMalformedFrames(t *testing.T) {
	good := frame(ProtocolCA, &block{Shard: []byte{1, 2, 3}, KeyX: 1, KeyShare: []byte{4}})
	cases := map[string][]byte{
		"empty":           nil,
		"short":           good[:wireHeaderLen-1],
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"bad version":     append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"bad protocol":    append(append([]byte{}, good[:5]...), append([]byte{42}, good[6:]...)...),
		"truncated body":  good[:len(good)-1],
		"oversized frame": append(append([]byte{}, good...), 0),
	}
	for name, frame := range cases {
		if _, err := decodeBlock(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	// JSON from the old envelope must be rejected cleanly, not misparsed.
	if _, err := decodeBlock([]byte(`{"shard":"AAEC","shard_idx":1}`)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("legacy JSON: err = %v, want ErrBadFrame", err)
	}
}

// FuzzDecodeBlock feeds arbitrary bytes to decodeBlock, the parser of the
// frames possibly Byzantine clouds serve: no input may panic it, every
// rejection must be ErrBadFrame, and every accepted frame must account for
// all of its bytes and survive a re-encode unchanged.
func FuzzDecodeBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBlock(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("rejection is not ErrBadFrame: %v", err)
			}
			return
		}
		p := Protocol(data[5])
		payload := b.Shard
		if p == ProtocolA {
			payload = b.Full
		}
		if keyLen := int(binary.BigEndian.Uint32(data[10:])); wireHeaderLen+keyLen+len(payload) != len(data) {
			t.Fatalf("frame of %d bytes decoded to a %d-byte key field and %d-byte payload", len(data), keyLen, len(payload))
		}
		again, err := decodeBlock(frame(p, b))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		againPayload := again.Shard
		if p == ProtocolA {
			againPayload = again.Full
		}
		if again.ShardIdx != b.ShardIdx || again.ChunkIdx != b.ChunkIdx || again.ChunkPlainLen != b.ChunkPlainLen ||
			!bytes.Equal(again.KeyShare, b.KeyShare) || !bytes.Equal(againPayload, payload) ||
			(len(b.KeyShare) > 0 && again.KeyX != b.KeyX) {
			t.Fatalf("re-encode changed the block: %+v -> %+v", b, again)
		}
	})
}
