package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame throws arbitrary byte streams at the frame decoder — the
// first thing on the server that touches untrusted network input. The
// decoder must never panic, never allocate past MaxFrame (a hostile header
// may declare 4GiB), and classify every malformed stream as exactly one of
// the typed errors (or a plain read error from the stream itself). A
// decoded frame must round-trip: re-encoding it reproduces the bytes
// consumed, so decode is a true inverse of WriteFrame.
//
// Run the full fuzzer with:
//
//	go test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/server/wire/
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: the malformed/truncated/oversized shapes the unit tests
	// pin down, plus valid frames of each flavor.
	valid := func(op byte, segs ...[]byte) []byte { return frame(f, op, segs...) }
	f.Add(valid(OpHello, U32(ProtoVersion), []byte("tenant")))
	f.Add(valid(OpSet, U32(3), []byte("key"), []byte("val")))
	f.Add(valid(OpCommit, U32(0), U64(0xdeadbeef)))
	f.Add(valid(OpStats))
	f.Add([]byte{0, 0, 0, 1, OpGet})                                    // minimal frame: opcode only
	f.Add([]byte{0, 0, 0, 0})                                           // zero-length frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                               // 4GiB declared length
	f.Add(append([]byte{0, 0, 0, 10}, OpSet, 'a'))                      // declares 10, delivers 2
	f.Add([]byte{0, 0, 0, 5})                                           // header only, no payload
	f.Add([]byte{0, 0})                                                 // truncated header
	f.Add(U32(MaxFrame + 1))                                            // one past the limit
	f.Add(U32(MaxFrame))                                                // at the limit, then EOF
	f.Add(append(valid(OpGet, []byte("k")), valid(OpAbort, U32(7))...)) // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			before := r.Len()
			op, payload, err := ReadFrame(r)
			if err != nil {
				if errors.Is(err, io.EOF) && before == 0 {
					return // clean end of stream between frames
				}
				// Every failure on a finite in-memory stream must be one of
				// the decoder's typed errors or the header read ending early.
				if !errors.Is(err, ErrZeroLengthFrame) &&
					!errors.Is(err, ErrFrameTooLarge) &&
					!errors.Is(err, ErrTruncatedFrame) &&
					!errors.Is(err, io.EOF) &&
					!errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("ReadFrame: untyped error %v (input %x)", err, data)
				}
				return
			}
			consumed := before - r.Len()
			if got := 4 + 1 + len(payload); consumed != got {
				t.Fatalf("ReadFrame consumed %d bytes, frame accounts for %d", consumed, got)
			}
			if len(payload)+1 > MaxFrame {
				t.Fatalf("ReadFrame returned %d payload bytes past MaxFrame", len(payload))
			}
			// Round-trip: re-encoding the decoded frame must reproduce the
			// consumed bytes exactly.
			re := frame(t, op, payload)
			start := len(data) - before
			if !bytes.Equal(re, data[start:start+consumed]) {
				t.Fatalf("round-trip mismatch:\n consumed %x\n re-encoded %x",
					data[start:start+consumed], re)
			}
		}
	})
}

// FuzzReadFrameInto decodes an arbitrary byte stream frame after frame
// through one reused buffer, and a fresh ReadFrame over a second reader of the
// same bytes alongside it: every frame must come out the same from both — op,
// payload and error class, read on past a refused header — so a short frame
// after a long one shows no stale bytes of the long one, and a truncated or
// oversized frame leaves the buffer fit for the next read.
//
//	go test -fuzz=FuzzReadFrameInto -fuzztime=30s ./internal/server/wire/
func FuzzReadFrameInto(f *testing.F) {
	long, short := frame(f, OpSet, U32(1), bytes.Repeat([]byte("L"), 300)), frame(f, OpGet, []byte("s"))
	f.Add(append(long, short...))                                   // a short frame after a long one
	f.Add(append(append(long, 0, 0, 0, 0), short...))               // then a zero-length header
	f.Add(append(append(short, 0xFF, 0xFF, 0xFF, 0xFF), long...))   // an oversized header between frames
	f.Add(append(append(long, short...), append(U32(9), OpSet)...)) // ending in a truncated frame
	f.Add(append(frame(f, OpStats), frame(f, OpBegin)...))          // empty payloads
	class := func(err error) error {
		for _, typed := range []error{ErrZeroLengthFrame, ErrFrameTooLarge, ErrTruncatedFrame, io.ErrUnexpectedEOF, io.EOF} {
			if errors.Is(err, typed) {
				return typed
			}
		}
		return err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		into, fresh := bytes.NewReader(data), bytes.NewReader(data)
		var buf []byte
		for i := 0; ; i++ {
			op, payload, grown, err := ReadFrameInto(into, buf)
			wantOp, want, wantErr := ReadFrame(fresh)
			if class(err) != class(wantErr) || op != wantOp || !bytes.Equal(payload, want) {
				t.Fatalf("frame %d: ReadFrameInto = %d %x %v, ReadFrame = %d %x %v (input %x)",
					i, op, payload, err, wantOp, want, wantErr, data)
			}
			if into.Len() != fresh.Len() {
				t.Fatalf("frame %d: ReadFrameInto left %d bytes, ReadFrame %d", i, into.Len(), fresh.Len())
			}
			if into.Len() == 0 {
				return
			}
			buf = grown // also after an error: the stream goes on behind a refused header
		}
	})
}

// FuzzTakePairs throws arbitrary payloads at the Scan reply decoder, which
// the client runs on bytes a damaged or hostile peer chose: no panic, nothing
// allocated for pairs the payload cannot hold (8 bytes each at the least), no
// error but ErrTruncatedFrame, and pairs that re-encode to what was read.
func FuzzTakePairs(f *testing.F) {
	reply := AppendPair(AppendPair(U32(2), []byte("k1"), []byte("v1")), []byte("k2"), nil)
	f.Add(reply)
	f.Add(append(U32(3), reply[4:]...))                // a count larger than the payload
	f.Add(U32(0xFFFFFFFF))                             // the largest count over an empty body
	f.Add(append(U32(1), 0, 0, 0, 9, 'k', 0, 0, 0, 0)) // a key length past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, err := TakePairs(data, nil)
		if err != nil {
			if !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("TakePairs: untyped error %v (input %x)", err, data)
			}
			return
		}
		re := U32(uint32(len(pairs)))
		for _, p := range pairs {
			re = AppendPair(re, p.Key, p.Val)
		}
		if len(pairs)*8 > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("%d pairs from %d bytes:\n input %x\n re-encoded %x", len(pairs), len(data), data, re)
		}
	})
}
