package wire

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// frame returns the bytes WriteFrame puts on the wire for op and segs.
func frame(tb testing.TB, op byte, segs ...[]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteFrame(bw, op, segs...); err != nil {
		tb.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	buf := bytes.NewBuffer(frame(t, OpSet, U32(7), []byte("key"), []byte("value")))
	op, payload, err := ReadFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpSet {
		t.Fatalf("op %d, want %d", op, OpSet)
	}
	id, rest, err := TakeU32(payload)
	if err != nil || id != 7 {
		t.Fatalf("tx id %d err %v", id, err)
	}
	if string(rest) != "keyvalue" {
		t.Fatalf("payload %q", rest)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	buf := bytes.NewBuffer(frame(t, OpBegin))
	if buf.Len() != 5 {
		t.Fatalf("empty frame is %d bytes on the wire, want 5", buf.Len())
	}
	op, payload, err := ReadFrame(buf)
	if err != nil || op != OpBegin || len(payload) != 0 {
		t.Fatalf("round-trip: op=%d payload=%q err=%v", op, payload, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteFrame(bw, OpSet, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
	if bw.Buffered() != 0 || buf.Len() != 0 {
		t.Fatal("oversized frame partially written")
	}
	// An oversized length on the read side is rejected before allocation.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read: %v, want ErrFrameTooLarge", err)
	}
}

func TestTakeU32Truncated(t *testing.T) {
	for _, short := range [][]byte{nil, {}, {1}, {1, 2}, {1, 2, 3}} {
		if _, _, err := TakeU32(short); !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("TakeU32(%d bytes): %v, want ErrTruncatedFrame", len(short), err)
		}
	}
}

// A declared length of zero is a corrupt header, not an empty message —
// every frame carries at least the opcode byte.
func TestFrameZeroLength(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrZeroLengthFrame) {
		t.Fatalf("zero-length frame: %v, want ErrZeroLengthFrame", err)
	}
}

// A header that declares more bytes than the stream delivers is a typed
// truncation, whether the stream dies mid-payload or ends cleanly.
func TestFrameTruncatedPayload(t *testing.T) {
	// Declared 10 bytes, delivered 3.
	buf := bytes.NewBuffer(append([]byte{0, 0, 0, 10}, OpSet, 'a', 'b'))
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("truncated payload: %v, want ErrTruncatedFrame", err)
	}
	// Declared 5 bytes, delivered none (clean EOF right after the header).
	buf = bytes.NewBuffer([]byte{0, 0, 0, 5})
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("headerless truncation: %v, want ErrTruncatedFrame", err)
	}
	// A truncated HEADER is not a truncated frame: no frame had begun, so
	// the io error passes through for the session loop's EOF handling.
	buf = bytes.NewBuffer([]byte{0, 0})
	if _, _, err := ReadFrame(buf); errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("truncated header misreported as truncated frame: %v", err)
	}
}

// An oversized declared length is rejected before any allocation, with
// the declared size in the message for the operator.
func TestFrameOversizedDeclared(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	_, _, err := ReadFrame(buf)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized declared length: %v, want ErrFrameTooLarge", err)
	}
	if !strings.Contains(err.Error(), "4294967295") {
		t.Fatalf("error does not name the declared size: %v", err)
	}
	// One past the limit is rejected; the limit itself is accepted (the
	// payload below is missing, so acceptance shows up as truncation).
	buf = bytes.NewBuffer(U32(MaxFrame + 1))
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("MaxFrame+1: %v, want ErrFrameTooLarge", err)
	}
	buf = bytes.NewBuffer(U32(MaxFrame))
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("MaxFrame exactly: %v, want ErrTruncatedFrame (accepted, then cut short)", err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xDEADBEEF, 1<<63 | 42, ^uint64(0)} {
		buf := append(U64(v), []byte("tail")...)
		got, rest, err := TakeU64(buf)
		if err != nil || got != v || string(rest) != "tail" {
			t.Fatalf("TakeU64(U64(%d)) = %d, %q, %v", v, got, rest, err)
		}
	}
}

func TestTakeU64Truncated(t *testing.T) {
	for n := 0; n < 8; n++ {
		if _, _, err := TakeU64(make([]byte, n)); !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("TakeU64(%d bytes): %v, want ErrTruncatedFrame", n, err)
		}
	}
}
