package util

import (
	"encoding/binary"
	"math/bits"
)

// Order-preserving key codecs: the encoded byte strings compare (with
// bytes.Compare) in the same order as the source values. Indexes store keys
// as opaque byte strings, so all workload key types funnel through these.

// EncodeUint64 appends the big-endian encoding of v to dst.
func EncodeUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint64 reads a value encoded by EncodeUint64.
func DecodeUint64(src []byte) uint64 {
	return binary.BigEndian.Uint64(src)
}

// EncodeUint32 appends the big-endian encoding of v to dst.
func EncodeUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint32 reads a value encoded by EncodeUint32.
func DecodeUint32(src []byte) uint32 {
	return binary.BigEndian.Uint32(src)
}

// PutUvarint appends v as a varint to dst.
func PutUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}

// UvarintLen is the length of PutUvarint's encoding of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Uvarint reads a varint from src, returning the value and byte count.
func Uvarint(src []byte) (uint64, int) {
	return binary.Uvarint(src)
}

// PutBytes appends a length-prefixed byte string to dst.
func PutBytes(dst, b []byte) []byte {
	dst = PutUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// GetBytes reads a length-prefixed byte string, returning the string (a
// sub-slice of src, not a copy) and the total byte count consumed. ok is
// false when the length prefix is cut short or promises more bytes than src
// holds: src may come straight off a device.
func GetBytes(src []byte) (b []byte, n int, ok bool) {
	l, n := Uvarint(src)
	if n <= 0 || l > uint64(len(src)-n) {
		return nil, 0, false
	}
	return src[n : n+int(l)], n + int(l), true
}

// CommonPrefix returns the length of the longest common prefix of a and b.
func CommonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
