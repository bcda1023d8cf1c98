package part

import (
	"fmt"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/sfile"
	"mvpbt/internal/util"
)

// Partition metadata persistence (§4.7: "BF ... is persisted as part of
// the partition metadata"). EncodeMeta serializes everything needed to
// rehydrate a Segment — page layout, key and timestamp bounds, and the
// serialized filters; DecodeMeta reconstructs the segment over the same
// file. The index-level manifest (a list of encoded segments) lives in
// mvpbt.SaveManifest / LoadManifest.

// EncodeMeta appends the segment's metadata encoding to dst.
func EncodeMeta(dst []byte, s *Segment) []byte {
	dst = util.PutUvarint(dst, uint64(s.No))
	dst = util.PutUvarint(dst, s.StartPage)
	dst = util.PutUvarint(dst, uint64(s.NumPages))
	dst = util.PutUvarint(dst, uint64(s.NumLeaves))
	dst = util.PutUvarint(dst, uint64(s.rootRel))
	dst = util.PutUvarint(dst, uint64(s.height))
	dst = util.PutBytes(dst, s.MinKey)
	dst = util.PutBytes(dst, s.MaxKey)
	dst = util.PutUvarint(dst, s.MinTS)
	dst = util.PutUvarint(dst, s.MaxTS)
	dst = util.PutUvarint(dst, uint64(s.NumRecords))
	dst = util.PutUvarint(dst, uint64(s.SizeBytes))
	if s.Filter != nil {
		dst = append(dst, 1)
		dst = util.PutBytes(dst, s.Filter.MarshalBinary())
	} else {
		dst = append(dst, 0)
	}
	if s.PFilter != nil {
		dst = append(dst, 1)
		dst = util.PutBytes(dst, s.PFilter.MarshalBinary())
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// DecodeMeta reconstructs a segment over (pool, file) from an encoding
// produced by EncodeMeta, returning the segment and the bytes consumed.
func DecodeMeta(pool *buffer.Pool, file *sfile.File, b []byte) (*Segment, int, error) {
	s := &Segment{pool: pool, file: file}
	var err error
	// The three readers stop consuming at the first field that is cut short
	// or over-long; short is checked once the fixed fields are read and once
	// at the end.
	i, short := 0, false
	read := func() uint64 {
		v, n := util.Uvarint(b[i:])
		if n <= 0 {
			short = true
			return 0
		}
		i += n
		return v
	}
	readBytes := func() []byte {
		v, n, ok := util.GetBytes(b[i:])
		short = short || !ok
		i += n
		return v
	}
	readFlag := func() bool {
		if i >= len(b) {
			short = true
			return false
		}
		i++
		return b[i-1] == 1
	}
	s.No = int(read())
	s.StartPage = read()
	s.NumPages = int(read())
	s.NumLeaves = int(read())
	s.rootRel = int(read())
	s.height = int(read())
	s.MinKey = append([]byte(nil), readBytes()...)
	s.MaxKey = append([]byte(nil), readBytes()...)
	s.MinTS = read()
	s.MaxTS = read()
	s.NumRecords = int(read())
	s.SizeBytes = int(read())
	if short || s.NumPages <= 0 || s.NumLeaves <= 0 || s.rootRel < 0 || s.rootRel >= s.NumPages {
		return nil, 0, fmt.Errorf("part: corrupt segment metadata")
	}
	if readFlag() {
		if s.Filter, err = bloom.UnmarshalFilter(readBytes()); err != nil {
			return nil, 0, fmt.Errorf("part: segment %d bloom filter: %w", s.No, err)
		}
	}
	if readFlag() {
		if s.PFilter, err = bloom.UnmarshalPrefixFilter(readBytes()); err != nil {
			return nil, 0, fmt.Errorf("part: segment %d prefix filter: %w", s.No, err)
		}
	}
	if short {
		return nil, 0, fmt.Errorf("part: truncated segment metadata")
	}
	return s, i, nil
}
