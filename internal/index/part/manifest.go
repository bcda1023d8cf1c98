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
	i := 0
	read := func() uint64 {
		v, n := util.Uvarint(b[i:])
		i += n
		return v
	}
	s.No = int(read())
	s.StartPage = read()
	s.NumPages = int(read())
	s.NumLeaves = int(read())
	s.rootRel = int(read())
	s.height = int(read())
	mk, n := util.GetBytes(b[i:])
	i += n
	s.MinKey = append([]byte(nil), mk...)
	xk, n := util.GetBytes(b[i:])
	i += n
	s.MaxKey = append([]byte(nil), xk...)
	s.MinTS = read()
	s.MaxTS = read()
	s.NumRecords = int(read())
	s.SizeBytes = int(read())
	if s.NumPages <= 0 || s.NumLeaves <= 0 || s.rootRel >= s.NumPages {
		return nil, 0, fmt.Errorf("part: corrupt segment metadata")
	}
	if b[i] == 1 {
		i++
		fb, n := util.GetBytes(b[i:])
		i += n
		if s.Filter, err = bloom.UnmarshalFilter(fb); err != nil {
			return nil, 0, fmt.Errorf("part: segment %d bloom filter: %w", s.No, err)
		}
	} else {
		i++
	}
	if b[i] == 1 {
		i++
		pb, n := util.GetBytes(b[i:])
		i += n
		if s.PFilter, err = bloom.UnmarshalPrefixFilter(pb); err != nil {
			return nil, 0, fmt.Errorf("part: segment %d prefix filter: %w", s.No, err)
		}
	} else {
		i++
	}
	return s, i, nil
}
