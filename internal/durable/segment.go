package durable

import (
	"fmt"
	"os"
	"runtime/debug"
)

// segment is the active WAL segment, open for appending. Where the platform
// can map it (linux), its file is preallocated past SegmentBytes and mapped
// shared, and an append is a copy into the page cache; elsewhere, or when the
// mapping fails, an append is one positioned write syscall. Either way the
// record sits in the kernel's page cache when the append returns, so it
// survives the death of the process.
//
// A mapped segment's file is longer than its records until close truncates
// it: everything past the last frame is zero, which recovery reads as the
// clean end of the log.
type segment struct {
	f    *os.File
	data []byte // shared mapping of f; nil on the write path
}

// segmentSlack is reserved past SegmentBytes, so the record that crosses the
// rotation threshold usually lands in the mapping without growing it.
const segmentSlack = 64 << 10

// openSegment opens (creating, or truncating when trunc) the segment file at
// path and maps it with room for at least reserve bytes. It returns the
// length of the records already in the file.
func openSegment(path string, trunc bool, reserve int64) (*segment, int64, error) {
	flag := os.O_CREATE | os.O_RDWR
	if trunc {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	s := &segment{f: f}
	s.remap(size, max(reserve, size+segmentSlack))
	return s, size, nil
}

// remap (re)maps the file with room for n bytes, of which the first size are
// records. If the file cannot be mapped, the segment falls back to the write
// path.
func (s *segment) remap(size, n int64) {
	if s.data != nil {
		unmapFile(s.data)
		s.data = nil
	}
	pg := int64(os.Getpagesize())
	if data, err := mapFile(s.f, size, (n+pg-1)/pg*pg); err == nil {
		s.data = data
	}
}

// writeAt stores the frame p at byte off, the end of the records.
func (s *segment) writeAt(p []byte, off int64) error {
	if s.data != nil && off+int64(len(p)) > int64(len(s.data)) {
		s.remap(off, off+int64(len(p))+segmentSlack)
	}
	if s.data == nil {
		if n, err := s.f.WriteAt(p, off); err != nil {
			if n > 0 {
				// Keep the segment frame-aligned for the in-process reader
				// path; recovery would truncate the torn frame anyway.
				s.f.Truncate(off)
			}
			return err
		}
		return nil
	}
	return copyGuarded(s.data[off:], p)
}

// copyGuarded copies src into the mapping at dst, turning a fault — the file
// was truncated underneath the mapping — into an error instead of a crash.
func copyGuarded(dst, src []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interface{ Addr() uintptr }); !ok {
				panic(r)
			}
			err = fmt.Errorf("fault storing into the mapped segment: %v", r)
		}
	}()
	copy(dst, src)
	return nil
}

// close unmaps the segment, truncates its file to the size bytes of records,
// fsyncs and closes it: a closed segment holds its frames and nothing else.
func (s *segment) close(size int64) error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.data != nil {
		keep(unmapFile(s.data))
		s.data = nil
	}
	keep(s.f.Truncate(size))
	keep(s.f.Sync())
	keep(s.f.Close())
	return first
}
