// Package fileutil generates the workload files of the case study: the
// paper creates 10–100 MB binary files of random data with dd so that
// transfers are incompressible and rsync finds no deltas. TestFile does
// the same from a seed, describing the file by size and digest alone:
// timed transfers never need the bytes in memory.
package fileutil

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
)

// MB is the paper's file-size unit (decimal megabytes, matching dd).
const MB = 1_000_000

// PaperSizesMB are the file sizes of every figure and table: 10–60 and
// 100 MB.
var PaperSizesMB = []int{10, 20, 30, 40, 50, 60, 100}

// TestFile describes one generated workload file.
type TestFile struct {
	Name string
	Size float64
	// MD5 is the digest of the virtual contents.
	MD5 string
}

// New generates a virtual test file: sized and digested, bytes never
// materialized. The digest is derived deterministically from the seed
// and size, so retries and verification behave like a real file's.
func New(name string, sizeBytes float64, seed int64) TestFile {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(sizeBytes))
	sum := md5.Sum(b[:])
	return TestFile{Name: name, Size: sizeBytes, MD5: fmt.Sprintf("%x", sum)}
}
