// Package fileutil generates the workload files of the case study: the
// paper creates 10–100 MB binary files of random data with dd so that
// transfers are incompressible and rsync finds no deltas. TestFile does
// the same from a seed, either materializing the bytes (for protocol
// tests) or describing them by size and digest alone (for large timed
// transfers, which never need the bytes in memory).
package fileutil

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/rand"
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
	// MD5 is the digest of the (possibly virtual) contents.
	MD5 string
	// Data holds the materialized bytes, nil for virtual files.
	Data []byte
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

// NewWithData generates a materialized test file with seeded random
// (incompressible) contents, the equivalent of
// `dd if=/dev/urandom of=name bs=1M count=n`.
func NewWithData(name string, sizeBytes int, seed int64) TestFile {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, sizeBytes)
	rng.Read(data)
	sum := md5.Sum(data)
	return TestFile{Name: name, Size: float64(sizeBytes), MD5: fmt.Sprintf("%x", sum), Data: data}
}
