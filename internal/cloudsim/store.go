// Package cloudsim emulates the three cloud-storage services of the case
// study — Google Drive, Dropbox, and Microsoft OneDrive — as HTTP
// services over the simulated WAN. Each provider exposes its own 2015-era
// REST upload protocol (resumable session + single PUT for Drive, 4 MiB
// upload_session chunks for Dropbox, 10 MiB Content-Range fragments for
// OneDrive), all protected by OAuth2 bearer tokens, all backed by an
// in-memory object store at the provider's datacenter.
//
// The protocol differences matter to the paper's results: chunkier
// protocols pay more request round trips per file, which is part of why
// detour benefit is provider- and file-size-dependent.
package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"detournet/internal/simclock"
)

// ErrQuotaExceeded reports a write the store refused because it would
// push used bytes past the bucket's quota — the storage-layer origin
// of every 507 the provider front ends emit. The message substring
// "quota exceeded" is load-bearing: agent-relayed errors are flattened
// to strings on the wire and classified by content.
var ErrQuotaExceeded = errors.New("cloudsim: quota exceeded")

// Object is one stored file.
type Object struct {
	ID       string
	Name     string
	Size     float64
	MD5      string // hex digest when content bytes were provided
	Modified simclock.Time
}

// ObjectStore is an in-memory bucket, keyed by name (paths are names
// here) with stable generated IDs.
type ObjectStore struct {
	eng    *simclock.Engine
	byName map[string]*Object
	byID   map[string]*Object
	nextID int
	// Quota caps total stored bytes; zero means unlimited.
	Quota float64
	used  float64
	// attempts maps an idempotency key (X-Attempt-Id) to the object its
	// commit produced, so a replayed commit of the same attempt returns
	// the stored object instead of materializing a duplicate.
	attempts map[string]*Object
	// commits counts materializing commits per name — the crash-replay
	// harness asserts exactly one per object.
	commits map[string]int
	// dupSuppressed counts commits answered from the attempts table.
	dupSuppressed int
}

// NewObjectStore returns an empty store on the clock.
func NewObjectStore(eng *simclock.Engine) *ObjectStore {
	if eng == nil {
		panic("cloudsim: nil engine")
	}
	return &ObjectStore{
		eng: eng, byName: make(map[string]*Object), byID: make(map[string]*Object),
		attempts: make(map[string]*Object), commits: make(map[string]int),
	}
}

// Put stores (or replaces) an object by name. md5 may be empty when the
// content was never materialized.
func (s *ObjectStore) Put(name string, size float64, md5 string) (*Object, error) {
	if name == "" {
		return nil, fmt.Errorf("cloudsim: empty object name")
	}
	if size < 0 {
		return nil, fmt.Errorf("cloudsim: negative size")
	}
	var prev float64
	if old, ok := s.byName[name]; ok {
		prev = old.Size
	}
	if s.Quota > 0 && s.used-prev+size > s.Quota {
		return nil, ErrQuotaExceeded
	}
	if old, ok := s.byName[name]; ok {
		s.used -= old.Size
		delete(s.byID, old.ID)
	}
	o := &Object{
		ID:       fmt.Sprintf("f-%d", s.nextID),
		Name:     name,
		Size:     size,
		MD5:      md5,
		Modified: s.eng.Now(),
	}
	s.nextID++
	s.byName[name] = o
	s.byID[o.ID] = o
	s.used += size
	s.commits[name]++
	s.assertInvariant()
	return o, nil
}

// QuotaHeadroom reports the bytes still admissible under the quota;
// +Inf when the store is unlimited (zero quota), never negative.
func (s *ObjectStore) QuotaHeadroom() float64 {
	if s.Quota <= 0 {
		return math.Inf(1)
	}
	h := s.Quota - s.used
	if h < 0 {
		return 0
	}
	return h
}

// assertInvariant checks the store's accounting after every write:
// used must equal the sum of stored object sizes and must never
// exceed the quota. A violation is a simulator bug (for instance, a
// compose restore path over-reporting reclaimed space), not a
// recoverable condition, so it panics.
func (s *ObjectStore) assertInvariant() {
	s.assertAccounting()
	if s.Quota > 0 && s.used > s.Quota+1e-6 {
		panic(fmt.Sprintf("cloudsim: used %.0f exceeds quota %.0f", s.used, s.Quota))
	}
}

// assertAccounting is the half of the invariant that holds across
// every mutation including deletes: tracked used bytes must equal the
// stored objects. (A delete while the quota sits externally shrunk
// below used still reduces usage, so the quota half is only asserted
// after writes, whose admission checks guarantee it.)
func (s *ObjectStore) assertAccounting() {
	var sum float64
	for _, o := range s.byName {
		sum += o.Size
	}
	if math.Abs(sum-s.used) > 1e-6 {
		panic(fmt.Sprintf("cloudsim: used accounting drift: tracked %.0f, stored %.0f", s.used, sum))
	}
}

// PutIdempotent stores an object like Put, gated by an idempotency key:
// when a commit with the same non-empty key already produced an object
// that is still stored, that object is returned unchanged and no second
// commit is materialized — how a crash-replayed upload attempt avoids
// double-committing. An empty key degrades to a plain Put.
func (s *ObjectStore) PutIdempotent(name string, size float64, md5, key string) (*Object, error) {
	if key != "" {
		if o, ok := s.Replayed(key, name); ok {
			return o, nil
		}
	}
	o, err := s.Put(name, size, md5)
	if err != nil {
		return nil, err
	}
	if key != "" {
		s.attempts[key] = o
	}
	return o, nil
}

// Restore re-inserts a previously stored object after a failed
// multi-step mutation — a compose whose final Put did not fit rolls
// its freed parts back with this. Unlike Put it preserves the
// object's identity and does not count a new commit: rollback is not
// a commit, so a failed compose can neither over-report reclaimed
// space nor inflate per-name commit counts.
func (s *ObjectStore) Restore(o *Object) error {
	if o == nil || o.Name == "" {
		return fmt.Errorf("cloudsim: restoring nil or unnamed object")
	}
	var prev float64
	if old, ok := s.byName[o.Name]; ok {
		prev = old.Size
	}
	if s.Quota > 0 && s.used-prev+o.Size > s.Quota {
		return ErrQuotaExceeded
	}
	if old, ok := s.byName[o.Name]; ok {
		s.used -= old.Size
		delete(s.byID, old.ID)
	}
	s.byName[o.Name] = o
	s.byID[o.ID] = o
	s.used += o.Size
	s.assertInvariant()
	return nil
}

// Replayed answers an idempotent replay without a Put: it returns the
// object a previous commit with this key produced, provided it is still
// the stored object under name.
func (s *ObjectStore) Replayed(key, name string) (*Object, bool) {
	o, ok := s.attempts[key]
	if ok && o.Name == name && s.byName[name] == o {
		s.dupSuppressed++
		return o, true
	}
	return nil, false
}

// RecordAttempt associates an idempotency key with an already-stored
// object (compose commits record themselves after their multi-step
// Put).
func (s *ObjectStore) RecordAttempt(key string, o *Object) {
	if key != "" && o != nil {
		s.attempts[key] = o
	}
}

// Commits returns how many materializing commits name has received.
func (s *ObjectStore) Commits(name string) int { return s.commits[name] }

// DuplicatesSuppressed returns how many commits were answered from the
// idempotency table instead of materializing again.
func (s *ObjectStore) DuplicatesSuppressed() int { return s.dupSuppressed }

// Get returns an object by name.
func (s *ObjectStore) Get(name string) (*Object, bool) {
	o, ok := s.byName[name]
	return o, ok
}

// GetByID returns an object by ID.
func (s *ObjectStore) GetByID(id string) (*Object, bool) {
	o, ok := s.byID[id]
	return o, ok
}

// Delete removes an object by name, reporting whether it existed. The
// paper deletes staged files before every run; the DTN relay calls this.
func (s *ObjectStore) Delete(name string) bool {
	o, ok := s.byName[name]
	if !ok {
		return false
	}
	s.used -= o.Size
	delete(s.byName, name)
	delete(s.byID, o.ID)
	s.assertAccounting()
	return true
}

// List returns all objects sorted by name.
func (s *ObjectStore) List() []*Object {
	out := make([]*Object, 0, len(s.byName))
	for _, o := range s.byName {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Used returns the total stored bytes.
func (s *ObjectStore) Used() float64 { return s.used }
