package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Store is the coordinator's content-addressed artifact store: blobs
// (checkpoints and the members of artifact sets) are keyed by their SHA-256, so
// identical uploads — a worker retrying a heartbeat, or two chunks of
// the same memoized solo baseline — deduplicate to one copy, and a
// blob reference in the lease protocol is self-verifying.
type Store struct {
	mu    sync.Mutex
	blobs map[string][]byte
	size  int64
	dedup int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{blobs: make(map[string][]byte)}
}

// Put stores b (copied) and returns its hex SHA-256 address.
func (s *Store) Put(b []byte) string {
	sum := sha256.Sum256(b)
	hash := hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[hash]; ok {
		s.dedup++
		return hash
	}
	s.blobs[hash] = append([]byte(nil), b...)
	s.size += int64(len(b))
	return hash
}

// Get returns the blob at hash.
func (s *Store) Get(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[hash]
	return b, ok
}

// Stats reports distinct blobs, stored bytes, and how many puts
// deduplicated against an existing blob.
func (s *Store) Stats() (blobs int, size int64, dedup int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs), s.size, s.dedup
}
