package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Store is the coordinator's content-addressed artifact store: blobs
// (the members of completed chunks' artifact sets; a chunk's live
// checkpoint is a field of the chunk, not a blob here) are keyed by
// their SHA-256, so identical uploads deduplicate to one copy. The store
// is append-only: nothing in it is ever superseded.
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

// blobHash is a blob's address: the hex SHA-256 of its bytes.
func blobHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Put stores b, which the store owns from here on, and returns its
// address.
func (s *Store) Put(b []byte) string {
	hash := blobHash(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[hash]; ok {
		s.dedup++
		return hash
	}
	s.blobs[hash] = b
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
