package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Saver persists one snapshot per checkpoint boundary. Implementations must
// be durable before returning: a Save that returns nil is a restore point.
type Saver interface {
	Save(*Snapshot) error
}

// Store persists snapshots as files in a directory, one per epoch
// (ckpt-<epoch>.snap), written atomically via a temp file + rename so a
// crash mid-write never corrupts an existing restore point. Latest scans
// the directory newest-epoch-first and skips files that fail to decode, so
// a torn or bit-rotted newest file degrades to the previous checkpoint
// instead of failing the restore.
type Store struct {
	Dir string
}

// NewStore returns a Store rooted at dir, creating it if needed.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{Dir: dir}, nil
}

func snapName(epoch int) string { return fmt.Sprintf("ckpt-%08d.snap", epoch) }

// Save encodes and durably writes snap, replacing any snapshot of the same
// epoch.
func (s *Store) Save(snap *Snapshot) error {
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.Dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(name, filepath.Join(s.Dir, snapName(snap.Epoch))); err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// Latest decodes the newest valid snapshot in the store. Corrupt files are
// skipped (their decode errors are joined into the returned error only when
// no snapshot at all is usable). (nil, nil) means the store is empty.
func (s *Store) Latest() (*Snapshot, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var names []string
	for _, e := range entries {
		var epoch int
		if !e.IsDir() {
			if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.snap", &epoch); err == nil {
				names = append(names, e.Name())
			}
		}
	}
	// Lexicographic order equals epoch order for the zero-padded names.
	slices.Sort(names)
	slices.Reverse(names)
	var decodeErrs []error
	for _, name := range names {
		buf, err := os.ReadFile(filepath.Join(s.Dir, name))
		if err != nil {
			decodeErrs = append(decodeErrs, err)
			continue
		}
		snap, err := DecodeSnapshot(buf)
		if err != nil {
			decodeErrs = append(decodeErrs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		return snap, nil
	}
	if len(decodeErrs) > 0 {
		return nil, fmt.Errorf("ckpt: no usable snapshot: %w", errors.Join(decodeErrs...))
	}
	return nil, nil
}

// MemRetain is how many recent epochs MemStore keeps. Restores only ever
// read the latest usable snapshot, so retaining a short tail is enough for
// the chaos harness; without the bound a long campaign accumulates one
// encoded snapshot per epoch forever.
const MemRetain = 8

// MemStore is an in-memory Store stand-in (Save and Latest) for tests and
// the in-process chaos harness. It stores encoded bytes (so the codec is on the hot path exactly
// as with the file store) and tracks how many snapshot bytes restores have
// read back, feeding the chaos experiment's restored-bytes metric. Only the
// MemRetain most recent epochs are kept.
type MemStore struct {
	mu       sync.Mutex
	snaps    map[int][]byte
	restored int64
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{snaps: make(map[int][]byte)}
}

// Save encodes and retains snap.
func (m *MemStore) Save(snap *Snapshot) error {
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.snaps[snap.Epoch] = buf
	for epoch := range m.snaps {
		if epoch <= snap.Epoch-MemRetain {
			delete(m.snaps, epoch)
		}
	}
	m.mu.Unlock()
	return nil
}

// Latest decodes the highest-epoch snapshot, or (nil, nil) when empty.
func (m *MemStore) Latest() (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	best := -1
	for epoch := range m.snaps {
		if epoch > best {
			best = epoch
		}
	}
	if best < 0 {
		return nil, nil
	}
	buf := m.snaps[best]
	m.restored += int64(len(buf))
	return DecodeSnapshot(buf)
}

// RestoredBytes reports the total encoded bytes read back by Latest calls.
func (m *MemStore) RestoredBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restored
}
