package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optipart/internal/comm"
)

func TestStoreSaveLatest(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "ck"))
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := st.Latest(); err != nil || snap != nil {
		t.Fatalf("empty store: got %v, %v", snap, err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		snap := testSnapshot(t, int64(epoch), 3)
		snap.Epoch = epoch
		snap.Seq = uint64(epoch * 10)
		if err := st.Save(snap); err != nil {
			t.Fatalf("save epoch %d: %v", epoch, err)
		}
	}
	got, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 3 || got.Seq != 30 {
		t.Fatalf("latest: got %+v", got)
	}
	// No stray temp files survive a save.
	entries, err := os.ReadDir(st.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestStoreLatestSkipsCorrupt(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := testSnapshot(t, 1, 2)
	good.Epoch = 1
	if err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	bad := testSnapshot(t, 2, 2)
	bad.Epoch = 2
	if err := st.Save(bad); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest file: a torn write must fall back to epoch 1.
	name := filepath.Join(st.Dir, snapName(2))
	buf, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 1
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 1 {
		t.Fatalf("latest after corruption: got %+v", got)
	}
	// With every file corrupt, Latest reports the decode failures.
	name1 := filepath.Join(st.Dir, snapName(1))
	if err := os.WriteFile(name1, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Latest(); err == nil {
		t.Fatal("all-corrupt store: want error")
	}

	// A store holding only a snapshot of an older version has no usable
	// snapshot, and says why.
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Save(good); err != nil {
		t.Fatal(err)
	}
	name1 = filepath.Join(old.Dir, snapName(1))
	if buf, err = os.ReadFile(name1); err != nil {
		t.Fatal(err)
	}
	buf[4] = 1
	if err := os.WriteFile(name1, reseal(buf), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Latest(); !errors.Is(err, comm.ErrVersion) || !strings.Contains(err.Error(), "no usable snapshot") {
		t.Fatalf("version-1 store: got %v, want no usable snapshot wrapping comm.ErrVersion", err)
	}
}

func TestMemStore(t *testing.T) {
	m := NewMemStore()
	if snap, err := m.Latest(); err != nil || snap != nil {
		t.Fatalf("empty: got %v, %v", snap, err)
	}
	if m.RestoredBytes() != 0 {
		t.Fatal("restored bytes before any restore")
	}
	for epoch := 1; epoch <= 2; epoch++ {
		snap := testSnapshot(t, int64(epoch), 2)
		snap.Epoch = epoch
		if err := m.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != 2 {
		t.Fatalf("latest: got %+v", got)
	}
	if m.RestoredBytes() <= 0 {
		t.Fatal("restored bytes not tracked")
	}
}

// TestMemStoreRetainsBoundedEpochs: a long campaign saves many epochs, and
// the store keeps only the MemRetain most recent, keys and bytes alike, so
// its memory stays bounded however long the campaign runs.
func TestMemStoreRetainsBoundedEpochs(t *testing.T) {
	m := NewMemStore()
	for epoch := 1; epoch <= 4*MemRetain; epoch++ {
		snap := testSnapshot(t, int64(epoch), 2)
		snap.Epoch = epoch
		if err := m.Save(snap); err != nil {
			t.Fatal(err)
		}
		if len(m.snaps) > MemRetain {
			t.Fatalf("after epoch %d the store holds %d epochs, more than MemRetain = %d", epoch, len(m.snaps), MemRetain)
		}
	}
	for epoch := range m.snaps {
		if epoch <= 3*MemRetain {
			t.Fatalf("epoch %d retained after %d saves", epoch, 4*MemRetain)
		}
	}
	if got, err := m.Latest(); err != nil || got.Epoch != 4*MemRetain {
		t.Fatalf("latest: got %+v, %v", got, err)
	}
}
