//go:build faultinject

package store

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
	"time"

	"compaqt/internal/faults"
)

// installInjector activates a filesystem injector for one test and
// guarantees deactivation, so tagged tests cannot leak faults into
// each other.
func installInjector(t *testing.T, cfg faults.FSConfig) *faults.Injector {
	t.Helper()
	inj := faults.NewInjector(cfg)
	faults.InstallFS(inj)
	t.Cleanup(faults.UninstallFS)
	return inj
}

// TestOneShotSyncFailureRecovery is the written-down recovery story: a
// single fsync failure mid-PutImage degrades the store without taking
// it down — existing objects keep serving, the failed object publishes
// cleanly on the next put, and the degraded flag clears.
func TestOneShotSyncFailureRecovery(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	s.SetProbeInterval(time.Hour) // keep healing explicit in this test
	imgA, imgB := testImage(t, "a", 2), testImage(t, "b", 3)
	wantA, wantB := wireOf(t, imgA), wireOf(t, imgB)
	if err := s.PutImage("a", imgA); err != nil {
		t.Fatal(err)
	}

	inj := installInjector(t, faults.FSConfig{Seed: 1})
	inj.ArmOneShot(faults.OpSync, faults.Fault{Err: faults.ErrInjectedIO})
	if err := s.PutImage("b", imgB); !errors.Is(err, syscall.EIO) {
		t.Fatalf("PutImage under injected fsync failure: %v, want EIO", err)
	}
	if err := s.Healthy(); err == nil {
		t.Fatal("Healthy() = nil after a failed publish")
	}
	// The store keeps serving what it already has.
	blob, ok := s.Get("a")
	if !ok {
		t.Fatal("degraded store lost a previously published object")
	}
	if !bytes.Equal(blob.Bytes(), wantA) {
		t.Fatal("degraded store serves wrong bytes")
	}
	blob.Release()

	// The one-shot is spent: the retry publishes durably and the
	// successful write path clears the degraded state.
	if err := s.PutImage("b", imgB); err != nil {
		t.Fatalf("PutImage retry: %v", err)
	}
	blob, ok = s.Get("b")
	if !ok {
		t.Fatal("retried object is not served")
	}
	if !bytes.Equal(blob.Bytes(), wantB) {
		t.Fatal("retried object serves wrong bytes")
	}
	blob.Release()
	if err := s.Healthy(); err != nil {
		t.Fatalf("Healthy() = %v after a clean retry", err)
	}
	if got := s.Stats().RecoveredWrites; got != 1 {
		t.Fatalf("RecoveredWrites = %d, want 1", got)
	}
}

// TestOneShotRenameFailureProbeHeals drives recovery through Probe
// instead of a follow-up put: the publish rename fails once, the store
// degrades, and a direct probe restores the write path.
func TestOneShotRenameFailureProbeHeals(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	s.SetProbeInterval(time.Hour)
	img := testImage(t, "c", 2)
	want := wireOf(t, img)

	inj := installInjector(t, faults.FSConfig{Seed: 2})
	inj.ArmOneShot(faults.OpRename, faults.Fault{Err: faults.ErrInjectedNoSpace})
	if err := s.PutImage("c", img); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("PutImage under injected rename failure: %v, want ENOSPC", err)
	}
	if _, ok := s.Get("c"); ok {
		t.Fatal("failed publish is being served")
	}
	if !s.Probe() {
		t.Fatal("Probe() = false with the one-shot spent")
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("Healthy() = %v after probe", err)
	}
	if err := s.PutImage("c", img); err != nil {
		t.Fatalf("PutImage after heal: %v", err)
	}
	blob, ok := s.Get("c")
	if !ok {
		t.Fatal("healed store does not serve the re-published object")
	}
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("healed store serves wrong bytes")
	}
	blob.Release()
}

// TestTornWriteLeavesNoCorruptObject models a crash mid-write: the
// seam lands half the bytes and fails. Nothing half-written may ever
// be served, in this process or after a reopen.
func TestTornWriteLeavesNoCorruptObject(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.SetProbeInterval(time.Hour)
	img := testImage(t, "torn", 3)
	want := wireOf(t, img)

	inj := installInjector(t, faults.FSConfig{Seed: 3})
	inj.ArmOneShot(faults.OpWrite, faults.Fault{Err: faults.ErrInjectedIO, Partial: true})
	if err := s.PutImage("torn", img); !errors.Is(err, syscall.EIO) {
		t.Fatalf("PutImage under torn write: %v, want EIO", err)
	}
	if _, ok := s.Get("torn"); ok {
		t.Fatal("torn object is being served")
	}
	s.Close()

	// A reopen must not resurrect the torn temp file as a real object.
	s2 := mustOpen(t, dir, 0)
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("reopened store serves the torn object")
	}
	if err := s2.PutImage("torn", img); err != nil {
		t.Fatalf("PutImage after reopen: %v", err)
	}
	blob, ok := s2.Get("torn")
	if !ok {
		t.Fatal("clean re-publish missed")
	}
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("re-published object serves wrong bytes")
	}
	blob.Release()
}

// TestProbabilisticWriteFaultsEventuallyConverge runs a seeded lossy
// schedule over repeated puts and requires the store to end healthy
// with every object intact once faults stop — the single-store version
// of the chaos invariant.
func TestProbabilisticWriteFaultsEventuallyConverge(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		s := mustOpen(t, t.TempDir(), 0)
		s.SetProbeInterval(time.Hour)
		inj := installInjector(t, faults.FSConfig{
			Seed:       seed,
			Probs:      [5]float64{faults.OpWrite: 0.2, faults.OpSync: 0.2, faults.OpRename: 0.2},
			TornWrites: true,
		})
		names := []string{"w", "x", "y", "z"}
		for _, n := range names {
			img := testImage(t, n, 2)
			// Retry each put until it lands; the schedule is lossy, not
			// permanently broken.
			for attempt := 0; ; attempt++ {
				if err := s.PutImage(n, img); err == nil {
					break
				}
				if attempt > 100 {
					t.Fatalf("seed %d: put %q never succeeded", seed, n)
				}
			}
		}
		inj.Stop()
		if !s.Probe() {
			t.Fatalf("seed %d: probe failed after faults stopped", seed)
		}
		if err := s.Healthy(); err != nil {
			t.Fatalf("seed %d: Healthy() = %v after faults stopped", seed, err)
		}
		for _, n := range names {
			img := testImage(t, n, 2)
			blob, ok := s.Get(n)
			if !ok {
				t.Fatalf("seed %d: %q lost", seed, n)
			}
			if !bytes.Equal(blob.Bytes(), wireOf(t, img)) {
				t.Fatalf("seed %d: %q serves corrupted bytes", seed, n)
			}
			blob.Release()
		}
		s.Close()
		faults.UninstallFS()
	}
}

// TestStoreVersionRaiseSkipsFsync: a newer version of the bytes a name
// already holds appends its manifest record without an fsync (the
// bytes are durable), so an armed fsync failure is not reached; the
// next write of new content is.
func TestStoreVersionRaiseSkipsFsync(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	s.SetProbeInterval(time.Hour)
	a, b := wireOf(t, testImage(t, "a", 2)), wireOf(t, testImage(t, "b", 3))
	if err := s.Put("lib", DigestWire(a), 1, a); err != nil {
		t.Fatal(err)
	}
	inj := installInjector(t, faults.FSConfig{Seed: 1})
	inj.ArmOneShot(faults.OpSync, faults.Fault{Err: faults.ErrInjectedIO})
	if err := s.Put("lib", DigestWire(a), 2, a); err != nil || s.Healthy() != nil {
		t.Fatalf("version raise: err %v, health %v; want neither (no fsync)", err, s.Healthy())
	}
	if bd, _ := s.Lookup("lib"); bd.Version != 2 {
		t.Fatalf("version raise left version %d, want 2", bd.Version)
	}
	if err := s.Put("lib", DigestWire(b), 3, b); !errors.Is(err, faults.ErrInjectedIO) {
		t.Fatalf("new content with an armed fsync failure: %v, want the injected error", err)
	}
}
