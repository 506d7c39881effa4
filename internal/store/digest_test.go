package store

import (
	"testing"

	"compaqt/internal/core"
	"compaqt/internal/device"
)

// TestDigestWireMatchesDigestImage pins the store's two digests to one
// identity: every catalog machine's library at every engine window,
// with one entry given a negative qubit and target (the sign extension
// both must agree on), digests the same from the decoded image and
// straight from its wire bytes. Store addresses and the cluster's
// repair digests therefore do not depend on which one computed them.
func TestDigestWireMatchesDigestImage(t *testing.T) {
	for _, name := range device.Names() {
		m, err := device.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lib := m.Library()
		for _, ws := range []int{4, 8, 16, 32} {
			img, err := (&core.Compiler{WindowSize: ws}).CompilePulses(name, lib)
			if err != nil {
				t.Fatalf("%s ws %d: %v", name, ws, err)
			}
			img.Entries[0].Qubit, img.Entries[0].Target = -3, -70000
			wire, err := img.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := DigestWire(wire), DigestImage(img); got != want {
				t.Errorf("%s ws %d: DigestWire %x != DigestImage %x", name, ws, got[:8], want[:8])
			}
		}
	}
}
