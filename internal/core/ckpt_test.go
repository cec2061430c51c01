package core

import (
	"testing"

	"pinnedloads/internal/ckptio/ckpttest"
)

// Fields of System that State leaves out: Restore sets resumed and lastCkpt,
// jumps and jumped are host-side figures; the rest is configuration and the
// hooks a caller attaches.
var (
	systemDerived = []string{"resumed", "lastCkpt", "jumps", "jumped"}
	systemConfig  = []string{"cfg", "policy", "sampler", "ckptEvery", "ckptFn", "warmupHook"}
)

// TestSystemStateCoversEveryField: a field added to System must be walked or
// classified as derived or configuration.
func TestSystemStateCoversEveryField(t *testing.T) {
	ckpttest.Container(t, "ckpt.go", System{}, systemDerived, systemConfig)
}
