package cache

import (
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
)

// Fields of SetAssoc that State leaves out: every Lookup answer cached
// against epoch is void after a load, so loading advances it.
var (
	setAssocDerived = []string{"epoch"}
	setAssocConfig  = []string{"ways"}
)

// mshrDerived names the field of MSHR that State leaves out: the free count
// is recomputed from the entries.
var mshrDerived = []string{"free"}

// TestWalksCoverEveryField: a field added to a tag-array way or an MSHR entry
// must move the saved bytes, and a field added to either structure must be
// walked or classified as derived or configuration.
func TestWalksCoverEveryField(t *testing.T) {
	ckpttest.Fields(t, Line{}, func(s ckptio.State, ln *Line) { ln.walk(s) }, nil)
	ckpttest.Fields(t, mshrEntry{}, func(s ckptio.State, en *mshrEntry) { en.walk(s) }, nil)
	ckpttest.Container(t, "ckpt.go", SetAssoc{}, setAssocDerived, setAssocConfig)
	ckpttest.Container(t, "ckpt.go", MSHR{}, mshrDerived, nil)
}
