package pin

import (
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
)

// cstConfig names the fields of CST that State leaves out: the geometry,
// which the record count checks.
var cstConfig = []string{"nEntries", "nRecords"}

// cptConfig names the fields of CPT that State leaves out.
var cptConfig = []string{"capacity"}

// TestWalksCoverEveryField: a field added to a CST record must move the saved
// bytes, and a field added to the CST or the CPT must be walked or classified
// as configuration.
func TestWalksCoverEveryField(t *testing.T) {
	ckpttest.Fields(t, cstRecord{}, func(s ckptio.State, r *cstRecord) { r.walk(s) }, nil)
	ckpttest.Container(t, "ckpt.go", CST{}, nil, cstConfig)
	ckpttest.Container(t, "ckpt.go", CPT{}, nil, cptConfig)
}
