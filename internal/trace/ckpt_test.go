package trace

import (
	"testing"

	"pinnedloads/internal/ckptio/ckpttest"
)

// profileGenConfig names the fields of profileGen that State leaves out: the
// profile and the layout derived from it (kernel bases, footprints, shared
// region) are reconstructed from configuration. Of a kernel only its cursors
// are walked.
var profileGenConfig = []string{"p", "core", "totalWeight", "sharedLines", "lockLines"}

// atkGenConfig names the field of atkGen that State leaves out.
var atkGenConfig = []string{"atk"}

// TestWalksCoverEveryField: a field added to a generator must be walked or
// classified as configuration.
func TestWalksCoverEveryField(t *testing.T) {
	ckpttest.Container(t, "ckpt.go", profileGen{}, nil, profileGenConfig)
	ckpttest.Container(t, "ckpt.go", atkGen{}, nil, atkGenConfig)
}
