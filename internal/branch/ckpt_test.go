package branch

import (
	"strings"
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
)

// TestWalksCoverEveryField: a field added to a TAGE entry must move the saved
// bytes.
func TestWalksCoverEveryField(t *testing.T) {
	ckpttest.Fields(t, tageEntry{}, func(s ckptio.State, en *tageEntry) { en.walk(s) }, nil)
}

// TestTAGEStateRejectsMalformed feeds the smallest TAGE sections that are
// wrong in one place: each must end in the sticky error, and a prediction
// counter outside int8 must not wrap into range.
func TestTAGEStateRejectsMalformed(t *testing.T) {
	// NewTAGE(1, 1): two base counters, four tables of two entries.
	section := func(base, tables, entries uint64, ctr int64) []byte {
		e := ckptio.NewEncoder()
		e.U64(base)
		e.Raw(make([]byte, 2))
		e.U64(tables)
		for i := 0; i < 4; i++ {
			e.U64(entries)
			for j := 0; j < 2; j++ {
				e.U16(7)
				e.I64(ctr)
				e.U8(1)
				e.Bool(true)
			}
		}
		e.U64(0x55) // history
		return e.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"well formed", section(2, 4, 2, -4), ""},
		{"ctr above int8", section(2, 4, 2, 200), "int8"},
		{"ctr below int8", section(2, 4, 2, -129), "int8"},
		{"other base size", section(4, 4, 2, 0), "base counters"},
		{"other table count", section(2, 5, 2, 0), "TAGE tables"},
		{"other table size", section(2, 4, 3, 0), "table entries"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tage := NewTAGE(1, 1)
			d := ckptio.NewDecoder(tc.data)
			tage.State(ckptio.LoadFrom(d))
			err := d.Done()
			if tc.want == "" {
				if err != nil || tage.tables[3].entries[1].ctr != -4 || tage.history != 0x55 {
					t.Fatalf("loaded %+v, error %v", tage.tables[3].entries[1], err)
				}
			} else if err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want a ckptio error mentioning %q", err, tc.want)
			}
		})
	}
}
