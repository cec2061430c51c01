package coherence

import (
	"bytes"
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/stats"
)

// specEpisodeBytes captures a System.State blob taken mid-flight
// through a reversible-speculation episode: committed lines, an abandoned
// spec install, and a LoadSpec whose fill is still outstanding, so the
// L1 spec journal, the abandoned-token set and the directory's spec-born
// marks are all non-empty in the serialized form.
func specEpisodeBytes(f *testing.F) []byte {
	f.Helper()
	h := newHarness(f, 2)
	h.sys.L1(0).Load(1, 0x40)
	h.sys.L1(1).Acquire(0x80)
	h.step(400)
	h.sys.L1(0).LoadSpec(2, 0x10c0) // spec miss: journaled install
	h.step(60)
	h.sys.L1(1).LoadSpec(3, 0x40) // spec access to a line core 0 shares
	h.step(20)
	h.sys.L1(0).SpecAbandon(2)
	h.sys.L1(0).LoadSpec(4, 0x2100)
	h.step(3) // leave token 4's fill in flight
	e := ckptio.NewEncoder()
	h.sys.State(ckptio.SaveTo(e))
	return e.Bytes()
}

// FuzzSpecStateDecode hardens the coherence rollback decoder: arbitrary
// bytes fed to a loading System.State must never panic or hang — they either
// fail with a decoder error, or produce a state whose canonical re-save
// is a fixed point (save(load(b)) == save(load(save(load(b))))). The
// seed corpus includes a real mid-episode snapshot with live spec
// journal entries, abandoned tokens and spec-born directory lines, plus
// truncations and bit flips of it.
func FuzzSpecStateDecode(f *testing.F) {
	valid := specEpisodeBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated through the L1 spec maps
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 128))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		h := newHarness(t, 2)
		d := ckptio.NewDecoder(data)
		h.sys.State(ckptio.LoadFrom(d))
		if d.Err() != nil {
			return
		}
		e1 := ckptio.NewEncoder()
		h.sys.State(ckptio.SaveTo(e1))
		b1 := e1.Bytes()

		h2 := newHarness(t, 2)
		d2 := ckptio.NewDecoder(b1)
		h2.sys.State(ckptio.LoadFrom(d2))
		if err := d2.Err(); err != nil {
			t.Fatalf("canonical re-save failed to decode: %v", err)
		}
		e2 := ckptio.NewEncoder()
		h2.sys.State(ckptio.SaveTo(e2))
		if !bytes.Equal(e2.Bytes(), b1) {
			t.Fatal("save/load not a fixed point on canonical bytes")
		}
	})
}

// FuzzDirStateDecode hardens the version 4 directory section on one slice:
// arbitrary bytes fed to a loading Dir.State must never panic, and an input
// it accepts must leave a consistent slice (CheckResidency's every clause) whose
// re-save is accepted in turn — loading takes only records that ascend
// strictly, stay in range and are maximal runs — and is a fixed point of load
// and save, into a target that is not empty. The accepted input re-encodes to
// that same canonical form untouched and after every set is opened, so the
// bytes never depend on which sets the protocol has reached. (The canonical
// form is the input itself up to the uvarints' padding and trailing bytes,
// which the decoder reads past.) Beside the episode's slices the seeds hold a
// hand-written section with a run that crosses a plane boundary, a long-form
// line next to it, a run of one next to that, and a run apart from them all.
func FuzzDirStateDecode(f *testing.F) {
	h := sharingEpisode(f)
	for i := 0; i < h.sys.Dirs(); i++ {
		f.Add(dirBytes(h.sys.Dir(i)))
	}
	cfg := h.sys.cfg
	line := func(set, k int) uint64 { return uint64(k*cfg.LLCSets+set) * uint64(cfg.LLCSlices) }
	written := dirSection(cfg.LLCSets*cfg.LLCWays, 4, seq(
		run(uint64(cfg.LLCSets-1), 4, line(cfg.LLCSets-2, 1), 10),
		fullLine(1, line(2, 3), 0),
		run(1, 1, line(3, 4), 2),
		run(5, 2, line(8, 9), 7)))
	if err := loadDir(newDir(0, cfg, nil, &stats.Counters{}), written); err != nil {
		f.Fatalf("the hand-written seed is not a section: %v", err)
	}
	f.Add(written)
	valid := dirBytes(h.sys.Dir(0))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(bytes.Repeat([]byte{1}, 64))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDir(0, cfg, nil, &stats.Counters{})
		dec := ckptio.NewDecoder(data)
		d.State(ckptio.LoadFrom(dec))
		if dec.Err() != nil {
			return
		}
		if err := d.checkWays(); err != nil {
			t.Fatal(err)
		}
		b1 := dirBytes(d)
		openAll(d)
		if !bytes.Equal(dirBytes(d), b1) {
			t.Fatal("opening every set changed the section")
		}

		d2 := newDir(0, cfg, nil, &stats.Counters{})
		d2.prewarm(single(0, 8, 16)) // not pristine: loading must clear it
		d2.open(1)
		if err := loadDir(d2, b1); err != nil {
			t.Fatalf("canonical re-save failed to decode: %v", err)
		}
		if err := d2.checkWays(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dirBytes(d2), b1) {
			t.Fatal("save/load not a fixed point on canonical bytes")
		}
		openAll(d2)
		if !bytes.Equal(dirBytes(d2), b1) {
			t.Fatal("opening every restored set changed the section")
		}
	})
}
