// Package tracefile records workload instruction streams to a compact
// binary format and replays them as trace.Sources. Recorded traces decouple
// experiments from the generators that produced them: a trace captured once
// can be replayed bit-identically across simulator versions, shared, or
// inspected offline (cmd/pltrace -record / -replay).
//
// Format v4 is one ckptio.State walk (Trace.walk), so it is varint-packed:
//
//	magic "PLTR" | version u8 | cores uvarint (at least one)
//	| name-length uvarint + name
//	per core: count uvarint | count records
//	          | wrong-path-count uvarint | records
//	          | warm-run-count uvarint | warm runs
//	record:   op u8 | flags u8 (taken, mispredict, fault)
//	          | lat uvarint | dep0 uvarint | dep1 uvarint
//	          | addr uvarint (mem ops only)
//	warm run: first line, zigzag delta from the previous run's end
//	          | line count uvarint (at least one)
//
// Formats v3 and v2, which still load, listed every warm line as the zigzag
// delta from the one before; v2 also ended each record with a program-counter
// delta, which loading drops, since nothing replays a PC.
//
// Warm lines capture the workload's LLC-resident working set so a replayed
// trace starts from the same warm-cache state as the original generator
// (see trace.Warmer).
package tracefile

import (
	"math"
	"os"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// magic identifies trace files; version gates format changes, and Decode
// still reads every version from versionPC on.
const (
	magic     = "PLTR"
	version   = 4
	versionPC = 2
)

// maxCores bounds a decoded core count. Every other count is bounded by the
// bytes left in the input (ckptio.Decoder.Count), and the name's length by
// ckptio's string limit, so a corrupt header cannot drive a large allocation.
const maxCores = 1 << 12

// maxWarmLines bounds a core's decoded warm lines. A run costs a few bytes
// whatever its length, so without it a short file could ask replay to prewarm
// 2^60 lines; the proxies warm at most 131 072 lines a core.
const maxWarmLines = 1 << 22

// wrongPathSample is how many wrong-path instructions are recorded per
// core; replay cycles through them.
const wrongPathSample = 4096

// flag bits of a record.
const (
	flagTaken = 1 << iota
	flagMispredict
	flagFault
)

// Trace is an in-memory recorded workload.
type Trace struct {
	TraceName string
	Streams   [][]isa.Inst       // per-core correct-path instructions
	Wrong     [][]isa.Inst       // per-core wrong-path samples
	Warm      [][]arch.LineRange // per-core LLC warm lines, as runs in installation order
}

// Record captures n correct-path instructions (plus a wrong-path sample)
// from each core of the source.
func Record(src trace.Source, seed uint64, n int) *Trace {
	t := &Trace{TraceName: src.Name() + ".trace"}
	for core := 0; core < src.Cores(); core++ {
		g := src.Generator(core, seed)
		stream := make([]isa.Inst, 0, n)
		for i := 0; i < n; i++ {
			in := g.Next()
			stream = append(stream, in)
			if in.Op == isa.Halt {
				break
			}
		}
		wrong := make([]isa.Inst, 0, wrongPathSample)
		for i := 0; i < wrongPathSample; i++ {
			wrong = append(wrong, g.WrongPath())
		}
		t.Streams = append(t.Streams, stream)
		t.Wrong = append(t.Wrong, wrong)
		if warmer, ok := src.(trace.Warmer); ok {
			t.Warm = append(t.Warm, warmer.WarmRanges(core))
		} else {
			t.Warm = append(t.Warm, nil)
		}
	}
	return t
}

// WarmRanges implements trace.Warmer.
func (t *Trace) WarmRanges(core int) []arch.LineRange {
	if core < len(t.Warm) {
		return t.Warm[core]
	}
	return nil
}

// Name implements trace.Source.
func (t *Trace) Name() string { return t.TraceName }

// Cores implements trace.Source.
func (t *Trace) Cores() int { return len(t.Streams) }

// Generator implements trace.Source; the seed is ignored (the trace is
// already concrete).
func (t *Trace) Generator(core int, _ uint64) trace.Generator {
	if core >= len(t.Streams) {
		core = 0
	}
	return &replayGen{stream: t.Streams[core], wrong: t.Wrong[core]}
}

type replayGen struct {
	stream   []isa.Inst
	wrong    []isa.Inst
	pos      int
	wrongPos int
}

func (g *replayGen) Next() isa.Inst {
	if g.pos >= len(g.stream) {
		return isa.Inst{Op: isa.Halt}
	}
	in := g.stream[g.pos]
	g.pos++
	return in
}

func (g *replayGen) WrongPath() isa.Inst {
	if len(g.wrong) == 0 {
		return isa.Inst{Op: isa.Nop}
	}
	in := g.wrong[g.wrongPos%len(g.wrong)]
	g.wrongPos++
	return in
}

// Save writes the trace to a file.
func (t *Trace) Save(path string) error {
	data, err := t.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// Encode returns the trace's binary encoding.
func (t *Trace) Encode() ([]byte, error) {
	return ckptio.Encode(func(e *ckptio.Encoder) error {
		t.walk(ckptio.SaveTo(e))
		return e.Err()
	})
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode reads a binary trace encoding; bytes after the last core are
// ignored. Malformed input produces an error, never a panic, and memory use
// is bounded by the input size.
func Decode(data []byte) (*Trace, error) {
	t := new(Trace)
	d := ckptio.NewDecoder(data)
	t.walk(ckptio.LoadFrom(d))
	if err := d.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// walk is the file format: saving writes every field it is handed, loading
// reads them back into an empty trace.
func (t *Trace) walk(s ckptio.State) {
	for i := range len(magic) {
		b := magic[i]
		s.U8(&b)
		if b != magic[i] {
			s.Failf("not a trace file: bad magic")
		}
	}
	v := uint8(version)
	s.U8(&v)
	if v < versionPC || v > version {
		s.Failf("unsupported trace version %d", v)
	}
	cores := s.Count(len(t.Streams), maxCores)
	if cores == 0 {
		s.Failf("trace has no cores")
	}
	s.String(&t.TraceName)
	if s.Loading() {
		t.Streams = make([][]isa.Inst, cores)
		t.Wrong = make([][]isa.Inst, cores)
		t.Warm = make([][]arch.LineRange, cores)
	}
	for c := range cores {
		walkStream(s, &t.Streams[c], v == versionPC)
		walkStream(s, &t.Wrong[c], v == versionPC)
		walkWarm(s, &t.Warm[c], v < version)
	}
}

// walkStream walks a count and that many records. A record leaves out what
// replay does not need (TransientAddr, the address of a non-memory op); a
// v2 record's trailing PC delta (withPC, loading only) is read and dropped.
func walkStream(s ckptio.State, insts *[]isa.Inst, withPC bool) {
	ckptio.Slice(s, insts, math.MaxInt)
	for i := range *insts {
		in := &(*insts)[i]
		s.U8((*uint8)(&in.Op))
		var flags uint8
		if in.Taken {
			flags |= flagTaken
		}
		if in.Mispredict {
			flags |= flagMispredict
		}
		if in.Fault {
			flags |= flagFault
		}
		s.U8(&flags)
		lat, d0, d1 := uint64(in.Lat), uint64(in.Deps[0]), uint64(in.Deps[1])
		s.U64(&lat)
		s.U64(&d0)
		s.U64(&d1)
		if in.Op.IsMem() {
			s.U64(&in.Addr)
		}
		if withPC {
			var pc int64
			s.I64(&pc)
		}
		if s.Loading() {
			in.Lat, in.Deps = uint8(lat), [2]int32{int32(d0), int32(d1)}
			in.Taken = flags&flagTaken != 0
			in.Mispredict = flags&flagMispredict != 0
			in.Fault = flags&flagFault != 0
		}
	}
}

// walkWarm walks a core's warm lines as a count of runs and, for each, the
// zigzag delta of its first line from the previous run's end and its length.
// Both directions merge touching runs and drop empty ones, so a trace has one
// encoding; loading rejects an empty run and more than maxWarmLines lines. A
// v2 or v3 file (perLine, loading only) lists every line as the zigzag delta
// from the one before.
func walkWarm(s ckptio.State, warm *[]arch.LineRange, perLine bool) {
	runs := addRuns(nil, *warm...)
	ckptio.Slice(s, &runs, math.MaxInt)
	var end, lines uint64
	for i, r := range runs {
		d := int64(r.First - end)
		s.I64(&d)
		if perLine {
			end += uint64(d)
			runs[i] = arch.LineRange{First: end, N: 1}
			continue
		}
		s.U64(&r.N)
		if s.Loading() && s.Err() == nil && (r.N == 0 || r.N > maxWarmLines-lines) {
			s.Failf("warm run of %d lines after %d: want 1 to %d lines a core", r.N, lines, maxWarmLines)
			return
		}
		runs[i] = arch.LineRange{First: end + uint64(d), N: r.N}
		end, lines = runs[i].First+r.N, lines+r.N
	}
	if s.Loading() {
		*warm = addRuns(nil, runs...)
	}
}

// addRuns appends rs to runs, extending the last run by one that starts
// where it ends and leaving out empty ones.
func addRuns(runs []arch.LineRange, rs ...arch.LineRange) []arch.LineRange {
	for _, r := range rs {
		if k := len(runs) - 1; k >= 0 && runs[k].First+runs[k].N == r.First {
			runs[k].N += r.N
		} else if r.N > 0 {
			runs = append(runs, r)
		}
	}
	return runs
}
