// Package tracefile records workload instruction streams to a compact
// binary format and replays them as trace.Sources. Recorded traces decouple
// experiments from the generators that produced them: a trace captured once
// can be replayed bit-identically across simulator versions, shared, or
// inspected offline (cmd/pltrace -record / -replay).
//
// Format v3 is one ckptio.State walk (Trace.walk), so it is varint-packed:
//
//	magic "PLTR" | version u8 | cores uvarint (at least one)
//	| name-length uvarint + name
//	per core: count uvarint | count records
//	          | wrong-path-count uvarint | records
//	          | warm-line-count uvarint | warm lines (zigzag deltas)
//	record:   op u8 | flags u8 (taken, mispredict, fault)
//	          | lat uvarint | dep0 uvarint | dep1 uvarint
//	          | addr uvarint (mem ops only)
//
// Format v2 also ended each record with a program-counter delta (zigzag);
// loading a v2 file reads it and drops it, since nothing replays a PC.
//
// Warm lines capture the workload's LLC-resident working set so a replayed
// trace starts from the same warm-cache state as the original generator
// (see trace.Warmer). In memory they are held as runs of consecutive lines;
// the file lists every line.
package tracefile

import (
	"math"
	"os"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// magic identifies trace files; version gates format changes, and
// versionPC is the older format Decode still reads.
const (
	magic     = "PLTR"
	version   = 3
	versionPC = 2
)

// maxCores bounds a decoded core count. Every other count is bounded by the
// bytes left in the input (ckptio.Decoder.Count), and the name's length by
// ckptio's string limit, so a corrupt header cannot drive a large allocation.
const maxCores = 1 << 12

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
	if v != version && v != versionPC {
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
		walkWarm(s, &t.Warm[c])
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

// walkWarm walks a core's warm lines. The file lists every line as the
// zigzag delta from the previous one; loading coalesces consecutive lines
// back into runs, keeping their order.
func walkWarm(s ckptio.State, warm *[]arch.LineRange) {
	var lines []uint64
	for _, r := range *warm {
		for l := r.First; l != r.First+r.N; l++ {
			lines = append(lines, l)
		}
	}
	ckptio.Slice(s, &lines, math.MaxInt)
	var last uint64
	for i := range lines {
		d := int64(lines[i]) - int64(last)
		s.I64(&d)
		lines[i] = uint64(int64(last) + d)
		last = lines[i]
	}
	if !s.Loading() {
		return
	}
	for _, l := range lines {
		if k := len(*warm) - 1; k >= 0 && l == (*warm)[k].First+(*warm)[k].N {
			(*warm)[k].N++
		} else {
			*warm = append(*warm, arch.LineRange{First: l, N: 1})
		}
	}
}
