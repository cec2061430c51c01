// Package tracefile records workload instruction streams to a compact
// binary format and replays them as trace.Sources. Recorded traces decouple
// experiments from the generators that produced them: a trace captured once
// can be replayed bit-identically across simulator versions, shared, or
// inspected offline (cmd/pltrace -record / -replay).
//
// Format (little-endian, varint-compressed):
//
//	magic "PLTR" | version u8 | cores uvarint
//	per core: name-length uvarint + name | count uvarint | count records
//	          | wrong-path-count uvarint | records
//	          | warm-line-count uvarint | warm lines (uvarint deltas)
//	record:   op u8 | flags u8 (taken, mispredict, fault)
//	          | lat uvarint | dep0 uvarint | dep1 uvarint
//	          | addr uvarint (mem ops only) | pc-delta uvarint
//
// Warm lines capture the workload's LLC-resident working set so a replayed
// trace starts from the same warm-cache state as the original generator
// (see trace.Warmer). In memory they are held as runs of consecutive lines;
// the file lists every line.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// magic identifies trace files; version gates format changes.
const (
	magic   = "PLTR"
	version = 2
)

// Decode hardening limits. Corrupt or hostile inputs can claim absurd
// element counts; the decoder rejects counts above these bounds outright
// and otherwise clamps its pre-allocations (preallocCap) so memory use is
// bounded by the actual input size, not the claimed count.
const (
	maxCores    = 1 << 12
	maxNameLen  = 1 << 16
	preallocCap = 1 << 12
)

// preallocSize bounds a claimed element count to a safe initial slice
// capacity; append grows it if the input really holds that many elements.
func preallocSize(n uint64) int {
	if n > preallocCap {
		return preallocCap
	}
	return int(n)
}

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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Encode(f); err != nil {
		return err
	}
	return nil
}

// Encode writes the trace's binary encoding to w.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := t.encode(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Decode reads a binary trace encoding from r. Malformed input produces an
// error, never a panic, and memory use is bounded by the input size.
func Decode(r io.Reader) (*Trace, error) {
	return decode(bufio.NewReader(r))
}

func (t *Trace) encode(w *bufio.Writer) error {
	if _, err := w.WriteString(magic); err != nil {
		return err
	}
	if err := w.WriteByte(version); err != nil {
		return err
	}
	writeUvarint(w, uint64(len(t.Streams)))
	writeUvarint(w, uint64(len(t.TraceName)))
	if _, err := w.WriteString(t.TraceName); err != nil {
		return err
	}
	for core := range t.Streams {
		if err := encodeStream(w, t.Streams[core]); err != nil {
			return err
		}
		if err := encodeStream(w, t.Wrong[core]); err != nil {
			return err
		}
		var n, last uint64
		for _, r := range t.Warm[core] {
			n += r.N
		}
		writeUvarint(w, n)
		for _, r := range t.Warm[core] {
			for l := r.First; l != r.First+r.N; l++ {
				writeUvarint(w, zigzag(int64(l)-int64(last)))
				last = l
			}
		}
	}
	return nil
}

func encodeStream(w *bufio.Writer, insts []isa.Inst) error {
	writeUvarint(w, uint64(len(insts)))
	var lastPC uint64
	for i := range insts {
		in := &insts[i]
		if err := w.WriteByte(byte(in.Op)); err != nil {
			return err
		}
		var flags byte
		if in.Taken {
			flags |= flagTaken
		}
		if in.Mispredict {
			flags |= flagMispredict
		}
		if in.Fault {
			flags |= flagFault
		}
		if err := w.WriteByte(flags); err != nil {
			return err
		}
		writeUvarint(w, uint64(in.Lat))
		writeUvarint(w, uint64(in.Deps[0]))
		writeUvarint(w, uint64(in.Deps[1]))
		if in.Op.IsMem() {
			writeUvarint(w, in.Addr)
		}
		// PCs are mostly sequential; store zig-zag deltas.
		writeUvarint(w, zigzag(int64(in.PC)-int64(lastPC)))
		lastPC = in.PC
	}
	return nil
}

func decode(r *bufio.Reader) (*Trace, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", head)
	}
	v, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", v)
	}
	cores, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if cores > maxCores {
		return nil, fmt.Errorf("tracefile: implausible core count %d", cores)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("tracefile: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, err
	}
	t := &Trace{TraceName: string(name)}
	for c := uint64(0); c < cores; c++ {
		stream, err := decodeStream(r)
		if err != nil {
			return nil, err
		}
		wrong, err := decodeStream(r)
		if err != nil {
			return nil, err
		}
		t.Streams = append(t.Streams, stream)
		t.Wrong = append(t.Wrong, wrong)
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		// Coalesce the listed lines into runs, keeping their order.
		var warm []arch.LineRange
		var last uint64
		for i := uint64(0); i < n; i++ {
			d, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			last = uint64(int64(last) + unzigzag(d))
			if k := len(warm) - 1; k >= 0 && last == warm[k].First+warm[k].N {
				warm[k].N++
			} else {
				warm = append(warm, arch.LineRange{First: last, N: 1})
			}
		}
		t.Warm = append(t.Warm, warm)
	}
	return t, nil
}

func decodeStream(r *bufio.Reader) ([]isa.Inst, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	insts := make([]isa.Inst, 0, preallocSize(n))
	var lastPC uint64
	for i := uint64(0); i < n; i++ {
		op, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		flags, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		lat, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		d0, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		d1, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		in := isa.Inst{
			Op:         isa.Op(op),
			Lat:        uint8(lat),
			Deps:       [2]int32{int32(d0), int32(d1)},
			Taken:      flags&flagTaken != 0,
			Mispredict: flags&flagMispredict != 0,
			Fault:      flags&flagFault != 0,
		}
		if in.Op.IsMem() {
			if in.Addr, err = binary.ReadUvarint(r); err != nil {
				return nil, err
			}
		}
		delta, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		in.PC = uint64(int64(lastPC) + unzigzag(delta))
		lastPC = in.PC
		insts = append(insts, in)
	}
	return insts, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }
