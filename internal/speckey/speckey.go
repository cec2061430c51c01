// Package speckey derives content-addressed identifiers for simulation
// runs. A Spec captures everything that determines a run's outcome — the
// benchmark, the defense policy, the machine configuration, the seed and
// the instruction counts — and Key hashes a canonical, versioned encoding
// of it into a stable hex identifier.
//
// The same key function backs the experiment runner's memoization cache
// and the simulation service's content-addressed job IDs and result
// cache, so a result computed by one consumer is addressable by every
// other. Canonical encodings are injective: two Specs share a key only if
// every field (including every machine-configuration field) is identical.
// Version is part of the encoding; bump it whenever the meaning of a run
// changes (new Spec or Config fields, simulator behaviour changes that
// invalidate cached results), which retires every previously issued key.
package speckey

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/trace"
)

// Version prefixes every canonical encoding. Bumping it invalidates all
// previously derived keys (and therefore all cached results): v3 retired the
// results whose stall counters counted attempts rather than core-cycles, v4
// the keys that encoded the deleted RealPredictor and CPTReserve fields, v5
// those that encoded the switch to the deleted L1-tag pinned-line record, v6
// those that encoded the deleted AggressiveTSO switch (the machine is always
// the paper's aggressive TSO) and ClockGHz (which no simulated latency read),
// v7 the results whose loads.dom_hit, loads.stt_untainted and loads.exposed
// counted a load again on every cycle the L1 turned it away.
const Version = "plspec-v7"

// Spec is the canonical description of one simulation run. Scheme and
// Variant are the paper's names (e.g. "Fence", "EP") rather than enum
// values so the key does not depend on internal numbering; Conds is the
// resolved Visibility-Point condition mask. Config must be the effective
// machine configuration (resolve defaults before keying — a nil Config is
// encoded as such, so nil and an explicit default-valued Config produce
// different keys).
type Spec struct {
	Benchmark   string
	Scheme      string
	Variant     string
	Conds       uint8
	Seed        uint64
	Warmup      int64
	Measure     int64
	TraceBuffer int
	Config      *arch.Config
	// Attack is the canonical encoding of an adversarial workload
	// (AttackCanonical) when the run is a security-tier run, "" for
	// benchmark runs. Keeping it in the spec means a kernel-parameter
	// change can never alias a cached result.
	Attack string
	// Consistency is the memory consistency model name ("TSO", "RC").
	// Both "" and "TSO" mean the paper's TSO machine and are omitted from
	// the canonical encoding, so every key derived before the axis
	// existed stays valid: warm caches are not invalidated by the new
	// field. Injectivity is preserved because a non-TSO value adds a
	// field name no TSO encoding contains.
	Consistency string
}

// Canonical returns the versioned canonical encoding of the spec. Every
// field is emitted as |name=len:value with the value's byte length, so the
// encoding is injective regardless of the bytes inside values.
func (s Spec) Canonical() string { return string(s.appendCanonical(nil)) }

// Key returns the spec's content-addressed identifier: the hex SHA-256 of
// the canonical encoding.
func (s Spec) Key() string {
	var buf [1024]byte // a paper machine's encoding is ~660 bytes
	sum := sha256.Sum256(s.appendCanonical(buf[:0]))
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// appendCanonical appends the canonical encoding to b: the one encoder
// behind Canonical and Key.
func (s Spec) appendCanonical(b []byte) []byte {
	var num [20]byte
	var cfg [1024]byte
	b = append(b, Version...)
	b = field(b, "bench", s.Benchmark)
	b = field(b, "scheme", s.Scheme)
	b = field(b, "variant", s.Variant)
	b = field(b, "conds", strconv.AppendUint(num[:0], uint64(s.Conds), 10))
	b = field(b, "seed", strconv.AppendUint(num[:0], s.Seed, 10))
	b = field(b, "warmup", strconv.AppendInt(num[:0], s.Warmup, 10))
	b = field(b, "measure", strconv.AppendInt(num[:0], s.Measure, 10))
	b = field(b, "trace", strconv.AppendInt(num[:0], int64(s.TraceBuffer), 10))
	b = field(b, "config", appendConfig(cfg[:0], s.Config))
	b = field(b, "attack", s.Attack)
	if s.Consistency != "" && s.Consistency != "TSO" {
		b = field(b, "consistency", s.Consistency)
	}
	return b
}

// field appends |name=len:val.
func field[T string | []byte](b []byte, name string, val T) []byte {
	b = append(b, '|')
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(len(val)), 10)
	b = append(b, ':')
	return append(b, val...)
}

// ConfigCanonical encodes a machine configuration as name=value pairs in
// struct-declaration order ("" for nil). Walking the fields by name means
// adding a field to arch.Config automatically changes every encoding (and
// thus every key) instead of silently aliasing old results; the paired
// test pins the current field set so additions are a conscious decision.
func ConfigCanonical(cfg *arch.Config) string { return string(appendConfig(nil, cfg)) }

// appendConfig appends ConfigCanonical(cfg) to b.
func appendConfig(b []byte, cfg *arch.Config) []byte {
	if cfg == nil {
		return b
	}
	return appendFields(b, configFields, reflect.ValueOf(cfg).Elem())
}

// AttackCanonical encodes an adversarial workload (internal/trace.Attack)
// as name=value pairs in struct-declaration order ("" for nil), the same
// walk-by-reflection scheme as ConfigCanonical, with a string value
// length-prefixed: a new Attack knob joins the run identity automatically.
func AttackCanonical(a *trace.Attack) string {
	if a == nil {
		return ""
	}
	return string(appendFields(nil, attackFields, reflect.ValueOf(a).Elem()))
}

// The encoded structs' fields, reflected once per type.
var (
	configFields = fieldsOf(reflect.TypeOf(arch.Config{}))
	attackFields = fieldsOf(reflect.TypeOf(trace.Attack{}))
)

// structField is one field of an encoded struct: its kind and what
// precedes its value ("Name=", ";Name=" after the first field).
type structField struct {
	kind   reflect.Kind
	prefix string
}

// fieldsOf lists a struct type's fields in declaration order. A field kind
// without a canonical form is a loud refusal, not a silent alias: the
// package does not initialise.
func fieldsOf(t reflect.Type) []structField {
	out := make([]structField, t.NumField())
	for i := range out {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.String, reflect.Int, reflect.Uint64, reflect.Bool:
		default:
			panic(fmt.Sprintf("speckey: unsupported %s field kind %s (%s)", t, f.Type.Kind(), f.Name))
		}
		out[i] = structField{kind: f.Type.Kind(), prefix: ";" + f.Name + "="}
	}
	if len(out) > 0 {
		out[0].prefix = out[0].prefix[1:]
	}
	return out
}

// appendFields appends v's fields as name=value pairs: integers in
// decimal, booleans as t/f and strings as len:value.
func appendFields(b []byte, fields []structField, v reflect.Value) []byte {
	for i, sf := range fields {
		b = append(b, sf.prefix...)
		f := v.Field(i)
		switch sf.kind {
		case reflect.String:
			b = strconv.AppendInt(b, int64(f.Len()), 10)
			b = append(b, ':')
			b = append(b, f.String()...)
		case reflect.Int:
			b = strconv.AppendInt(b, f.Int(), 10)
		case reflect.Uint64:
			b = strconv.AppendUint(b, f.Uint(), 10)
		case reflect.Bool:
			if f.Bool() {
				b = append(b, 't')
			} else {
				b = append(b, 'f')
			}
		}
	}
	return b
}
