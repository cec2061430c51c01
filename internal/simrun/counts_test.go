package simrun

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// realCounters encodes the counters of a small real run.
func realCounters(tb testing.TB) []byte {
	tb.Helper()
	out, err := Execute(context.Background(), trace.ByName("gcc_r"),
		defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil, tiny)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(out.Counters)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzCountsDecode checks Counts.UnmarshalJSON against encoding/json's own
// map decoder: for any input, from a nil and from a filled map, both fail
// or neither does, and both leave the same map — decoded alone, called
// directly (so input encoding/json would reject reaches it) and as the
// counters field of an Output.
func FuzzCountsDecode(f *testing.F) {
	f.Add(realCounters(f))
	for _, s := range []string{
		`{}`, `null`, `[]`, `""`, `7`, ``, `{`, `{"a":1,}`, `{,"a":1}`, `{"a" 1}`,
		` { "a" : 1 ,` + "\t\n\r" + `"b":2 } `,
		`{"a\"b":1}`, `{"\u0061":1}`, `{"\n":1}`, `{"a\\b":1}`, `{"a":2}`, `{"é":3}`, "{\"\xff\":4}", "{\"\x7f\":5}", "{\"\x01\":6}",
		`{"a":1,"a":2}`, `{"a":1}{}`, `{"a":01}`, `{"a":0}`,
		`{"a":-1}`, `{"a":1.5}`, `{"a":1e3}`, `{"a":1E+0}`, `{"a":null}`, `{"a":"1"}`,
		`{"a":18446744073709551615}`, `{"a":18446744073709551616}`, `{"a":99999999999999999999}`,
		`{"retired":1,"b":-1,"c":3}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pre := range []map[string]uint64{nil, {"retired": 7, "a": 9}} {
			want := maps.Clone(pre)
			wantErr := json.Unmarshal(data, &want)
			got := Counts(maps.Clone(pre))
			gotErr := json.Unmarshal(data, &got)
			direct := Counts(maps.Clone(pre))
			directErr := direct.UnmarshalJSON(data)
			for _, c := range []struct {
				got Counts
				err error
			}{{got, gotErr}, {direct, directErr}} {
				if (c.err == nil) != (wantErr == nil) || (c.got == nil) != (want == nil) || !maps.Equal(c.got, want) {
					t.Fatalf("Counts decoded %q from %v to %v (%v); map[string]uint64 to %v (%v)",
						data, pre, c.got, c.err, want, wantErr)
				}
			}

			doc := append(append([]byte(`{"cpi":1,"counters":`), data...), '}')
			var plain struct {
				CPI      float64           `json:"cpi"`
				Counters map[string]uint64 `json:"counters"`
			}
			plain.Counters = maps.Clone(pre)
			wantErr = json.Unmarshal(doc, &plain)
			out := Output{Counters: maps.Clone(pre)}
			gotErr = json.Unmarshal(doc, &out)
			if (gotErr == nil) != (wantErr == nil) || (out.Counters == nil) != (plain.Counters == nil) ||
				!maps.Equal(out.Counters, plain.Counters) {
				t.Fatalf("Output decoded %q from %v to %v (%v); the plain map to %v (%v)",
					doc, pre, out.Counters, gotErr, plain.Counters, wantErr)
			}
		}
	})
}

// BenchmarkOutputDecode decodes a real run's Output without events as the
// client and DecodeEnvelope do, through UnmarshalJSON: the client's share of
// every warm hit and DecodeEnvelope's of every disk or peer hit.
func BenchmarkOutputDecode(b *testing.B) {
	out, err := Execute(context.Background(), trace.ByName("gcc_r"),
		defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil, tiny)
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		var o Output
		if err := o.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutputAppendJSON encodes the same Output: the server's share of
// every hit reply and EncodeEnvelope's of every disk write and peer serve.
func BenchmarkOutputAppendJSON(b *testing.B) {
	out, err := Execute(context.Background(), trace.ByName("gcc_r"),
		defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil, tiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		if _, err := out.AppendJSON(make([]byte, 0, 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecoderReadsAppendJSON checks that the decoder reads back, without
// encoding/json, everything AppendJSON writes itself: real 1-core and
// 8-core results and one with every member set. The fuzz and reference
// tests hold both to encoding/json; this holds the fast path to being the
// one taken.
func TestDecoderReadsAppendJSON(t *testing.T) {
	var outs []*Output
	for _, b := range []string{"gcc_r", "ocean_cp"} {
		out, err := Execute(context.Background(), trace.ByName(b),
			defense.Policy{Scheme: defense.STT, Variant: defense.EP}, nil, tiny)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	outs = append(outs, &Output{CPI: 1.5, Cycles: 3, Insts: 2, Counters: Counts{}, EventsLost: 1,
		HW: []HW{{CST: true, L1FP: 1e-9, DirFP: .25, CPT: true, CPTMean: 2.5, CPTMax: 4,
			CPTSamples: 5, CPTInserts: 6, CPTOverflows: 7}, {}}})
	for _, o := range outs {
		data, err := o.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		d := decoder{s: data}
		if got := d.output(); !d.done() || !reflect.DeepEqual(&got, o) {
			t.Fatalf("the decoder read %s\nas %+v (done %v)", data, got, d.done())
		}
	}
}

// TestDecodesShareNames decodes counters from several goroutines at once,
// each name new to the process when its first decode reads it, some read
// by every goroutine and some by one: every map holds its own values, and
// the names the decodes keep for later ones stop at 1 024 however many
// distinct ones arrive.
func TestDecodesShareNames(t *testing.T) {
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				want := Counts{fmt.Sprintf("shared.%d", i): uint64(w), fmt.Sprintf("own.%d.%d", w, i): uint64(i)}
				data, err := json.Marshal(want)
				var got Counts
				if err == nil {
					err = json.Unmarshal(data, &got)
				}
				if err != nil || !maps.Equal(got, want) {
					t.Errorf("goroutine %d decoded %s to %v (%v)", w, data, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*interned.Load()); n > 1<<10 {
		t.Fatalf("%d counter names kept, want at most 1 024", n)
	}
}
