package simrun_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// results are the codec's reference values: real 1-core, 8-core and traced
// runs, and hand-made ones for the edges (no counters, none at all, names
// encoding/json escapes, floats at its format cutoffs).
func results(tb testing.TB) []*simrun.Output {
	tb.Helper()
	run := func(bench string, pol defense.Policy, p simrun.Params) *simrun.Output {
		out, err := simrun.Execute(context.Background(), trace.ByName(bench), pol, nil, p)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	return []*simrun.Output{
		run("gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.EP},
			simrun.Params{Seed: 1, Warmup: 500, Measure: 2000}),
		run("ocean_cp", defense.Policy{Scheme: defense.STT, Variant: defense.LP},
			simrun.Params{Seed: 1, Warmup: 200, Measure: 500}),
		run("mcf_r", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp},
			simrun.Params{Seed: 3, Warmup: 100, Measure: 300, TraceBuffer: 8}),
		{CPI: math.Copysign(0, -1), Counters: simrun.Counts{}},
		{CPI: 1},
		{CPI: 1e-7, Cycles: -1, Insts: math.MaxInt64, EventsLost: 2,
			Counters: simrun.Counts{"a": 0, "z": math.MaxUint64, " ~\x7f": 1},
			HW: []simrun.HW{{CST: true, L1FP: 5e-324, DirFP: 1e21}, {},
				{CPT: true, CPTMean: 1e20, CPTMax: -3, CPTSamples: 1, CPTInserts: 2, CPTOverflows: 3}}},
		{CPI: math.MaxFloat64, Counters: simrun.Counts{"a<b": 1, "é": 2, `q"`: 3, "\x01": 4, "a&b>": 5}},
	}
}

// TestAppendJSONMatchesMarshal holds AppendJSON to json.Marshal's bytes on
// the reference results and on random float bit patterns in every float
// field, and to its error on NaN and the infinities.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	check := func(o *simrun.Output) {
		t.Helper()
		want, wantErr := json.Marshal(o)
		prefix := []byte("prefix")
		got, err := o.AppendJSON(prefix)
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("AppendJSON error %v, json.Marshal's %v", err, wantErr)
		}
		if err != nil {
			want = nil
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON wrote\n%s\njson.Marshal\n%s", got, want)
		}
	}
	for _, o := range results(t) {
		check(o)
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7,
		9.99999e-7, 1e-6, 0.1, 1, 1e20, 123456789e12, 1e21, 1e22, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := uint64(1)
	for i := 0; i < 20_000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		f := math.Float64frombits(rng)
		if i < 4*len(specials) {
			f = specials[i/4]
			if i%2 == 1 {
				f = -f
			}
		}
		o := &simrun.Output{CPI: 1, Counters: simrun.Counts{"retired": 3}, HW: make([]simrun.HW, 2)}
		switch i % 4 {
		case 0:
			o.CPI = f
		case 1:
			o.HW[1].L1FP = f
		case 2:
			o.HW[0].DirFP = f
		case 3:
			o.HW[1].CPTMean = f
		}
		check(o)
	}
}

// refOutput is Output as encoding/json alone decodes it: a plain map and
// no methods.
type refOutput struct {
	CPI        float64           `json:"cpi"`
	Cycles     int64             `json:"cycles"`
	Insts      int64             `json:"insts"`
	Counters   map[string]uint64 `json:"counters"`
	HW         []simrun.HW       `json:"hw,omitempty"`
	Events     []obs.Event       `json:"events,omitempty"`
	EventsLost uint64            `json:"events_lost,omitempty"`
}

func (r *refOutput) output() *simrun.Output {
	if r == nil {
		return nil
	}
	return &simrun.Output{CPI: r.CPI, Cycles: r.Cycles, Insts: r.Insts, Counters: r.Counters,
		HW: r.HW, Events: r.Events, EventsLost: r.EventsLost}
}

// filled returns an Output, and its reference twin, already holding values a
// decode must merge into as encoding/json merges.
func filled() (*simrun.Output, *refOutput) {
	r := &refOutput{CPI: 2, Counters: map[string]uint64{"retired": 7},
		HW: []simrun.HW{{CST: true, L1FP: .5}}, Events: []obs.Event{{Cycle: 1}}}
	o := r.output()
	o.Counters = simrun.Counts{"retired": 7}
	o.HW = []simrun.HW{{CST: true, L1FP: .5}}
	o.Events = []obs.Event{{Cycle: 1}}
	return o, r
}

// FuzzOutputDecode holds Output's decoder to encoding/json's: for any input
// both fail, or both succeed with equal values — called directly into a
// zero and a filled Output, as the result of a JobStatus, and inside a
// checksummed envelope. A value the fast path read re-encodes through
// AppendJSON to json.Marshal's bytes.
func FuzzOutputDecode(f *testing.F) {
	for _, o := range results(f) {
		data, err := json.Marshal(o)
		if err != nil {
			continue
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"cpi":1,"cycles":2,"insts":3,"counters":{}}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":null}`,
		` {"cpi":1, "cycles":2,"insts":3,"counters":{"a":1}}` + "\n",
		`{"cycles":2,"cpi":1,"insts":3,"counters":{"a":1}}`,
		`{"cpi":1,"cpi":2,"cycles":2,"insts":3,"counters":{"a":1},"counters":{"b":2}}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{"a":1},"hw":[{"cst":true},{"cst":false}],"hw":[{"cpt":true}]}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{"a":1},"hw":[]}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{"a":1},"hw":[{}],"events_lost":0}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{"a":1},"hw":[{"cpt_mean":1,"cst":true}]}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{"a":1},"events":[{"Cycle":4}]}`,
		`{"cpi":1e400,"cycles":2,"insts":3,"counters":{}}`,
		`{"cpi":-0.0e-0,"cycles":-0,"insts":1.0,"counters":{}}`,
		`{"cpi":1,"cycles":9223372036854775808,"insts":3,"counters":{}}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{},"hw":[{"cpt_max":-0}]}`,
		`{"CPI":1,"cycles":2,"insts":3,"counters":{}}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{},"extra":[1]}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{}}{}`,
		`{"cpi":1,"cycles":2,"insts":3,"counters":{"}":1}}`,
		`{"cpi":01}`, `{"cpi":1.}`, `{"cpi":.5}`, `{"cpi":1e}`, `{"cpi":-}`,
		`{}`, `null`, `[]`, `""`, ``, `{`, `{"cpi":1,}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree := func(how string, got *simrun.Output, gotErr error, want *refOutput, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want.output()) {
				t.Fatalf("%s of %q: %+v (%v); encoding/json: %+v (%v)", how, data, got, gotErr, want.output(), wantErr)
			}
		}

		var got simrun.Output
		gotErr := got.UnmarshalJSON(data)
		var want refOutput
		agree("direct decode", &got, gotErr, &want, json.Unmarshal(data, &want))
		if gotErr == nil {
			enc, err := got.AppendJSON(nil)
			ref, refErr := json.Marshal(&got)
			if !bytes.Equal(enc, ref) || (err == nil) != (refErr == nil) {
				t.Fatalf("%q decoded re-encodes to %s (%v); json.Marshal %s (%v)", data, enc, err, ref, refErr)
			}
		}

		into, wantInto := filled()
		agree("decode into a filled Output", into, into.UnmarshalJSON(data), wantInto, json.Unmarshal(data, wantInto))

		doc := append(append([]byte(`{"id":"ab","state":"done","spec":{"benchmark":"gcc_r"},"result":`), data...), '}')
		var st service.JobStatus
		stErr := json.Unmarshal(doc, &st)
		var ref struct {
			ID     string          `json:"id"`
			State  service.State   `json:"state"`
			Spec   service.JobSpec `json:"spec"`
			Result *refOutput      `json:"result"`
		}
		refErr := json.Unmarshal(doc, &ref)
		if (st.Result == nil) != (ref.Result == nil) {
			t.Fatalf("JobStatus.Result of %q: %+v; encoding/json: %+v", data, st.Result, ref.Result)
		}
		agree("JobStatus.Result", st.Result, stErr, ref.Result, refErr)

		sum := sha256.Sum256(data)
		env := append(append(append([]byte(`{"version":1,"sha256":"`), hex.EncodeToString(sum[:])...),
			`","result":`...), data...)
		env = append(env, '}')
		fromEnv, envErr := simcache.DecodeEnvelope(env)
		var raw struct {
			Version int             `json:"version"`
			SHA256  string          `json:"sha256"`
			Result  json.RawMessage `json:"result"`
		}
		var wantEnv refOutput
		wantEnvErr := json.Unmarshal(env, &raw)
		if rawSum := sha256.Sum256(raw.Result); wantEnvErr == nil && raw.SHA256 != hex.EncodeToString(rawSum[:]) {
			wantEnvErr = errors.New("checksum mismatch")
		}
		if wantEnvErr == nil && !bytes.HasPrefix(raw.Result, []byte("{")) {
			// EncodeEnvelope frames an Output's object; anything else there
			// (a checksummed null) is another framing, which is a miss.
			wantEnvErr = errors.New("result is not an object")
		}
		if wantEnvErr == nil {
			wantEnvErr = json.Unmarshal(raw.Result, &wantEnv)
		}
		if fromEnv == nil {
			fromEnv = &simrun.Output{}
		}
		agree("DecodeEnvelope", fromEnv, envErr, &wantEnv, wantEnvErr)
	})
}
