package simrun

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

var tiny = Params{Seed: 1, Warmup: 500, Measure: 2000}

func TestExecuteSnapshots(t *testing.T) {
	b := trace.ByName("gcc_r")
	out, err := Execute(context.Background(), b, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if out.CPI <= 0 || out.Cycles <= 0 || out.Insts != tiny.Measure {
		t.Fatalf("implausible output %+v", out)
	}
	if out.Counters["retired"] == 0 {
		t.Fatal("counters not snapshotted")
	}
	if len(out.HW) != b.Cores() || !out.HW[0].CST {
		t.Fatalf("EP run lacks CST hardware stats: %+v", out.HW)
	}
}

// TestExecuteDeterministicJSON round-trips an Output through JSON and
// checks the CSV artifact is byte-identical — the property the service's
// disk cache and the plctl CSV path rely on.
func TestExecuteDeterministicJSON(t *testing.T) {
	b := trace.ByName("leela_r")
	out, err := Execute(context.Background(), b, defense.Policy{Scheme: defense.Unsafe}, nil, tiny)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Output
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.MarshalCSV(), back.MarshalCSV()) {
		t.Fatal("CSV differs after a JSON round trip")
	}
	csv := string(out.MarshalCSV())
	if !strings.HasPrefix(csv, "metric,value\ncpi,") || !strings.Contains(csv, "counter.retired,") {
		t.Fatalf("unexpected CSV shape:\n%s", csv)
	}
}

func TestExecuteTraceBuffer(t *testing.T) {
	b := trace.ByName("gcc_r")
	p := tiny
	p.TraceBuffer = 1 << 12
	out, err := Execute(context.Background(), b, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) == 0 {
		t.Fatal("trace buffer enabled but no events recorded")
	}
}

func TestExecuteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, trace.ByName("gcc_r"), defense.Policy{Scheme: defense.Unsafe}, nil,
		Params{Seed: 1, Warmup: 0, Measure: 1 << 40})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type panicSource struct{}

func (panicSource) Name() string { return "panic-src" }
func (panicSource) Cores() int   { return 1 }
func (panicSource) Generator(core int, seed uint64) trace.Generator {
	panic("generator exploded")
}

func TestExecuteRecoversPanic(t *testing.T) {
	_, err := Execute(context.Background(), panicSource{}, defense.Policy{Scheme: defense.Unsafe}, nil, tiny)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
}

// TestExecuteOrColdFallsBackOnlyOnRestore drives the one resume-or-cold
// ladder (the Runner's warm fork and the service's crash resume both call
// it) through its three outcomes: a checkpoint that does not restore runs
// cold and says so; a failure after a good restore — here a checkpoint sink
// that errors, standing for the deadlock backstop or a recovered panic — and
// a context cancelled after a good restore are the run's own, so the run
// executes once and nothing is reported rejected.
func TestExecuteOrColdFallsBackOnlyOnRestore(t *testing.T) {
	base := Run{Benchmark: "gcc_r", Policy: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, Params: tiny}
	if err := base.Resolve(); err != nil {
		t.Fatal(err)
	}
	var warm []byte
	capture := base
	capture.WarmupSink = func(b []byte) { warm = b }
	want, err := capture.Execute(context.Background())
	if err != nil || len(warm) == 0 {
		t.Fatalf("cold run: err %v, %d checkpoint bytes", err, len(warm))
	}

	t.Run("bad checkpoint runs cold", func(t *testing.T) {
		run := base
		run.Resume = []byte("PLCK\x02\x00\x00\x00\x00version 2 body")
		var rejected []error
		got, err := run.ExecuteOrCold(context.Background(), func(err error) { rejected = append(rejected, err) })
		if err != nil {
			t.Fatal(err)
		}
		var re *ResumeError
		if len(rejected) != 1 || !errors.As(rejected[0], &re) || !strings.Contains(rejected[0].Error(), "gcc_r Fence-EP: resume: ") {
			t.Fatalf("rejected = %v, want one *ResumeError naming the run", rejected)
		}
		if !bytes.Equal(got.MarshalCSV(), want.MarshalCSV()) {
			t.Fatal("the cold fallback differs from a cold run")
		}
		if len(run.Resume) == 0 {
			t.Fatal("ExecuteOrCold cleared the caller's Resume")
		}
	})

	t.Run("good checkpoint resumes", func(t *testing.T) {
		run := base
		run.Resume = warm
		got, err := run.ExecuteOrCold(context.Background(), func(err error) { t.Errorf("rejected a good checkpoint: %v", err) })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.MarshalCSV(), want.MarshalCSV()) {
			t.Fatal("the resumed run differs from a cold run")
		}
	})

	sinkErr := errors.New("sink full")
	for name, c := range map[string]struct {
		arm  func(r *Run, runs *int, cancel func())
		want error
	}{
		"failure after restore": {func(r *Run, runs *int, _ func()) {
			r.CheckpointEvery = 1
			r.CheckpointSink = func([]byte) error { *runs++; return sinkErr }
		}, sinkErr},
		"cancel after restore": {func(r *Run, runs *int, cancel func()) {
			r.OnResume = func(checkpoint.Meta) { *runs++; cancel() }
		}, context.Canceled},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run, runs := base, 0
			run.Resume = warm
			c.arm(&run, &runs, cancel)
			_, err := run.ExecuteOrCold(ctx, func(err error) { t.Errorf("fell back on a failure that is not the checkpoint's: %v", err) })
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if runs != 1 {
				t.Fatalf("the run executed %d times, want once", runs)
			}
		})
	}
}
