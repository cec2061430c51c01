package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"pinnedloads"
	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// TestConsistencyIsPartOfTheRunnerKey is the regression test of the memo
// alias the hand-spelled Runner keys had: they dropped Policy.Consistency,
// so Fence[ctrl+alias+exception] under TSO and Fence-COMP@RC — the same
// resolved condition mask — shared one memo key, one warm key and one
// simulation, and a remote RC request went out as TSO.
func TestConsistencyIsPartOfTheRunnerKey(t *testing.T) {
	bench := trace.ByName("gcc_r")
	tsoMask := defense.Policy{Scheme: defense.Fence,
		Conds: defense.CondCtrl | defense.CondAlias | defense.CondException}
	rc := defense.Policy{Scheme: defense.Fence, Consistency: defense.RC}

	r := NewRunner(tinyParams())
	a, err := r.resolve(bench, tsoMask, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.resolve(bench, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() || a.WarmKey() == b.WarmKey() {
		t.Fatalf("%s and %s share a memo or warm key", tsoMask, rc)
	}
	for _, pol := range []defense.Policy{tsoMask, rc} {
		if _, err := r.run(bench, pol, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.Simulations() != 2 {
		t.Fatalf("%d simulations served two different runs, want 2", r.Simulations())
	}

	remote := &fakeRemote{}
	rr := NewRunner(tinyParams())
	rr.Remote = remote
	if _, err := rr.run(bench, rc, nil); err != nil {
		t.Fatal(err)
	}
	if len(remote.specs) != 1 || remote.specs[0].Consistency != "RC" {
		t.Fatalf("remote received %+v, want Consistency RC", remote.specs)
	}
}

// axes is the one table per axis: how to move each field that is part of a
// run's identity, by the field's path in simrun.Run. A field that is not
// here must be in notIdentity below; TestEveryAxis fails on a field that is
// in neither.
var axes = map[string]func(*simrun.Run){
	"Benchmark":          func(r *simrun.Run) { r.Benchmark = "mcf_r" },
	"Policy.Scheme":      func(r *simrun.Run) { r.Policy.Scheme = defense.DOM },
	"Policy.Variant":     func(r *simrun.Run) { r.Policy.Variant = defense.EP },
	"Policy.Conds":       func(r *simrun.Run) { r.Policy.Conds = defense.CondCtrl },
	"Policy.Consistency": func(r *simrun.Run) { r.Policy.Consistency = defense.RC },
	"Config": func(r *simrun.Run) {
		c := arch.PaperConfig(1)
		c.ROBEntries = 64
		r.Config = &c
	},
	"Params.Seed":        func(r *simrun.Run) { r.Seed = 7 },
	"Params.Warmup":      func(r *simrun.Run) { r.Warmup = 700 },
	"Params.Measure":     func(r *simrun.Run) { r.Measure = 2500 },
	"Params.TraceBuffer": func(r *simrun.Run) { r.TraceBuffer = 256 },
}

// notIdentity moves each field a run carries that is deliberately outside
// its key: setting it must change neither the key nor the result.
var notIdentity = map[string]func(*simrun.Run){
	"Workload":               func(r *simrun.Run) { r.Workload = trace.ByName(r.Benchmark) }, // the name, spelled the other way
	"MetricsInterval":        func(r *simrun.Run) { r.MetricsInterval = 1000 },
	"Params.CheckpointEvery": func(r *simrun.Run) { r.CheckpointEvery = 4096 },
	"Params.CheckpointSink":  func(r *simrun.Run) { r.CheckpointSink = func([]byte) error { return nil } },
	"Params.WarmupSink":      func(r *simrun.Run) { r.WarmupSink = func([]byte) {} },
	"Params.OnResume":        func(r *simrun.Run) { r.OnResume = func(checkpoint.Meta) {} },
	// A resumed run is the same run started later: TestEveryAxis's resume
	// column, and the checkpoint equivalence tests, own that property.
	"Params.Resume": nil,
}

// runFields lists the fields of simrun.Run, one level into Policy and
// Params, as the paths the two tables are keyed by.
func runFields() []string {
	var out []string
	t := reflect.TypeOf(simrun.Run{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name != "Policy" && f.Name != "Params" {
			out = append(out, f.Name)
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			out = append(out, f.Name+"."+f.Type.Field(j).Name)
		}
	}
	return out
}

// TestEveryAxis checks, for every field of defense.Policy and every other
// field a run's identity is made of, that moving it changes the key, that
// the public RunSpec, the wire JobSpec (through JSON and Normalize) and the
// Runner all derive that same key, that the wire form of the resolved run is
// a fixed point of Normalize, and that the change reaches the machine (the
// simulation's output moves). Fields outside the identity move neither.
//
// Its resume column holds the one resume rule to the same table: the moved
// run refuses the base run's periodic checkpoint with a
// *checkpoint.IdentityError, and its warmup-boundary checkpoint too unless
// only Measure moved (a warm fork serves runs that differ in how long they
// measure); every field outside the key resumes both, byte for byte.
func TestEveryAxis(t *testing.T) {
	// Long enough to cross a 4096-cycle safe point, where a periodic
	// checkpoint is taken.
	base := func() simrun.Run {
		return simrun.Run{Benchmark: "gcc_r", Policy: defense.Policy{Scheme: defense.Fence},
			Params: simrun.Params{Seed: 1, Warmup: 500, Measure: 4000}}
	}
	render := func(out *simrun.Output) []byte {
		csv := out.MarshalCSV()
		for _, ev := range out.Events {
			csv = append(csv, ev.Kind.String()...)
		}
		return csv
	}
	observe := func(run *simrun.Run) (string, []byte) {
		t.Helper()
		if err := run.Resolve(); err != nil {
			t.Fatal(err)
		}
		out, err := run.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return run.Key(), render(out)
	}
	// resume runs a resolved run from a checkpoint.
	resume := func(run simrun.Run, blob []byte) ([]byte, error) {
		run.Resume = blob
		out, err := run.Execute(context.Background())
		if err != nil {
			return nil, err
		}
		return render(out), nil
	}
	refused := func(err error) bool {
		var re *simrun.ResumeError
		var ie *checkpoint.IdentityError
		return errors.As(err, &re) && errors.As(err, &ie)
	}
	var periodic, warm []byte
	b := base()
	b.CheckpointEvery = 4096
	b.CheckpointSink = func(c []byte) error {
		if periodic == nil {
			periodic = c
		}
		return nil
	}
	b.WarmupSink = func(c []byte) { warm = c }
	baseKey, baseOut := observe(&b)
	if periodic == nil || warm == nil {
		t.Fatalf("the base run left %d periodic and %d warm checkpoint bytes; it must leave both", len(periodic), len(warm))
	}
	// forks names the one axis a checkpoint may also start a moved run on.
	checkpoints := []struct {
		name, forks string
		blob        []byte
	}{{"periodic", "", periodic}, {"warmup-boundary", "Params.Measure", warm}}

	for _, path := range runFields() {
		move, keyed := axes[path]
		still, listed := notIdentity[path]
		switch {
		case keyed == listed:
			t.Errorf("simrun.Run field %s must be in exactly one of this file's axes (and then in "+
				"simrun.Run.spec, service.JobSpec/SpecOf and pinnedloads.RunSpec.resolve) or notIdentity", path)
		case listed:
			if still == nil {
				continue
			}
			run := base()
			still(&run)
			if key, out := observe(&run); key != baseKey || !bytes.Equal(out, baseOut) {
				t.Errorf("%s is outside the run's identity but moved its key or its result", path)
			}
			for _, c := range checkpoints {
				if out, err := resume(run, c.blob); err != nil || !bytes.Equal(out, baseOut) {
					t.Errorf("%s is outside the run's identity but the base run's %s checkpoint "+
						"did not resume into it byte for byte: %v", path, c.name, err)
				}
			}
		default:
			run := base()
			move(&run)
			declared := run // as an entry point would spell it, before Resolve
			key, out := observe(&run)
			if key == baseKey {
				t.Errorf("%s: moving it left the key unchanged", path)
			}
			if bytes.Equal(out, baseOut) {
				t.Errorf("%s: moving it left the simulation's output unchanged", path)
			}
			for _, c := range checkpoints {
				got, err := resume(run, c.blob)
				switch {
				case path == c.forks:
					if err != nil || !bytes.Equal(got, out) {
						t.Errorf("%s: the base run's %s checkpoint did not fork the run byte for byte: %v",
							path, c.name, err)
					}
				case !refused(err):
					t.Errorf("%s: the moved run took the base run's %s checkpoint (%v), "+
						"want a *checkpoint.IdentityError", path, c.name, err)
				}
			}

			lib, err := pinnedloads.SpecKey(pinnedloads.RunSpec{
				Benchmark: declared.Benchmark, Scheme: declared.Policy.Scheme, Variant: declared.Policy.Variant,
				Conds: declared.Policy.Conds, Consistency: declared.Policy.Consistency, Config: declared.Config,
				Seed: declared.Seed, Warmup: declared.Warmup, Measure: declared.Measure, TraceBuffer: declared.TraceBuffer,
			})
			if err != nil || lib != key {
				t.Errorf("%s: RunSpec keys %s, %v; the resolved run %s", path, lib, err, key)
			}

			wire, err := json.Marshal(service.SpecOf(&run))
			if err != nil {
				t.Fatal(err)
			}
			var job service.JobSpec
			if err := json.Unmarshal(wire, &job); err != nil {
				t.Fatal(err)
			}
			if err := job.Normalize(); err != nil {
				t.Fatal(err)
			}
			if job.Key() != key || !reflect.DeepEqual(job, service.SpecOf(&run)) {
				t.Errorf("%s: the wire form normalizes to %+v (key %s), want %+v (key %s)",
					path, job, job.Key(), service.SpecOf(&run), key)
			}

			if declared.TraceBuffer == 0 { // the Runner has no trace buffer
				r := NewRunner(Params{Seed: declared.Seed, Warmup: declared.Warmup, Measure: declared.Measure})
				got, err := r.resolve(trace.ByName(declared.Benchmark), declared.Policy, declared.Config)
				if err != nil || got.Key() != key || got.Policy != run.Policy {
					t.Errorf("%s: the Runner resolves %s (key %s), %v; want %s (key %s)",
						path, got.Policy, got.Key(), err, run.Policy, key)
				}
			}
		}
	}
}

// TestKeyingAllocations holds the per-job cost of naming a run to what the
// hand-spelled keys cost before the single resolution (measured at the
// parent commit): every fleet job is normalized and keyed at least three
// times, against a 2 % allocation bound.
func TestKeyingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	bench := trace.ByName("gcc_r")
	r := NewRunner(QuickParams())
	pol := defense.Policy{Scheme: defense.Fence, Variant: defense.EP}
	if got := testing.AllocsPerRun(100, func() { r.key(bench, pol, nil) }); got > 43 {
		t.Errorf("Runner key: %v allocations, want <= 43", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		s := service.JobSpec{Benchmark: "gcc_r", Scheme: "Fence", Variant: "EP", Consistency: "TSO",
			Seed: 1, Warmup: 2000, Measure: 8000}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		s.Key()
	}); got > 139 {
		t.Errorf("JobSpec.Normalize+Key: %v allocations, want <= 139", got)
	}
}
