package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pinnedloads/internal/checkpoint"
)

// ckptSpec is a job long enough to cross several checkpoint intervals.
func ckptSpec() JobSpec {
	return JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 2_000, Measure: 20_000}
}

// seedCheckpoint simulates the job standalone up to its first persisted
// checkpoint and writes that blob where a server with dir would look for
// it — the state a SIGKILLed backend leaves behind.
func seedCheckpoint(t *testing.T, dir string, spec JobSpec, every int64) string {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	id := spec.Key()
	run, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	run.CheckpointEvery = every
	run.CheckpointSink = func(b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	if _, err = run.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("job finished without crossing a checkpoint interval")
	}
	path := filepath.Join(dir, id+".ckpt")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJobResumesFromCheckpoint is the crash-recovery path: a server whose
// checkpoint directory already holds a job's checkpoint (left by a killed
// predecessor) must resume it — same result as a cold run, resumed-cycles
// metrics accounted, and the checkpoint deleted once the job succeeds.
func TestJobResumesFromCheckpoint(t *testing.T) {
	spec := ckptSpec()
	dir := t.TempDir()
	path := seedCheckpoint(t, dir, spec, 10_000)

	// Reference: what the job computes with no checkpoint anywhere.
	cold := New(Options{Workers: 1})
	cold.Start()
	defer cold.Close()
	coldSpec := spec
	st, err := cold.Submit(&coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 1, CheckpointDir: dir, CheckpointEvery: 10_000})
	s.Start()
	defer s.Close()
	resSpec := spec
	st, err = s.Submit(&resSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("resumed job state %s: %s", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("resumed result differs from cold run:\ngot  %+v\nwant %+v", got.Result, want.Result)
	}

	m := metricsMap(t, s)
	if m["svc.resumed_jobs"] != 1 {
		t.Errorf("svc.resumed_jobs = %d, want 1", m["svc.resumed_jobs"])
	}
	if rc := m["svc.resumed_cycles"]; rc == 0 || int64(rc) >= want.Result.Cycles+int64(spec.Warmup)*4 {
		t.Errorf("svc.resumed_cycles = %d, want mid-run (0 < cycles < total)", rc)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint %s not deleted after success", path)
	}
}

// TestInvalidCheckpointRunsCold: garbage where the checkpoint should be
// must be discarded (and counted), and the job still completes.
func TestInvalidCheckpointRunsCold(t *testing.T) {
	spec := ckptSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, spec.Key()+".ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 1, CheckpointDir: dir, CheckpointEvery: 10_000})
	s.Start()
	defer s.Close()
	st, err := s.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("job state %s: %s", got.State, got.Error)
	}
	m := metricsMap(t, s)
	if m["svc.checkpoint_invalid"] != 1 {
		t.Errorf("svc.checkpoint_invalid = %d, want 1", m["svc.checkpoint_invalid"])
	}
	if m["svc.resumed_jobs"] != 0 {
		t.Errorf("svc.resumed_jobs = %d, want 0", m["svc.resumed_jobs"])
	}
}

// TestOldFormatCheckpointRunsCold: a <id>.ckpt that a binary of the previous
// checkpoint format left behind (a well-formed envelope of checkpoint.Version-1,
// whatever Version is: magic, version byte, a CRC that matches its body) is not
// migrated. The job counts one resume fallback, removes the file and computes
// what a cold run does.
func TestOldFormatCheckpointRunsCold(t *testing.T) {
	spec := ckptSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	body := []byte("the previous format's metadata and payload")
	old := binary.LittleEndian.AppendUint32([]byte{'P', 'L', 'C', 'K', checkpoint.Version - 1}, crc32.ChecksumIEEE(body))
	old = append(old, body...)
	dir := t.TempDir()
	path := filepath.Join(dir, spec.Key()+".ckpt")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(opt Options) (JobStatus, *Server) {
		t.Helper()
		s := New(opt)
		s.Start()
		t.Cleanup(s.Close)
		js := spec
		st, err := s.Submit(&js)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Wait(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone {
			t.Fatalf("job state %s: %s", got.State, got.Error)
		}
		return got, s
	}
	want, _ := run(Options{Workers: 1})
	got, s := run(Options{Workers: 1, CheckpointDir: dir, CheckpointEvery: 1 << 40})
	if !bytes.Equal(got.Result.MarshalCSV(), want.Result.MarshalCSV()) || !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("result after the fallback differs from a cold run:\ngot  %+v\nwant %+v", got.Result, want.Result)
	}
	m := metricsMap(t, s)
	if m["svc.resume_fallbacks"] != 1 || m["svc.checkpoint_invalid"] != 0 || m["svc.resumed_jobs"] != 0 {
		t.Errorf("svc.resume_fallbacks = %d, svc.checkpoint_invalid = %d, svc.resumed_jobs = %d; want 1, 0, 0",
			m["svc.resume_fallbacks"], m["svc.checkpoint_invalid"], m["svc.resumed_jobs"])
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("old-format checkpoint %s not removed", path)
	}
}

// TestForeignCheckpointRunsCold: a <id>.ckpt that holds another job's
// checkpoint — same machine and policy, so its fingerprint matches, but
// another seed — must not resume this job. The job counts the file invalid,
// removes it and computes what a cold run does.
func TestForeignCheckpointRunsCold(t *testing.T) {
	spec := ckptSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 2
	dir := t.TempDir()
	path := filepath.Join(dir, spec.Key()+".ckpt")
	if err := os.Rename(seedCheckpoint(t, dir, other, 10_000), path); err != nil {
		t.Fatal(err)
	}

	run := func(opt Options) (JobStatus, *Server) {
		t.Helper()
		s := New(opt)
		s.Start()
		t.Cleanup(s.Close)
		js := spec
		st, err := s.Submit(&js)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Wait(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone {
			t.Fatalf("job state %s: %s", got.State, got.Error)
		}
		return got, s
	}
	want, _ := run(Options{Workers: 1})
	got, s := run(Options{Workers: 1, CheckpointDir: dir, CheckpointEvery: 1 << 40})
	if !bytes.Equal(got.Result.MarshalCSV(), want.Result.MarshalCSV()) || !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("result with another job's checkpoint differs from a cold run:\ngot  %+v\nwant %+v", got.Result, want.Result)
	}
	m := metricsMap(t, s)
	if m["svc.checkpoint_invalid"] != 1 || m["svc.resume_fallbacks"] != 0 || m["svc.resumed_jobs"] != 0 {
		t.Errorf("svc.checkpoint_invalid = %d, svc.resume_fallbacks = %d, svc.resumed_jobs = %d; want 1, 0, 0",
			m["svc.checkpoint_invalid"], m["svc.resume_fallbacks"], m["svc.resumed_jobs"])
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("another job's checkpoint %s not removed", path)
	}
}

// metricsMap parses the /metrics wire format into a map.
func metricsMap(t *testing.T, s *Server) map[string]uint64 {
	t.Helper()
	m := make(map[string]uint64)
	for _, line := range strings.Split(s.Metrics(), "\n") {
		if name, val, ok := strings.Cut(line, "="); ok {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bad metrics line %q", line)
			}
			m[name] = v
		}
	}
	return m
}
