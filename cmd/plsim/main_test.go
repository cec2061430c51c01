package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselineLeavesCheckpointResumable drives the built binary: a
// protected run with -checkpoint-out and -baseline must leave the protected
// run's checkpoint behind (the baseline once overwrote it with an Unsafe
// one), and the same command line with -resume must finish — baseline
// included, which once died on the protected checkpoint's fingerprint — and
// print the same result, now labelled with its consistency model.
func TestBaselineLeavesCheckpointResumable(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binary with")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "plsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	args := []string{"-bench", "gcc_r", "-scheme", "fence", "-variant", "ep", "-consistency", "rc",
		"-warmup", "500", "-measure", "20000", "-baseline",
		"-checkpoint-out", ckpt, "-checkpoint-every", "4096"}
	run := func(extra ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, extra...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("plsim %v: %v\n%s%s", extra, err, stdout.String(), stderr.String())
		}
		return stdout.String()
	}
	cold := run()
	if !strings.HasPrefix(cold, "gcc_r Fence-EP@RC: CPI=") || !strings.Contains(cold, "gcc_r Unsafe: CPI=") {
		t.Fatalf("unexpected output:\n%s", cold)
	}
	if resumed := run("-resume", ckpt); resumed != cold {
		t.Fatalf("resumed run printed\n%s\nwant the cold run's\n%s", resumed, cold)
	}
}
