package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSelectors drives the built binary. An ID that names no catalog entry
// is rejected before anything runs (plbench once ran the IDs it knew,
// dropped the rest and exited 0), naming the selector's valid IDs; and
// `-quick -fig 2` prints what it printed before the catalog drove the
// dispatch — testdata/quick_fig2.golden, the wall-time line aside.
func TestSelectors(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binary with")
	}
	bin := filepath.Join(t.TempDir(), "plbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("plbench %v: %v", args, err)
			}
		}
		return o.String(), e.String(), cmd.ProcessState.ExitCode()
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-fig", "3,2"}, `plbench: -fig: unknown id "3" (want one of 1, 2, 7, 8, 9)`},
		{[]string{"-sec", "9.9"}, `plbench: -sec: unknown id "9.9" (want one of 9.1.3, 9.2.1, 9.2.2, 9.2.3, 9.2.4)`},
		{[]string{"-all", "-table", "2"}, `plbench: -table: unknown id "2" (want one of 1)`},
	} {
		stdout, stderr, exit := run(c.args...)
		if exit != 2 || stdout != "" || strings.TrimSpace(stderr) != c.want {
			t.Errorf("plbench %v: exit %d, stdout %q, stderr %q; want exit 2, nothing run and %q",
				c.args, exit, stdout, stderr, c.want)
		}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "quick_fig2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := run("-quick", "-fig", " 2,")
	if exit != 0 {
		t.Fatalf("plbench -quick -fig 2: exit %d\n%s", exit, stderr)
	}
	timing := regexp.MustCompile(`(?m)^\(\d+\.\ds\)\n`)
	if n := len(timing.FindAllString(stdout, -1)); n != 1 {
		t.Errorf("stdout has %d wall-time lines, want one:\n%s", n, stdout)
	}
	if got := timing.ReplaceAllString(stdout, ""); got != string(want) {
		t.Errorf("plbench -quick -fig 2 printed\n%s\nwant\n%s", got, want)
	}
}
