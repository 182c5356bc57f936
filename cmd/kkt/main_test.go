package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// golden compares got against testdata/<name>, rewriting the file under
// -update. Goldens pin the CLI's user-visible output and — for the bench
// report — the exact BENCH_*.json bytes, so identical seeds must keep
// producing identical artifacts across refactors.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// exec runs one CLI invocation and returns (exit code, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListTableGolden(t *testing.T) {
	code, out, _ := exec(t, "list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	golden(t, "list.txt", []byte(out))
}

func TestListJSONGolden(t *testing.T) {
	code, out, _ := exec(t, "list", "--json")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	golden(t, "list.json", []byte(out))
}

func TestRunTableGolden(t *testing.T) {
	code, out, stderr := exec(t, "run", "mst-build-fixed/ring/sync", "--trials", "2", "--seed", "7")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	golden(t, "run_mst_build_fixed.txt", []byte(out))
}

func TestRunJSONGolden(t *testing.T) {
	code, out, stderr := exec(t, "run", "mst-build-fixed/ring/sync", "--trials", "2", "--seed", "7", "--json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	golden(t, "run_mst_build_fixed.json", []byte(out))
}

func TestRunFlagsAfterScenarioName(t *testing.T) {
	_, before, _ := exec(t, "run", "--trials", "2", "--seed", "7", "mst-build-fixed/ring/sync")
	_, after, _ := exec(t, "run", "mst-build-fixed/ring/sync", "--trials", "2", "--seed", "7")
	if before != after {
		t.Error("flag placement changed the output")
	}
}

// TestBenchGolden pins both the rendered table and the BENCH_*.json
// report bytes for a fixed (filter, trials, seed). The report golden is
// the regression gate for "identical seeds give byte-identical reports":
// any core change that shifts message counts, timing or ordering for
// these scenarios fails here.
func TestBenchGolden(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "BENCH_test.json")
	code, out, stderr := exec(t, "bench", "--filter", "ring", "--trials", "2", "--seed", "7", "--quiet", "--out", outPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	// The temp path varies per run; normalize it before comparing.
	out = strings.ReplaceAll(out, outPath, "BENCH_test.json")
	golden(t, "bench_ring.txt", []byte(out))
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "bench_ring_report.json", blob)
}

func TestBenchJSONMatchesReportFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "BENCH_test.json")
	code, out, stderr := exec(t, "bench", "--filter", "ring", "--trials", "2", "--seed", "7", "--quiet", "--json", "--out", outPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(blob) {
		t.Error("bench --json stdout differs from the written report")
	}
}

func TestHelpFlagExitsZero(t *testing.T) {
	for _, cmd := range []string{"list", "run", "bench"} {
		code, _, stderr := exec(t, cmd, "-h")
		if code != 0 {
			t.Errorf("kkt %s -h: exit = %d, want 0 (stderr: %q)", cmd, code, stderr)
		}
		if !strings.Contains(stderr, "Usage of kkt "+cmd) {
			t.Errorf("kkt %s -h: usage not printed: %q", cmd, stderr)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "run", "--bogus-flag")
	if code != 2 {
		t.Errorf("exit = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr, "bogus-flag") {
		t.Errorf("flag error not reported: %q", stderr)
	}
}

func TestUnknownCommandExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "frobnicate")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown command") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestNoArgsExitsTwo(t *testing.T) {
	code, _, stderr := exec(t)
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "Commands:") {
		t.Errorf("usage not printed: %q", stderr)
	}
}

// TestUnknownScenarioExitsTwo: a mistyped scenario name is a usage error
// (exit 2, like unknown flags), and close registered names are suggested.
func TestUnknownScenarioExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "run", "mst-build-fixd/ring/sync")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown scenario") {
		t.Errorf("stderr = %q", stderr)
	}
	if !strings.Contains(stderr, "did you mean") || !strings.Contains(stderr, "mst-build-fixed/ring/sync") {
		t.Errorf("suggestions missing: %q", stderr)
	}
}

// TestObsHoldWithoutListenExitsTwo: --obs-hold is meaningless without
// --obs-listen; it used to be silently dropped, which let a CI scrape
// misconfiguration serve nothing. Now it is a usage error on both
// commands.
func TestObsHoldWithoutListenExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"run", "mst-build-fixed/ring/sync", "--obs-hold"},
		{"bench", "--filter", "ring", "--quiet", "--obs-hold"},
	} {
		code, _, stderr := exec(t, args...)
		if code != 2 {
			t.Errorf("kkt %s: exit = %d, want 2 (usage error)", strings.Join(args, " "), code)
		}
		if !strings.Contains(stderr, "--obs-hold requires --obs-listen") {
			t.Errorf("kkt %s: misconfiguration not reported: %q", strings.Join(args, " "), stderr)
		}
	}
}

// TestOutOfRangeCountsExitTwo: counts the harness would silently replace
// with defaults (--trials -3 used to run 4 trials and exit 0) are usage
// errors on every command that takes them, and name the flag.
func TestOutOfRangeCountsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"run", "flood/gnm/sync", "--trials", "-3"}, "--trials"},
		{[]string{"run", "flood/gnm/sync", "--trials", "0"}, "--trials"},
		{[]string{"run", "flood/gnm/sync", "--workers", "-1"}, "--workers"},
		{[]string{"run", "flood/gnm/sync", "--timeout", "-1s"}, "--timeout"},
		{[]string{"bench", "--filter", "flood/gnm/sync", "--quiet", "--trials", "0"}, "--trials"},
		{[]string{"bench", "--filter", "flood/gnm/sync", "--quiet", "--workers", "-1"}, "--workers"},
		{[]string{"bench", "--filter", "flood/gnm/sync", "--quiet", "--timeout", "-1s"}, "--timeout"},
		{[]string{"scaling", "--quiet", "--ladder", "64,128", "--workers", "-1"}, "--workers"},
		{[]string{"scaling", "--quiet", "--ladder", "64,128", "--timeout", "-1s"}, "--timeout"},
		{[]string{"scaling", "--quiet", "--ladder", "64,128", "--seeds", "0"}, "--seeds"},
	} {
		if tc.args[0] != "run" {
			// Should the check regress, the report lands in a temp dir.
			tc.args = append(tc.args, "--out", filepath.Join(t.TempDir(), "report.json"))
		}
		code, stdout, stderr := exec(t, tc.args...)
		if code != 2 {
			t.Errorf("kkt %s: exit = %d, want 2 (usage error)", strings.Join(tc.args, " "), code)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("kkt %s: %s not named in %q", strings.Join(tc.args, " "), tc.flag, stderr)
		}
		if stdout != "" {
			t.Errorf("kkt %s: ran anyway: %q", strings.Join(tc.args, " "), stdout)
		}
	}
}

// TestZeroWorkersAndTimeoutKeepTheirMeaning: --workers 0 is GOMAXPROCS
// and --timeout 0 is no budget, not usage errors.
func TestZeroWorkersAndTimeoutKeepTheirMeaning(t *testing.T) {
	code, stdout, stderr := exec(t, "run", "flood/gnm/sync", "--trials", "1", "--workers", "0", "--timeout", "0")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "flood/gnm/sync") {
		t.Errorf("no result row: %q", stdout)
	}
}

// TestShardsFlagExitsTwo: the engine is single-threaded and has no shard
// knob, so --shards is an undefined flag — a usage error, exit 2.
func TestShardsFlagExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "run", "mst-build-fixed/ring/sync", "--trials", "1", "--shards", "2")
	if code != 2 {
		t.Errorf("exit = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -shards") {
		t.Errorf("stderr = %q", stderr)
	}
}

// TestBenchUnknownFilterExitsTwo: a filter matching nothing is a usage
// error (exit 2), with suggestions when the filter resembles a name.
func TestBenchUnknownFilterExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "bench", "--filter", "zzz-no-match", "--quiet")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no scenario matches") {
		t.Errorf("stderr = %q", stderr)
	}
	code, _, stderr = exec(t, "bench", "--filter", "mst-buld", "--quiet")
	if code != 2 {
		t.Errorf("near-miss filter: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "did you mean") {
		t.Errorf("near-miss filter suggestions missing: %q", stderr)
	}
}
