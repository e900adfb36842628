package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/core"
	"ripple/internal/program"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenModel is a synthetic app whose hot code exceeds the default
// 32KiB L1I, so the analysis finds eviction windows and the plan is
// non-trivial.
func goldenModel() workload.Model {
	return workload.Model{
		Name: "golden", Seed: 41,
		Funcs: 700, ServiceFuncs: 40, UtilityFuncs: 10, Levels: 6,
		BlocksMin: 5, BlocksMax: 10, BlockBytesMin: 48, BlockBytesMax: 96,
		PCond: 0.3, PCall: 0.35, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 2, CalleeMax: 5, IndirectFanout: 4,
		ZipfRequest: 0.4, RequestsPerBurst: 4,
	}
}

// fixture writes the golden app's program image, its PT trace and an
// injection plan analyzed from that trace.
func fixture(t *testing.T) (progPath, ptPath, planPath string, prog *program.Program) {
	t.Helper()
	app, err := workload.Build(goldenModel())
	if err != nil {
		t.Fatal(err)
	}
	prog = app.Prog
	tr := app.Trace(0, 20_000)
	dir := t.TempDir()
	write := func(name string, save func(*os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	progPath = write("app.prog", func(f *os.File) error { return prog.Save(f) })
	ptPath = write("app.pt", func(f *os.File) error {
		_, err := trace.Encode(f, prog, tr)
		return err
	})
	a, err := core.Analyze(prog, blockseq.SliceSource(tr), core.DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanAt(0.45)
	if len(plan.Injections) == 0 {
		t.Fatal("fixture plan injects nothing")
	}
	planPath = write("app.plan", func(f *os.File) error { return plan.Save(f) })
	return progPath, ptPath, planPath, prog
}

// runCLI runs the command in-process and returns its exit code and
// output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from golden:\n got: %s\nwant: %s", name, got, want)
	}
}

// TestSweepJSONGolden pins a sweep's JSON output: every policy ×
// prefetcher cell of a planned and an unplanned sweep, in argument
// order, for any worker count (and so any split of a prefetcher's
// policies into lockstep groups), cold and from a warm store.
func TestSweepJSONGolden(t *testing.T) {
	progPath, ptPath, planPath, _ := fixture(t)
	cases := []struct {
		golden string
		args   []string
	}{
		{"sweep.json", []string{"-policy", "lru,srrip,random", "-prefetcher", "none,nlp,fdip,tifs"}},
		{"sweep_plan_accuracy.json", []string{"-plan", planPath, "-accuracy", "-demote",
			"-policy", "lru,ghrp", "-prefetcher", "fdip,none"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			cache := ""
			sweep := func(j string) (string, string) {
				t.Helper()
				args := append([]string{"-prog", progPath, "-pt", ptPath, "-json", "-j", j, "-cachedir", cache}, c.args...)
				code, out, errs := runCLI(args...)
				if code != 0 {
					t.Fatalf("-j %s: exit %d: %s", j, code, errs)
				}
				return out, errs
			}
			var first string
			for i, j := range []string{"1", "3", "8"} {
				cache = t.TempDir()
				out, _ := sweep(j)
				if i == 0 {
					first = out
					checkGolden(t, c.golden, out)
				} else if out != first {
					t.Fatalf("-j %s output differs from -j 1:\n%s\nvs\n%s", j, out, first)
				}
			}
			out, errs := sweep("2")
			if out != first {
				t.Fatalf("warm rerun output differs:\n%s\nvs\n%s", out, first)
			}
			if !strings.Contains(errs, " 0 computed") {
				t.Fatalf("warm rerun simulated again: %s", errs)
			}
		})
	}
}

// TestPlanCheckRejected: a plan naming a block the program does not have
// is refused before any simulation, in single and sweep mode alike, with
// exit code 1 and nothing on stdout.
func TestPlanCheckRejected(t *testing.T) {
	progPath, ptPath, _, prog := fixture(t)
	bad := &core.Plan{
		Program:    prog.Name,
		Threshold:  0.5,
		Injections: map[program.BlockID][]uint64{program.BlockID(prog.NumBlocks() + 7): {0x1000}},
	}
	planPath := filepath.Join(t.TempDir(), "bad.plan")
	f, err := os.Create(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{
		{"-policy", "lru", "-prefetcher", "fdip"},
		{"-policy", "lru,srrip", "-prefetcher", "none,fdip", "-json"},
	} {
		args := append([]string{"-prog", progPath, "-pt", ptPath, "-plan", planPath}, mode...)
		code, out, errs := runCLI(args...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1", mode, code)
		}
		if out != "" {
			t.Fatalf("%v: wrote stdout on a rejected plan: %q", mode, out)
		}
		if !strings.Contains(errs, "names block") {
			t.Fatalf("%v: stderr does not name the bad block: %q", mode, errs)
		}
	}
	if code, _, _ := runCLI("-prog", progPath, "-pt", ptPath, "-bogus"); code != 2 {
		t.Fatalf("unknown flag exits %d, want 2", code)
	}
}
