package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"

	"ripple/internal/trace"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny shrinks a workload so a whole run takes about a second.
func tiny(t *testing.T, name string, traced bool, corrupt string) config {
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.blocks = 20_000
	if sp.window > 0 {
		sp.window = 2048
	}
	return config{
		spec: sp, seed: 3, seconds: 0.05, trace: traced, workdir: t.TempDir(),
		setups: 1, corrupt: corrupt, log: io.Discard,
	}
}

func TestEveryMetricReported(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(tiny(t, sp.name, traced, ""))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s missing", sp.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%t: metric %s in %q, want %q", sp.name, traced, name, m.Unit, unit)
				}
			}
			if traced {
				if c := res.Metrics["bench.layer_coverage_pct"].Value; c < 90 {
					t.Errorf("%s: layer spans cover %.1f%% of traced time, want >= 90%%", sp.name, c)
				}
			}
		}
	}
}

func TestSeedMovesInputs(t *testing.T) {
	sp, _ := specByName("plan-drupal")
	b := &bench{cfg: config{spec: sp}}
	dir := t.TempDir()
	b.cfg.seed = 1
	one, err := b.makeInput(sp.app, 20_000, dir+"/one.pt", 0)
	if err != nil {
		t.Fatal(err)
	}
	b.cfg.seed = 2
	two, err := b.makeInput(sp.app, 20_000, dir+"/two.pt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.hash == two.hash {
		t.Error("seeds 1 and 2 generate the same trace")
	}
	b.cfg.seed = 1
	again, err := b.makeInput(sp.app, 20_000, dir+"/again.pt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.hash != one.hash || again.fileID != one.fileID {
		t.Error("seed 1 does not reproduce its trace")
	}
}

// TestCatalogSeed checks that seed 0 reproduces the ripplegen catalog
// trace file: the app's stream at input 0, encoded without sync points,
// as `ripplegen -app drupal -blocks 20000` writes it.
func TestCatalogSeed(t *testing.T) {
	b := &bench{cfg: config{}}
	in, err := b.makeInput("drupal", 20_000, t.TempDir()+"/p.pt", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := trace.EncodeSourceSync(&want, in.prog, in.app.Stream(0, 20_000), 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(in.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("seed 0 trace file differs from the ripplegen catalog trace")
	}
}

func TestCorruptionCountsAsFailure(t *testing.T) {
	for _, sp := range specs {
		for _, corrupt := range []string{"trace", "plan"} {
			res, err := run(tiny(t, sp.name, false, corrupt))
			if err != nil {
				t.Fatalf("%s corrupt %s: %v", sp.name, corrupt, err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s with a corrupted %s: correct=%t failed=%d, want the corruption counted", sp.name, corrupt, res.Correct, res.Failed)
			}
		}
	}
}
