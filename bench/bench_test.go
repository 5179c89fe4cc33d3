package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary be its own server child: startChild runs
// os.Executable with "serve" first, exactly as it does for the bench
// binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func quickOpts(t *testing.T) runOpts {
	return runOpts{
		seed: 1, outDir: t.TempDir(),
		windows: 4,
		warmOps: tapeLen / 2, setups: 1, replayOps: 1024, sampleEvery: 1,
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json must say what the code says: same workloads, same
// metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

// The quick run over all five workloads emits exactly the declared
// metrics, with units, verifies every response, and writes its files.
func TestQuickRun(t *testing.T) {
	o := quickOpts(t)
	res, err := fullRun(o, false)
	if res == nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(workloads))
	}
	for i, wr := range res.Workloads {
		if wr.Name != workloads[i].name {
			t.Errorf("result %d is %s, want %s", i, wr.Name, workloads[i].name)
		}
		if wr.Failed != 0 || wr.FailFrac != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d failed (fail_frac %g): %v", wr.Name, wr.Failed, wr.Attempted, wr.FailFrac, wr.FailKinds)
		}
		for _, why := range wr.Invalid {
			// The lateness guard needs an otherwise idle box, which a
			// parallel `go test ./...` is not; every other guard is a
			// count and must hold.
			if strings.HasPrefix(why, "loadgen.late_p99_us") {
				t.Logf("%s: %s", wr.Name, why)
				continue
			}
			t.Errorf("%s: invalid: %s", wr.Name, why)
		}
		checkMetrics(t, wr.Name, wr.EndToEnd, endToEnd)
		checkMetrics(t, wr.Name, wr.PerLayer, perLayer)
		for name, v := range wr.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", wr.Name, name, v.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+wr.Name+".json")); err != nil {
			t.Errorf("%s: %v", wr.Name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(o.outDir, "result-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Errorf("result JSON must end with \"claim\": null, ends with %q", data[max(0, len(data)-40):])
	}
	if leftovers, _ := filepath.Glob(filepath.Join(o.outDir, "*-*[0-9]")); len(leftovers) > 0 {
		t.Errorf("scratch directories left behind: %v", leftovers)
	}
}

func checkMetrics(t *testing.T, workload string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", workload, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, v.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			if !slices.ContainsFunc(want, func(d metricDef) bool { return d.Name == name }) {
				t.Errorf("%s: metric %s is not declared", workload, name)
			}
		}
	}
}

// The same seed gives byte-identical tapes; another seed does not.
func TestTapeIsFixedByTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		digest := func(seed int64) string {
			tapes, err := buildTapes(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			var all []string
			for _, tape := range tapes {
				all = append(all, tapeDigest(tape))
			}
			return strings.Join(all, "---\n")
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different tapes", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same tape", w.name)
		}
	}
}

// A wrong response must fail the run: with one expected body spoiled the
// workload reports fail_frac > 0, the result line says incorrect, and the
// command's status is not 0.
func TestSpoiledExpectationFailsTheRun(t *testing.T) {
	o := quickOpts(t)
	o.corruptExpected = true
	var out bytes.Buffer
	err := driverRun(workloadByName("small_keepalive"), o, 1, false, &out)
	if err == nil {
		t.Fatal("driverRun succeeded although an expected body was spoiled")
	}
	var line driverLine
	if jerr := json.Unmarshal(out.Bytes(), &line); jerr != nil {
		t.Fatalf("result line %q: %v", out.String(), jerr)
	}
	if line.Correct || line.Failed == 0 || line.Failed > line.Attempted {
		t.Errorf("result line = %+v, want correct=false and 0 < failed <= attempted", line)
	}
	if code := exitCode(err); code == 0 {
		t.Errorf("exit code %d for %v, want non-zero", code, err)
	}
}

// tapeDigest serializes what a tape sends and expects, for the test that
// a seed fixes the tape.
func tapeDigest(tape []op) string {
	var sb strings.Builder
	for i := range tape {
		o := &tape[i]
		fmt.Fprintf(&sb, "%s|%d|%d|%d\n", o.req, o.status, len(o.body), o.gapNs)
	}
	return sb.String()
}
