// Command bench is the repository's benchmark of the web path: one
// command starts the Flux web server as a child process, drives five
// seeded workloads at it over loopback, verifies every response, and
// prints the end-to-end metrics; a separate traced replay times each
// layer's public calls on the same op tape and reconciles their sum with
// the measured processor time per request. See README.md beside this
// file.
//
//	go run ./bench -seed 1          every workload, tables, result JSON and traces
//	go run ./bench -quick           the same in seconds, for smoke tests
//	go run ./bench -aa              the full run twice, compared against the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                one workload, one result line (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "serve" {
		return serveMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same op tapes")
	quick := fs.Bool("quick", false, "second-long windows, a short replay, every body compared")
	aa := fs.Bool("aa", false, "run everything twice and compare the two runs against the bounds")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the result JSON, traces and scratch files")
	name := fs.String("workload", "", "run this workload alone and end with one JSON result line")
	seconds := fs.Int("seconds", 0, "with -workload: how long to measure")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	o := runOpts{
		seed: *seed, outDir: *outDir,
		windows: int(defaultMeasure / windowLength),
		warmOps: 2 * tapeLen, setups: 5, replayOps: tapeLen, sampleEvery: bodySampleEvery,
	}
	if *quick {
		o.windows, o.warmOps, o.setups, o.replayOps, o.sampleEvery = 4, tapeLen/2, 1, 1024, 1
	}

	var err error
	switch {
	case *name != "":
		w := workloadByName(*name)
		if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
			fmt.Fprintln(os.Stderr, "bench: -workload needs a known workload, -seconds >= 1 and -trace 0 or 1")
			return 2
		}
		err = driverRun(w, o, *seconds, *trace == 1, os.Stdout)
	case *aa:
		err = aaRun(o)
	default:
		_, err = fullRun(o, true)
	}
	return exitCode(err)
}

// exitCode is the command's status for a run's outcome: anything but a
// clean, valid run is a failure.
func exitCode(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// errInvalid reports that a run finished but tripped a validity guard.
func errInvalid(workloads ...string) error {
	return fmt.Errorf("invalid run: %v tripped a validity guard (listed above)", workloads)
}

// measureWorkload runs one workload end to end and then its traced
// replay, and folds the replay's timings and the reconciliation into the
// result.
func measureWorkload(w *workload, o runOpts) (*workloadResult, *replayResult, error) {
	res, err := runWorkload(w, o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep, err := replay(w, o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for name, v := range rep.metrics {
		res.PerLayer[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	var sumNs float64
	for _, ns := range rep.parts {
		sumNs += ns
	}
	cpu := res.EndToEnd["cpu_us_per_req"].Value
	res.PerLayer["reconcile.layers_sum_us"] = metricValue{Value: sumNs / 1e3, Unit: "us"}
	res.PerLayer["reconcile.remainder_us"] = metricValue{Value: cpu - sumNs/1e3, Unit: "us"}
	explained := 0.0
	if cpu > 0 {
		explained = sumNs / 1e3 / cpu
	}
	res.PerLayer["reconcile.explained_frac"] = metricValue{Value: explained, Unit: "ratio"}
	return res, rep, nil
}

// resultFile is the layout of result-seed<n>.json.
type resultFile struct {
	Env       envStamp          `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
	Notes     []string          `json:"interaction_notes"`
	// Claim stays null: this benchmark defines the numbers, it claims no
	// gain.
	Claim *string `json:"claim"`
}

// fullRun measures every workload, prints the tables and writes the
// result JSON.
func fullRun(o runOpts, print bool) (*resultFile, error) {
	out := &resultFile{Notes: interactionNotes}
	var invalid []string
	for i := range workloads {
		w := &workloads[i]
		res, rep, err := measureWorkload(w, o)
		if err != nil {
			return nil, err
		}
		out.Workloads = append(out.Workloads, res)
		if len(res.Invalid) > 0 {
			invalid = append(invalid, w.name)
		}
		if print {
			printWorkload(w, o, res, rep)
		}
	}
	out.Env = stampEnv(o, out.Workloads[0].ServerGOMAXPROCS)
	if print {
		printNotes(out.Env)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if print {
		fmt.Printf("result: %s   traces: %s\n", path, filepath.Join(o.outDir, "trace-<workload>.json"))
	}
	if len(invalid) > 0 {
		return out, errInvalid(invalid...)
	}
	return out, nil
}

// driverLine is the one JSON object a -workload run ends with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverRun is BENCHMARK.json's command: one workload measured for the
// given seconds. Without tracing the whole time is measured windows and
// the line carries the end-to-end metrics; with tracing half of it goes
// to a shorter end-to-end run that supplies the layer counts, the traced
// replay follows, and the line carries the per-layer metrics.
func driverRun(w *workload, o runOpts, seconds int, traced bool, out io.Writer) error {
	total := time.Duration(seconds) * time.Second
	var res *workloadResult
	var err error
	line := driverLine{Metrics: map[string]metricValue{}}
	if traced {
		o.windows, o.setups = int(total/2/windowLength), 1
		if res, _, err = measureWorkload(w, o); err != nil {
			return err
		}
		for _, d := range perLayer {
			line.Metrics[d.Name] = res.PerLayer[d.Name]
		}
	} else {
		o.windows = int(total / windowLength)
		if res, err = runWorkload(w, o); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line.Metrics = res.EndToEnd
	}
	for _, why := range res.Invalid {
		fmt.Fprintf(os.Stderr, "bench: %s: INVALID: %s\n", w.name, why)
	}
	line.Correct = len(res.Invalid) == 0
	line.Attempted, line.Failed = res.Attempted, res.Failed
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	if !line.Correct {
		return errInvalid(w.name)
	}
	return nil
}

// aaRun runs the whole benchmark twice on this one binary and fails when
// any end-to-end metric of any workload differs between the two by more
// than its bound: the bounds must hold between two runs of the same code
// before they can judge a change.
func aaRun(o runOpts) error {
	first, err := fullRun(o, false)
	if err != nil {
		return err
	}
	second, err := fullRun(o, false)
	if err != nil {
		return err
	}
	fmt.Printf("A/A: two runs of the same binary, seed %d; diff is the second run against the first, worse is positive\n", o.seed)
	fmt.Printf("%-24s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	var over int
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.Bound || -worse > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-24s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", a.Name, d.Name, va, vb, 100*worse, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metric pairs differ by more than their bound", over)
	}
	fmt.Println("A/A: every pair within its bound")
	return nil
}
