package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	flux "github.com/flux-lang/flux"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/webserver"
)

// The server under test runs as a child process (`bench serve`), so that
// the generator's garbage collector and scheduler stay out of it and its
// processor time can be read from rusage. The parent drives it over
// stdin/stdout, one line each way:
//
//	child  -> {"addr": ...}             once listening
//	parent -> "snap"                    child -> its processor time and context switches
//	parent -> "full"                    child -> snap plus every counter and MemStats
//	parent -> "quit"                    child shuts down, answers a last full report, exits

// childHello is the child's first line.
type childHello struct {
	Addr       string `json:"addr"`
	Pid        int    `json:"pid"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// childReport is the child's answer to snap, full and quit. The fields
// after Nivcsw are filled on full and quit only: reading MemStats stops
// the world, which must not happen inside a measured window.
type childReport struct {
	CPUUs     int64 `json:"cpu_us"` // user + system
	Nvcsw     int64 `json:"nvcsw"`
	Nivcsw    int64 `json:"nivcsw"`
	PeakRSSKB int64 `json:"peak_rss_kb"`
	Live      int64 `json:"live"`

	Accepted, Admitted, Shed                  uint64
	Started, Completed, Errored, Dropped      uint64
	Hits, Misses, Evictions                   uint64
	DynCompiled, DynInterpreted, DynFragments uint64
	Mallocs                                   uint64
	NumGC                                     uint32
	PauseTotalNs                              uint64
	IOReadable                                bool
	Syscr, Syscw                              uint64

	ShutdownErr string `json:"shutdown_err,omitempty"`
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose server shape to run")
	tmp := fs.String("tmp", "", "directory for the materialized corpus")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench serve: unknown workload %q\n", *name)
		return 2
	}
	if err := serve(w, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench serve:", err)
		return 1
	}
	return 0
}

func serve(w *workload, tmp string) error {
	files := loadgen.NewFileSet(w.dirs)
	if w.materialize {
		if err := files.Materialize(filepath.Join(tmp, "corpus")); err != nil {
			return fmt.Errorf("materialize corpus: %w", err)
		}
	}
	cfg := w.serverConfig()
	cfg.Files = files
	cfg.Telemetry = flux.NewTelemetry()
	srv, err := webserver.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(context.Background()); err != nil {
		return err
	}

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(childHello{Addr: srv.Addr(), Pid: os.Getpid(), GOMAXPROCS: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch cmd := in.Text(); cmd {
		case "snap":
			err = out.Encode(report(srv, false))
		case "full":
			err = out.Encode(report(srv, true))
		case "quit":
			return quit(srv, out)
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			return err
		}
	}
	// The parent went away without saying quit: stop serving.
	return quit(srv, out)
}

func quit(srv *webserver.Server, out *json.Encoder) error {
	ctx, cancel := context.WithTimeout(context.Background(), childExitGrace)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	rep := report(srv, true)
	if shutdownErr != nil {
		rep.ShutdownErr = shutdownErr.Error()
	}
	return out.Encode(rep)
}

func report(srv *webserver.Server, full bool) childReport {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	plane := srv.PlaneStats()
	rep := childReport{
		CPUUs:     tvMicros(ru.Utime) + tvMicros(ru.Stime),
		Nvcsw:     ru.Nvcsw,
		Nivcsw:    ru.Nivcsw,
		PeakRSSKB: peakRSSKB(),
		Live:      plane.Live,
	}
	if !full {
		return rep
	}
	rep.Accepted, rep.Admitted, rep.Shed = plane.Accepted, plane.Admitted, plane.Shed
	st := srv.Stats().Snapshot()
	rep.Started, rep.Completed, rep.Errored, rep.Dropped = st.Started, st.Completed, st.Errored, st.Dropped
	rep.Hits, rep.Misses, rep.Evictions = srv.CacheStats()
	dyn := srv.Pages().DynStats()
	rep.DynCompiled, rep.DynInterpreted, rep.DynFragments = dyn.Compiled, dyn.Interpreted, dyn.FragHits
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Mallocs, rep.NumGC, rep.PauseTotalNs = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	rep.Syscr, rep.Syscw, rep.IOReadable = procIO()
	return rep
}

// peakRSSKB reads the process's resident-set high-water mark. rusage's
// ru_maxrss would not do: exec carries the parent's peak over into the
// child, so it reports the generator's memory, not the server's.
func peakRSSKB() int64 {
	n, _ := procNumber("/proc/self/status", "VmHWM")
	return int64(n)
}

func tvMicros(tv syscall.Timeval) int64 { return int64(tv.Sec)*1_000_000 + int64(tv.Usec) }

// procIO reads this process's read- and write-class syscall counts; ok is
// false where /proc/self/io is not readable.
func procIO() (syscr, syscw uint64, ok bool) {
	syscr, okR := procNumber("/proc/self/io", "syscr")
	syscw, okW := procNumber("/proc/self/io", "syscw")
	return syscr, syscw, okR && okW
}

// procNumber reads the number that follows "key:" in one of /proc's
// "key: value [unit]" files.
func procNumber(path, key string) (uint64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				n, err := strconv.ParseUint(f[0], 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}
