package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envStamp says where and how a result was taken, so that numbers from
// different boxes or run shapes are never compared silently.
type envStamp struct {
	Nproc            int     `json:"nproc"`
	GenGOMAXPROCS    int     `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	CPUModel         string  `json:"cpu_model"`
	Kernel           string  `json:"kernel"`
	GoVersion        string  `json:"go_version"`
	GitCommit        string  `json:"git_commit"`
	Seed             int64   `json:"seed"`
	Conns            int     `json:"conns"`
	Windows          int     `json:"windows"`
	WindowS          float64 `json:"window_s"`
	WarmOpsPerConn   int     `json:"warm_ops_per_conn"`
	SetupsPerRun     int     `json:"setups_per_run"`
	ReplayOps        int     `json:"replay_ops"`
	Network          string  `json:"network"`
}

func stampEnv(o runOpts, serverProcs int) envStamp {
	return envStamp{
		Nproc:            runtime.NumCPU(),
		GenGOMAXPROCS:    runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: serverProcs,
		CPUModel:         cpuModel(),
		Kernel:           firstLine("/proc/sys/kernel/osrelease"),
		GoVersion:        runtime.Version(),
		GitCommit:        gitCommit(),
		Seed:             o.seed,
		Conns:            numConns(),
		Windows:          o.windows,
		WindowS:          windowLength.Seconds(),
		WarmOpsPerConn:   o.warmOps,
		SetupsPerRun:     o.setups,
		ReplayOps:        o.replayOps,
		Network:          "loopback",
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit from the build's VCS stamp, or asks git; a
// checkout that is not a repository has neither.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.WaitDelay = time.Second
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
