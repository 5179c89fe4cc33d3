package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync/atomic"
	"time"
)

// child is the parent's handle on a running `bench serve` process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *json.Decoder
	hello childHello
}

// startChild launches this same binary as the server under test. The
// package test's TestMain routes the "serve" argument the same way main
// does, so the test binary can be its own child.
func startChild(w *workload, tmp string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "-workload", w.name, "-tmp", tmp)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	return &child{cmd: cmd, in: in, out: json.NewDecoder(out)}, nil
}

// awaitHello blocks until the child listens.
func (c *child) awaitHello() error {
	if err := c.out.Decode(&c.hello); err != nil {
		c.kill()
		return fmt.Errorf("server child did not come up: %w", err)
	}
	return nil
}

func (c *child) ask(cmd string) (childReport, error) {
	var rep childReport
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return rep, fmt.Errorf("server child: send %s: %w", cmd, err)
	}
	if err := c.out.Decode(&rep); err != nil {
		return rep, fmt.Errorf("server child: answer to %s: %w", cmd, err)
	}
	return rep, nil
}

// stop asks the child to shut down and returns its last report. A child
// still running childExitGrace after the request is killed, and that is
// an error: a server that cannot drain is a finding, not a slow run.
func (c *child) stop() (childReport, error) {
	var timedOut atomic.Bool
	timer := time.AfterFunc(childExitGrace, func() {
		timedOut.Store(true)
		_ = c.cmd.Process.Kill() // already gone is fine
	})
	rep, askErr := c.ask("quit")
	c.in.Close()
	waitErr := c.cmd.Wait()
	timer.Stop()
	if timedOut.Load() {
		return rep, fmt.Errorf("server child did not exit within %v of shutdown", childExitGrace)
	}
	if askErr != nil {
		return rep, askErr
	}
	if waitErr != nil {
		return rep, fmt.Errorf("server child: %w", waitErr)
	}
	if rep.ShutdownErr != "" {
		return rep, fmt.Errorf("server child shutdown: %s", rep.ShutdownErr)
	}
	return rep, nil
}

// kill ends a child that never became usable.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	c.in.Close()
	_ = c.cmd.Wait()
}
