package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"
)

// repTimeout bounds one repetition; a repetition that exceeds it counts as a
// failed operation.
const repTimeout = 120 * time.Second

// usage is what the OS charged one exited process.
type usage struct {
	cpu   time.Duration
	rssMB float64
}

func usageOf(ps *os.ProcessState) usage {
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// buildBinaries compiles the three commands the workloads drive into a fresh
// directory under .bench_build and returns it.
func buildBinaries(root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "bin-")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/jaaru", "./cmd/jaaru-server", "./cmd/jaaru-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return dir, nil
}

// runToExit runs one command to completion and reports its stdout, exit code
// and resource usage. wall spans exec to process exit.
func runToExit(bin string, args ...string) (stdout []byte, exit int, wall time.Duration, u usage, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	err = cmd.Run()
	wall = time.Since(start)
	if cmd.ProcessState == nil {
		return nil, -1, wall, usage{}, err
	}
	if ctx.Err() != nil {
		return nil, -1, wall, usageOf(cmd.ProcessState), fmt.Errorf("timed out after %v", repTimeout)
	}
	if _, isExit := err.(*exec.ExitError); isExit {
		err = nil // a non-zero exit is a verdict for the caller to judge
	}
	return out.Bytes(), cmd.ProcessState.ExitCode(), wall, usageOf(cmd.ProcessState), err
}

// daemon is a long-running child: the coordinator or a worker.
type daemon struct{ cmd *exec.Cmd }

// startDaemon launches bin and waits until its stderr matches announce,
// returning the first capture group (the address).
func startDaemon(announce *regexp.Regexp, bin string, args ...string) (*daemon, string, error) {
	d := &daemon{cmd: exec.Command(bin, args...)}
	watch := newLineWatcher(announce)
	d.cmd.Stderr = watch
	if err := d.cmd.Start(); err != nil {
		return nil, "", err
	}
	if announce == nil {
		return d, "", nil
	}
	select {
	case addr := <-watch.found:
		return d, addr, nil
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, "", fmt.Errorf("%s: no %q line on stderr within 10s", filepath.Base(bin), announce)
	}
}

// stop asks the daemon to exit (SIGTERM is the graceful path of both
// binaries), waits for it, and reports what it used. A daemon that ignores
// the signal for 5 s is killed, so no process outlives the benchmark.
func (d *daemon) stop() (usage, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	killer := time.AfterFunc(5*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	killer.Stop()
	if d.cmd.ProcessState == nil {
		return usage{}, err
	}
	return usageOf(d.cmd.ProcessState), err
}

// lineWatcher is an io.Writer that scans what a child writes for one regexp
// match, delivers its first capture group once, and discards the rest. Only
// os/exec's one copying goroutine writes to it.
type lineWatcher struct {
	re    *regexp.Regexp
	found chan string
	buf   []byte
	done  bool
}

func newLineWatcher(re *regexp.Regexp) *lineWatcher {
	return &lineWatcher{re: re, found: make(chan string, 1), done: re == nil}
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if m := w.re.FindSubmatch(w.buf); m != nil {
		w.found <- string(m[1])
		w.done, w.buf = true, nil
	}
	return len(p), nil
}
