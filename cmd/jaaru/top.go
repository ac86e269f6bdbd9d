package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"jaaru/internal/telemetry"
)

// runTop is `jaaru top`, the live fleet profiler — top(1) for an exploration
// fleet: one snapshot, or with -watch a refresh until interrupted. It polls a telemetry endpoint's GET /v1/status — the coordinator
// (jaaru-server), a standalone checker run (jaaru -listen), or a worker
// (jaaru-worker -listen) — and renders per-job progress plus phase-latency
// quantiles. Each job row shows scenarios against the MaxScenarios goal, the
// live scenarios/sec rate, the ETA to the goal (an upper bound: complete
// explorations finish earlier), frontier depth, active leases, workers,
// distinct bugs, the lease protocol's wire bytes in each direction, and the
// average scenarios per absorbed delta commit (wire columns render "-" for
// in-process runs); the indented lines below a row are that job's per-phase
// latency distributions (p50/p99/max from the mergeable histograms the
// workers ship with every commit). A failed poll exits 1, a missing -server 2.
func runTop(args []string) {
	fs := flag.NewFlagSet("jaaru top", flag.ExitOnError)
	server := fs.String("server", "", "telemetry base URL (required), e.g. http://host:8080")
	watch := fs.Duration("watch", 0, "refresh at this interval instead of printing one snapshot")
	timeout := fs.Duration("timeout", 5*time.Second, "per-poll HTTP timeout")
	fs.Parse(args)

	if *server == "" {
		exit(2, "jaaru top: -server is required")
	}
	client := &http.Client{Timeout: *timeout}
	for {
		st, err := fetchStatus(client, *server)
		switch {
		case err != nil && *watch <= 0:
			exit(1, "jaaru top: %v", err)
		case err != nil:
			fmt.Fprintf(os.Stderr, "jaaru top: %v\n", err)
		case *watch > 0:
			fmt.Print("\033[H\033[2J" + render(st)) // clear screen between refreshes
		default:
			fmt.Print(render(st))
			return
		}
		time.Sleep(*watch)
	}
}

// fetchStatus polls one /v1/status snapshot.
func fetchStatus(c *http.Client, base string) (telemetry.Status, error) {
	var st telemetry.Status
	resp, err := c.Get(strings.TrimSuffix(base, "/") + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/status: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /v1/status: %v", err)
	}
	return st, nil
}

// render formats one status snapshot as the fleet table: one row per job,
// with that job's per-phase latency quantiles indented beneath it.
func render(st telemetry.Status) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  up %s\n", st.Service,
		time.Duration(st.UptimeSec*float64(time.Second)).Round(100*time.Millisecond))
	if len(st.Jobs) == 0 {
		b.WriteString("no jobs\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-6s %-12s %-9s %16s %9s %9s %9s %7s %8s %5s %13s %6s\n",
		"JOB", "BENCH", "STATE", "SCENARIOS", "RATE/S", "ETA", "FRONTIER", "LEASES", "WORKERS", "BUGS", "WIRE TX/RX", "BATCH")
	for _, j := range st.Jobs {
		scen := fmt.Sprintf("%d", j.Scenarios)
		if j.Goal > 0 {
			scen = fmt.Sprintf("%d/%d", j.Scenarios, j.Goal)
		}
		eta := "-"
		if j.ETASec > 0 {
			eta = time.Duration(j.ETASec * float64(time.Second)).Round(time.Second).String()
		}
		// Wire-level columns are zero for in-process runs; render them as "-"
		// so a standalone checker's table stays clean.
		wire, batch := "-", "-"
		if j.BytesTx > 0 || j.BytesRx > 0 {
			wire = humanBytes(j.BytesTx) + "/" + humanBytes(j.BytesRx)
		}
		if j.CommitBatch > 0 {
			batch = fmt.Sprintf("%d", j.CommitBatch)
		}
		fmt.Fprintf(&b, "%-6s %-12s %-9s %16s %9.1f %9s %9d %7d %8d %5d %13s %6s\n",
			j.ID, j.Bench, j.State, scen, j.Rate, eta,
			j.FrontierLen, j.ActiveLeases, j.Workers, j.Bugs, wire, batch)
		timers := make([]string, 0, len(j.Latency))
		for name := range j.Latency {
			timers = append(timers, name)
		}
		sort.Strings(timers)
		for _, name := range timers {
			q := j.Latency[name]
			fmt.Fprintf(&b, "       %-17s n=%-9d p50=%-11s p99=%-11s max=%s\n",
				name, q.Count, durNs(q.P50Ns), durNs(q.P99Ns), durNs(q.MaxNs))
		}
	}
	return b.String()
}

func durNs(ns int64) string { return time.Duration(ns).String() }

// humanBytes renders a byte count compactly (B/KB/MB/GB, one decimal).
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
