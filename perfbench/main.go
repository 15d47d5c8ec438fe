// Command perfbench is the repository benchmark: it drives the DANCE stack
// through three closed-loop shopper workloads and prints, as the last line of
// standard output, one JSON object with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run). See README.md for every metric, the
// layer → end-to-end mapping and why each workload exists.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload session-http --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "workload seed: every input of the run derives from it")
		seconds = fs.Int("seconds", 10, "nominal length of the timed phase; scales the op count")
		traced  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		workDir = fs.String("workdir", ".bench_build", "scratch directory for journals and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d (want 0 or 1)", *traced)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	res, detail, err := runWorkload(ctx, w, runConfig{
		Seed:    *seed,
		Seconds: *seconds,
		Trace:   *traced == 1,
		WorkDir: *workDir,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(detail); err != nil {
		return err
	}
	return enc.Encode(res)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
