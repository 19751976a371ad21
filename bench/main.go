// Command bench is the repository's one benchmark: three fleet-level
// workloads against the built cmd/currents binary, run as separate OS
// processes over loopback HTTP, plus a traced in-process run that
// attributes time to layers. See README.md in this directory.
//
// One workload, as the benchmark driver runs it:
//
//	bash bench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
//
// The whole suite:
//
//	go run -C bench . [-trace 1] [-repeat N] [-quick] [-only workload]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed    = 20090104 // CIDR 2009 opened on 4 January
	defaultSeconds = 20
	// runCeiling fails a run that has not finished by then: a wedged fleet
	// must not pass as a slow one.
	runCeiling = 170 * time.Second
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a driver-mode run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and end with one JSON result line (driver mode)")
		seed     = flag.Int64("seed", defaultSeed, "seed for worlds, query pools, Zipf draws, held-out objects and the batch schedule")
		seconds  = flag.Int("seconds", defaultSeconds, "length of each measured phase")
		trace    = flag.Int("trace", 0, "1 = also run the traced in-process layers and report per-layer metrics")
		repeat   = flag.Int("repeat", 1, "suite mode: run the suite this many times, seed+0 … seed+N-1, and print the spread")
		quick    = flag.Bool("quick", false, "suite mode: smoke run at reduced counts, same code paths")
		only     = flag.String("only", "", "suite mode: run only this workload")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the harness's own tables define it, and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *contract {
		printContract(*seconds)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds must be in 1..60"))
	}
	p := defaultParams(*seconds)
	if *quick {
		p = quickParams()
	}
	p.trace = *trace == 1
	if *workload != "" && !knownWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *only != "" && !knownWorkload(*only) {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *only, strings.Join(workloadNames(), ", ")))
	}
	if err := buildAndPin(); err != nil {
		fatal(err)
	}

	if *workload != "" {
		r, err := runOnce(*workload, *seed, p)
		if err != nil {
			fatal(err)
		}
		defs := endToEnd
		if p.trace {
			defs = perLayer
		}
		line, err := json.Marshal(r.result(defs))
		if err != nil {
			fatal(err)
		}
		r.report(os.Stderr)
		fmt.Println(string(line))
		if !r.correct() {
			os.Exit(1)
		}
		return
	}
	names := workloadNames()
	if *only != "" {
		names = []string{*only}
	}
	if err := runSuite(names, *seed, p, *repeat); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// buildAndPin builds cmd/currents with every CPU the box has, then confines
// the harness to one (proc_linux.go); past this call the process is a fresh
// image of itself, pinned, and the binary is built.
func buildAndPin() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	h, err := newHarness()
	if err != nil {
		return err
	}
	err = h.buildBinary()
	h.cleanup()
	if err != nil {
		return err
	}
	return pinToOneCPU()
}

// runOnce runs one workload under the harness's process hygiene, and checks
// nothing was left behind.
func runOnce(wl string, seed int64, p params) (*run, error) {
	h, err := newHarness()
	if err != nil {
		return nil, err
	}
	// Children die with the harness on a signal as well as on a normal exit;
	// the kernel covers the harness being killed outright (proc_linux.go).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	watchdog := time.AfterFunc(runCeiling, func() {
		h.cleanup()
		fatal(fmt.Errorf("%s: not finished after %v: wall-clock ceiling", wl, runCeiling))
	})
	go func() {
		if _, ok := <-sigs; ok {
			h.cleanup()
			os.Exit(130)
		}
	}()
	defer func() {
		watchdog.Stop()
		signal.Stop(sigs)
		close(sigs)
	}()

	r := newRun(h, wl, seed, p)
	err = func() error {
		defer h.cleanup()
		if err := r.runWorkload(); err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		if p.trace {
			return r.runLayers()
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	for _, l := range h.leftovers() {
		r.gate(false, "left behind after the run: %s", l)
	}
	return r, nil
}

func (r *run) correct() bool { return len(r.gates) == 0 && r.failed == 0 }

// result picks the listed metrics out of what the run measured. A listed
// metric the run did not produce is a harness bug, and fails the run.
func (r *run) result(defs []metricDef) result {
	res := result{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.e2e[d.Name]
		if !ok {
			v, ok = r.layer[d.Name]
		}
		if !ok {
			r.gate(false, "metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	res.Correct = r.correct()
	return res
}

// environment is recorded with every output: numbers from a different box
// are different numbers.
type environment struct {
	BoxCPUs    int    `json:"box_cpus"`             // processors /proc/cpuinfo lists
	PinnedCPU  string `json:"pinned_cpu,omitempty"` // the one the harness and its children run on
	NProc      int    `json:"nproc"`                // what the pinned harness may use
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readEnvironment() environment {
	env := environment{PinnedCPU: os.Getenv(pinnedEnv), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			switch k, v, _ := strings.Cut(line, ":"); strings.TrimSpace(k) {
			case "processor":
				env.BoxCPUs++
			case "model name":
				env.CPUModel = strings.TrimSpace(v)
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// report prints the human-readable account of a run: environment, input
// hashes, sample counts, failed gates.
func (r *run) report(w *os.File) {
	env, _ := json.Marshal(readEnvironment())
	fmt.Fprintf(w, "bench: %s seed=%d seconds=%d env=%s\n", r.wl, r.seed, r.p.seconds, env)
	for k, v := range r.hashes {
		fmt.Fprintf(w, "bench: %s sha256(%s)=%s\n", r.wl, k, v)
	}
	fmt.Fprintf(w, "bench: %s samples=%v attempted=%d failed=%d\n", r.wl, r.samples, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "bench: %s note: %s\n", r.wl, n)
	}
	for _, g := range r.gates {
		fmt.Fprintf(w, "bench: %s GATE FAILED: %s\n", r.wl, g)
	}
}

// contract is BENCHMARK.json: the benchmark as the driver reads it.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func theContract(seconds int) contract {
	return contract{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer}
}

func printContract(seconds int) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(theContract(seconds)); err != nil {
		fatal(err)
	}
}

// outDir is where suite-mode artefacts (trace.json) go: bench/out.
func outDir(h *harness) string { return filepath.Join(h.root, "bench", "out") }
