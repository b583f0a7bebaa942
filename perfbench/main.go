// Command perfbench is the repository's benchmark: it runs one seeded
// workload of the DAT monitoring system, checks the root aggregates and
// query answers against known truth, and prints every metric by name
// with its unit, then a one-line JSON summary.
//
//	bash perfbench/run.sh --workload sim-steady-10k --seed 1 --seconds 16 --trace 0
//	bash perfbench/run.sh --compare base/ head/
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the same
// run with tracing (step timer, obs.Observer, runtime/metrics, CPU
// profile) and prints the per-layer metrics. See perfbench/METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input.
type workload struct {
	sim  *simSpec
	live *liveSpec
	// slotsPerSecond converts --seconds into a fixed window length in
	// slots, so one seed always measures the same simulated work.
	slotsPerSecond float64
	minSlots       int
	// setupReps is how many set-ups the untraced run times for setup_s.
	setupReps int
}

var workloads = map[string]workload{
	"sim-steady-10k": {
		sim: &simSpec{n: 10240, trees: 4, slot: time.Second, stretch: true, maxWarmup: 40},
		// About 1 s of wall time per slot on a 2-core x86 box. The window
		// spans one finger-repair cycle: 32 fingers, 8 per round, a round
		// every 4 slots plus up to 0.8 s of jitter, so 17.6 s on average.
		// A 16-slot window held one or two of the cycle's costly rounds
		// depending on its phase, and datagram counts swung by a third.
		slotsPerSecond: 1.125, minSlots: 18, setupReps: 2,
	},
	"sim-churn-1k": {
		sim: &simSpec{n: 1024, trees: 16, slot: time.Second, dropProb: 0.01, overload: true,
			churn: 0.005, rejoinAfter: 10, query: true, queryWindow: 500 * time.Millisecond, maxWarmup: 40},
		slotsPerSecond: 2, minSlots: 16, setupReps: 2,
	},
	"live-udp-32": {
		live: &liveSpec{n: 32, trees: 8, slot: 500 * time.Millisecond, queryWindow: 300 * time.Millisecond,
			stagger: 750 * time.Millisecond},
		// One set-up: the slot clock sets live set-up time (2 set-ups
		// in one run agreed to 2 ms in 14.5 s), and a second would cost
		// 14 s of the benchmark's time budget on every run.
		slotsPerSecond: 2, minSlots: 8, setupReps: 1,
	},
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name: "+workloadNames())
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 16, "measured window, in seconds of wall time on the reference box")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		slots     = flag.Int("slots", 0, "override the window length in slots")
		n         = flag.Int("n", 0, "override the node count (smoke runs)")
		setupReps = flag.Int("setup-reps", 0, "override how many set-ups setup_s takes the median of")
		compare   = flag.Bool("compare", false, "compare two directories of saved outputs against BENCHMARK.json's bounds: --compare BASE HEAD")
		passJSON  = flag.Bool("pass-json", false, "print the untraced pass's raw figures as JSON (used by traced runs)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two directories, BASE and HEAD")
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	opt := runOpts{seed: *seed, trace: *trace == 1, slots: *slots, setupReps: w.setupReps}
	if opt.slots <= 0 {
		opt.slots = int(float64(*seconds)*w.slotsPerSecond + 0.5)
		if opt.slots < w.minSlots {
			opt.slots = w.minSlots
		}
	}
	if *setupReps > 0 {
		opt.setupReps = *setupReps
	}
	r, err := runWorkload(*name, w, *n, opt)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if *passJSON {
		b, err := json.Marshal(passOut{Values: r.values, Errs: r.errs, Attempted: r.attempted, Failed: r.failed})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(b))
		return
	}
	if err := r.write(os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

// runOpts are the per-invocation settings shared by all workloads.
type runOpts struct {
	seed      int64
	trace     bool
	slots     int
	setupReps int
}

// runWorkload runs one workload; n > 0 shrinks it for smoke runs.
func runWorkload(name string, w workload, n int, opt runOpts) (*report, error) {
	if w.sim != nil {
		spec := *w.sim
		if n > 0 {
			spec.n = n
		}
		return runSim(name, spec, opt)
	}
	spec := *w.live
	if n > 0 {
		spec.n = n
	}
	return runLive(name, spec, opt)
}

// runSim runs a simulator workload. Untraced, it measures one window
// and times the extra set-ups for setup_s. Traced, it first runs the
// untraced pass of the same seed and length in a child process, then
// the traced pass here: core keeps process-wide state (the on-demand
// epoch counter), so only a fresh process replays a seed exactly, and
// the traced run's count metrics must equal the untraced run's.
func runSim(name string, spec simSpec, opt runOpts) (*report, error) {
	r := &report{workload: name, seed: opt.seed, trace: opt.trace}
	if !opt.trace {
		p := newSimPass(name, spec, opt.seed, false)
		b, c, wu, err := p.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.note("setup phases: build %.3fs converge %.3fs warmup %.3fs", b.Seconds(), c.Seconds(), wu.Seconds())
		w := p.measure(opt.slots)
		f := p.simE2E(w, r)
		p.teardown()
		setups := []float64{(b + c + wu).Seconds()}
		for k := 1; k < opt.setupReps; k++ {
			q := newSimPass(name, spec, opt.seed, false)
			b, c, wu, err := q.setup()
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", k+1, err)
			}
			q.teardown()
			setups = append(setups, (b + c + wu).Seconds())
		}
		// Simulator set-up is CPU work, scaled like the window's CPU.
		f.set("setup_s", w.factor*(&dist{xs: setups}).median())
		r.note("setup_s: median of %d set-ups %v s before the host probe factor", len(setups), roundAll(setups))
		r.values = f
		return r, nil
	}
	base, err := childPass(name, spec.n, opt)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	for _, e := range base.Errs {
		r.fail("untraced run: %s", e)
	}
	r.attempted, r.failed = base.Attempted, base.Failed
	tp := newSimPass(name, spec, opt.seed, true)
	b, c, wu, err := tp.setup()
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tw := tp.measure(opt.slots)
	tf := tp.simE2E(tw, r)
	if err := sameCounts(base.Values, tf); err != nil {
		r.fail("traced run differs from the untraced run of the same seed: %v", err)
	}
	lf := base.Values.layerPart()
	tp.simLayers(tw, lf)
	lf.set("setup.build_s", b.Seconds())
	lf.set("setup.converge_s", c.Seconds())
	lf.set("setup.warmup_s", wu.Seconds())
	// Both walls on the reference-host scale: the passes ran in two
	// processes, possibly at different host speeds.
	tracedWall := tw.factor * tw.wall.Seconds()
	untracedWall := base.Values["e2e.wall_us_per_node_slot"] * tw.nodeSlots / 1e6
	lf.set("trace.overhead_share", tracedWall/untracedWall-1)
	r.note("traced window wall %.3fs vs untraced %.3fs (reference-host seconds)", tracedWall, untracedWall)
	tp.teardown()
	r.values = lf
	return r, nil
}

// passOut is what a child process reports for one untraced pass.
type passOut struct {
	Values    figures  `json:"values"`
	Errs      []string `json:"errs"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
}

// childEnv marks a child process started by childPass; test binaries
// check it in TestMain to run main instead of the tests.
const childEnv = "PERFBENCH_CHILD"

// childPass runs one untraced pass (one set-up, the window) of the same
// seed and length in a fresh process of this executable and waits for
// it to exit.
func childPass(name string, n int, opt runOpts) (passOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return passOut{}, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(opt.seed),
		"--slots", fmt.Sprint(opt.slots), "--n", fmt.Sprint(n), "--setup-reps", "1", "--trace", "0", "--pass-json")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passOut{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var p passOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return passOut{}, fmt.Errorf("child output: %w", err)
	}
	return p, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

func workloadNames() string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
