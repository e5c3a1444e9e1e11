// Command stepctl is the library's utility CLI.
//
// Usage:
//
//	stepctl demo               # run the §3.3 simplified MoE and report metrics
//	stepctl dot                # print the simplified MoE graph in Graphviz DOT
//	stepctl tables             # print the STeP operator reference (Tables 3–7)
//	stepctl moe [flags]        # run one MoE-layer configuration
//	stepctl exp [flags]        # regenerate the paper's tables and figures
//	stepctl sweep [flags]      # run a declarative scenario sweep (JSON spec)
//	stepctl serve [flags]      # serve sweeps over HTTP with a result cache
//	stepctl worker -join <server>
//	                           # join a server as a remote sweep-point worker
//	stepctl watch <server> <job-id>
//	                           # tail a served sweep's row stream live
//	stepctl program <compile|dot|run> -ir file.json
//	                           # validate, render, or execute a program IR
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"step"
	"step/internal/experiments"
	"step/internal/fabric"
	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/service"
	"step/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = demo()
	case "dot":
		err = dot()
	case "tables":
		tables()
	case "moe":
		err = moe(os.Args[2:])
	case "exp":
		err = exp(os.Args[2:])
	case "sweep":
		err = sweep(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	case "worker":
		err = workerCmd(os.Args[2:])
	case "watch":
		err = watch(os.Args[2:])
	case "program":
		err = program(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stepctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: stepctl <demo|dot|tables|moe|exp|sweep|serve|worker|watch|program> [flags]")
}

// program works with serializable program IRs: compile validates and
// summarizes one, dot renders it in Graphviz DOT format, and run
// executes it with fresh engine state.
func program(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: stepctl program <compile|dot|run> -ir file.json [flags]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "compile", "dot", "run":
	default:
		return fmt.Errorf("program: unknown subcommand %q (want compile, dot, or run)", sub)
	}
	fs := flag.NewFlagSet("program "+sub, flag.ExitOnError)
	irPath := fs.String("ir", "", "path to a program IR JSON file")
	var (
		title      = fs.String("title", "", "graph title (dot; defaults to the program name)")
		seed       = fs.Uint64("seed", 7, "run seed (run)")
		simWorkers = fs.Int("sim-workers", 0, "DES engine: 0/1 sequential, >=2 conservative parallel (run)")
		depth      = fs.Int("depth", 0, "default stream FIFO depth override (run; 0 = default 16)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *irPath == "" {
		return fmt.Errorf("program %s: need -ir <file.json>", sub)
	}
	ir, err := step.LoadProgramIR(*irPath)
	if err != nil {
		return err
	}
	prog, err := step.CompileProgramIR(ir)
	if err != nil {
		return err
	}
	switch sub {
	case "compile":
		hash, err := prog.Hash()
		if err != nil {
			return err
		}
		name := prog.Name()
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Printf("program:            %s\n", name)
		fmt.Printf("nodes:              %d\n", prog.NodeCount())
		fmt.Printf("streams:            %d\n", prog.StreamCount())
		fmt.Printf("canonical hash:     %s\n", hash)
		fmt.Printf("onchip bytes (§4.2): %s\n", prog.OnchipBytesExpr())
		fmt.Printf("offchip bytes (§4.2): %s\n", prog.OffchipTrafficBytesExpr())
		fmt.Printf("alloc compute BW:   %d FLOPs/cycle\n", prog.AllocatedComputeBW())
		return nil
	case "dot":
		t := *title
		if t == "" {
			t = prog.Name()
		}
		if t == "" {
			t = "program"
		}
		fmt.Print(prog.Dot(t))
		return nil
	case "run":
		opts := []step.RunOption{step.WithSeed(*seed), step.WithSimWorkers(*simWorkers)}
		if *depth > 0 {
			opts = append(opts, step.WithChannelDepth(*depth))
		}
		sess, err := prog.Run(opts...)
		if err != nil {
			return err
		}
		res := sess.Result
		fmt.Printf("cycles:             %d\n", res.Cycles)
		fmt.Printf("off-chip traffic:   %d bytes\n", res.OffchipTrafficBytes)
		fmt.Printf("peak on-chip:       %d bytes\n", res.PeakOnchipBytes)
		fmt.Printf("total FLOPs:        %d\n", res.TotalFLOPs)
		for _, name := range sess.CaptureNames() {
			es, _ := sess.Captured(name)
			fmt.Printf("captured %q:        %d elements\n", name, len(es))
		}
		return nil
	}
	return nil
}

// sweep runs a declarative scenario: a JSON spec file (or a built-in
// spec by name) compiled onto the workload entry points and fanned out
// on the parallel harness.
func sweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "path to a scenario spec JSON file")
		name     = fs.String("name", "", "run a built-in spec by ID instead (see -list)")
		list     = fs.Bool("list", false, "list built-in spec IDs and exit")
		follow   = fs.Bool("follow", false, "print rows to stderr as points land (completion order); the final table still goes to stdout")
		cache    = fs.Bool("cache", false, "serve byte-identical repeats from the content-addressed result cache")
		cacheDir = fs.String("cache-dir", ".step-cache", "result cache directory (with -cache)")
	)
	rf := addRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, sp := range scenario.Builtin() {
			fmt.Printf("%-14s %s\n", sp.ID, sp.Title)
		}
		return nil
	}
	var sp scenario.Spec
	switch {
	case *specPath != "" && *name != "":
		return fmt.Errorf("sweep: -spec and -name are mutually exclusive")
	case *specPath != "":
		var err error
		if sp, err = scenario.Load(*specPath); err != nil {
			return err
		}
	case *name != "":
		var ok bool
		if sp, ok = scenario.LookupBuiltin(*name); !ok {
			return fmt.Errorf("sweep: unknown built-in spec %q (use -list)", *name)
		}
	default:
		return fmt.Errorf("sweep: need -spec <file.json> or -name <id>")
	}

	// The cached path shares the content-addressed store with `stepctl
	// serve`: a repeated sweep of a semantically-equal spec at the same
	// seed/quick prints the stored bytes without re-simulating.
	var (
		st  *store.Store
		key string
		jn  *store.Journal
	)
	if *cache {
		var err error
		if st, err = store.Open(*cacheDir, 0); err != nil {
			return err
		}
		if key, err = store.Key(sp, rf.Seed, rf.Quick); err != nil {
			return err
		}
		if e, ok, err := st.Get(key); err != nil {
			return err
		} else if ok {
			fmt.Fprintf(os.Stderr, "sweep: cache hit %s\n", key)
			fmt.Println(e.Table)
			return writeCSV(rf.out, e.Manifest.SpecID, e.CSV)
		}
		if jn, err = st.BeginJournal(key); err != nil {
			return err
		}
	}

	// With -follow, rows print to stderr in completion order as the
	// harness finishes points; stdout still carries the final assembled
	// table, so pipelines see identical bytes either way.
	var sink scenario.Sink
	if *follow {
		sink = scenario.Sink{
			Start: func(st scenario.StreamStart) {
				fmt.Fprintf(os.Stderr, "sweep: %s: %d rows over %d points\n", st.TableID, st.Rows, st.Points)
			},
			Row: func(p scenario.PointResult) {
				fmt.Fprintf(os.Stderr, "row %d/%d  %s\n", p.Index+1, p.Total, strings.Join(p.Cells, "  "))
			},
		}
	}
	if jn != nil {
		// The cached entry carries the row journal, so a server sharing
		// the cache replays the same stream the service would have.
		sink = jn.Sink(sp.ID, sink)
	}

	return rf.profiled(func() error {
		start := time.Now()
		tb, err := scenario.RunStream(sp, rf.Suite, sink)
		if err != nil {
			return err
		}
		fmt.Println(tb.String())
		if jn != nil {
			entry, err := store.NewEntry(sp, rf.Seed, rf.Quick, tb.String(), tb.CSV(), store.GitDescribe("."), time.Since(start))
			if err != nil {
				return err
			}
			jn.Finish(tb.Notes)
			if err := st.CommitJournal(jn, entry); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "sweep: cached %s\n", key)
		}
		return writeCSV(rf.out, tb.ID, tb.CSV())
	})
}

// runFlags are the flags exp and sweep share.
type runFlags struct {
	experiments.Suite
	out, cpuProfile, memProfile string
}

// addRunFlags declares the shared flags on fs.
func addRunFlags(fs *flag.FlagSet) *runFlags {
	rf := &runFlags{}
	fs.Uint64Var(&rf.Seed, "seed", 7, "trace seed")
	fs.BoolVar(&rf.Quick, "quick", false, "shrink sweeps for a fast run")
	fs.IntVar(&rf.Workers, "workers", 0, "parallel sweep workers (0 = one per CPU, 1 = sequential)")
	fs.IntVar(&rf.SimWorkers, "sim-workers", 0, "DES engine per simulation: 0/1 = sequential, >=2 = conservative parallel (identical results)")
	fs.StringVar(&rf.out, "out", "", "directory to write one CSV per table into")
	fs.StringVar(&rf.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&rf.memProfile, "memprofile", "", "write a heap profile (post-run, post-GC) to this file")
	return rf
}

// profiled brackets run with the pprof collection requested by the
// -cpuprofile/-memprofile flags (an empty path disables either). The heap
// profile is written after run completes, preceded by a GC, so it reflects
// retained memory; inspect allocation volume with
// `go tool pprof -sample_index=alloc_objects` (see PERFORMANCE.md).
func (rf *runFlags) profiled(run func() error) error {
	if cpuPath := rf.cpuProfile; cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := run()
	if memPath := rf.memProfile; memPath != "" {
		f, ferr := os.Create(memPath)
		if ferr != nil {
			if err == nil {
				err = ferr
			}
			return err
		}
		defer f.Close()
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// writeCSV writes a table's CSV rendering into dir (no-op when empty),
// logging the path to stderr so stdout stays the table bytes.
func writeCSV(dir, id, csv string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// serve runs the sweep service over HTTP: POST /sweeps, GET
// /sweeps/{id}, GET /sweeps/{id}/table, GET /specs (see
// internal/service). Results land in the same content-addressed store
// `stepctl sweep -cache` uses, so the CLI and the server share hits.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8372", "listen address")
		cacheDir   = fs.String("cache-dir", ".step-cache", "result cache directory")
		executors  = fs.Int("executors", 2, "concurrent sweep executors")
		workers    = fs.Int("workers", 0, "harness token pool shared by all executors (0 = one per CPU; each executor adds one implicit worker)")
		simWorkers = fs.Int("sim-workers", 0, "DES engine per simulation: 0/1 = sequential, >=2 = conservative parallel")
		lru        = fs.Int("lru", 64, "in-memory result cache entries fronting the disk store")
		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "work-unit lease TTL for joined workers (re-dispatch latency after a worker dies)")
		workerTTL  = fs.Duration("worker-ttl", 45*time.Second, "how long a silent worker stays in the fleet")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := store.Open(*cacheDir, *lru)
	if err != nil {
		return err
	}
	svc := service.New(st, service.Options{
		Executors:   *executors,
		Workers:     *workers,
		SimWorkers:  *simWorkers,
		GitDescribe: store.GitDescribe("."),
		Fabric:      fabric.Options{LeaseTTL: *leaseTTL, WorkerTTL: *workerTTL},
	})
	defer svc.Close()

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "stepctl: serving sweeps on http://%s (cache %s)\n", *addr, st.Dir())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "stepctl: shutting down (press again to force quit)")
	// Unregister the signal handler first, so a second SIGINT/SIGTERM
	// gets default handling and kills the process even while Close
	// drains in-flight simulations.
	stop()
	// Close the service before Shutdown: it cancels every job, which
	// unblocks handlers parked in ?wait= — otherwise Shutdown would
	// hang behind them until its deadline while their sweeps run on.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

// workerCmd joins a serving coordinator as a remote sweep-point
// worker: it long-polls /work/lease, runs each leased point with the
// same deterministic machinery `stepctl sweep` uses, and posts the raw
// result back. Determinism makes the worker's -workers/-sim-workers
// settings invisible in the result bytes. Runs until interrupted.
func workerCmd(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	var (
		join       = fs.String("join", "", "coordinator base URL (e.g. http://host:8372)")
		name       = fs.String("name", "", "worker label shown in GET /work/workers (default: hostname)")
		workers    = fs.Int("workers", 0, "local harness workers per leased point (0 = one per CPU)")
		simWorkers = fs.Int("sim-workers", 0, "DES engine per simulation: 0/1 = sequential, >=2 = conservative parallel")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("worker: need -join <coordinator URL>")
	}
	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return fabric.RunWorker(ctx, fabric.WorkerOptions{
		Coordinator: *join,
		Name:        *name,
		Workers:     *workers,
		SimWorkers:  *simWorkers,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "stepctl: "+format+"\n", args...)
		},
	})
}

// watch tails a served sweep's NDJSON row stream (GET
// /sweeps/{id}/stream): rows print to stderr as they land on the
// server, and the reassembled table — byte-identical to GET
// /sweeps/{id}/table — prints to stdout once the stream's terminal
// event arrives. Cached jobs replay their stored rows, so watch works
// on finished sweeps too.
func watch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	quiet := fs.Bool("quiet", false, "suppress the per-row stderr feed; print only the final table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: stepctl watch [flags] <server> <job-id>")
	}
	base, id := strings.TrimRight(fs.Arg(0), "/"), fs.Arg(1)
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(base + "/sweeps/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("watch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return watchStream(resp.Body, id, *quiet, os.Stdout, os.Stderr)
}

// watchStream reassembles one NDJSON event stream: rows feed errw as
// they land, the final table prints to out on a clean terminal event.
// A row index streamed twice is a protocol violation (re-dispatch must
// never double-commit), so it fails loudly instead of silently keeping
// the later copy.
func watchStream(r io.Reader, id string, quiet bool, out, errw io.Writer) error {
	var (
		tb   *harness.Table
		seen int
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev service.StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("watch: bad stream line: %w", err)
		}
		switch ev.Type {
		case service.EventStart:
			tb = &harness.Table{ID: ev.SpecID, Title: ev.Title, Header: ev.Header}
			tb.Rows = make([][]string, ev.RowsTotal)
			if !quiet {
				fmt.Fprintf(errw, "watch: %s (%s): %d rows over %d points\n", ev.SpecID, ev.Key, ev.RowsTotal, ev.PointsTotal)
			}
		case service.EventRow:
			if tb == nil || ev.Index < 0 || ev.Index >= len(tb.Rows) {
				return fmt.Errorf("watch: row %d outside the announced table", ev.Index)
			}
			if tb.Rows[ev.Index] != nil {
				return fmt.Errorf("watch: row %d streamed twice", ev.Index)
			}
			seen++
			tb.Rows[ev.Index] = ev.Cells
			if !quiet {
				fmt.Fprintf(errw, "row %d/%d  %s\n", ev.Index+1, len(tb.Rows), strings.Join(ev.Cells, "  "))
			}
		case service.EventProgress:
			// Point-level progress; rows are the user-visible unit here.
		case service.EventDone:
			switch ev.State {
			case string(service.StateDone), string(service.StateCached):
				if tb == nil || seen != len(tb.Rows) {
					return fmt.Errorf("watch: job %s finished but streamed %d rows", id, seen)
				}
				tb.Notes = ev.Notes
				fmt.Fprintln(out, tb.String())
				return nil
			default:
				return fmt.Errorf("watch: job %s %s: %s", id, ev.State, ev.Error)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	return fmt.Errorf("watch: stream ended without a terminal event")
}

// exp runs the paper's experiment registry on the parallel harness.
// Tables print in registry order, each as soon as every earlier one has
// printed, so stdout is exactly the committed golden bytes at any worker
// count; per-artifact wall times go to stderr.
func exp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	var (
		fig        = fs.String("fig", "", "run a single experiment by ID (empty = all)")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		schedStats = fs.Bool("schedstats", false, "print aggregated DES scheduler-contention counters after the run")
	)
	rf := addRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return nil
	}
	runners := experiments.All()
	if *fig != "" {
		r, ok := experiments.Lookup(*fig)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *fig)
		}
		runners = []experiments.Runner{r}
	}
	if *schedStats {
		col := &step.SchedCollector{}
		step.SetSchedCollector(col)
		defer func() {
			step.SetSchedCollector(nil)
			s, runs := col.Snapshot()
			fmt.Printf("sched stats over %d simulation runs (parallel engine only):\n", runs)
			fmt.Printf("  lifts=%d lift-fastpath=%d (%.1f%%) kicks=%d scanned=%d woken=%d grants=%d grant-fastpath=%d scanned/lift=%.3f\n",
				s.Lifts, s.LiftFastPath, 100*safeFrac(s.LiftFastPath, s.Lifts),
				s.Kicks, s.Scanned, s.Woken, s.Grants, s.GrantFastPath, s.ScannedPerLift())
		}()
	}
	return rf.profiled(func() error {
		failed := 0
		experiments.RunAll(rf.Suite, runners, func(oc experiments.Outcome) {
			if oc.Err == nil {
				fmt.Println(oc.Table.String())
				fmt.Fprintf(os.Stderr, "exp: %s (%.1fs)\n", oc.Runner.ID, oc.Elapsed.Seconds())
				oc.Err = writeCSV(rf.out, oc.Table.ID, oc.Table.CSV())
			}
			if oc.Err != nil {
				fmt.Fprintf(os.Stderr, "stepctl: %s: %v\n", oc.Runner.ID, oc.Err)
				failed++
			}
		})
		if failed > 0 {
			return fmt.Errorf("%d experiment(s) failed", failed)
		}
		return nil
	})
}

// safeFrac returns a/b as a float, 0 when b is 0.
func safeFrac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func demo() error {
	moe, err := step.BuildSimpleMoE(step.DefaultSimpleMoEConfig())
	if err != nil {
		return err
	}
	sess, err := moe.Program.Run()
	if err != nil {
		return err
	}
	res := sess.Result
	rows, err := moe.OutputRows(sess)
	if err != nil {
		return err
	}
	fmt.Printf("simplified MoE (§3.3): %d rows, %d cycles, %d bytes off-chip, %d FLOPs\n",
		len(rows), res.Cycles, res.OffchipTrafficBytes, res.TotalFLOPs)
	return nil
}

func dot() error {
	moe, err := step.BuildSimpleMoE(step.DefaultSimpleMoEConfig())
	if err != nil {
		return err
	}
	fmt.Print(moe.Program.Dot("simplified-moe"))
	return nil
}

func moe(args []string) error {
	fs := flag.NewFlagSet("moe", flag.ExitOnError)
	var (
		model   = fs.String("model", "qwen", "model: qwen or mixtral")
		batch   = fs.Int("batch", 64, "batch size (tokens)")
		tile    = fs.Int("tile", 16, "static tile size")
		dynamic = fs.Bool("dynamic", false, "use dynamic tiling")
		regions = fs.Int("regions", 0, "parallel regions (0 = one per expert)")
		scale   = fs.Int("scale", 8, "model dimension scale-down factor")
		seed    = fs.Uint64("seed", 7, "trace seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var m step.ModelConfig
	switch *model {
	case "qwen":
		m = step.Qwen3Config()
	case "mixtral":
		m = step.MixtralConfig()
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	m = m.Scaled(*scale)
	routing, err := step.SampleExpertRouting(*batch, m.NumExperts, m.TopK, step.SkewHeavy, *seed)
	if err != nil {
		return err
	}
	layer, err := step.BuildMoELayer(step.MoELayerConfig{
		Model: m, Batch: *batch,
		TileSize: *tile, Dynamic: *dynamic, Regions: *regions,
		Routing: routing, Seed: *seed,
	})
	if err != nil {
		return err
	}
	sess, err := layer.Program.Run()
	if err != nil {
		return err
	}
	res := sess.Result
	onchip, err := layer.OnchipBytes()
	if err != nil {
		return err
	}
	fmt.Printf("model:              %s\n", m.Name)
	fmt.Printf("cycles:             %d\n", res.Cycles)
	fmt.Printf("off-chip traffic:   %d bytes\n", res.OffchipTrafficBytes)
	fmt.Printf("on-chip requirement: %d bytes (§4.2 equation)\n", onchip)
	fmt.Printf("total FLOPs:        %d\n", res.TotalFLOPs)
	fmt.Printf("compute util:       %.4f\n", res.ComputeUtilization())
	fmt.Printf("off-chip BW util:   %.4f\n", res.OffchipBWUtilization(1024))
	return nil
}

func tables() {
	fmt.Print(`STeP operator reference (paper Tables 3-7)

Off-chip memory operators (§3.2.1)
  LinearOffChipLoad(ref Strm<R,b>, tensor, stride, shape) -> Strm<S,a+b>
      Affine tiled read, once per reference element.
  LinearOffChipStore(in Strm<S,a>)
      Linear tiled write.
  RandomOffChipLoad(raddr Strm<I,a>, table) -> Strm<S,a>
      Indexed tile fetch (time-multiplexed weight loads).
  RandomOffChipStore(waddr Strm<I,b>, wdata Strm<S,b>) -> Strm<bool,b>
      Indexed tile write with acknowledgments.

On-chip memory operators (§3.2.2)
  Bufferize(in Strm<S,a>, rank b) -> Strm<Buffer<S,b>,a-b>
      Store inner b dims to scratchpad; dynamic buffer sizes allowed.
  Streamify(bufs, ref, stride, shape) -> Strm<S,...>
      Read each buffer a dynamic number of times (affine when static).

Dynamic routing and merging operators (§3.2.3)
  Partition(in Strm<R,a>, sel Strm<SEL,b>, n) -> [Strm<R,a-b>]
      Route rank-(a-b) subtrees to selected outputs.
  Reassemble(ins [Strm<R,a>], sel Strm<SEL,b>) -> Strm<R,a+b+1>
      Merge per selector, collecting in arrival order; increments the
      closing stop token.
  EagerMerge(ins [Strm<R,a>]) -> (Strm<R,a>, Strm<SEL,0>)
      Merge in arrival order, emitting a source selector stream.

Higher-order operators (§3.2.4)
  Map(in, fn)           shape-preserving element-wise function
  Accum(in, rank, fn)   reduce inner dims (dynamic accumulators allowed)
  Scan(in, rank, fn)    running reduction, shape preserved
  FlatMap(in, rank, fn) expand each element to a rank-b fragment

Shape operators (§3.2.5)
  Flatten(min, max)  merge dims (ragged dims absorb)
  Reshape(rank, chunk[, pad])  split a dim; pads the innermost
  Promote            add a 1-extent outermost dim
  Expand(ref, rank)  repeat elements per reference structure
  Zip(a, b)          tuple two equal-shaped streams
`)
}
