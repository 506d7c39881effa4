// Command perfbench is compaqt's end-to-end benchmark: seeded
// closed-loop workloads driven over real HTTP, through the public
// client package, against in-process server nodes on loopback
// listeners. It checks every output and prints one JSON result line.
//
//	perfbench --workload recal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced pass plus
// single-threaded replays into each layer. See DESIGN.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// units names every metric the benchmark reports and its unit.
var units = map[string]string{
	"setup_s":           "s",
	"throughput_ops_s":  "1/s",
	"latency_p50_ms":    "ms",
	"latency_p90_ms":    "ms",
	"compression_ratio": "x",
	"worst_mse":         "1",
	"live_heap_mb":      "MB",

	"client.self_ms":               "ms",
	"client.req_kb":                "KiB",
	"client.resp_kb":               "KiB",
	"server.handler_ms":            "ms",
	"server.self_ms":               "ms",
	"server.peak_in_flight":        "count",
	"server.shed":                  "count",
	"server.write_errors":          "count",
	"service.compile_ms":           "ms",
	"service.encodes_per_op":       "count",
	"service.cache_hits_per_op":    "count",
	"service.dedup_ratio":          "x",
	"cache.digest_us":              "us",
	"cache.hit_ratio":              "ratio",
	"cache.evictions":              "count",
	"codec.encode_us":              "us",
	"codec.encode_ns_per_sample":   "ns",
	"codec.encodes":                "count",
	"core.serialize_us":            "us",
	"core.decode_us":               "us",
	"core.image_kb":                "KiB",
	"store.put_us":                 "us",
	"store.get_us":                 "us",
	"store.puts":                   "count",
	"store.put_dedups":             "count",
	"store.hits":                   "count",
	"store.misses":                 "count",
	"store.mmap_serves":            "count",
	"cluster.peer_hop_ms":          "ms",
	"cluster.forwarded":            "count",
	"cluster.peer_fills":           "count",
	"cluster.peer_errors":          "count",
	"cluster.peer_calls_per_fetch": "count",
	"engine.samples_s":             "1/s",
	"engine.dac_fraction":          "ratio",
	"engine.bandwidth_reduction":   "x",
	"engine.mem_words":             "count",
	"engine.idct_ops":              "count",
	"unattributed_ms":              "ms",
	"trace.overhead_ratio":         "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "recal, circuit-mix, image-get or cluster-fetch")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced pass")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	res, err := execute(cfg)
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func execute(cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.prepare(cfg.seed, dir); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	b := &runner{cfg: cfg, w: w, dir: dir}
	var vals map[string]float64
	if cfg.trace {
		vals, err = b.traced()
	} else {
		vals, err = b.measure()
	}
	if err != nil {
		return nil, err
	}
	ex := w.exact()
	b.failed += ex.overBudget
	if ex.overBudget > 0 {
		logf("%d entries exceed the MSE budget %g", ex.overBudget, mseBudget)
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.failed == 0 && b.attempted > 0
	for name, v := range vals {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return res, nil
}

// runner runs one workload's rounds and keeps the request tally.
type runner struct {
	cfg    config
	w      workload
	dir    string
	rounds int
	lcs    []*loadClient

	attempted, failed int
}

// minRounds is how many fresh rounds a timed run times at least, after
// its warm-up round; live_heap_mb is the median over the first
// minRounds.
const minRounds = 6

// roundResult is one round's measurements.
type roundResult struct {
	setup float64
	heap  float64
	phase phaseResult
}

// roundSpec shapes one round: its timed phase sends the n requests from
// index start. verify runs the output checks after it; heap measures
// live_heap_mb around it; a tracer traces the timed phase only.
type roundSpec struct {
	start, n int64
	verify   bool
	heap     bool
	tr       *tracer
}

// round sets up fresh nodes, runs one timed phase and tears the nodes
// down. With a tracer it also returns the counter deltas of the phase.
// The round's store directories are laid out before the setup clock
// starts, so setup_s counts the nodes' work, not the benchmark's copy.
func (b *runner) round(ctx context.Context, rs roundSpec) (*roundResult, *counters, error) {
	var heap0 float64
	if rs.heap {
		heap0 = liveHeap()
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("round%d", b.rounds))
	b.rounds++
	topo := b.w.topology()
	if err := layoutStores(dir, topo); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	rd, err := startRound(dir, topo, rs.tr)
	if err != nil {
		return nil, nil, err
	}
	lcs, tp := newLoadClients(rd, rs.tr, b.lcs)
	b.lcs = lcs
	defer func() {
		tp.CloseIdleConnections()
		if err := rd.close(); err != nil {
			logf("closing round: %v", err)
		}
	}()
	if err := b.w.setup(ctx, rd, lcs); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	rr := &roundResult{setup: time.Since(t0).Seconds()}
	var before counters
	if rs.tr != nil {
		if before, err = rd.stats(ctx, lcs[0].nodes); err != nil {
			return nil, nil, err
		}
	}
	runtime.GC()
	rr.phase = runPhase(ctx, b.w, lcs, rs.start, rs.start+rs.n, rs.tr)
	b.attempted += rr.phase.ok + rr.phase.failed
	b.failed += rr.phase.failed
	if rs.heap {
		rr.heap = liveHeap() - heap0
	}
	var delta *counters
	if rs.tr != nil {
		after, err := rd.stats(ctx, lcs[0].nodes)
		if err != nil {
			return nil, nil, err
		}
		d := after.sub(before)
		delta = &d
	}
	if rs.verify {
		checks, failed := b.w.verify(ctx, lcs)
		b.attempted += checks
		b.failed += failed
	}
	return rr, delta, nil
}

// timing is what a series of untraced rounds measured. Throughput and
// the latency quantiles pool every timed request of the series; setup
// is the median over its rounds and live heap over the first minRounds
// timed rounds (each reading costs two forced collections of the whole
// heap).
type timing struct {
	setup, throughput, p50, p90, heap float64
}

// timed runs a warm-up round and then timed rounds of the workload's
// fixed request count, until at least minRounds have been timed and
// their timed phases add up to total. Round r sends requests
// [r*n, (r+1)*n). The warm-up round 0 runs the output checks; of its
// figures only its setup time counts.
func (b *runner) timed(total time.Duration) (timing, error) {
	ctx := context.Background()
	per := b.w.perRound()
	var setup, heap, lat []float64
	var wall time.Duration
	ok := 0
	for r := 0; r <= minRounds || wall < total; r++ {
		warm := r == 0
		rr, _, err := b.round(ctx, roundSpec{start: int64(r) * per, n: per, verify: warm, heap: !warm && r <= minRounds})
		if err != nil {
			return timing{}, err
		}
		ph := rr.phase
		logf("round %d: setup %.3fs, %d ok + %d failed in %.3fs, p50 %.3fms, p90 %.3fms, heap %+.1f MB",
			r, rr.setup, ph.ok, ph.failed, ph.wall.Seconds(), ph.p50, ph.p90, rr.heap/(1<<20))
		setup = append(setup, rr.setup)
		if warm {
			continue
		}
		if r <= minRounds {
			heap = append(heap, rr.heap)
		}
		ok += ph.ok
		wall += ph.wall
		lat = append(lat, ph.lat...)
	}
	slices.Sort(lat)
	return timing{
		setup: median(setup), throughput: float64(ok) / wall.Seconds(),
		p50: quantile(lat, 0.5), p90: quantile(lat, 0.9), heap: median(heap),
	}, nil
}

// measure is an untraced run: the end-to-end metrics.
func (b *runner) measure() (map[string]float64, error) {
	tm, err := b.timed(time.Duration(b.cfg.seconds * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	ex := b.w.exact()
	return map[string]float64{
		"setup_s":           tm.setup,
		"throughput_ops_s":  tm.throughput,
		"latency_p50_ms":    tm.p50,
		"latency_p90_ms":    tm.p90,
		"compression_ratio": ex.ratio(),
		"worst_mse":         ex.worstMSE,
		"live_heap_mb":      tm.heap / (1 << 20),
	}, nil
}

// traced is a per-layer run: a warm-up round and untraced rounds for
// half of --seconds give the reference p50, then a fresh round runs the workload's fixed
// counting pass with spans on, then the single-threaded layer replays
// run.
func (b *runner) traced() (map[string]float64, error) {
	ref, err := b.timed(time.Duration(b.cfg.seconds / 2 * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	start, n := b.w.tracePass()
	rr, delta, err := b.round(context.Background(), roundSpec{start: start, n: n, verify: true, tr: tr})
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(b.cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := tr.dump(spans); err != nil {
		return nil, err
	}
	rp, err := runReplays(b.w.layers(), b.dir)
	if err != nil {
		return nil, fmt.Errorf("replays: %w", err)
	}
	return layerMetrics(b.w.layers(), rr.phase.ok, *delta, tr, rp, ref.p50, rr.phase.p50), nil
}

// liveHeap is the live Go heap after forced collections, in bytes. The
// second collection empties the sync.Pool victim caches the first one
// leaves behind.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
