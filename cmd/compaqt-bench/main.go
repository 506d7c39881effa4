// compaqt-bench sweeps the benchmark-circuit catalog across codecs:
// for every (family, qubit count, codec, window) combination it
// generates the instance, lowers it through transpile/schedule onto
// the machine's calibrated pulse library, compiles the scheduled
// pulse stream as one deduplicated batch, and reports compression
// ratio, worst round-trip MSE and compile latency — as a text table
// and optionally a BENCH_*-compatible JSON record.
//
// Usage:
//
//	compaqt-bench -machine ibmq_guadalupe -families ghz,qft -qubits 4,8,16
//	compaqt-bench -codecs intdct-w -ws 8,16,32 -json BENCH_sweep.json
//	compaqt-bench -list          # show the catalog and exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"compaqt"
	"compaqt/bench"
	"compaqt/codec"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// windowed lists the codecs that accept a window-size parameter; the
// rest reject WithWindow and sweep a single unwindowed configuration.
var windowed = map[string]bool{"dct-w": true, "intdct-w": true}

type row struct {
	Family   string  `json:"family"`
	Qubits   int     `json:"qubits"`
	Codec    string  `json:"codec"`
	Window   int     `json:"window,omitempty"`
	Pulses   int     `json:"pulses"`
	Encodes  int     `json:"encodes"`
	Ratio    float64 `json:"ratio_x"`
	WorstMSE float64 `json:"worst_mse"`
	NsOp     int64   `json:"ns_op"`
}

func main() {
	machine := flag.String("machine", "ibmq_guadalupe", "catalog machine name")
	families := flag.String("families", "", "comma-separated family names (default: all registered)")
	qubits := flag.String("qubits", "4,8", "comma-separated qubit counts to sweep")
	codecs := flag.String("codecs", "", "comma-separated codec names (default: all registered)")
	windows := flag.String("ws", "16", "comma-separated window sizes for windowed codecs")
	seed := flag.Int64("seed", 1, "circuit generation seed")
	jsonOut := flag.String("json", "", "write a BENCH_*-compatible JSON record to this path")
	list := flag.Bool("list", false, "list the family catalog and exit")
	flag.Parse()

	if *list {
		for _, f := range bench.Catalog() {
			max := "-"
			if f.MaxQubits != 0 {
				max = strconv.Itoa(f.MaxQubits)
			}
			fmt.Printf("%-16s %2d..%-3s %-10s %s\n", f.Name, f.MinQubits, max, f.DepthClass, f.Description)
		}
		return
	}

	m, err := qctrl.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	famNames := splitList(*families)
	if len(famNames) == 0 {
		famNames = bench.Names()
	}
	codecNames := splitList(*codecs)
	if len(codecNames) == 0 {
		codecNames = codec.Names()
	}
	var ns []int
	for _, s := range splitList(*qubits) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad qubit count %q", s))
		}
		if n > m.Qubits {
			fatal(fmt.Errorf("%d qubits exceeds %s's %d", n, m.Name, m.Qubits))
		}
		ns = append(ns, n)
	}
	var wss []int
	for _, s := range splitList(*windows) {
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			fatal(fmt.Errorf("bad window size %q", s))
		}
		wss = append(wss, w)
	}

	fams := make([]bench.Family, len(famNames))
	for i, famName := range famNames {
		f, err := bench.Get(famName)
		if err != nil {
			fatal(err)
		}
		fams[i] = f
	}

	var rows []row
	fmt.Printf("%-16s %3s  %-10s %3s  %7s %7s %8s %10s %10s\n",
		"family", "n", "codec", "ws", "pulses", "encodes", "ratio", "worst-mse", "latency")
	for _, fam := range fams {
		for _, n := range ns {
			if !fam.Supports(n) {
				continue
			}
			c, err := fam.Generate(n, *seed)
			if err != nil {
				fatal(err)
			}
			pulses, err := bench.PulsesFor(m, c)
			if err != nil {
				fatal(err)
			}
			for _, codecName := range codecNames {
				sweeps := []int{0}
				if windowed[codecName] {
					sweeps = wss
				}
				for _, ws := range sweeps {
					r, err := compileOne(m.Name, c.Name, fam.Name, n, codecName, ws, pulses)
					if err != nil {
						fatal(err)
					}
					rows = append(rows, r)
					wsCol := "-"
					if ws > 0 {
						wsCol = strconv.Itoa(ws)
					}
					fmt.Printf("%-16s %3d  %-10s %3s  %7d %7d %7.2fx %10.2e %10s\n",
						r.Family, r.Qubits, r.Codec, wsCol, r.Pulses, r.Encodes,
						r.Ratio, r.WorstMSE, time.Duration(r.NsOp).Round(time.Microsecond))
				}
			}
		}
	}
	if len(rows) == 0 {
		fatal(fmt.Errorf("sweep matched no (family, qubits) combination"))
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, m.Name, *seed, rows); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(rows), *jsonOut)
	}
}

// compileOne batches the instance's scheduled pulses through a fresh
// Service configured for the codec, then decodes every image entry
// against its source waveform for the worst round-trip MSE. The
// compile cache is enabled so its miss count reports how many distinct
// waveforms the batch deduplicator actually encoded.
func compileOne(machine, instance, family string, n int, codecName string, ws int, pulses []*qctrl.Pulse) (row, error) {
	opts := []compaqt.Option{compaqt.WithCodec(codecName), compaqt.WithCache(4096)}
	if ws > 0 {
		opts = append(opts, compaqt.WithWindow(ws))
	}
	svc, err := compaqt.New(opts...)
	if err != nil {
		return row{}, err
	}
	start := time.Now()
	img, err := svc.CompileBatch(context.Background(), machine+"/"+instance, pulses)
	if err != nil {
		return row{}, fmt.Errorf("%s n=%d %s ws=%d: %w", family, n, codecName, ws, err)
	}
	elapsed := time.Since(start)

	source := map[string]*waveform.Fixed{}
	for _, p := range pulses {
		if _, ok := source[p.Key()]; !ok {
			source[p.Key()] = p.Waveform.Quantize()
		}
	}
	worst := 0.0
	cdc := svc.Codec()
	for i := range img.Entries {
		e := &img.Entries[i]
		dec, err := cdc.Decode(e.Compressed)
		if err != nil {
			return row{}, fmt.Errorf("decoding %s: %w", e.Key, err)
		}
		f, ok := source[e.Key]
		if !ok {
			return row{}, fmt.Errorf("image entry %s not in the batch", e.Key)
		}
		if mse := waveform.MSEFixed(f, dec); mse > worst {
			worst = mse
		}
	}
	st := img.Stats()
	return row{
		Family:   family,
		Qubits:   n,
		Codec:    codecName,
		Window:   ws,
		Pulses:   len(pulses),
		Encodes:  int(svc.CacheStats().Misses),
		Ratio:    st.PackedRatio,
		WorstMSE: worst,
		NsOp:     elapsed.Nanoseconds(),
	}, nil
}

type benchRecord struct {
	Description string           `json:"description"`
	Environment map[string]any   `json:"environment"`
	Benchmarks  []benchmarkEntry `json:"benchmarks"`
}

type benchmarkEntry struct {
	Name  string `json:"name"`
	After row    `json:"after"`
	Note  string `json:"note,omitempty"`
}

func writeJSON(path, machine string, seed int64, rows []row) error {
	rec := benchRecord{
		Description: fmt.Sprintf(
			"compaqt-bench sweep on %s (circuit seed %d): catalog instances lowered through transpile/schedule and batch-compiled per codec; ratio is the image's packed compression ratio, worst_mse the worst per-entry round-trip MSE, ns_op the CompileBatch wall time.",
			machine, seed),
		Environment: map[string]any{
			"goos":    runtime.GOOS,
			"goarch":  runtime.GOARCH,
			"go":      runtime.Version(),
			"command": strings.Join(os.Args, " "),
		},
	}
	for _, r := range rows {
		name := fmt.Sprintf("bench/%s/n%d/%s", r.Family, r.Qubits, r.Codec)
		if r.Window > 0 {
			name += fmt.Sprintf("/w%d", r.Window)
		}
		rec.Benchmarks = append(rec.Benchmarks, benchmarkEntry{Name: name, After: r})
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compaqt-bench:", err)
	os.Exit(1)
}
