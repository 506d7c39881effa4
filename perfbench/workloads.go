package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"compaqt"
	"compaqt/bench"
	"compaqt/client"
	"compaqt/internal/store"
	"compaqt/qctrl"
)

// workload is one seeded request stream and the checks on its outputs.
// Request indices are global across a run's rounds; a round is one set
// of fresh nodes.
type workload interface {
	// prepare builds every seeded input, keeping any files it needs
	// under dir. It runs before any node exists and is not part of
	// setup_s.
	prepare(seed uint64, dir string) error
	// topology shapes the nodes of a round.
	topology() topology
	// setup preloads and warms a fresh round through the public API.
	setup(ctx context.Context, r *round, lcs []*loadClient) error
	// perRound is the fixed number of timed requests of one round.
	perRound() int64
	// issue sends request k from lc and keeps its reply in lc; check
	// verifies the reply after the latency clock has stopped.
	issue(ctx context.Context, lc *loadClient, k int64) error
	check(lc *loadClient, k int64) error
	// verify runs the output checks that belong outside the timed
	// phase on the round still up; it returns checks made and failed.
	verify(ctx context.Context, lcs []*loadClient) (int, int)
	// exact is R and worst MSE over the fixed request set.
	exact() *exactMetrics
	// tracePass is the index range of the traced counting pass, run on
	// a fresh round.
	tracePass() (start, n int64)
	// layers is what the per-layer replays run on.
	layers() *layerInputs
}

// topology is the node set of a round.
type topology struct {
	nodes     int
	clustered bool
	// memImages, when nonzero, runs the nodes without a store and with
	// this in-memory image cap instead of the default.
	memImages int
	// storeTemplate, when set, is a store directory copied in as each
	// node's store before the node starts.
	storeTemplate string
}

// layerInputs feed the single-threaded per-layer replays.
type layerInputs struct {
	// batches are compile inputs; warm pre-fills the replay cache the
	// way the run's warm-up filled the server's.
	batches [][]*qctrl.Pulse
	warm    []*qctrl.Pulse
	// images are the images the workload serves or compiles.
	images []*compaqt.Image
	// compiles reports whether the served path compiles at all.
	compiles bool
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "recal":
		return &recal{}, nil
	case "circuit-mix":
		return &circuitMix{}, nil
	case "image-get":
		return &imageGet{}, nil
	case "cluster-fetch":
		return &clusterFetch{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want recal, circuit-mix, image-get or cluster-fetch)", name)
}

// --- recal -----------------------------------------------------------

// recalBlock is one block of recal requests: every machine of recalMix
// as a pair. The fixed request set, verified byte for byte and measured
// for R, is the first block of every run; a round is three blocks.
const (
	recalBlock    = 2 * int64(len(recalMix))
	recalFixed    = recalBlock
	recalPerRound = 3 * recalBlock
)

// recalWarm is where recal's warm-up and traced-pass indices start:
// far past any timed index, so their drifts never recur in the timed
// phase, and a multiple of recalBlock, so they start on a block.
const recalWarm = 1_000_000_000_000

// recal recalibrates a fleet of 2*len(recalMix) devices, one block of
// requests per sweep: each request recompiles one device's whole
// machine library after a fresh seeded drift and stores it under the
// device's name, overwriting the device's previous version.
//
// Devices come in pairs of one machine, and a pair's two requests are
// adjacent, so the two clients recompile libraries of one size at a
// time. Sizes span 23 to 137 pulses; dealt one by one, a request's
// latency depended on which size the other client happened to be
// sending, and that changed from run to run. Each block sweeps the
// fleet in the same seeded order, so two requests in flight never bind
// one name.
//
// The node has no store. On a store in the checkout every compile
// paid two fsyncs (object and manifest) on a disk shared with other
// tenants, whose p90 fsync went from 0.5 ms to 4 ms between two probes
// seconds apart. The server's image map still takes every write.
type recal struct {
	seed  uint64
	libs  map[string]*library
	order []int
	refs  []*reference
	ex    exactMetrics
	li    layerInputs
	warms int64
}

func (w *recal) topology() topology   { return topology{nodes: 1, memImages: 128} }
func (w *recal) perRound() int64      { return recalPerRound }
func (w *recal) exact() *exactMetrics { return &w.ex }
func (w *recal) layers() *layerInputs { return &w.li }
func (w *recal) tracePass() (int64, int64) {
	return 2 * recalWarm, recalFixed
}

// device is request k's device: pair order[k/2 mod len(recalMix)] of
// the fleet, and one of that pair's two devices.
func (w *recal) device(k int64) (machine, name string) {
	g := w.order[(k/2)%int64(len(recalMix))]
	return recalMix[g], fmt.Sprintf("%s-%d", recalMix[g], 2*g+int(k%2))
}

func (w *recal) lib(k int64) *library {
	m, _ := w.device(k)
	return w.libs[m]
}

// specs writes request k into buf.
func (w *recal) specs(buf []client.PulseSpec, k int64) []client.PulseSpec {
	return w.lib(k).driftInto(buf, mix(w.seed, 'r', uint64(k)))
}

func (w *recal) prepare(seed uint64, _ string) error {
	w.seed = seed
	libs, err := libraries()
	if err != nil {
		return err
	}
	w.libs = libs
	w.order = perm(len(recalMix), mix(seed, 'o'))
	svc, err := compaqt.New()
	if err != nil {
		return err
	}
	for k := range recalFixed {
		pulses, err := pulsesOf(w.specs(nil, k))
		if err != nil {
			return err
		}
		_, name := w.device(k)
		ref, err := compileReference(svc, name, pulses)
		if err != nil {
			return err
		}
		if err := w.ex.addImage(ref.img, pulses); err != nil {
			return err
		}
		w.refs = append(w.refs, ref)
		w.li.batches = append(w.li.batches, pulses)
		w.li.images = append(w.li.images, ref.img)
	}
	w.li.compiles = true
	return nil
}

// warmIndices are the requests that warm round n's node: one of each
// machine in a block, under drifts the timed phase never sends.
func (w *recal) warmIndices(n int64) []int64 {
	base := recalWarm + recalBlock*n
	var ks []int64
	seen := map[string]bool{}
	for k := base; k < base+recalBlock; k += 2 {
		if m := w.lib(k).machine; !seen[m] {
			seen[m] = true
			ks = append(ks, k)
		}
	}
	return ks
}

func (w *recal) setup(ctx context.Context, r *round, lcs []*loadClient) error {
	w.warms++
	for _, k := range w.warmIndices(w.warms) {
		if err := w.issue(ctx, lcs[0], k); err != nil {
			return err
		}
		if err := w.check(lcs[0], k); err != nil {
			return err
		}
	}
	return nil
}

func (w *recal) issue(ctx context.Context, lc *loadClient, k int64) error {
	lc.specs = w.specs(lc.specs, k)
	_, name := w.device(k)
	resp, err := lc.nodes[0].CompileBatch(ctx, client.BatchRequest{Image: name, Pulses: lc.specs})
	lc.batch = resp
	return err
}

// check verifies the reply's shape: codec, one entry per pulse in
// order, and the library's uncompressed size.
func (w *recal) check(lc *loadClient, k int64) error {
	lib, resp := w.lib(k), lc.batch
	if resp.Codec != "intdct-w" || len(resp.Entries) != len(lib.keys) || resp.Stats.OriginalWords != lib.words {
		return fmt.Errorf("recal %d: reply codec %q, %d entries, %d words; want intdct-w, %d, %d",
			k, resp.Codec, len(resp.Entries), resp.Stats.OriginalWords, len(lib.keys), lib.words)
	}
	for i, e := range resp.Entries {
		if e.Key != lib.keys[i] {
			return fmt.Errorf("recal %d: entry %d is %q, want %q", k, i, e.Key, lib.keys[i])
		}
	}
	return nil
}

func (w *recal) verify(ctx context.Context, lcs []*loadClient) (int, int) {
	return verifyCompiles(ctx, lcs[0].nodes[0], w.refs, func(k int) client.BatchRequest {
		_, name := w.device(int64(k))
		return client.BatchRequest{Image: name, Pulses: w.specs(nil, int64(k))}
	})
}

// verifyCompiles resends each fixed request, built by req, with the
// image in the reply, and compares that image with the in-process
// reference compile. It returns the checks made and failed.
func verifyCompiles(ctx context.Context, c *client.Client, refs []*reference, req func(i int) client.BatchRequest) (int, int) {
	failed := 0
	for i, ref := range refs {
		r := req(i)
		r.IncludeImage = true
		resp, err := c.CompileBatch(ctx, r)
		if err == nil {
			err = sameImage(resp, ref)
		}
		if err != nil {
			logf("verify request %d: %v", i, err)
			failed++
		}
	}
	return len(refs), failed
}

// sameImage checks a compile reply that carries its image against the
// in-process reference.
func sameImage(resp *client.BatchResponse, ref *reference) error {
	wire, err := base64.StdEncoding.DecodeString(resp.ImageB64)
	if err != nil {
		return err
	}
	if !bytes.Equal(wire, ref.wire) {
		return fmt.Errorf("served image (%d bytes) differs from the in-process compile (%d bytes)", len(wire), len(ref.wire))
	}
	if resp.Stats != ref.stats {
		return fmt.Errorf("served stats %+v differ from the in-process compile %+v", resp.Stats, ref.stats)
	}
	return nil
}

// --- circuit-mix -----------------------------------------------------

// circuitFixed is the number of distinct circuit requests; the timed
// phase cycles through seeded permutations of them, two per round.
const circuitFixed = 32

// circuitMinSamples and circuitMaxSamples bound the scheduled samples
// of a kept circuit, which set its JSON size and so its cost. Unbanded,
// the mean request size of a 32-circuit set moved 2x between seeds;
// banded by pulse count it still moved ±20%, and throughput with it.
// Within this band a set's mean request is 44-47k samples (about 50
// pulses, 1.8 MB of JSON) whatever the seed.
const circuitMinSamples, circuitMaxSamples = 40_000, 52_000

// circuitMix submits scheduled circuits as unnamed batches; after the
// warm-up every waveform is in the compile cache. Its node runs without
// a store: the server binds every unnamed batch to the one name
// "batch", and on a store each rebinding appends to the manifest and
// fsyncs it, a disk cost that is not this workload's subject.
type circuitMix struct {
	specs   [][]client.PulseSpec
	refs    []*reference
	seq     []int
	library []client.PulseSpec
	ex      exactMetrics
	li      layerInputs
}

func (w *circuitMix) topology() topology   { return topology{nodes: 1, memImages: 128} }
func (w *circuitMix) perRound() int64      { return 2 * circuitFixed }
func (w *circuitMix) exact() *exactMetrics { return &w.ex }
func (w *circuitMix) layers() *layerInputs { return &w.li }
func (w *circuitMix) tracePass() (int64, int64) {
	return 0, circuitFixed
}

func (w *circuitMix) prepare(seed uint64, _ string) error {
	m := qctrl.Guadalupe()
	wl, err := bench.NewWorkload(bench.WorkloadOptions{
		Machine: m, MinQubits: 3, MaxQubits: 8, RepeatSkew: 0.5, Seed: int64(mix(seed, 'w') >> 1),
	})
	if err != nil {
		return err
	}
	var reqs []*bench.Request
	for len(reqs) < circuitFixed {
		req, err := wl.Next()
		if err != nil {
			return err
		}
		n := 0
		for _, p := range req.Pulses {
			n += len(p.Waveform.I)
		}
		if n >= circuitMinSamples && n <= circuitMaxSamples {
			reqs = append(reqs, req)
		}
	}
	svc, err := compaqt.New()
	if err != nil {
		return err
	}
	for _, p := range m.Library() {
		w.library = append(w.library, client.FromPulse(p))
		w.li.warm = append(w.li.warm, p)
	}
	for _, req := range reqs {
		specs := make([]client.PulseSpec, len(req.Pulses))
		for i, p := range req.Pulses {
			specs[i] = client.FromPulse(p)
		}
		// The server compiles unnamed batches under the name "batch".
		ref, err := compileReference(svc, "batch", req.Pulses)
		if err != nil {
			return err
		}
		if err := w.ex.addImage(ref.img, req.Pulses); err != nil {
			return err
		}
		w.specs = append(w.specs, specs)
		w.refs = append(w.refs, ref)
		w.li.batches = append(w.li.batches, req.Pulses)
		w.li.images = append(w.li.images, ref.img)
	}
	for p := range 16 {
		w.seq = append(w.seq, perm(circuitFixed, mix(seed, 'c', uint64(p)))...)
	}
	w.li.compiles = true
	return nil
}

// setup compiles the full library once, which puts every waveform the
// circuits schedule into the compile cache, then sends the first two
// circuits of the set.
func (w *circuitMix) setup(ctx context.Context, r *round, lcs []*loadClient) error {
	if _, err := lcs[0].nodes[0].CompileBatch(ctx, client.BatchRequest{Pulses: w.library}); err != nil {
		return err
	}
	for i, lc := range lcs {
		resp, err := lc.nodes[0].CompileBatch(ctx, client.BatchRequest{Pulses: w.specs[i]})
		if err != nil {
			return err
		}
		if resp.Stats != w.refs[i].stats {
			return fmt.Errorf("circuit %d: warm-up stats %+v, want %+v", i, resp.Stats, w.refs[i].stats)
		}
	}
	return nil
}

// request maps index k to its circuit.
func (w *circuitMix) request(k int64) int { return w.seq[k%int64(len(w.seq))] }

func (w *circuitMix) issue(ctx context.Context, lc *loadClient, k int64) error {
	resp, err := lc.nodes[0].CompileBatch(ctx, client.BatchRequest{Pulses: w.specs[w.request(k)]})
	lc.batch = resp
	return err
}

// check compares the reply's summary with the in-process compile.
func (w *circuitMix) check(lc *loadClient, k int64) error {
	i := w.request(k)
	resp := lc.batch
	if resp.Codec != "intdct-w" || len(resp.Entries) != len(w.specs[i]) || resp.Stats != w.refs[i].stats {
		return fmt.Errorf("circuit %d: reply codec %q, %d entries, stats %+v; want intdct-w, %d, %+v",
			i, resp.Codec, len(resp.Entries), resp.Stats, len(w.specs[i]), w.refs[i].stats)
	}
	return nil
}

func (w *circuitMix) verify(ctx context.Context, lcs []*loadClient) (int, int) {
	return verifyCompiles(ctx, lcs[0].nodes[0], w.refs, func(i int) client.BatchRequest {
		return client.BatchRequest{Pulses: w.specs[i]}
	})
}

// --- published image sets --------------------------------------------

// imageSet is a set of named images with distinct content, assembled
// entry by entry from a pool of compiled drifted libraries.
type imageSet struct {
	names []string
	imgs  []*compaqt.Image
	wires [][]byte
}

// poolVariants is the number of drifted compiles per machine in a pool.
const poolVariants = 4

// buildImageSet compiles poolVariants drifts of each machine in
// machines and assembles n images: image i takes machine pick(i), and
// each of its entries comes from a seeded variant, so no two images
// share content. It folds every entry into ex and returns the pool's
// compile inputs.
func buildImageSet(seed uint64, prefix string, n int, pick func(i int) string, ex *exactMetrics) (*imageSet, [][]*qctrl.Pulse, error) {
	svc, err := compaqt.New()
	if err != nil {
		return nil, nil, err
	}
	type variant struct {
		img    *compaqt.Image
		pulses []*qctrl.Pulse
		mse    []float64
	}
	pool := map[string][]variant{}
	var batches [][]*qctrl.Pulse
	set := &imageSet{}
	for i := range n {
		machine := pick(i)
		vs, ok := pool[machine]
		if !ok {
			lib, err := loadLibrary(machine)
			if err != nil {
				return nil, nil, err
			}
			for v := range poolVariants {
				pulses, err := pulsesOf(lib.driftInto(nil, mix(seed, 'p', uint64(len(batches)), uint64(v))))
				if err != nil {
					return nil, nil, err
				}
				img, err := svc.CompileBatch(context.Background(), machine, pulses)
				if err != nil {
					return nil, nil, err
				}
				vr := variant{img: img, pulses: pulses}
				for j := range img.Entries {
					mse, err := entryMSE(&img.Entries[j], pulses[j])
					if err != nil {
						return nil, nil, err
					}
					vr.mse = append(vr.mse, mse)
				}
				vs = append(vs, vr)
				batches = append(batches, pulses)
			}
			pool[machine] = vs
		}
		name := fmt.Sprintf("%s-%04d", prefix, i)
		img := &compaqt.Image{Machine: name, WindowSize: vs[0].img.WindowSize}
		for j := range vs[0].img.Entries {
			v := vs[mix(seed, 'e', uint64(i), uint64(j))%poolVariants]
			img.Entries = append(img.Entries, v.img.Entries[j])
			ex.addMSE(v.mse[j])
		}
		st := img.Stats()
		ex.original += st.OriginalWords
		ex.packed += st.PackedWords
		wire, err := img.AppendTo(nil)
		if err != nil {
			return nil, nil, err
		}
		set.names = append(set.names, name)
		set.imgs = append(set.imgs, img)
		set.wires = append(set.wires, wire)
	}
	return set, batches, nil
}

// getInto reads image name from c into lc.buf without allocating a
// body buffer.
func getInto(ctx context.Context, c *client.Client, lc *loadClient, name string) error {
	rc, n, err := c.ImageReader(ctx, name)
	if err != nil {
		return err
	}
	defer rc.Close()
	if n < 0 || n > int64(len(lc.buf)) {
		return fmt.Errorf("image %s: declared length %d outside [0, %d]", name, n, len(lc.buf))
	}
	if _, err := io.ReadFull(rc, lc.buf[:n]); err != nil {
		return fmt.Errorf("image %s: %w", name, err)
	}
	// Read to EOF so the connection returns to the pool.
	var tail [1]byte
	if m, err := rc.Read(tail[:]); m > 0 || !errors.Is(err, io.EOF) {
		return fmt.Errorf("image %s: body longer than its declared %d bytes", name, n)
	}
	lc.n = int(n)
	return nil
}

// checkBody compares the last body read with the published bytes.
func checkBody(lc *loadClient, name string, want []byte) error {
	if !bytes.Equal(lc.buf[:lc.n], want) {
		return fmt.Errorf("image %s: served %d bytes that differ from the %d published", name, lc.n, len(want))
	}
	return nil
}

// publish PUTs every image of set on the node owner(i) picks, two
// clients at a time.
func publish(ctx context.Context, lcs []*loadClient, set *imageSet, owner func(i int) int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lcs))
	for c, lc := range lcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(set.names); i += len(lcs) {
				if err := lc.nodes[owner(i)].PutImageRaw(ctx, set.names[i], set.wires[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func maxWire(set *imageSet) int {
	n := 0
	for _, w := range set.wires {
		n = max(n, len(w))
	}
	return n
}

// --- image-get -------------------------------------------------------

// imageNames is twice the server's default in-memory image cap, so half
// the reads come from the map and half from the mmap store.
const imageNames = 256

// imageSeqPasses is how many seeded permutations of the names make up
// the request sequence; a round sends the sequence imageSeqRounds times.
const imageSeqPasses, imageSeqRounds = 16, 8

// imageGet reads published full-library images by name.
type imageGet struct {
	set      *imageSet
	seq      []int
	template string
	ex       exactMetrics
	li       layerInputs
}

func (w *imageGet) topology() topology {
	return topology{nodes: 1, storeTemplate: w.template}
}
func (w *imageGet) perRound() int64      { return imageSeqRounds * imageSeqPasses * imageNames }
func (w *imageGet) exact() *exactMetrics { return &w.ex }
func (w *imageGet) layers() *layerInputs { return &w.li }

// tracePass is the sequence's first permutation: every name once.
func (w *imageGet) tracePass() (int64, int64) { return 0, imageNames }

// prepare also writes every image once into a template store. Each
// round's node starts on a copy of it, so the round's publishes find
// their content already stored: a publish then costs its decode,
// validation and map insert, and no fsync. Publishing into an empty
// store on the shared disk made setup_s track the disk's fsync latency,
// which moved 3x within an hour.
func (w *imageGet) prepare(seed uint64, dir string) error {
	set, batches, err := buildImageSet(seed, "img", imageNames,
		func(i int) string { return mixMachine(seed, int64(i)) }, &w.ex)
	if err != nil {
		return err
	}
	w.set = set
	for p := range imageSeqPasses {
		w.seq = append(w.seq, perm(imageNames, mix(seed, 's', uint64(p)))...)
	}
	w.li = layerInputs{batches: batches, images: set.imgs}
	w.template = filepath.Join(dir, "image-store")
	st, err := store.Open(w.template, 0)
	if err != nil {
		return err
	}
	for i, img := range set.imgs {
		if err := st.PutImage(set.names[i], img); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// setup publishes every image in name order from one client, so the
// in-memory map ends up holding exactly the second half (the store
// already holds them all), then reads each once, which also fills the
// server's wire cache for that half.
func (w *imageGet) setup(ctx context.Context, r *round, lcs []*loadClient) error {
	for _, lc := range lcs {
		if len(lc.buf) < maxWire(w.set) {
			lc.buf = make([]byte, maxWire(w.set))
		}
	}
	if err := publish(ctx, lcs[:1], w.set, func(int) int { return 0 }); err != nil {
		return err
	}
	for i, name := range w.set.names {
		if err := getInto(ctx, lcs[0].nodes[0], lcs[0], name); err != nil {
			return err
		}
		if err := checkBody(lcs[0], name, w.set.wires[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *imageGet) issue(ctx context.Context, lc *loadClient, k int64) error {
	return getInto(ctx, lc.nodes[0], lc, w.set.names[w.seq[k%int64(len(w.seq))]])
}

func (w *imageGet) check(lc *loadClient, k int64) error {
	i := w.seq[k%int64(len(w.seq))]
	return checkBody(lc, w.set.names[i], w.set.wires[i])
}

// verify: every timed GET was already compared byte for byte.
func (w *imageGet) verify(context.Context, []*loadClient) (int, int) { return 0, 0 }

// --- cluster-fetch ---------------------------------------------------

// fetchNames is the number of names one cluster round publishes; each
// is fetched cold through each of its two non-owners, so a round times
// 2*fetchNames fetches. fetchWarm more names warm the forwarding path
// in setup.
const (
	fetchNames = 2048
	fetchWarm  = 32
)

// fetchMix: the fetched images are 5-qubit libraries (about 21 KB).
var fetchMix = []string{"ibmq_bogota", "ibmq_lima"}

// clusterFetch publishes distinct images to their ring owners on a
// fresh three-node cluster and fetches each once, cold, through each
// node that does not own it: a forward, a decode-validate and a fill.
type clusterFetch struct {
	seed  uint64
	set   *imageSet
	order []int
	owner []int
	ex    exactMetrics
	li    layerInputs
}

func (w *clusterFetch) topology() topology {
	return topology{nodes: 3, clustered: true, memImages: 2 * (fetchNames + fetchWarm)}
}
func (w *clusterFetch) perRound() int64      { return 2 * fetchNames }
func (w *clusterFetch) exact() *exactMetrics { return &w.ex }
func (w *clusterFetch) layers() *layerInputs { return &w.li }
func (w *clusterFetch) tracePass() (int64, int64) {
	return 0, 2 * fetchNames
}

func (w *clusterFetch) prepare(seed uint64, _ string) error {
	w.seed = seed
	set, batches, err := buildImageSet(seed, "obj", fetchNames+fetchWarm,
		func(i int) string { return fetchMix[mix(seed, 'm', uint64(i))%2] }, &w.ex)
	if err != nil {
		return err
	}
	w.set = set
	w.order = perm(fetchNames, mix(seed, 'o'))
	w.li = layerInputs{batches: batches, images: set.imgs[:fetchNames]}
	return nil
}

// fetcher is the node name i is fetched through on the given pass: a
// seeded coin picks which non-owner goes first, the other goes second.
func (w *clusterFetch) fetcher(i, pass int) int {
	coin := int(mix(w.seed, 'f', uint64(i)) % 2)
	return (w.owner[i] + 1 + (coin ^ pass)) % 3
}

// request maps index k to its name and pass: the first fetchNames
// indices of a round go through the first non-owner, the rest through
// the second.
func (w *clusterFetch) request(k int64) (int, int) {
	k %= 2 * fetchNames
	return w.order[k%fetchNames], int(k / fetchNames)
}

func (w *clusterFetch) setup(ctx context.Context, r *round, lcs []*loadClient) error {
	w.owner = make([]int, len(w.set.names))
	for i, name := range w.set.names {
		w.owner[i] = -1
		for j, nd := range r.nodes {
			if nd.srv.Cluster().Owns(name) {
				w.owner[i] = j
			}
		}
		if w.owner[i] < 0 {
			return fmt.Errorf("no node owns %s", name)
		}
	}
	for _, lc := range lcs {
		if len(lc.buf) < maxWire(w.set) {
			lc.buf = make([]byte, maxWire(w.set))
		}
	}
	if err := publish(ctx, lcs, w.set, func(i int) int { return w.owner[i] }); err != nil {
		return err
	}
	for i := fetchNames; i < len(w.set.names); i++ {
		lc := lcs[i%len(lcs)]
		if err := getInto(ctx, lc.nodes[w.fetcher(i, 0)], lc, w.set.names[i]); err != nil {
			return err
		}
		if err := checkBody(lc, w.set.names[i], w.set.wires[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *clusterFetch) issue(ctx context.Context, lc *loadClient, k int64) error {
	i, pass := w.request(k)
	return getInto(ctx, lc.nodes[w.fetcher(i, pass)], lc, w.set.names[i])
}

func (w *clusterFetch) check(lc *loadClient, k int64) error {
	i, _ := w.request(k)
	return checkBody(lc, w.set.names[i], w.set.wires[i])
}

// verify reads every name back from both nodes that filled it: each
// fill must hold exactly the published bytes.
func (w *clusterFetch) verify(ctx context.Context, lcs []*loadClient) (int, int) {
	failed := 0
	for i := range fetchNames {
		name := w.set.names[i]
		for pass := range 2 {
			err := getInto(ctx, lcs[0].nodes[w.fetcher(i, pass)], lcs[0], name)
			if err == nil {
				err = checkBody(lcs[0], name, w.set.wires[i])
			}
			if err != nil {
				logf("cluster-fetch verify %s: %v", name, err)
				failed++
			}
		}
	}
	return 2 * fetchNames, failed
}
