package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"compaqt"
	"compaqt/codec"
	"compaqt/internal/cache"
	"compaqt/internal/store"
	"compaqt/qctrl"
)

// dacRate is the IBM-class DAC sample rate (complex samples per second)
// the engine's host throughput is compared against.
const dacRate = 4.54e9

// replays are the uncontended per-layer costs, measured single-threaded
// on the workload's own inputs by calling each layer's public API.
type replays struct {
	compileMS                    float64
	digestUS, encodeUS, encodeNS float64
	serializeUS, decodeUS        float64
	imageKB                      float64
	putUS, getUS                 float64
	samplesS, bandwidth          float64
	memWords, idctOps            float64
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

func runReplays(li *layerInputs, dir string) (*replays, error) {
	var rp replays
	ctx := context.Background()

	// compaqt Service: the compile pipeline with its cache warmed the
	// way the run warmed the server's.
	svc, err := compaqt.New()
	if err != nil {
		return nil, err
	}
	if len(li.warm) > 0 {
		if _, err := svc.CompileBatch(ctx, "warm", li.warm); err != nil {
			return nil, err
		}
	}
	var ns []float64
	for _, b := range li.batches {
		t := time.Now()
		if _, err := svc.CompileBatch(ctx, "batch", b); err != nil {
			return nil, err
		}
		ns = append(ns, since(t))
	}
	rp.compileMS = median(ns) / 1e6

	// internal/cache digests and the codec, on every distinct waveform.
	cdc, err := codec.New("intdct-w", codec.Params{})
	if err != nil {
		return nil, err
	}
	fp := cdc.Name()
	if f, ok := cdc.(codec.Fingerprinter); ok {
		fp = f.CacheKey()
	}
	seen := map[cache.Key]bool{}
	var digest, encode []float64
	var encodeSum, samples float64
	for _, b := range li.batches {
		for _, p := range b {
			f := p.Waveform.Quantize()
			t := time.Now()
			k := cache.DigestWaveform(fp, 0, f)
			digest = append(digest, since(t))
			if seen[k] {
				continue
			}
			seen[k] = true
			t = time.Now()
			if _, err := cdc.Encode(f); err != nil {
				return nil, err
			}
			d := since(t)
			encode = append(encode, d)
			encodeSum += d
			samples += float64(f.Samples())
		}
	}
	rp.digestUS = median(digest) / 1e3
	rp.encodeUS = median(encode) / 1e3
	rp.encodeNS = encodeSum / samples

	// internal/core wire format.
	var ser, dec []float64
	var buf []byte
	var bytes float64
	for _, img := range li.images {
		t := time.Now()
		buf, err = img.AppendTo(buf[:0])
		if err != nil {
			return nil, err
		}
		ser = append(ser, since(t))
		bytes += float64(len(buf))
		t = time.Now()
		if _, err := compaqt.DecodeImageBytes(buf); err != nil {
			return nil, err
		}
		dec = append(dec, since(t))
	}
	rp.serializeUS = median(ser) / 1e3
	rp.decodeUS = median(dec) / 1e3
	rp.imageKB = bytes / float64(len(li.images)) / 1024

	if err := rp.storeReplay(li.images, filepath.Join(dir, "replay-store")); err != nil {
		return nil, err
	}
	return &rp, rp.engineReplay(li.images)
}

// storeReplay publishes every image into a fresh store and reads each
// back.
func (rp *replays) storeReplay(imgs []*compaqt.Image, dir string) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var put, get []float64
	for i, img := range imgs {
		t := time.Now()
		if err := st.PutImage(fmt.Sprintf("r%d", i), img); err != nil {
			st.Close()
			return err
		}
		put = append(put, since(t))
	}
	for i := range imgs {
		t := time.Now()
		b, ok := st.Get(fmt.Sprintf("r%d", i))
		if !ok {
			st.Close()
			return fmt.Errorf("store replay: r%d not found", i)
		}
		b.Release()
		get = append(get, since(t))
	}
	rp.putUS = median(put) / 1e3
	rp.getUS = median(get) / 1e3
	return st.Close()
}

// engineReplay plays every entry through the decompression engine.
func (rp *replays) engineReplay(imgs []*compaqt.Image) error {
	engines := map[int]*qctrl.Engine{}
	var total qctrl.EngineStats
	var host, original float64
	for _, img := range imgs {
		eng := engines[img.WindowSize]
		if eng == nil {
			var err error
			if eng, err = qctrl.NewEngine(img.WindowSize); err != nil {
				return err
			}
			engines[img.WindowSize] = eng
		}
		for i := range img.Entries {
			c := img.Entries[i].Compressed
			t := time.Now()
			_, st, err := eng.Run(c)
			host += since(t)
			if err != nil {
				return err
			}
			total.Add(st)
			original += float64(c.OriginalWords())
		}
	}
	// SamplesOut counts both channels; the DAC rate counts I/Q pairs.
	rp.samplesS = float64(total.SamplesOut) / 2 / (host / 1e9)
	rp.bandwidth = original / float64(total.MemWords)
	rp.memWords = float64(total.MemWords)
	rp.idctOps = float64(total.IDCTOps)
	return nil
}

// layerMetrics assembles the per-layer metrics of a traced pass: n
// successful requests with counter deltas d, span times rt, replays rp,
// and the untraced and traced p50 latencies.
func layerMetrics(li *layerInputs, n int, d counters, tr *tracer, rp *replays, p50u, p50t float64) map[string]float64 {
	rt := tr.requestTimes()
	var clientSelf, serverSelf []float64
	var hops []float64
	for i := range rt.call {
		clientSelf = append(clientSelf, rt.call[i]-rt.handler[i])
		serverSelf = append(serverSelf, rt.handler[i]-rt.hop[i])
		if rt.hop[i] > 0 {
			hops = append(hops, rt.hop[i])
		}
	}
	compile := 0.0
	if li.compiles {
		compile = rp.compileMS
	}
	per := func(v uint64) float64 { return float64(v) / float64(n) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]float64{
		"client.self_ms":               median(clientSelf),
		"client.req_kb":                float64(tr.reqB.Load()) / float64(n) / 1024,
		"client.resp_kb":               float64(tr.respB.Load()) / float64(n) / 1024,
		"server.handler_ms":            median(rt.handler),
		"server.self_ms":               median(serverSelf) - compile,
		"server.peak_in_flight":        float64(d.peakInFlight),
		"server.shed":                  float64(d.shed),
		"server.write_errors":          float64(d.writeErrors),
		"service.compile_ms":           rp.compileMS,
		"service.encodes_per_op":       per(d.encodes),
		"service.cache_hits_per_op":    per(d.compileHits),
		"service.dedup_ratio":          ratio(d.pulses, d.encodes+d.compileHits),
		"cache.digest_us":              rp.digestUS,
		"cache.hit_ratio":              ratio(d.cacheHits, d.cacheHits+d.cacheMisses),
		"cache.evictions":              float64(d.evictions),
		"codec.encode_us":              rp.encodeUS,
		"codec.encode_ns_per_sample":   rp.encodeNS,
		"codec.encodes":                float64(d.encodes),
		"core.serialize_us":            rp.serializeUS,
		"core.decode_us":               rp.decodeUS,
		"core.image_kb":                rp.imageKB,
		"store.put_us":                 rp.putUS,
		"store.get_us":                 rp.getUS,
		"store.puts":                   float64(d.puts),
		"store.put_dedups":             float64(d.putDedups),
		"store.hits":                   float64(d.hits),
		"store.misses":                 float64(d.misses),
		"store.mmap_serves":            float64(d.mmap),
		"cluster.peer_hop_ms":          median(hops),
		"cluster.forwarded":            float64(d.forwarded),
		"cluster.peer_fills":           float64(d.fills),
		"cluster.peer_errors":          float64(d.peerErrors),
		"cluster.peer_calls_per_fetch": ratio(uint64(tr.peerGs.Load()), d.forwarded),
		"engine.samples_s":             rp.samplesS,
		"engine.dac_fraction":          rp.samplesS / dacRate,
		"engine.bandwidth_reduction":   rp.bandwidth,
		"engine.mem_words":             rp.memWords,
		"engine.idct_ops":              rp.idctOps,
		"trace.overhead_ratio":         p50t / p50u,
	}
	// The spans tile each request, so this is the untraced p50 minus the
	// traced one up to median arithmetic: what tracing costs, not time
	// that no span covers. It reads negative when tracing slows requests.
	m["unattributed_ms"] = p50u - m["client.self_ms"] - m["server.self_ms"] - compile - m["cluster.peer_hop_ms"]
	return m
}
