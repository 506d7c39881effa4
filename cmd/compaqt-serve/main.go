// compaqt-serve runs the COMPAQT compile service over HTTP/JSON: a
// network front end to the compile pipeline (codec registry, worker
// pool, content-addressed cache) for clients that submit calibrated
// pulses and fetch compiled waveform-memory images.
//
// Usage:
//
//	compaqt-serve -addr :8371
//	compaqt-serve -codec intdct-w -ws 16 -cache 4096 -parallelism 8
//	compaqt-serve -max-inflight 16 -max-body 67108864
//	compaqt-serve -store-dir /var/lib/compaqt -store-max-bytes 1073741824
//	compaqt-serve -self http://10.0.0.1:8371 \
//	  -join http://10.0.0.2:8371 \
//	  -replication 2 -store-dir /var/lib/compaqt
//
// Endpoints: POST /v1/compile, POST /v1/compile/batch,
// GET/PUT /v1/images/{name}, GET /v1/stats (?scope=cluster),
// GET /v1/cluster, POST /v1/cluster/gossip, GET /v1/cluster/digests,
// GET /healthz. See the client package for the typed Go client.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// With -join (one or more cluster members: the whole list or one live
// seed) the process joins a digest-sharded cluster: image names hash
// onto a consistent-hash ring over the member URLs, GETs for remote
// shards are forwarded to their owner (and written through to the
// local store), and each compiled named image is published to its
// owner plus -replication-1 ring successors. -peers is a deprecated
// spelling of -join. Membership is gossiped, and the gossip exchange
// (-gossip-interval) is also the liveness check: each round reaches the
// next member in turn, and one that fails it is routed around until an
// exchange succeeds again. Every name binding carries
// a version, stamped by the node a client binds the name on and
// carried with the bytes, so a binding replaces another only if it is
// newer. A background anti-entropy loop (-repair-interval) brings
// every name this node owns or holds a copy of to the newest binding
// a live peer lists, within one interval while a holder of it is
// reachable: what a down node missed, and what a rebind superseded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"compaqt/codec"
	"compaqt/internal/cluster"
	"compaqt/internal/server"
)

func main() {
	addr := flag.String("addr", ":8371", "listen address")
	codecName := flag.String("codec", "intdct-w", "default compression codec (see -codecs)")
	listCodecs := flag.Bool("codecs", false, "list registered codec names and exit")
	ws := flag.Int("ws", 0, "default transform window (4, 8, 16, 32; 0 = codec default)")
	adaptive := flag.Bool("adaptive", false, "enable flat-top adaptive compression by default")
	mse := flag.Float64("mse", 0, "default fidelity-aware MSE target (0 = fixed threshold)")
	cacheSize := flag.Int("cache", 0, "compile cache capacity in entries (0 = default, -1 = disabled)")
	parallelism := flag.Int("parallelism", runtime.NumCPU(), "per-compile worker-pool width")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing compile requests (0 = 2*NumCPU)")
	maxBody := flag.Int64("max-body", 0, "max request body bytes (0 = 64 MiB)")
	maxBatch := flag.Int("max-batch", 0, "max pulses per batch request (0 = 8192)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
	admissionWait := flag.Duration("admission-wait", 0, "max queue wait for a compile slot before shedding with 429 (0 = 10s, negative = unbounded)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 0, "http.Server ReadHeaderTimeout (0 = 5s, negative = disabled)")
	readTimeout := flag.Duration("read-timeout", 0, "http.Server ReadTimeout (0 = 2m, negative = disabled)")
	idleTimeout := flag.Duration("idle-timeout", 0, "http.Server IdleTimeout (0 = 2m, negative = disabled)")
	storeDir := flag.String("store-dir", "", "persistent image store directory (empty = no persistence)")
	storeMax := flag.Int64("store-max-bytes", 0, "persistent store size budget in bytes (0 = 1 GiB)")
	self := flag.String("self", "", "this node's advertised base URL in the cluster (e.g. http://10.0.0.1:8371; required with -join)")
	join := flag.String("join", "", "comma-separated base URLs of one or more cluster members, this node's own allowed; gossip learns the rest of the table (empty = standalone)")
	peers := flag.String("peers", "", "deprecated: same as -join")
	replication := flag.Int("replication", 1, "cluster replication factor: ring members each image is published to")
	gossipInterval := flag.Duration("gossip-interval", 0, "membership gossip push-pull interval, also the peer liveness check (0 = 1s, negative = disabled)")
	repairInterval := flag.Duration("repair-interval", 0, "anti-entropy shard-repair interval (0 = 5s, negative = disabled)")
	flag.Parse()

	if *listCodecs {
		for _, n := range codec.Names() {
			fmt.Println(n)
		}
		return
	}

	splitURLs := func(s string) []string {
		var out []string
		for _, p := range strings.Split(s, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, strings.TrimRight(p, "/"))
			}
		}
		return out
	}
	if *peers != "" {
		log.Print("compaqt-serve: -peers is deprecated; use -join, which does the same")
	}
	seeds := append(splitURLs(*join), splitURLs(*peers)...)
	if len(seeds) > 0 && *self == "" {
		log.Fatal("compaqt-serve: -join requires -self (this node's advertised URL)")
	}

	srv, err := server.New(server.Config{
		Codec:          *codecName,
		Window:         *ws,
		Adaptive:       *adaptive,
		MSETarget:      *mse,
		CacheSize:      *cacheSize,
		Parallelism:    *parallelism,
		MaxInFlight:    *maxInflight,
		MaxBodyBytes:   *maxBody,
		MaxBatchPulses: *maxBatch,
		DrainTimeout:   *drain,
		AdmissionWait:  *admissionWait,
		StoreDir:       *storeDir,
		StoreMaxBytes:  *storeMax,
		Cluster: cluster.Config{
			Self:           strings.TrimRight(*self, "/"),
			Peers:          seeds,
			Replication:    *replication,
			GossipInterval: *gossipInterval,
			Transport:      peerTransport(),
		},
		RepairInterval: *repairInterval,

		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = srv.Run(ctx, *addr, func(a net.Addr) {
		log.Printf("compaqt-serve: listening on %s (codec %s, parallelism %d)",
			a, *codecName, *parallelism)
	})
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("compaqt-serve: drained, bye")
}
