package procharness

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"compaqt"
	"compaqt/bench"
	"compaqt/client"
	"compaqt/internal/race"
	"compaqt/qctrl"
)

// ---- binary build ----------------------------------------------------

var (
	buildOnce sync.Once
	buildDir  string
	buildBin  string
	buildErr  error
)

// serveBinary builds cmd/compaqt-serve once per test run, with the
// same faultinject/race flavor as the test binary itself, and returns
// its path.
func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		root, err := repoRoot()
		if err != nil {
			buildErr = err
			return
		}
		buildDir, err = os.MkdirTemp("", "compaqt-procharness-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(buildDir, "compaqt-serve")
		args := []string{"build", "-o", buildBin}
		if faultTag {
			args = append(args, "-tags", "faultinject")
		}
		if race.Enabled {
			args = append(args, "-race")
		}
		args = append(args, "./cmd/compaqt-serve")
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building compaqt-serve: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

func repoRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("locating module root: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// ---- process management ----------------------------------------------

// procNode is one real compaqt-serve process under test control.
type procNode struct {
	name  string
	url   string
	store string
	cl    *client.Client

	cmd  *exec.Cmd
	logF *os.File
}

// nodeOpts shapes one spawn. The harness pins aggressive cadences
// (100ms gossip, which is also the liveness check, and 300ms repair)
// so convergence is seconds, not minutes.
type nodeOpts struct {
	name  string // log-file stem
	self  string
	join  []string
	store string
	repl  int
	env   []string // extra environment, e.g. COMPAQT_PEER_FAULTS
}

// logDir resolves where per-node process logs land: the CI artifact
// directory when COMPAQT_PROC_LOG_DIR is set, a test temp dir
// otherwise.
func logDir(t *testing.T) string {
	t.Helper()
	if d := os.Getenv("COMPAQT_PROC_LOG_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return d
	}
	return t.TempDir()
}

// startNode spawns one compaqt-serve and registers a kill-on-cleanup.
// It does not wait for readiness; call waitHealthy.
func startNode(t *testing.T, o nodeOpts) *procNode {
	t.Helper()
	bin := serveBinary(t)
	args := []string{
		"-addr", strings.TrimPrefix(o.self, "http://"),
		"-self", o.self,
		"-replication", strconv.Itoa(o.repl),
		"-parallelism", "2",
		"-gossip-interval", "100ms",
		"-repair-interval", "300ms",
		"-store-dir", o.store,
	}
	if len(o.join) > 0 {
		args = append(args, "-join", strings.Join(o.join, ","))
	}
	logPath := filepath.Join(logDir(t), o.name+".log")
	logF, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(logF, "---- spawn %s %s ----\n", o.name, strings.Join(args, " "))
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logF, logF
	cmd.Env = append(os.Environ(), o.env...)
	if err := cmd.Start(); err != nil {
		logF.Close()
		t.Fatalf("starting %s: %v", o.name, err)
	}
	n := &procNode{
		name:  o.name,
		url:   o.self,
		store: o.store,
		cl:    client.New(o.self),
		cmd:   cmd,
		logF:  logF,
	}
	t.Cleanup(func() { n.kill() })
	return n
}

// kill SIGKILLs the process and reaps it. Idempotent.
func (n *procNode) kill() {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	n.cmd.Process.Kill()
	n.cmd.Wait()
	n.cmd = nil
	if n.logF != nil {
		n.logF.Close()
		n.logF = nil
	}
}

// signal delivers sig to the live process.
func (n *procNode) signal(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if n.cmd == nil || n.cmd.Process == nil {
		t.Fatalf("%s: signaling a dead process", n.name)
	}
	if err := n.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("%s: %v: %v", n.name, sig, err)
	}
}

// waitHealthy polls /healthz until the node answers ok.
func waitHealthy(t *testing.T, n *procNode) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := n.cl.Health(ctx)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", n.name)
}

// waitConverged polls every node's ring view until all of them agree
// on `members` members, all alive. It polls every 10ms, well inside
// one 100ms gossip interval, so the re-admission times the tests log
// resolve one round.
func waitConverged(t *testing.T, nodes []*procNode, members int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			v, err := n.cl.ClusterView(ctx)
			cancel()
			if err != nil || len(v.Peers) != members {
				ok = false
				break
			}
			for _, p := range v.Peers {
				if !p.Alive {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if v, err := n.cl.ClusterView(ctx); err == nil {
			t.Logf("%s view: %d peers", n.name, len(v.Peers))
			for _, p := range v.Peers {
				t.Logf("  %s state=%s alive=%v", p.URL, p.State, p.Alive)
			}
		} else {
			t.Logf("%s view: %v", n.name, err)
		}
		cancel()
	}
	t.Fatalf("cluster never converged to %d live members", members)
}

// freeURLs reserves n distinct loopback ports and returns their base
// URLs; the listeners are closed so the spawned processes can bind.
func freeURLs(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}
	return urls
}

// ---- workload + byte identity ----------------------------------------

// procShapes compiles s distinct workload shapes in-process for
// reference bytes — the oracle every cluster-served GET is compared
// against.
func procShapes(t *testing.T, s int) (names []string, wantBytes [][]byte, specSets [][]client.PulseSpec) {
	t.Helper()
	wl, err := bench.NewWorkload(bench.WorkloadOptions{
		Machine:  qctrl.Bogota(),
		Families: []string{"ghz", "qft", "bv", "mirror"},
		Seeds:    2,
		Seed:     23,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := wl.Requests(8 * s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := compaqt.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seen := make(map[string]bool, s)
	for _, r := range reqs {
		if len(names) == s {
			break
		}
		name := r.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		img, err := ref.CompileBatch(ctx, name, r.Pulses)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		wantBytes = append(wantBytes, buf.Bytes())
		specs := make([]client.PulseSpec, len(r.Pulses))
		for j, p := range r.Pulses {
			specs[j] = client.FromPulse(p)
		}
		specSets = append(specSets, specs)
	}
	if len(names) != s {
		t.Fatalf("workload yielded only %d distinct names, want %d", len(names), s)
	}
	return names, wantBytes, specSets
}

// compileVia submits one named batch over the wire and checks byte
// identity against the in-process reference.
func compileVia(t *testing.T, n *procNode, name string, specs []client.PulseSpec, want []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, err := n.cl.CompileBatch(ctx, client.BatchRequest{
		Image:        name,
		Pulses:       specs,
		IncludeImage: true,
	})
	if err != nil {
		t.Fatalf("compile %q on %s: %v", name, n.name, err)
	}
	got, err := base64.StdEncoding.DecodeString(resp.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compile %q on %s: bytes differ from in-process reference", name, n.name)
	}
}

// sweep GETs every name from every node once. Returns the error count;
// a successful GET with wrong bytes fails the test immediately
// (corruption is never tolerable, errors sometimes are).
func sweep(t *testing.T, nodes []*procNode, names []string, wantBytes [][]byte) int {
	t.Helper()
	errs := 0
	for s, name := range names {
		for _, n := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			b, err := n.cl.ImageRaw(ctx, name)
			cancel()
			if err != nil {
				errs++
				continue
			}
			if !bytes.Equal(b, wantBytes[s]) {
				t.Fatalf("GET %q from %s: corrupted bytes served", name, n.name)
			}
		}
	}
	return errs
}

// holders counts, per name, how many nodes advertise it in their
// digest listing.
func holders(t *testing.T, nodes []*procNode, names []string) map[string]int {
	t.Helper()
	count := make(map[string]int, len(names))
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := n.cl.Digests(ctx)
		cancel()
		if err != nil {
			continue
		}
		have := make(map[string]bool, len(resp.Images))
		for _, d := range resp.Images {
			have[d.Name] = true
		}
		for _, name := range names {
			if have[name] {
				count[name]++
			}
		}
	}
	return count
}

// clusterCompiles sums compile calls across nodes — the
// zero-recompile meter.
func clusterCompiles(t *testing.T, nodes []*procNode) (calls uint64) {
	t.Helper()
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := n.cl.Stats(ctx)
		cancel()
		if err != nil {
			t.Fatalf("stats from %s: %v", n.name, err)
		}
		calls += st.Compile.Calls
	}
	return calls
}
