package jobserver

import (
	"approxhadoop/internal/approx"
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The chaos harness proves the crash-safety contract end to end: it
// boots the real Serve path in a child process, SIGKILLs it at seeded
// points (right after acks, mid-execution, mid-stream, mid-drain),
// restarts it on the same journal, and asserts every recovered job's
// result is byte-identical to an uninterrupted control run of the
// same spec + seed. APPROX_CHAOS_SEED shifts every job seed so the CI
// matrix exercises different samplings.
//
// The child is this very test binary re-exec'd with
// APPROXD_CHAOS_CHILD=1: TestMain intercepts the env var before any
// test runs and serves instead.

func TestMain(m *testing.M) {
	if os.Getenv("APPROXD_CHAOS_CHILD") == "1" {
		chaosChild()
		return
	}
	os.Exit(m.Run())
}

// chaosChild runs the production daemon path (journal replay, drain,
// signal handling) and prints the bound address for the parent.
func chaosChild() {
	maxActive := 2
	if s := os.Getenv("APPROXD_CHAOS_MAXACTIVE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			maxActive = n
		}
	}
	shards := 1
	if s := os.Getenv("APPROXD_CHAOS_SHARDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			shards = n
		}
	}
	err := Serve(ServeConfig{
		Addr: "127.0.0.1:0",
		Service: Config{
			MaxActive:     maxActive,
			MaxQueue:      32,
			SnapshotEvery: 5,
		},
		Shards:      shards,
		JournalPath: os.Getenv("APPROXD_CHAOS_JOURNAL"),
		Grace:       5 * time.Second,
		OnReady: func(addr string, _ *Daemon) {
			fmt.Printf("ADDR %s\n", addr)
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos-child: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos-child: %v\n", err)
		os.Exit(1)
	}
}

// chaosSeedShift folds the CI chaos seed into every job seed so each
// matrix entry kills a different sampling of the same workload.
func chaosSeedShift() int64 {
	if s := os.Getenv("APPROX_CHAOS_SEED"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return int64(n) * 1000
		}
	}
	return 0
}

// chaosSpecs is the workload: a precise job, a sampled job, and a
// sampled+dropped job, sized so that with MaxActive 1 some are still
// queued whenever the kill lands.
func chaosSpecs() []JobSpec {
	shift := chaosSeedShift()
	return []JobSpec{
		{Name: "x-precise", App: "total-size", Blocks: 24, LinesPerBlock: 80, Seed: 11 + shift,
			IdempotencyKey: "chaos-precise"},
		{Name: "x-sampled", App: "project-popularity", Blocks: 32, LinesPerBlock: 80, Seed: 12 + shift,
			Approximation: approx.Approximation{SampleRatio: 0.5}, IdempotencyKey: "chaos-sampled"},
		{Name: "x-dropped", App: "clients", Blocks: 24, LinesPerBlock: 80, Seed: 13 + shift,
			Approximation: approx.Approximation{SampleRatio: 0.5, DropRatio: 0.25}, IdempotencyKey: "chaos-dropped"},
	}
}

// chaosDaemon is one life of the re-exec'd daemon.
type chaosDaemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
	done chan error
}

func startChaosDaemon(t *testing.T, journal string, maxActive int) *chaosDaemon {
	t.Helper()
	return startShardedChaosDaemon(t, journal, maxActive, 1)
}

func startShardedChaosDaemon(t *testing.T, journal string, maxActive, shards int) *chaosDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"APPROXD_CHAOS_CHILD=1",
		"APPROXD_CHAOS_JOURNAL="+journal,
		fmt.Sprintf("APPROXD_CHAOS_MAXACTIVE=%d", maxActive),
		fmt.Sprintf("APPROXD_CHAOS_SHARDS=%d", shards),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cd := &chaosDaemon{t: t, cmd: cmd, done: make(chan error, 1)}
	go func() { cd.done <- cmd.Wait() }()
	t.Cleanup(cd.kill)

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addrCh <- a
			}
			// Keep draining so the child never blocks on stdout.
		}
	}()
	select {
	case cd.addr = <-addrCh:
	case err := <-cd.done:
		cd.done <- err
		t.Fatalf("chaos child exited before announcing its address: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("chaos child never announced its address")
	}
	return cd
}

func (cd *chaosDaemon) url(path string) string { return "http://" + cd.addr + path }

// kill SIGKILLs the child and reaps it; idempotent so it doubles as
// the cleanup.
func (cd *chaosDaemon) kill() {
	if cd.cmd.Process != nil {
		_ = cd.cmd.Process.Kill()
	}
	select {
	case err := <-cd.done:
		cd.done <- err
	case <-time.After(10 * time.Second):
		cd.t.Error("chaos child did not die after SIGKILL")
	}
}

func (cd *chaosDaemon) signal(sig os.Signal) {
	cd.t.Helper()
	if err := cd.cmd.Process.Signal(sig); err != nil {
		cd.t.Fatalf("signal %v: %v", sig, err)
	}
}

func (cd *chaosDaemon) submit(spec JobSpec) string {
	cd.t.Helper()
	var out struct {
		ID string `json:"id"`
	}
	if code := postJSON(cd.t, cd.url("/v1/jobs"), spec, &out); code != http.StatusOK {
		cd.t.Fatalf("submit %s: HTTP %d", spec.Name, code)
	}
	return out.ID
}

func (cd *chaosDaemon) await(id string, timeout time.Duration) WireState {
	cd.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st WireState
		if code := getJSON(cd.t, cd.url("/v1/jobs/"+id), &st); code != http.StatusOK {
			cd.t.Fatalf("get %s: HTTP %d", id, code)
		}
		if st.Status.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			cd.t.Fatalf("%s still %s after %s", id, st.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (cd *chaosDaemon) stats() Stats {
	cd.t.Helper()
	var st Stats
	if code := getJSON(cd.t, cd.url("/v1/stats"), &st); code != http.StatusOK {
		cd.t.Fatalf("stats: HTTP %d", code)
	}
	return st
}

// assertRecovered awaits every id on the restarted daemon and asserts
// each result is byte-identical to an uninterrupted in-process run of
// the same spec — the chaos gate's core assertion. Comparison goes
// through JSON so a NaN sneaking into a wire field fails loudly
// instead of making DeepEqual silently false.
func assertRecovered(t *testing.T, cd *chaosDaemon, ids []string, specs []JobSpec) {
	t.Helper()
	for i, id := range ids {
		st := cd.await(id, 60*time.Second)
		if st.Status != StatusDone {
			t.Fatalf("%s (%s) recovered to %s: %s", id, specs[i].Name, st.Status, st.Err)
		}
		if st.Result == nil {
			t.Fatalf("%s done without a result", id)
		}
		want := WireEstimates(directRun(t, specs[i]).Outputs)
		if got, wantJSON := mustJSON(t, st.Result.Outputs), mustJSON(t, want); got != wantJSON {
			t.Errorf("%s (%s) outputs diverged from the uninterrupted control:\n got %s\nwant %s",
				id, specs[i].Name, got, wantJSON)
		}
	}
}

// TestChaosKillAfterAckRecovery: SIGKILL the daemon immediately after
// it acknowledges the submissions — the journal's fsync-before-ack
// guarantee means every acked job must survive, re-execute, and match
// the control bit for bit. Also proves idempotency keys dedup across
// the restart: resubmitting the same keyed spec returns the original
// id instead of running the job twice.
func TestChaosKillAfterAckRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness re-execs the test binary; skipped in -short")
	}
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	specs := chaosSpecs()

	cd := startChaosDaemon(t, journal, 1)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = cd.submit(spec)
	}
	cd.kill()

	cd2 := startChaosDaemon(t, journal, 2)
	assertRecovered(t, cd2, ids, specs)
	for i, spec := range specs {
		if again := cd2.submit(spec); again != ids[i] {
			t.Errorf("keyed resubmit of %s returned %s, want original %s (idempotency lost across restart)",
				spec.Name, again, ids[i])
		}
	}
	st := cd2.stats()
	if st.Done < len(specs) {
		t.Errorf("stats report %d done, want at least %d", st.Done, len(specs))
	}
}

// TestChaosKillMidExecutionRecovery: wait until the daemon is
// actually executing (or has finished) work, then SIGKILL. Buffered
// admit/done records may be lost — recovery must re-execute from the
// journaled spec + seed and still match the control exactly.
func TestChaosKillMidExecutionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness re-execs the test binary; skipped in -short")
	}
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	specs := chaosSpecs()

	cd := startChaosDaemon(t, journal, 1)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = cd.submit(spec)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := cd.stats()
		if st.Active >= 1 || st.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started executing")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cd.kill()

	cd2 := startChaosDaemon(t, journal, 2)
	assertRecovered(t, cd2, ids, specs)
}

// TestChaosKillMidStreamRecovery: kill while a client is reading the
// early-result stream. The half-read stream dies with the daemon; the
// restarted daemon re-executes and a fresh stream replays the whole
// run to its terminal frame with the same final answer.
func TestChaosKillMidStreamRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness re-execs the test binary; skipped in -short")
	}
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	specs := chaosSpecs()

	cd := startChaosDaemon(t, journal, 1)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = cd.submit(spec)
	}
	resp, err := http.Get(cd.url("/v1/jobs/" + ids[0] + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Logf("stream close: %v", err)
		}
	}()
	// One frame (or clean EOF on a fast job) proves the stream was
	// live; then the kill lands mid-conversation.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Logf("stream ended before the kill: %v", err)
	}
	cd.kill()

	cd2 := startChaosDaemon(t, journal, 2)
	assertRecovered(t, cd2, ids, specs)

	// The recovered job's stream must still end in a terminal frame.
	resp2, err := http.Get(cd2.url("/v1/jobs/" + ids[0] + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp2.Body.Close(); err != nil {
			t.Logf("stream close: %v", err)
		}
	}()
	var last string
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	if !strings.Contains(last, `"status":"done"`) {
		t.Errorf("recovered stream's last frame is not terminal: %s", last)
	}
}

// TestChaosShardedKillRecovery: the fleet version of the mid-execution
// kill. A 2-shard daemon journals one segment per shard with each
// job's shard assignment; the restarted 2-shard daemon must replay
// every job onto its original shard (the ids, which carry the shard,
// still resolve) and match the uninterrupted control byte for byte.
// A restart with fewer shards must refuse to boot rather than
// silently re-place the recovered jobs.
func TestChaosShardedKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness re-execs the test binary; skipped in -short")
	}
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	specs := chaosSpecs()
	// Tenants chosen so the workload provably lands on both shards
	// (tenant-0 and tenant-1 place on shard 0, tenant-4 on shard 1 of
	// a 2-shard ring; TestFleetPlacementDeterministicAndBounded pins
	// the mapping's stability).
	tenants := []string{"tenant-0", "tenant-4", "tenant-1"}
	for i := range specs {
		specs[i].Tenant = tenants[i%len(tenants)]
	}

	cd := startShardedChaosDaemon(t, journal, 1, 2)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = cd.submit(spec)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := cd.stats()
		if st.Active >= 1 || st.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started executing")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cd.kill()

	// Booting with half the shards would orphan a journal segment; the
	// child must exit with an error before serving.
	shrunk := exec.Command(os.Args[0])
	shrunk.Env = append(os.Environ(),
		"APPROXD_CHAOS_CHILD=1",
		"APPROXD_CHAOS_JOURNAL="+journal,
		"APPROXD_CHAOS_MAXACTIVE=1",
		"APPROXD_CHAOS_SHARDS=1",
	)
	if out, err := shrunk.CombinedOutput(); err == nil {
		t.Fatalf("1-shard restart over a 2-shard journal succeeded; want a refused boot\n%s", out)
	}

	cd2 := startShardedChaosDaemon(t, journal, 2, 2)
	assertRecovered(t, cd2, ids, specs)
	st := cd2.stats()
	if st.Shards != 2 {
		t.Errorf("restarted fleet reports %d shards, want 2", st.Shards)
	}
}

// TestChaosDrainInterruptedByKillRecovery: SIGTERM starts a graceful
// drain, then an impatient SIGKILL lands before it finishes — the
// worst-case supervisor. Whatever the drain managed to flush, the
// journal must still reconstruct every acked job byte-identically.
func TestChaosDrainInterruptedByKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness re-execs the test binary; skipped in -short")
	}
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	specs := chaosSpecs()

	cd := startChaosDaemon(t, journal, 1)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = cd.submit(spec)
	}
	cd.signal(syscall.SIGTERM)
	cd.kill()

	cd2 := startChaosDaemon(t, journal, 2)
	assertRecovered(t, cd2, ids, specs)
}
