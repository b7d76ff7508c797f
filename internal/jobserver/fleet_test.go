package jobserver

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startFleet boots a sharded daemon (no HTTP) and registers cleanup.
func startFleet(t *testing.T, cfg Config, shards int) *Daemon {
	t.Helper()
	var svcs []*Service
	for _, c := range ShardConfigs(cfg, shards) {
		svcs = append(svcs, New(c))
	}
	d := NewFleetDaemon(svcs, false)
	t.Cleanup(d.Stop)
	return d
}

// awaitFleetJob polls the fleet until the job is terminal.
func awaitFleetJob(t *testing.T, d *Daemon, id string) JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := d.fleet.JobInfo(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.Status.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleetWorkload is a small multi-tenant job mix that lands on several
// shards of a 4-shard fleet.
func fleetWorkload(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = LoadSpec(7, i, 4)
	}
	return specs
}

// TestFleetShardCountOutputInvariant is the core determinism claim of
// the sharded daemon: placement chooses where a job runs, never what
// it computes. The same workload through 1-, 2-, and 4-shard fleets
// must produce byte-identical outputs per job name (scheduling virtual
// times may differ — co-location differs — but results may not).
func TestFleetShardCountOutputInvariant(t *testing.T) {
	specs := fleetWorkload(10)
	outputs := map[int]map[string]string{} // shards -> name -> outputs JSON
	for _, shards := range []int{1, 2, 4} {
		d := startFleet(t, Config{}, shards)
		got := map[string]string{}
		ids := make([]string, len(specs))
		for i, spec := range specs {
			id, _, err := d.Submit(spec)
			if err != nil {
				t.Fatalf("%d shards: submit %s: %v", shards, spec.Name, err)
			}
			ids[i] = id
		}
		for i, id := range ids {
			st := awaitFleetJob(t, d, id)
			if st.Status != StatusDone {
				t.Fatalf("%d shards: %s ended %s: %s", shards, specs[i].Name, st.Status, st.Err)
			}
			got[specs[i].Name] = mustJSON(t, st.Result.Outputs)
		}
		outputs[shards] = got
		d.Stop()
	}
	for _, shards := range []int{2, 4} {
		for name, want := range outputs[1] {
			if got := outputs[shards][name]; got != want {
				t.Errorf("%s diverged on the %d-shard fleet:\n got %s\nwant %s", name, shards, got, want)
			}
		}
	}
}

// TestFleetPlacementDeterministicAndBounded: placement is a pure
// function of (key, shard count) — two fleets of the same size agree
// on every key — and growing the fleet by one shard moves only a
// bounded fraction of keys (the consistent-hashing contract; a modulo
// router would move almost all of them).
func TestFleetPlacementDeterministicAndBounded(t *testing.T) {
	build := func(n int) *Fleet {
		svcs := make([]*Service, n)
		for i := range svcs {
			svcs[i] = New(ShardConfigs(Config{}, n)[i])
		}
		f := NewFleet(svcs, 0)
		t.Cleanup(f.Close)
		return f
	}
	f4a, f4b, f5 := build(4), build(4), build(5)

	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%04d", i)
	}
	moved := 0
	for _, k := range keys {
		a, b := f4a.PlacementShard(k), f4b.PlacementShard(k)
		if a != b {
			t.Fatalf("two 4-shard fleets disagree on %q: %d vs %d", k, a, b)
		}
		if f5.PlacementShard(k) != a {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no keys moved when growing 4 -> 5 shards; the new shard gets no load")
	}
	// Ideal movement is 1/5 of keys; allow generous slack but fail the
	// rehash-everything failure mode.
	if frac := float64(moved) / float64(len(keys)); frac > 0.45 {
		t.Errorf("%.0f%% of keys moved when growing 4 -> 5 shards; want roughly 20%%", frac*100)
	}
}

// TestFleetTenantQuota: with a quota of 1, a tenant's second
// submission bounces with ErrTenantQuota while the first is in
// flight, and the slot frees once the job is terminal. Other tenants
// are unaffected.
func TestFleetTenantQuota(t *testing.T) {
	d := startFleet(t, Config{TenantQuota: 1}, 2)
	// Big enough that it is still in flight when the next submit lands
	// microseconds later.
	spec := JobSpec{Name: "hog", App: "total-size", Blocks: 256, LinesPerBlock: 200, Seed: 5, Tenant: "acme"}
	id, _, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.fleet.TenantInFlight("acme"); got != 1 {
		t.Fatalf("TenantInFlight(acme) = %d after submit, want 1", got)
	}
	spec2 := spec
	spec2.Name = "hog-2"
	spec2.Seed = 6
	if _, _, err := d.Submit(spec2); err != ErrTenantQuota {
		t.Fatalf("second submit for acme: err = %v, want ErrTenantQuota", err)
	}
	// A different tenant is not throttled by acme's quota.
	other := spec2
	other.Name = "bystander"
	other.Tenant = "globex"
	if _, _, err := d.Submit(other); err != nil {
		t.Fatalf("submit for globex: %v", err)
	}

	awaitFleetJob(t, d, id)
	if got := d.fleet.TenantInFlight("acme"); got != 0 {
		t.Fatalf("TenantInFlight(acme) = %d after terminal, want 0", got)
	}
	if _, _, err := d.Submit(spec2); err != nil {
		t.Fatalf("resubmit for acme after release: %v", err)
	}
}

// bootJournaledFleet builds a fleet exactly as Serve does — per-shard
// configs, per-shard journal segments, recovery before the drivers
// start — without the listener.
func bootJournaledFleet(t *testing.T, base Config, path string, shards int) *Daemon {
	t.Helper()
	svcs := make([]*Service, 0, shards)
	for i, scfg := range ShardConfigs(base, shards) {
		svc := New(scfg)
		j, recs, err := OpenJournal(shardJournalPath(path, i))
		if err != nil {
			closeServices(svcs)
			t.Fatal(err)
		}
		svc.UseJournal(j)
		if _, err := svc.Recover(recs); err != nil {
			closeServices(svcs)
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
	}
	d := NewFleetDaemon(svcs, false)
	t.Cleanup(d.Stop)
	return d
}

// TestFleetShardedJournalRecovery: a sharded daemon journals each
// job's shard assignment; a restart with the same shard count replays
// every job onto its original shard with the same id and byte-identical
// outputs.
func TestFleetShardedJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	specs := fleetWorkload(6)

	d1 := bootJournaledFleet(t, Config{}, path, 3)
	ids := make([]string, len(specs))
	want := make([]string, len(specs))
	for i, spec := range specs {
		id, _, err := d1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		st := awaitFleetJob(t, d1, id)
		if st.Status != StatusDone {
			t.Fatalf("%s ended %s", id, st.Status)
		}
		want[i] = mustJSON(t, st.Result.Outputs)
	}
	d1.Stop()

	d2 := bootJournaledFleet(t, Config{}, path, 3)
	for i, id := range ids {
		st, ok := d2.fleet.JobInfo(id)
		if !ok {
			t.Fatalf("job %s not restored (original shard lost it)", id)
		}
		if st.Status != StatusDone {
			st = awaitFleetJob(t, d2, id)
		}
		if got := mustJSON(t, st.Result.Outputs); got != want[i] {
			t.Errorf("%s recovered with different outputs:\n got %s\nwant %s", id, got, want[i])
		}
	}
}

// TestRecoverRejectsForeignShardRecords: replaying a journal segment
// into the wrong shard must fail loudly instead of silently re-placing
// jobs (which would change their id sequence and stream identity).
func TestRecoverRejectsForeignShardRecords(t *testing.T) {
	cfgs := ShardConfigs(Config{}, 2)
	rec := submitRec(cfgs[1].IDPrefix+"0000", "stray", 9)
	rec.Shard = 1

	svc := New(cfgs[0]) // shard 0 must refuse shard 1's record
	t.Cleanup(svc.Close)
	_, err := svc.Recover([]JournalRecord{rec})
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("Recover accepted a foreign shard's record (err = %v)", err)
	}
}

// TenantInFlight reports tenant's current in-flight count (tests).
func (f *Fleet) TenantInFlight(tenant string) int {
	f.qmu.Lock()
	defer f.qmu.Unlock()
	return f.tenants[tenant]
}
