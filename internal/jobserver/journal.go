// The write-ahead job journal: an append-only JSONL log of every job
// state transition the service performs. Because (spec, seed) runs are
// bit-identical, the journal never needs result checkpoints to make the
// service crash-safe — a submit record is enough to re-execute a job
// after a restart and obtain the exact bytes an uninterrupted run would
// have produced. Terminal records carry the full result anyway so that
// recovery can restore completed jobs without re-simulating them and so
// duplicate submissions (same idempotency key) can be answered from the
// journal after a crash.
//
// Durability contract. A submission is acknowledged to the client only
// after its submit record is fsynced (Service.Submit commits before
// returning). Mid-run transitions — admitted, degraded, done — are
// buffered and ride along with the next commit: the periodic
// quiescent-point commit in the daemon loop, the next submission, a
// drain, or Close. Losing a buffered done record is safe by design:
// recovery simply re-executes the job and deterministically reproduces
// the same result.
//
// Concurrency: a Journal belongs to the goroutine driving the engine
// (the daemon's driver). Nothing here takes the service mutex and the
// service never appends or commits while holding it — fsync under a
// held lock would stall every HTTP reader (the lockheld analyzer
// guards this pattern across the package).
package jobserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// JournalOp tags one journal record with the transition it logs.
type JournalOp string

// Journal record operations.
const (
	// JournalSubmit records an accepted submission: the assigned id,
	// the full spec (including seed and idempotency key), and the
	// virtual submission time. It is the only record recovery strictly
	// needs — everything else is reproducible from (spec, seed).
	JournalSubmit JournalOp = "submit"
	// JournalAdmit records a job leaving the queue for the cluster.
	JournalAdmit JournalOp = "admit"
	// JournalDegrade records that a job folded unrecoverable tasks
	// into the estimator's dropped-cluster count before finishing.
	JournalDegrade JournalOp = "degrade"
	// JournalDone records a terminal transition with the final status,
	// error, timeline, and (for successful jobs) the full result.
	JournalDone JournalOp = "done"
	// JournalCancel records a cancellation request against a running
	// job. A cancel with no following done record means the daemon died
	// before the kill landed; recovery honors the request and restores
	// the job as canceled rather than re-executing it.
	JournalCancel JournalOp = "cancel"
)

// JournalRecord is one JSONL line of the write-ahead journal.
type JournalRecord struct {
	Op JournalOp `json:"op"`
	ID string    `json:"id,omitempty"`
	// Shard is the engine shard the job was placed on at submit time.
	// Recovery asserts each journal segment replays onto the shard that
	// wrote it, so a sharded restart reproduces the original placement
	// bit-identically. Absent (0) in pre-shard journals, which belong
	// to shard 0 by construction.
	Shard    int            `json:"shard,omitempty"`
	Spec     *JobSpec       `json:"spec,omitempty"`
	Status   JobStatus      `json:"status,omitempty"`
	Err      string         `json:"error,omitempty"`
	SubmitVT float64        `json:"submitVT,omitempty"`
	StartVT  float64        `json:"startVT,omitempty"`
	EndVT    float64        `json:"endVT,omitempty"`
	Result   *JournalResult `json:"result,omitempty"`
}

// JFloat is a float64 that survives JSON: non-finite values, which
// encoding/json rejects, are encoded as the quoted strings "NaN",
// "+Inf", and "-Inf". Estimator error bounds are legitimately NaN or
// infinite (unbounded intervals), and the journal must round-trip them
// so restored results re-serve byte-identical wire payloads.
type JFloat float64

// MarshalJSON implements json.Marshaler.
func (f JFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	// encoding/json's float64 rule: shortest 'f', or 'e' with a
	// one-digit negative exponent when |v| is nonzero and below 1e-6 or
	// at least 1e21.
	format := byte('f')
	if abs := math.Abs(v); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(make([]byte, 0, 32), v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("journal: bad float %q: %w", s, err)
		}
		*f = JFloat(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JFloat(v)
	return nil
}

// JournalEstimate is the NaN-safe journal form of one KeyEstimate,
// carrying every field of the underlying stats.Estimate so restoration
// is lossless (the HTTP wire form drops StdErr/DF; the journal must
// not).
type JournalEstimate struct {
	Key    string `json:"key"`
	Value  JFloat `json:"value"`
	Err    JFloat `json:"err"`
	StdErr JFloat `json:"stdErr"`
	DF     JFloat `json:"df"`
	Conf   JFloat `json:"conf"`
	Exact  bool   `json:"exact,omitempty"`
}

// JournalResult is the journal form of a completed job's result.
type JournalResult struct {
	Job      string             `json:"job"`
	Runtime  float64            `json:"runtimeSecs"`
	EnergyWh float64            `json:"energyWh"`
	RealSecs float64            `json:"realSecs,omitempty"`
	BusyJ    float64            `json:"busyJ,omitempty"`
	IdleJ    float64            `json:"idleJ,omitempty"`
	SleepJ   float64            `json:"sleepJ,omitempty"`
	Counters mapreduce.Counters `json:"counters"`
	Outputs  []JournalEstimate  `json:"outputs"`
}

// toJournalResult converts a Result for journaling (nil-safe).
func toJournalResult(res *mapreduce.Result) *JournalResult {
	if res == nil {
		return nil
	}
	outs := make([]JournalEstimate, 0, len(res.Outputs))
	for _, e := range res.Outputs {
		outs = append(outs, JournalEstimate{
			Key:    e.Key,
			Value:  JFloat(e.Est.Value),
			Err:    JFloat(e.Est.Err),
			StdErr: JFloat(e.Est.StdErr),
			DF:     JFloat(e.Est.DF),
			Conf:   JFloat(e.Est.Conf),
			Exact:  e.Exact,
		})
	}
	return &JournalResult{
		Job:      res.Job,
		Runtime:  res.Runtime,
		EnergyWh: res.EnergyWh,
		RealSecs: res.RealSecs,
		BusyJ:    res.Energy.BusyJ,
		IdleJ:    res.Energy.IdleJ,
		SleepJ:   res.Energy.SleepJ,
		Counters: res.Counters,
		Outputs:  outs,
	}
}

// Restore rebuilds the in-memory result a journal record describes
// (nil-safe). The job's scheduling trace is the one thing not
// journaled; restored results have a nil Trace.
func (jr *JournalResult) Restore() *mapreduce.Result {
	if jr == nil {
		return nil
	}
	outs := make([]mapreduce.KeyEstimate, 0, len(jr.Outputs))
	for _, e := range jr.Outputs {
		outs = append(outs, mapreduce.KeyEstimate{
			Key: e.Key,
			Est: stats.Estimate{
				Value:  float64(e.Value),
				Err:    float64(e.Err),
				StdErr: float64(e.StdErr),
				DF:     float64(e.DF),
				Conf:   float64(e.Conf),
			},
			Exact: e.Exact,
		})
	}
	return &mapreduce.Result{
		Job:      jr.Job,
		Outputs:  outs,
		Runtime:  jr.Runtime,
		EnergyWh: jr.EnergyWh,
		RealSecs: jr.RealSecs,
		Energy:   cluster.EnergyBreakdown{BusyJ: jr.BusyJ, IdleJ: jr.IdleJ, SleepJ: jr.SleepJ},
		Counters: jr.Counters,
	}
}

// Journal is the append-only JSONL write-ahead log. Methods must run on
// the goroutine driving the engine (or after it has stopped); the
// journal deliberately has no mutex so that misuse shows up under the
// race detector instead of hiding behind accidental serialization.
type Journal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	// dirty counts appended records not yet fsynced; syncEvery bounds
	// it (an append auto-commits at the threshold).
	dirty  int
	closed bool
}

// syncEvery is the auto-commit threshold: at most this many buffered
// records before an append forces an fsync. Submissions and drains
// commit explicitly regardless.
const syncEvery = 32

// OpenJournal opens (creating if absent) the journal at path, replays
// the existing records, and positions the writer at the end. A torn
// final line — the signature of a crash mid-append — is tolerated and
// truncated away; corruption anywhere else is an error, because silently
// skipping interior records would un-journal acknowledged jobs.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, keep, err := readJournal(f)
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			return nil, nil, fmt.Errorf("journal: %w (and close failed: %v)", err, cerr)
		}
		return nil, nil, err
	}
	if err := f.Truncate(keep); err != nil {
		if cerr := f.Close(); cerr != nil {
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w (and close failed: %v)", err, cerr)
		}
		return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(keep, 0); err != nil {
		if cerr := f.Close(); cerr != nil {
			return nil, nil, fmt.Errorf("journal: %w (and close failed: %v)", err, cerr)
		}
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, f: f, w: bufio.NewWriter(f)}
	return j, recs, nil
}

// readJournal parses records from the start of f, returning them plus
// the byte offset of the last fully parsed line (everything past it is
// a torn tail to truncate).
func readJournal(f *os.File) ([]JournalRecord, int64, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	var (
		recs []JournalRecord
		keep int64
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // the scanner strips the newline
		if len(bytes.TrimSpace(line)) == 0 {
			keep += lineLen
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A parse failure on what the file claims is a complete
			// line (newline present) is interior corruption only if
			// more records follow; otherwise it is the torn tail of a
			// crashed append and is dropped.
			rest := make([]byte, 1)
			if n, _ := f.ReadAt(rest, keep+lineLen); n > 0 {
				return nil, 0, fmt.Errorf("journal: corrupt record at byte %d: %w", keep, err)
			}
			return recs, keep, nil
		}
		recs = append(recs, rec)
		keep += lineLen
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	return recs, keep, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append buffers one record, auto-committing when syncEvery records
// have accumulated. The record is not durable until the next Commit.
func (j *Journal) Append(rec JournalRecord) error {
	if j.closed {
		return fmt.Errorf("journal: append after close")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.dirty++
	if j.dirty >= syncEvery {
		return j.Commit()
	}
	return nil
}

// Commit flushes buffered records and fsyncs the file. A no-op when
// nothing is dirty, so quiescent-point callers can invoke it freely.
func (j *Journal) Commit() error {
	if j.closed || j.dirty == 0 {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = 0
	return nil
}

// Close commits and closes the journal. Idempotent: second and later
// calls are no-ops, so Service.Close and daemon teardown may both call
// it.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	err := j.Commit()
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
