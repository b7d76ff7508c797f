package approxhadoop

import (
	"bytes"
	"errors"
	"fmt"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
)

// Approximation is the paper's Section 4.2 job-submission contract:
// explicit dropping/sampling ratios, a target error bound at a
// confidence level, or a deadline; the zero value runs precisely. It is
// the same type a job-service spec embeds (approx.Approximation).
type Approximation = approx.Approximation

// System is an ApproxHadoop deployment: a simulated cluster plus a DFS
// namespace. Each job runs on a fresh cluster timeline. Use Submit with
// an Approximation spec for the paper's submission interface, or Run
// for a fully-specified job.
type System struct {
	cfg      cluster.Config
	nameNode *dfs.NameNode
}

// NewSystem builds a System with the given cluster configuration.
func NewSystem(cfg ClusterConfig) *System {
	eng := cluster.New(cfg)
	servers := make([]string, 0, len(eng.Servers()))
	for _, s := range eng.Servers() {
		servers = append(servers, s.ID)
	}
	return &System{cfg: cfg, nameNode: dfs.NewNameNode(servers, 3)}
}

// Cluster returns the system's cluster configuration.
func (s *System) Cluster() ClusterConfig { return s.cfg }

// Store registers a file with the NameNode (assigning block replicas
// across the simulated servers for locality-aware scheduling).
func (s *System) Store(f *File) error { return s.nameNode.Register(f) }

// File looks up a stored file by name.
func (s *System) File(name string) (*File, error) { return s.nameNode.File(name) }

// Files lists stored file names.
func (s *System) Files() []string { return s.nameNode.List() }

// Run executes a fully-specified job on a fresh cluster.
func (s *System) Run(job *Job) (*Result, error) {
	return mapreduce.Run(cluster.New(s.cfg), job)
}

// Submit applies an Approximation spec to the job and runs it: the
// paper's submission interface. The job's Controller must be unset —
// Submit owns that decision. A spec controller also forces the
// sampling input format when the job did not set one, so explicit
// SampleRatio specs actually sample.
func (s *System) Submit(job *Job, spec Approximation) (*Result, error) {
	if job.Controller != nil {
		return nil, errors.New("approxhadoop: job already has a controller; use Run")
	}
	set, err := spec.Settings()
	if err != nil {
		return nil, err
	}
	job.Controller = set.Controller
	set.Apply(job)
	if job.Controller != nil && job.Format == nil {
		job.Format = approx.ApproxTextInput{}
	}
	return s.Run(job)
}

// RunPair executes the job precisely and under the given spec on
// identical data, returning both results — the evaluation idiom used
// throughout Section 5 (actual error = approximate vs precise). A spec
// that selects no controller returns the precise result twice.
func (s *System) RunPair(build func() *Job, spec Approximation) (precise, apx *Result, err error) {
	set, err := spec.Settings()
	if err != nil {
		return nil, nil, err
	}
	precise, err = s.Run(build())
	if err != nil {
		return nil, nil, fmt.Errorf("approxhadoop: precise run: %w", err)
	}
	if set.Controller == nil {
		return precise, precise, nil
	}
	apx, err = s.Submit(build(), spec)
	if err != nil {
		return nil, nil, fmt.Errorf("approxhadoop: approximate run: %w", err)
	}
	return precise, apx, nil
}

// StoreResult completes the paper's Figure 4 pipeline: the reduce
// tasks' ApproxOutput is written back into the DFS namespace as an
// output file (one TSV block per reduce partition's key range,
// approximated here as fixed-size blocks). The file is named
// "<job>.out" unless name is non-empty.
func (s *System) StoreResult(res *Result, name string) (*File, error) {
	if name == "" {
		name = res.Job + ".out"
	}
	var buf bytes.Buffer
	if err := mapreduce.WriteTSV(&buf, res); err != nil {
		return nil, fmt.Errorf("approxhadoop: serializing result: %w", err)
	}
	f := dfs.SplitText(name, buf.Bytes(), 1<<20)
	if len(f.Blocks) == 0 {
		// An empty result still materializes as an empty file.
		f.Blocks = append(f.Blocks, dfs.NewByteBlock(name, 0, nil, 0))
	}
	if err := s.Store(f); err != nil {
		return nil, err
	}
	return f, nil
}
