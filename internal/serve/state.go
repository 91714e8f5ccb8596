package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"rewire"
	"rewire/internal/durable"
)

// jobRecord is the on-disk form of one job: everything needed to re-present
// its status and stream after a restart, plus — for paused jobs — the
// checkpoint that makes resumption byte-identical across processes.
type jobRecord struct {
	ID         string          `json:"id"`
	Spec       JobSpec         `json:"spec"`
	State      State           `json:"state"`
	Samples    []rewire.Sample `json:"samples,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	Error      string          `json:"error,omitempty"`
	Estimate   float64         `json:"estimate,omitempty"`
	EstimateOK bool            `json:"estimate_ok,omitempty"`
}

// serverRecord is the on-disk form of the server's own durable state.
type serverRecord struct {
	NextID int `json:"next_id"`
	// Budgets is tenant → backend URL → unique-query cap, reapplied to each
	// provider as its backend reopens.
	Budgets map[string]map[string]int64 `json:"budgets,omitempty"`
}

// SaveState writes the server's durable state into dir: one job-<id>.json
// per job plus server.json. Call it after Drain — a drained server has no
// running jobs, so every record is settled (paused jobs carry their
// checkpoints). Files are written via the durable package's fsync'd
// temp-and-rename, so a crash mid-save — even a power cut — never leaves a
// half-written or missing record where a complete one existed.
func (s *Server) SaveState(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating state dir: %w", err)
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	rec := serverRecord{NextID: s.nextID, Budgets: make(map[string]map[string]int64, len(s.budgets))}
	for tenant, perURL := range s.budgets {
		cp := make(map[string]int64, len(perURL))
		for url, n := range perURL {
			cp[url] = n
		}
		rec.Budgets[tenant] = cp
	}
	s.mu.Unlock()

	for _, j := range jobs {
		j.mu.Lock()
		jr := jobRecord{
			ID:         j.id,
			Spec:       j.spec,
			State:      j.state,
			Samples:    j.samples[:len(j.samples):len(j.samples)],
			Checkpoint: j.checkpoint,
			Estimate:   j.estimate,
			EstimateOK: j.estimateOK,
		}
		if j.runErr != nil {
			jr.Error = j.runErr.Error()
		}
		j.mu.Unlock()
		if jr.State == StateRunning {
			// SaveState without a prior Drain: the live session's walkers
			// can't be serialized mid-run, so the record demotes the job to
			// cancelled rather than persisting a lie.
			jr.State = StateCancelled
		}
		if err := writeFileAtomic(filepath.Join(dir, "job-"+j.id+".json"), jr); err != nil {
			return err
		}
	}
	return writeFileAtomic(filepath.Join(dir, "server.json"), rec)
}

// writeFileAtomic encodes v and commits it through durable.WriteFileAtomic —
// unique temp file, fsync, rename, directory fsync. The old fixed-name
// ".tmp" + rename here survived process crashes but not power loss (nothing
// was synced), and racing savers could clobber each other's temp file; both
// holes closed by unifying on the durable helper.
func writeFileAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding %s: %w", filepath.Base(path), err)
	}
	if err := durable.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("serve: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LoadState restores the state SaveState wrote: terminal jobs come back
// queryable (status, replayable stream, estimate), paused jobs come back
// resumable — POST /v1/jobs/{id}/resume reopens the backend and continues
// the trajectory exactly where the previous process stopped it. Call it on
// a fresh server, before serving requests. A missing dir is an empty state,
// not an error.
func (s *Server) LoadState(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: reading state dir: %w", err)
	}
	var rec serverRecord
	if data, err := os.ReadFile(filepath.Join(dir, "server.json")); err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("serve: decoding server.json: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("serve: reading server.json: %w", err)
	}

	var jobs []*job
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("serve: reading %s: %w", name, err)
		}
		var jr jobRecord
		if err := json.Unmarshal(data, &jr); err != nil {
			return fmt.Errorf("serve: decoding %s: %w", name, err)
		}
		if jr.ID == "" || jr.State == "" {
			return fmt.Errorf("serve: %s: record missing id or state", name)
		}
		switch {
		case jr.State == StateRunning, jr.State == StatePaused && len(jr.Checkpoint) == 0:
			// No runner survives a restart, and a paused job is unresumable
			// without its checkpoint: demote both, as SaveState does a
			// running job, so nothing waits on a job that cannot move.
			jr.State = StateCancelled
		case jr.State != StatePaused && !terminal(jr.State):
			return fmt.Errorf("serve: %s: unknown job state %q", name, jr.State)
		}
		j := &job{
			id:         jr.ID,
			spec:       jr.Spec,
			state:      jr.State,
			samples:    jr.Samples,
			wake:       make(chan struct{}),
			checkpoint: jr.Checkpoint,
			estimate:   jr.Estimate,
			estimateOK: jr.EstimateOK,
		}
		if jr.Error != "" {
			j.runErr = fmt.Errorf("%s", jr.Error)
		}
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(jobIDNum(a.id), jobIDNum(b.id)) })

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		if _, dup := s.jobs[j.id]; dup {
			return fmt.Errorf("serve: duplicate job id %s in state dir", j.id)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if n := jobIDNum(j.id); n > s.nextID {
			s.nextID = n
		}
	}
	if rec.NextID > s.nextID {
		s.nextID = rec.NextID
	}
	for tenant, perURL := range rec.Budgets {
		dst := s.budgets[tenant]
		if dst == nil {
			dst = make(map[string]int64, len(perURL))
			s.budgets[tenant] = dst
		}
		for url, n := range perURL {
			dst[url] = n
		}
	}
	return nil
}

// jobIDNum extracts the numeric suffix of a "j<n>" id (0 when malformed).
func jobIDNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}
