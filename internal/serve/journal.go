package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/md"
)

// journal is the durable accepted-job record: one JSON file per job,
// written atomically BEFORE the 202 response and removed only AFTER the
// job's result reaches the store (or its lifecycle otherwise terminates).
// The window in between is exactly the work a crash can interrupt, and
// replaying the surviving files on reopen re-runs exactly that work —
// which is safe because execution is deterministic and the store is
// idempotent.
type journal struct {
	dir string
}

// journalEntry is one accepted job.
type journalEntry struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	Key      string    `json:"key"`
	Spec     JobSpec   `json:"spec"`
	Deadline int64     `json:"deadline_ms"` // job deadline budget in ms
	Accepted time.Time `json:"accepted"`
}

func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return &journal{dir: dir}, nil
}

func (j *journal) path(id string) string { return filepath.Join(j.dir, id+".json") }

// append persists one accepted job (atomic temp + rename, like the store).
func (j *journal) append(e journalEntry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return Errf(KindInternal, "journal marshal: %v", err)
	}
	if err := md.WriteFileAtomic(j.path(e.ID), e.ID+"-*.tmp", buf); err != nil {
		return Errf(KindTransient, "journal: %v", err)
	}
	return nil
}

// remove forgets a terminated job. Missing files are fine (idempotent).
func (j *journal) remove(id string) {
	_ = os.Remove(j.path(id))
}

// replay returns every surviving accepted job, its spec normalised, plus
// the count of files skipped: unreadable, torn (a torn write can only
// damage a job the client never got a 202 for, so skipping is sound), or
// from an incompatible format — a spec that no longer re-normalises to
// its own key and ID, which dropping is the only safe move for.
func (j *journal) replay() ([]journalEntry, int, error) {
	files, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	var out []journalEntry
	skipped := 0
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		if strings.HasSuffix(f.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(j.dir, f.Name()))
			continue
		}
		buf, err := os.ReadFile(filepath.Join(j.dir, f.Name()))
		if err != nil {
			skipped++
			continue
		}
		var e journalEntry
		if json.Unmarshal(buf, &e) != nil || e.ID+".json" != f.Name() ||
			e.Spec.Normalize() != nil || e.Spec.Key() != e.Key || JobID(e.Key) != e.ID {
			skipped++
			_ = os.Remove(filepath.Join(j.dir, f.Name()))
			continue
		}
		out = append(out, e)
	}
	return out, skipped, nil
}
