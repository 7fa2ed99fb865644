package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/md"
	"repro/internal/pmd"
)

// SSE event types emitted on /v1/jobs/<id>/events. Step and terminal
// events carry deterministic ids (step N → id N+1; the terminal event is
// always id spec.Steps+1, above every possible step id), so a client that
// reconnects with Last-Event-ID resumes exactly where it left off — even
// across a server crash, because a reopened server re-derives the same
// ids while it recomputes the identical steps. Progress events and
// heartbeats carry no id: they describe this process's lifecycle, not the
// job's deterministic content, and are never replayed.
const (
	EventProgress = "progress"
	EventStep     = "step"
)

// event is one buffered or broadcast SSE frame. id 0 means "no id".
type event struct {
	id   int
	typ  string
	data []byte
}

// stepEventData is the JSON payload of a step event: the step's energy
// decomposition plus the classic/PME phase split of its virtual wall
// time — the live view of the same numbers the attribution profiler
// aggregates after the run.
type stepEventData struct {
	Step     int     `json:"step"`
	Total    float64 `json:"total"`
	Classic  float64 `json:"classic"`
	PME      float64 `json:"pme"`
	Kinetic  float64 `json:"kinetic"`
	ClassicS float64 `json:"classic_wall_s"`
	PMES     float64 `json:"pme_wall_s"`
}

// progressEventData is the JSON payload of a progress event.
type progressEventData struct {
	Status     string `json:"status"`
	Attempts   int    `json:"attempts,omitempty"`
	ResumeStep int    `json:"resume_step,omitempty"`
}

// broadcast delivers e to every live subscriber without blocking: a
// subscriber whose buffer is full misses the frame and recovers it on
// reconnect from the replay buffer. Id-carrying events at or below a
// subscriber's Last-Event-ID are skipped — after a crash the reopened
// server recomputes (and re-publishes) steps the client already has.
// Caller holds j.mu.
func (j *jobState) broadcast(e event) {
	for ch, lastID := range j.subs {
		if e.id > 0 && e.id <= lastID {
			continue
		}
		select {
		case ch <- e:
		default:
		}
	}
}

// step publishes one completed MD step. Rewound steps re-fire from the
// engine after a rank crash; steps arriving out of monotone order are
// dropped, so subscribers see each step exactly once and in order.
func (j *jobState) step(step int, timing pmd.StepTiming, energy md.EnergyReport) {
	data, err := json.Marshal(stepEventData{
		Step:     step,
		Total:    energy.Total(),
		Classic:  energy.Classic(),
		PME:      energy.PME(),
		Kinetic:  energy.Kinetic,
		ClassicS: timing.Classic.Wall,
		PMES:     timing.PME.Wall,
	})
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) || step <= j.lastStep {
		return
	}
	j.lastStep = step
	e := event{id: step + 1, typ: EventStep, data: data}
	j.events = append(j.events, e)
	j.broadcast(e)
}

// subscribe registers a stream resuming after lastID: buffered events
// with greater ids are returned for immediate replay, and live events
// follow on the channel. ch is nil when the job is already terminal — the
// replay then already ends with the terminal event (or is empty if the
// client saw it). cancel is safe to call in every case.
func (j *jobState) subscribe(lastID int) (replay []event, ch chan event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range j.events {
		if e.id > lastID {
			replay = append(replay, e)
		}
	}
	if terminalStatus(j.status) {
		return replay, nil, func() {}
	}
	// Room for a whole run's frames between two reads of a slow client:
	// broadcast never blocks the engine, it drops.
	ch = make(chan event, 1024)
	j.subs[ch] = lastID
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// writeSSE renders one frame in text/event-stream format. Multi-line data
// is split over data: lines per the SSE spec (a consumer joins them with
// a single newline).
func writeSSE(w io.Writer, e event) {
	if e.id > 0 {
		fmt.Fprintf(w, "id: %d\n", e.id)
	}
	fmt.Fprintf(w, "event: %s\n", e.typ)
	for _, line := range strings.Split(string(e.data), "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	fmt.Fprint(w, "\n")
}
