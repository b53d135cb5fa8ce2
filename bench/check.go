package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"autopipe"
	"autopipe/internal/server"
)

// outcome is the part of a job's result the correctness check compares:
// the simulation is deterministic, so a spec must give the same plan,
// throughput, batch count and controller decisions wherever it runs.
type outcome struct {
	FinalPlan       autopipe.Plan `json:"final_plan"`
	Throughput      float64       `json:"throughput"`
	Batches         int           `json:"batches"`
	Decisions       int           `json:"decisions"`
	SwitchesApplied int           `json:"switches_applied"`
}

func outcomeOf(r *autopipe.JobResult) string {
	b, _ := json.Marshal(outcome{ // a struct of plain fields always encodes
		FinalPlan: r.FinalPlan, Throughput: r.Throughput, Batches: r.Batches,
		Decisions: r.Controller.Decisions, SwitchesApplied: r.Controller.SwitchesApplied,
	})
	return string(b)
}

// reference runs each catalogue spec marked in used once, in-process, on
// a registry with the daemon's Options, and returns each one's outcome
// (by catalogue index).
func reference(ctx context.Context, w Workload, used []bool) ([]string, error) {
	reg := server.NewRegistryWithOptions(daemonOptions(w))
	defer reg.Shutdown(context.Background())
	ids := make([]string, len(w.Specs))
	for i, spec := range w.Specs {
		if !used[i] {
			continue
		}
		info, err := reg.Submit(spec)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s spec %d: %w", w.Name, i, err)
		}
		ids[i] = info.ID
	}
	out := make([]string, len(w.Specs))
	for i, id := range ids {
		for id != "" {
			info, err := reg.Get(id)
			if err != nil {
				return nil, err
			}
			// A done job's result is published a moment after its state.
			if st := info.Status.State; st == autopipe.JobDone && info.Result != nil {
				out[i] = outcomeOf(info.Result)
				break
			} else if st != autopipe.JobQueued && st != autopipe.JobRunning && st != autopipe.JobDone {
				return nil, fmt.Errorf("reference run of %s spec %d ended %s: %s", w.Name, i, st, info.Status.Error)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	return out, nil
}
