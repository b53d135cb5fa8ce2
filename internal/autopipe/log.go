package autopipe

import (
	"fmt"

	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

// DecisionRecord captures one reconfiguration decision for post-hoc
// analysis (exposed by cmd/autopipe-sim -v and usable as training data
// for further offline rounds). It serialises through encoding/json
// (snake_case field names); the wire form is shared by `autopipe-sim
// -json` and the autopiped daemon's API.
type DecisionRecord struct {
	// At is the virtual time of the decision; Iteration its index.
	At        sim.Time `json:"at"`
	Iteration int      `json:"iteration"`
	// Kind is "keep", "switch", "inflight", "evict".
	Kind string `json:"kind"`
	// PredCurrent/PredCandidate are the predictor's scores (samples/s).
	PredCurrent   float64 `json:"pred_current"`
	PredCandidate float64 `json:"pred_candidate"`
	// SwitchCost is the predicted switching cost in seconds.
	SwitchCost float64 `json:"switch_cost_sec"`
	// Candidate is the plan under consideration (zero for "keep" with no
	// viable candidate).
	Candidate partition.Plan `json:"candidate"`
}

// String renders a one-line summary.
func (d DecisionRecord) String() string {
	switch d.Kind {
	case "keep":
		return fmt.Sprintf("t=%.2f it=%d keep (cur %.1f, best cand %.1f, cost %.2fs)",
			float64(d.At), d.Iteration, d.PredCurrent, d.PredCandidate, d.SwitchCost)
	case "evict":
		return fmt.Sprintf("t=%.2f it=%d evict → %s", float64(d.At), d.Iteration, d.Candidate)
	default:
		return fmt.Sprintf("t=%.2f it=%d %s → %s (%.1f→%.1f, cost %.2fs)",
			float64(d.At), d.Iteration, d.Kind, d.Candidate, d.PredCurrent, d.PredCandidate, d.SwitchCost)
	}
}

// maxLogEntries bounds the in-memory decision log.
const maxLogEntries = 1024

func (c *Controller) logDecision(r DecisionRecord) {
	r.At = c.eng.Now()
	r.Iteration = c.stats.Iterations
	c.decisionsLogged++
	c.decisionLog = append(c.decisionLog, r)
	if len(c.decisionLog) > maxLogEntries {
		c.decisionLog = c.decisionLog[len(c.decisionLog)-maxLogEntries:]
	}
}

// DecisionsLogged counts every decision ever logged, including those
// the bounded log has since dropped: a RecentDecisions copy stays
// current until the count moves.
func (c *Controller) DecisionsLogged() uint64 { return c.decisionsLogged }

// DecisionLog returns the recorded reconfiguration decisions (most
// recent maxLogEntries).
func (c *Controller) DecisionLog() []DecisionRecord {
	return append([]DecisionRecord(nil), c.decisionLog...)
}

// RecentDecisions returns at most the last n decisions. Unlike
// DecisionLog it copies only the tail, so per-iteration status
// snapshotting stays cheap.
func (c *Controller) RecentDecisions(n int) []DecisionRecord {
	if n <= 0 || len(c.decisionLog) == 0 {
		return nil
	}
	if n > len(c.decisionLog) {
		n = len(c.decisionLog)
	}
	return append([]DecisionRecord(nil), c.decisionLog[len(c.decisionLog)-n:]...)
}
